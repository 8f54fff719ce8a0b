// Telemetry layer tests (docs/OBSERVABILITY.md): the lock-free SPSC ring's
// drop-oldest accounting and torn-read impossibility under a hammering
// producer, the CoordCapture seqlock double buffer, the in-situ RDF/MSD
// math against analytic cases, and the Hub end-to-end — a live melt run
// streaming snapshots + NDJSON, and a clean shutdown with full rings.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "minilammps.hpp"
#include "server/scheduler.hpp"
#include "test_helpers.hpp"
#include "tools/json.hpp"
#include "tools/telemetry/telemetry.hpp"

namespace mlk {
namespace {

namespace tel = tools::telemetry;
namespace fs = std::filesystem;

std::string slurp(const std::string& p) {
  std::ifstream f(p);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

// ---------------------------------------------------------------------------
// TelemetryRing
// ---------------------------------------------------------------------------

struct Seq {
  std::uint64_t seq = 0;
};

TEST(TelemetryRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(tel::TelemetryRing<Seq>(0).capacity(), 2u);
  EXPECT_EQ(tel::TelemetryRing<Seq>(1).capacity(), 2u);
  EXPECT_EQ(tel::TelemetryRing<Seq>(5).capacity(), 8u);
  EXPECT_EQ(tel::TelemetryRing<Seq>(64).capacity(), 64u);
  EXPECT_EQ(tel::TelemetryRing<Seq>(65).capacity(), 128u);
}

TEST(TelemetryRing, FifoOrderNoDropsBelowCapacity) {
  tel::TelemetryRing<Seq> ring(128);
  for (std::uint64_t i = 0; i < 100; ++i) ring.push(Seq{i});
  EXPECT_EQ(ring.pushed(), 100u);
  EXPECT_EQ(ring.approx_size(), 100u);

  Seq s;
  for (std::uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(ring.pop(s));
    EXPECT_EQ(s.seq, i);
  }
  EXPECT_FALSE(ring.pop(s));
  EXPECT_EQ(ring.drops(), 0u);
}

TEST(TelemetryRing, DropOldestIsExact) {
  tel::TelemetryRing<Seq> ring(16);
  const std::uint64_t n = 1000;
  for (std::uint64_t i = 0; i < n; ++i) ring.push(Seq{i});
  EXPECT_EQ(ring.pushed(), n);
  EXPECT_EQ(ring.approx_size(), ring.capacity());

  // The survivors are exactly the newest `capacity` samples, in order.
  Seq s;
  std::uint64_t popped = 0;
  std::uint64_t expect = n - ring.capacity();
  while (ring.pop(s)) {
    EXPECT_EQ(s.seq, expect++);
    ++popped;
  }
  EXPECT_EQ(popped, ring.capacity());
  EXPECT_EQ(popped + ring.drops(), ring.pushed());
}

TEST(TelemetryRing, InterleavedLapsKeepAccountingExact) {
  tel::TelemetryRing<Seq> ring(8);
  std::uint64_t pushed = 0, popped = 0;
  std::uint64_t last = 0;
  bool have_last = false;
  Seq s;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 3; ++i) ring.push(Seq{pushed++});
    if (ring.pop(s)) {
      if (have_last) {
        EXPECT_GT(s.seq, last);
      }
      last = s.seq;
      have_last = true;
      ++popped;
    }
    // Every few rounds, lap the consumer hard.
    if (round % 7 == 0)
      for (int i = 0; i < 20; ++i) ring.push(Seq{pushed++});
  }
  while (ring.pop(s)) {
    EXPECT_GT(s.seq, last);
    last = s.seq;
    ++popped;
  }
  EXPECT_EQ(popped + ring.drops(), pushed);
  EXPECT_EQ(ring.pushed(), pushed);
}

TEST(TelemetryRing, ProducerProgressesAgainstStalledConsumer) {
  // Wait-free producer contract: with nobody draining, pushes keep landing
  // (overwriting the oldest) instead of blocking or failing.
  tel::TelemetryRing<Seq> ring(16);
  for (std::uint64_t i = 0; i < 10 * ring.capacity(); ++i) ring.push(Seq{i});
  EXPECT_EQ(ring.pushed(), 10 * ring.capacity());
  EXPECT_EQ(ring.approx_size(), ring.capacity());

  Seq s;
  std::uint64_t popped = 0;
  while (ring.pop(s)) ++popped;
  EXPECT_EQ(popped, ring.capacity());
  EXPECT_EQ(popped + ring.drops(), ring.pushed());
}

// Payload whose fields are all derived from the sequence number: any torn
// read (fields from two different generations) breaks the checksum.
struct Stamped {
  std::uint64_t seq;
  std::uint64_t a;
  std::uint64_t b;
  std::uint64_t check;
};

Stamped make_stamped(std::uint64_t seq) {
  Stamped s;
  s.seq = seq;
  s.a = seq * 2654435761ull + 17;
  s.b = ~seq;
  s.check = s.seq ^ s.a ^ s.b;
  return s;
}

TEST(TelemetryRing, HammeredConsumerNeverSeesTornSample) {
  tel::TelemetryRing<Stamped> ring(64);
  const std::uint64_t n = 200000;

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> popped{0};
  std::atomic<std::uint64_t> torn{0};
  std::atomic<std::uint64_t> out_of_order{0};

  std::thread consumer([&] {
    // Start only once the producer has lapped the ring, so the first pop
    // drops on every schedule; the producer keeps overwriting from here on.
    while (ring.pushed() <= ring.capacity()) std::this_thread::yield();
    Stamped s;
    std::uint64_t last = 0;
    bool have_last = false;
    for (;;) {
      if (!ring.pop(s)) {
        if (done.load(std::memory_order_acquire)) {
          if (!ring.pop(s)) break;  // ring confirmed empty after done
        } else {
          std::this_thread::yield();
          continue;
        }
      }
      const Stamped want = make_stamped(s.seq);
      if (s.a != want.a || s.b != want.b || s.check != want.check)
        torn.fetch_add(1);
      if (have_last && s.seq <= last) out_of_order.fetch_add(1);
      last = s.seq;
      have_last = true;
      popped.fetch_add(1);
    }
  });

  for (std::uint64_t i = 0; i < n; ++i) ring.push(make_stamped(i));
  done.store(true, std::memory_order_release);
  consumer.join();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(out_of_order.load(), 0u);
  EXPECT_EQ(ring.pushed(), n);
  // Exactness: every sequence number was returned once or dropped once.
  EXPECT_EQ(popped.load() + ring.drops(), n);
  // The consumer started after the producer lapped the 64-slot ring: at
  // least something must have been popped and something dropped.
  EXPECT_GT(popped.load(), 0u);
  EXPECT_GT(ring.drops(), 0u);
}

// ---------------------------------------------------------------------------
// CoordCapture
// ---------------------------------------------------------------------------

TEST(CoordCapture, LatestWinsAndRegrowKeepsReadsValid) {
  tel::CoordCapture cap;
  tel::CoordCapture::Snapshot snap;
  EXPECT_FALSE(cap.read(snap));  // nothing captured yet

  const double prd[3] = {10.0, 10.0, 10.0};
  auto capture = [&](std::size_t n, std::int64_t step, double fill) {
    auto buf = cap.begin(n);
    for (std::size_t i = 0; i < 3 * n; ++i) buf.x[i] = fill;
    for (std::size_t i = 0; i < n; ++i) buf.tag[i] = std::int64_t(i) + 1;
    cap.end(step, prd);
  };

  capture(4, 10, 1.0);
  ASSERT_TRUE(cap.read(snap));
  EXPECT_EQ(snap.step, 10);
  EXPECT_EQ(snap.natoms(), 4u);
  EXPECT_DOUBLE_EQ(snap.x[0], 1.0);
  EXPECT_FALSE(cap.read(snap));  // nothing newer than snap.gen

  // Growing captures force the regrow path; the newest always wins.
  capture(8, 20, 2.0);
  capture(100, 30, 3.0);
  ASSERT_TRUE(cap.read(snap));
  EXPECT_EQ(snap.step, 30);
  EXPECT_EQ(snap.natoms(), 100u);
  for (double v : snap.x) EXPECT_DOUBLE_EQ(v, 3.0);
  EXPECT_EQ(cap.captures(), 3u);
}

TEST(CoordCapture, ConcurrentReadsAreNeverTorn) {
  tel::CoordCapture cap;
  const std::size_t n = 64;
  const double prd[3] = {10.0, 10.0, 10.0};
  const std::uint64_t gens = 20000;

  std::atomic<bool> done{false};
  std::thread producer([&] {
    for (std::uint64_t g = 1; g <= gens; ++g) {
      auto buf = cap.begin(n);
      // Every coordinate and tag of generation g encodes g: a mixed copy
      // is detectable.
      for (std::size_t i = 0; i < n; ++i)
        buf.set(i, double(g), double(g), double(g), std::int64_t(g));
      cap.end(std::int64_t(g), prd);
    }
    done.store(true, std::memory_order_release);
  });

  tel::CoordCapture::Snapshot snap;
  std::uint64_t reads = 0, torn = 0;
  while (!done.load(std::memory_order_acquire) || reads == 0) {
    if (!cap.read(snap)) continue;
    ++reads;
    const double want = double(snap.tag[0]);
    for (std::size_t i = 0; i < snap.x.size(); ++i)
      if (snap.x[i] != want) ++torn;
    for (std::size_t i = 0; i < snap.natoms(); ++i)
      if (snap.tag[i] != snap.tag[0]) ++torn;
    if (std::int64_t(snap.gen) != snap.tag[0]) ++torn;
  }
  producer.join();

  EXPECT_EQ(torn, 0u);
  EXPECT_GT(reads, 0u);
  EXPECT_EQ(cap.captures(), gens);
}

// ---------------------------------------------------------------------------
// In-situ analysis math
// ---------------------------------------------------------------------------

TEST(Insitu, MinImageWrapsToNearestPeriodicImage) {
  EXPECT_DOUBLE_EQ(tel::min_image(0.3, 10.0), 0.3);
  EXPECT_DOUBLE_EQ(tel::min_image(9.4, 10.0), -0.6);
  EXPECT_DOUBLE_EQ(tel::min_image(-9.4, 10.0), 0.6);
  EXPECT_DOUBLE_EQ(tel::min_image(7.0, 0.0), 7.0);  // non-periodic passthrough
}

TEST(Insitu, RdfTwoAtomAnalyticCase) {
  // Two atoms 1.05 apart in a 20^3 box: exactly one pair, landing in bin 5
  // of 10 over rcut 2.0, with g(r) = 1 / ideal_pairs for that shell.
  const double prd[3] = {20.0, 20.0, 20.0};
  const std::vector<double> x = {0.0, 0.0, 0.0, 1.05, 0.0, 0.0};
  const int nbins = 10;
  const double rcut = 2.0;
  const auto res = tel::rdf_from_coords(x.data(), 2, prd, nbins, rcut);

  ASSERT_EQ(res.gr.size(), std::size_t(nbins));
  const double dr = rcut / nbins;
  constexpr double kPi = 3.14159265358979323846;
  const double r_lo = 5 * dr, r_hi = 6 * dr;
  const double shell =
      4.0 / 3.0 * kPi * (r_hi * r_hi * r_hi - r_lo * r_lo * r_lo);
  const double rho = 2.0 / (prd[0] * prd[1] * prd[2]);
  const double ideal_pairs = 0.5 * 2.0 * rho * shell;
  for (int b = 0; b < nbins; ++b) {
    if (b == 5)
      EXPECT_NEAR(res.gr[std::size_t(b)], 1.0 / ideal_pairs, 1e-12);
    else
      EXPECT_DOUBLE_EQ(res.gr[std::size_t(b)], 0.0);
  }
  EXPECT_NEAR(res.r_peak, (5 + 0.5) * dr, 1e-12);
  EXPECT_EQ(res.atoms_used, 2u);
}

TEST(Insitu, RdfSeparationAcrossBoundaryUsesMinimumImage) {
  // 19.5 apart in a 20-box is 0.5 by minimum image.
  const double prd[3] = {20.0, 20.0, 20.0};
  const std::vector<double> x = {0.2, 0.0, 0.0, 19.7, 0.0, 0.0};
  const auto res = tel::rdf_from_coords(x.data(), 2, prd, 10, 2.0);
  EXPECT_NEAR(res.r_peak, 0.5, 0.1 + 1e-12);  // bin 2 center = 0.5
  EXPECT_GT(res.peak, 0.0);
}

TEST(Insitu, MsdUnwrapsAcrossPeriodicBoundary) {
  tel::MsdTracker msd;
  const double prd[3] = {10.0, 10.0, 10.0};
  const std::int64_t tags[2] = {1, 2};

  // Both atoms drift +0.6/observation in x, wrapped into [0, 10).
  double pos[2] = {9.5, 4.0};
  auto observe = [&] {
    double x[6] = {pos[0], 0.0, 0.0, pos[1], 0.0, 0.0};
    return msd.observe(x, tags, 2, prd);
  };

  EXPECT_DOUBLE_EQ(observe(), 0.0);  // first observation is the reference
  for (int k = 1; k <= 8; ++k) {
    for (double& p : pos) {
      p += 0.6;
      if (p >= 10.0) p -= 10.0;  // atom 1 wraps on the first move
    }
    const double got = observe();
    const double want = (0.6 * k) * (0.6 * k);
    EXPECT_NEAR(got, want, 1e-9) << "after " << k << " moves";
  }
  EXPECT_EQ(msd.tracked(), 2u);
  msd.reset();
  EXPECT_EQ(msd.tracked(), 0u);
  EXPECT_DOUBLE_EQ(msd.msd(), 0.0);
}

TEST(Insitu, ComputeMsdMatchesTrackerOnStaticSystem) {
  // A freshly created system that has not moved has MSD exactly 0; the
  // engine compute must agree with the tracker's convention.
  auto sim = testing::make_lj_system(2, 0.8442, 0.0, "lj/cut", 0.0);
  Input in(*sim);
  in.line("compute msd1 all msd");
  sim->setup();
  Compute* c = in.find_compute("msd1");
  ASSERT_NE(c, nullptr);
  EXPECT_DOUBLE_EQ(c->compute_scalar(*sim), 0.0);
  EXPECT_DOUBLE_EQ(c->compute_scalar(*sim), 0.0);  // still the reference
}

// ---------------------------------------------------------------------------
// Hub — end-to-end streaming and shutdown semantics
// ---------------------------------------------------------------------------

TEST(TelemetryHub, MeltRunStreamsSnapshotAndNdjson) {
  const std::string path =
      (fs::temp_directory_path() / "mlk_tel_e2e.json").string();

  auto sim = testing::make_lj_system(2);
  Input in(*sim);
  in.line("thermo 10");
  // Input-command activation path (same parser as MLK_TELEMETRY).
  in.line("telemetry " + path + ":interval_ms=5,coords_every=10,rdf_bins=20");
  ASSERT_TRUE(tel::active());
  sim->setup();  // set-up's sections precede the run and its step records
  const TimerSet before = sim->timers;
  in.line("run 40");
  const TimerSet run = sim->timers.since(before);
  ASSERT_NE(sim->telemetry, nullptr);  // Verlet::begin attached to the hub

  tel::Hub::instance().drain_now();  // deterministic pass before we assert

  // Snapshot: a complete JSON document with live per-sim aggregation.
  const json::Value doc = json::parse(slurp(path));
  EXPECT_EQ(doc["schema"].str, "mlk-telemetry-1");
  EXPECT_GE(doc["pass"].number, 1.0);
  EXPECT_GT(doc["launches"]["total"].number, 0.0);
  ASSERT_TRUE(doc["sims"].is_array());
  ASSERT_EQ(doc["sims"].arr.size(), 1u);
  const json::Value& s = doc["sims"].arr[0];
  EXPECT_EQ(s["name"].str, "main");
  EXPECT_DOUBLE_EQ(s["drops"].number, 0.0);  // 40 steps << ring capacity
  EXPECT_DOUBLE_EQ(s["step"]["step"].number, 40.0);
  EXPECT_GE(s["step"]["wall_ms"].number, 0.0);
  EXPECT_DOUBLE_EQ(s["thermo"]["step"].number, 40.0);
  EXPECT_GT(s["thermo"]["temp"].number, 0.0);
  // In-situ ran on the consumer thread off captured coordinates.
  EXPECT_GE(s["insitu"]["captures"].number, 4.0);  // steps 10,20,30,40
  EXPECT_GT(s["insitu"]["rdf_peak"].number, 0.0);
  EXPECT_GE(s["insitu"]["msd"].number, 0.0);

  // Detach hands back exact per-producer accounting.
  tel::TelemetrySummary sum;
  sim->detach_telemetry(&sum);
  EXPECT_EQ(sum.steps_published, 40u);
  EXPECT_EQ(sum.last_step, 40);
  EXPECT_GE(sum.thermo_published, 4u);
  EXPECT_GE(sum.coord_captures, 4u);
  EXPECT_EQ(sum.drops, 0u);

  in.line("telemetry stop");
  EXPECT_FALSE(tel::active());
  EXPECT_FALSE(tel::Hub::instance().running());

  // NDJSON tail: every line parses; the run's 40 steps all landed (no
  // drops), thermo and insitu records are present.
  std::ifstream nd(path + ".ndjson");
  ASSERT_TRUE(nd.good());
  std::string line;
  int steps = 0, thermos = 0, insitus = 0;
  std::int64_t last_step = -1;
  double pair_ms = 0.0, neigh_ms = 0.0, comm_ms = 0.0;
  while (std::getline(nd, line)) {
    const json::Value v = json::parse(line);  // throws on a torn line
    const std::string& type = v["type"].str;
    if (type == "step") {
      ++steps;
      EXPECT_GT(std::int64_t(v["step"].number), last_step);
      last_step = std::int64_t(v["step"].number);
      pair_ms += v["pair_ms"].number;
      neigh_ms += v["neigh_ms"].number;
      comm_ms += v["comm_ms"].number;
    } else if (type == "thermo") {
      ++thermos;
    } else if (type == "insitu") {
      ++insitus;
    }
  }
  EXPECT_EQ(steps, 40);
  EXPECT_GE(thermos, 4);
  EXPECT_GE(insitus, 1);
  // One clock: the step records' section times add up to the run's timers
  // (each record carries a float ms, hence the 1 us tolerance).
  EXPECT_NEAR(pair_ms, 1e3 * run.total(Section::Pair), 1e-3);
  EXPECT_NEAR(neigh_ms, 1e3 * run.total(Section::Neigh), 1e-3);
  EXPECT_NEAR(comm_ms, 1e3 * run.total(Section::Comm), 1e-3);
  EXPECT_GT(pair_ms, 0.0);

  std::remove(path.c_str());
  std::remove((path + ".ndjson").c_str());
}

TEST(TelemetryHub, ShutdownWithFullRingsDrainsAndAccountsDrops) {
  const std::string path =
      (fs::temp_directory_path() / "mlk_tel_full.json").string();

  // A huge interval keeps the sink asleep: nothing drains until stop(),
  // so the final-drain path faces maximally full rings.
  tel::Config cfg;
  cfg.path = path;
  cfg.interval_ms = 60000;
  tel::Hub::instance().start(cfg);
  ASSERT_TRUE(tel::Hub::instance().running());

  auto st = tel::Hub::instance().attach_sim("hammer", 7);
  const std::uint64_t nsteps = 3000;   // step ring capacity 1024
  const std::uint64_t nthermo = 700;   // thermo ring capacity 512
  for (std::uint64_t i = 0; i < nsteps; ++i) {
    tel::StepSample s;
    s.step = std::int64_t(i);
    s.job_id = 7;
    st->steps.push(s);
  }
  for (std::uint64_t i = 0; i < nthermo; ++i) {
    tel::ThermoSample t;
    t.step = std::int64_t(i);
    st->thermo.push(t);
  }

  // Detach: final drain with attribution + exact drop accounting. With no
  // concurrent drain, drop-oldest arithmetic is fully deterministic.
  tel::TelemetrySummary sum;
  tel::Hub::instance().detach_sim(st, &sum);
  EXPECT_EQ(sum.steps_published, nsteps);
  EXPECT_EQ(sum.thermo_published, nthermo);
  const std::uint64_t want_drops =
      (nsteps - st->steps.capacity()) + (nthermo - st->thermo.capacity());
  EXPECT_EQ(sum.drops, want_drops);
  EXPECT_EQ(sum.last_step, std::int64_t(nsteps - 1));
  EXPECT_GE(tel::Hub::instance().total_drops(), want_drops);

  tel::Hub::instance().stop();
  EXPECT_FALSE(tel::active());

  // Everything that was not dropped reached the NDJSON tail, in order.
  std::ifstream nd(path + ".ndjson");
  ASSERT_TRUE(nd.good());
  std::string line;
  std::uint64_t steps = 0, thermos = 0;
  std::int64_t last_step = -1;
  while (std::getline(nd, line)) {
    const json::Value v = json::parse(line);
    if (v["name"].str != "hammer") continue;
    if (v["type"].str == "step") {
      ++steps;
      EXPECT_GT(std::int64_t(v["step"].number), last_step);
      last_step = std::int64_t(v["step"].number);
    } else if (v["type"].str == "thermo") {
      ++thermos;
    }
  }
  EXPECT_EQ(steps, st->steps.capacity());
  EXPECT_EQ(thermos, st->thermo.capacity());
  EXPECT_EQ(last_step, std::int64_t(nsteps - 1));  // newest survived

  // Snapshot survives shutdown with the drop total on record, and the
  // detached producer's terminal summary stays visible in "finished".
  const json::Value doc = json::parse(slurp(path));
  EXPECT_EQ(doc["schema"].str, "mlk-telemetry-1");
  EXPECT_GE(doc["drops"]["total"].number, double(want_drops));
  ASSERT_TRUE(doc["finished"].is_array());
  bool found = false;
  for (const auto& f : doc["finished"].arr) {
    if (f["name"].str != "hammer") continue;
    found = true;
    EXPECT_DOUBLE_EQ(f["steps"].number, double(nsteps));
    EXPECT_DOUBLE_EQ(f["drops"].number, double(want_drops));
    EXPECT_DOUBLE_EQ(f["last_step"].number, double(nsteps - 1));
  }
  EXPECT_TRUE(found);

  std::remove(path.c_str());
  std::remove((path + ".ndjson").c_str());
}

TEST(TelemetryHub, SchedulerEventsStreamThroughServerRun) {
  const std::string path =
      (fs::temp_directory_path() / "mlk_tel_sched.json").string();
  init_all();
  tel::Config cfg;
  cfg.path = path;
  cfg.interval_ms = 5;
  cfg.coords_every = 0;  // focus on the scheduler stream
  tel::Hub::instance().start(cfg);

  // Two `suffix kk` jobs first, so they are co-resident under
  // max_resident 2, then three plain-style jobs.
  std::vector<server::JobSpec> specs;
  for (int i = 0; i < 5; ++i) {
    const bool kk = i < 2;
    server::JobSpec spec;
    spec.name = (kk ? "tel_kk" : "tel") + std::to_string(i);
    spec.steps = 15;
    spec.setup = {"units lj",          "lattice fcc 0.8442",
                  "create_atoms 2 2 2 jitter 0.05 1234",
                  "mass 1 1.0",        "velocity all create 1.44 87287"};
    if (kk) spec.setup.push_back("suffix kk");
    spec.setup.push_back("pair_style lj/cut 2.5");
    spec.setup.push_back("pair_coeff * * 1.0 1.0");
    specs.push_back(spec);
  }
  server::SchedulerConfig scfg;
  scfg.max_resident = 2;
  const auto results = server::run_jobs(specs, scfg);

  ASSERT_EQ(results.size(), 5u);
  for (const auto& r : results) {
    EXPECT_EQ(r.state, server::JobState::Completed);
    // Satellite contract: each JobResult carries its telemetry summary,
    // filled at retirement (not atexit).
    EXPECT_EQ(r.telemetry.steps_published, 15u);
    EXPECT_EQ(r.telemetry.last_step, 15);
    EXPECT_EQ(r.telemetry.drops, 0u);
  }

  tel::Hub::instance().stop();

  // The NDJSON stream carries every job's step samples, each with the force
  // time its own Pair section measured, and admit/round/finish scheduler
  // events with queue-depth and round-latency payloads.
  std::ifstream nd(path + ".ndjson");
  ASSERT_TRUE(nd.good());
  std::string line;
  int steps = 0, admits = 0, rounds = 0, finishes = 0;
  while (std::getline(nd, line)) {
    const json::Value v = json::parse(line);
    if (v["type"].str == "step") {
      ++steps;
      EXPECT_GT(v["pair_ms"].number, 0.0)
          << v["name"].str << " step " << v["step"].number;
    }
    if (v["type"].str != "sched") continue;
    const std::string& kind = v["kind"].str;
    if (kind == "admit") ++admits;
    if (kind == "round") {
      ++rounds;
      EXPECT_GT(v["round_ms"].number, 0.0);
    }
    if (kind == "finish") ++finishes;
    EXPECT_GE(v["queue_depth"].number, 0.0);
    EXPECT_GE(v["in_flight"].number, 0.0);
    EXPECT_TRUE(v["round_ms"].is_number());
  }
  EXPECT_EQ(steps, 75);
  EXPECT_EQ(admits, 5);
  EXPECT_EQ(finishes, 5);
  EXPECT_GE(rounds, 45);  // 15 lockstep rounds per pair of resident jobs

  // The snapshot's server block carries the last round's latency.
  const json::Value doc = json::parse(slurp(path));
  ASSERT_TRUE(doc["server"].is_object());
  EXPECT_GT(doc["server"]["round_ms"].number, 0.0);

  std::remove(path.c_str());
  std::remove((path + ".ndjson").c_str());
}

}  // namespace
}  // namespace mlk
