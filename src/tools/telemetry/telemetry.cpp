#include "tools/telemetry/telemetry.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "kokkos/instance.hpp"
#include "kokkos/profiling.hpp"
#include "tools/json.hpp"

namespace mlk::tools::telemetry {

namespace {

std::atomic<bool> g_active{false};

const char* sched_kind_name(std::int32_t k) {
  switch (SchedKind(k)) {
    case SchedKind::Admit: return "admit";
    case SchedKind::Round: return "round";
    case SchedKind::JobFinish: return "finish";
  }
  return "?";
}

}  // namespace

bool active() { return g_active.load(std::memory_order_relaxed); }

// ---------------------------------------------------------------------------
// CoordCapture
// ---------------------------------------------------------------------------

CoordCapture::Buf CoordCapture::begin(std::size_t natoms) {
  const std::uint64_t w = count_.load(std::memory_order_relaxed);
  Slot& s = slots_[w & 1];
  s.stamp.store(2 * w + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  if (s.cap < natoms) {
    // Regrow with ~50% headroom. The old arrays are retired, not freed: a
    // consumer mid-copy keeps dereferencing valid memory and the stamp
    // recheck rejects its torn result.
    const std::size_t cap = natoms + natoms / 2 + 16;
    auto x = std::make_unique<double[]>(3 * cap);
    auto tag = std::make_unique<std::int64_t[]>(cap);
    s.x.store(x.get(), std::memory_order_release);
    s.tag.store(tag.get(), std::memory_order_release);
    s.cap = cap;
    x_storage_.push_back(std::move(x));
    tag_storage_.push_back(std::move(tag));
  }
  s.n.store(natoms, std::memory_order_release);
  return Buf{s.x.load(std::memory_order_relaxed),
             s.tag.load(std::memory_order_relaxed)};
}

void CoordCapture::end(std::int64_t step, const double prd[3]) {
  const std::uint64_t w = count_.load(std::memory_order_relaxed);
  Slot& s = slots_[w & 1];
  s.step.store(step, std::memory_order_relaxed);
  for (int d = 0; d < 3; ++d)
    s.prd[d].store(prd[d], std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  s.stamp.store(2 * w + 2, std::memory_order_release);
  count_.store(w + 1, std::memory_order_release);
}

bool CoordCapture::read(Snapshot& out) const {
  // Bounded retries: the consumer may loop, the producer never does.
  for (int attempt = 0; attempt < 4; ++attempt) {
    const std::uint64_t c = count_.load(std::memory_order_acquire);
    if (c == 0 || c <= out.gen) return false;
    const std::uint64_t w = c - 1;
    const Slot& s = slots_[w & 1];
    const std::uint64_t want = 2 * w + 2;
    if (s.stamp.load(std::memory_order_acquire) != want) continue;
    const std::size_t n = s.n.load(std::memory_order_acquire);
    const double* x = s.x.load(std::memory_order_acquire);
    const std::int64_t* tag = s.tag.load(std::memory_order_acquire);
    const std::int64_t step = s.step.load(std::memory_order_relaxed);
    double prd[3];
    for (int d = 0; d < 3; ++d)
      prd[d] = s.prd[d].load(std::memory_order_relaxed);
    out.x.resize(3 * n);
    for (std::size_t k = 0; k < 3 * n; ++k) out.x[k] = load_relaxed(x[k]);
    out.tag.resize(n);
    for (std::size_t k = 0; k < n; ++k) out.tag[k] = load_relaxed(tag[k]);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (s.stamp.load(std::memory_order_relaxed) != want) continue;  // torn
    out.step = step;
    out.gen = w + 1;
    for (int d = 0; d < 3; ++d) out.prd[d] = prd[d];
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Hub — consumer-side per-sim aggregation
// ---------------------------------------------------------------------------

struct Hub::SinkSimState {
  SimTelemetry* key = nullptr;
  StepSample last_step{};
  bool have_step = false;
  ThermoSample last_thermo{};
  bool have_thermo = false;
  std::uint64_t steps_drained = 0;
  std::uint64_t thermo_drained = 0;
  CoordCapture::Snapshot coords;  // .gen doubles as "last analyzed" cursor
  RdfResult rdf;
  MsdTracker msd;
  bool have_insitu = false;
};

Hub& Hub::instance() {
  // Leaked on purpose: producers may publish from threads that outlive
  // main()'s statics, and the atexit flush must find the hub alive.
  static Hub* hub = new Hub;
  return *hub;
}

void Hub::start(const Config& cfg) {
  std::lock_guard<std::mutex> lk(run_mu_);
  if (running_) return;
  cfg_ = cfg;
  stop_requested_ = false;
  g_active.store(true, std::memory_order_relaxed);
  // Truncate a stale NDJSON tail from a previous run at this path.
  if (!cfg_.path.empty()) std::ofstream(cfg_.path + ".ndjson");
  sink_ = std::thread([this] {
    kk::profiling::set_thread_name("telemetry-sink");
    sink_loop();
  });
  running_ = true;
  static bool atexit_installed = false;
  if (!atexit_installed) {
    atexit_installed = true;
    std::atexit([] { Hub::instance().stop(); });
  }
}

void Hub::stop() {
  {
    std::lock_guard<std::mutex> lk(run_mu_);
    if (!running_) return;
    stop_requested_ = true;
  }
  wake_.notify_all();
  sink_.join();
  {
    std::lock_guard<std::mutex> lk(run_mu_);
    running_ = false;
  }
  // Final drain + snapshot so a full ring at shutdown still lands on disk.
  drain_pass();
  g_active.store(false, std::memory_order_relaxed);
}

bool Hub::running() const {
  std::lock_guard<std::mutex> lk(const_cast<std::mutex&>(run_mu_));
  return running_;
}

void Hub::sink_loop() {
  std::unique_lock<std::mutex> lk(run_mu_);
  while (!stop_requested_) {
    wake_.wait_for(lk, std::chrono::milliseconds(cfg_.interval_ms),
                   [this] { return stop_requested_; });
    if (stop_requested_) break;
    lk.unlock();
    drain_pass();
    lk.lock();
  }
}

std::uint64_t Hub::total_drops() const {
  std::uint64_t total = 0;
  {
    std::lock_guard<std::mutex> lk(reg_mu_);
    for (const auto& s : sims_) total += s->steps.drops() + s->thermo.drops();
    for (const auto& s : scheds_) total += s->events.drops();
  }
  std::lock_guard<std::mutex> dk(drain_mu_);
  return total + detached_drops_;
}

std::shared_ptr<SimTelemetry> Hub::attach_sim(std::string label,
                                              std::int32_t job_id) {
  auto st = std::make_shared<SimTelemetry>();
  st->label = std::move(label);
  st->job_id = job_id;
  std::lock_guard<std::mutex> lk(reg_mu_);
  sims_.push_back(st);
  return st;
}

void Hub::detach_sim(const std::shared_ptr<SimTelemetry>& st,
                     TelemetrySummary* summary) {
  if (!st) return;
  {
    std::lock_guard<std::mutex> lk(reg_mu_);
    std::erase(sims_, st);
  }
  std::lock_guard<std::mutex> dk(drain_mu_);
  // Final drain with attribution, on the detaching thread (consumer-side
  // work is serialized by drain_mu_, so this cannot race the sink).
  SinkSimState* state = nullptr;
  for (auto& s : sim_states_)
    if (s->key == st.get()) state = s.get();
  std::unique_ptr<SinkSimState> local;
  if (!state) {
    local = std::make_unique<SinkSimState>();
    local->key = st.get();
    state = local.get();
  }
  drain_sim(*st, *state);
  TelemetrySummary sum;
  sum.steps_published = st->steps.pushed();
  sum.thermo_published = st->thermo.pushed();
  sum.coord_captures = st->coords.captures();
  sum.drops = st->steps.drops() + st->thermo.drops();
  sum.last_step = state->have_step ? state->last_step.step : -1;
  if (summary) *summary = sum;
  finished_.push_back(FinishedSim{st->label, st->job_id, sum});
  if (finished_.size() > 8) finished_.erase(finished_.begin());
  detached_drops_ += st->steps.drops() + st->thermo.drops();
  std::erase_if(sim_states_,
                [&](const auto& s) { return s->key == st.get(); });
  flush_pending();
}

std::shared_ptr<SchedTelemetry> Hub::attach_sched(std::string label) {
  auto st = std::make_shared<SchedTelemetry>();
  st->label = std::move(label);
  std::lock_guard<std::mutex> lk(reg_mu_);
  scheds_.push_back(st);
  return st;
}

void Hub::detach_sched(const std::shared_ptr<SchedTelemetry>& st) {
  if (!st) return;
  {
    std::lock_guard<std::mutex> lk(reg_mu_);
    std::erase(scheds_, st);
  }
  std::lock_guard<std::mutex> dk(drain_mu_);
  drain_sched(*st);
  detached_drops_ += st->events.drops();
  flush_pending();
}

void Hub::drain_now() { drain_pass(); }

// ---------------------------------------------------------------------------
// Draining and serialization (all under drain_mu_)
// ---------------------------------------------------------------------------

void Hub::drain_pass() {
  std::vector<std::shared_ptr<SimTelemetry>> sims;
  std::vector<std::shared_ptr<SchedTelemetry>> scheds;
  {
    std::lock_guard<std::mutex> lk(reg_mu_);
    sims = sims_;
    scheds = scheds_;
  }
  std::lock_guard<std::mutex> dk(drain_mu_);
  for (const auto& st : sims) {
    SinkSimState* state = nullptr;
    for (auto& s : sim_states_)
      if (s->key == st.get()) state = s.get();
    if (!state) {
      sim_states_.push_back(std::make_unique<SinkSimState>());
      state = sim_states_.back().get();
      state->key = st.get();
    }
    drain_sim(*st, *state);
  }
  for (const auto& st : scheds) drain_sched(*st);
  write_snapshot();
  // Surface backpressure on any live Chrome trace as a counter track.
  std::uint64_t drops = detached_drops_;
  for (const auto& s : sims) drops += s->steps.drops() + s->thermo.drops();
  for (const auto& s : scheds) drops += s->events.drops();
  kk::profiling::count_event("telemetry.ring_drops", double(drops));
  passes_.fetch_add(1, std::memory_order_relaxed);
}

void Hub::drain_sim(SimTelemetry& st, SinkSimState& state) {
  StepSample step;
  while (st.steps.pop(step)) {
    state.last_step = step;
    state.have_step = true;
    ++state.steps_drained;
    append_line("{\"type\":\"step\",\"job\":" + std::to_string(step.job_id) +
                ",\"name\":" + json::quote(st.label) +
                ",\"step\":" + std::to_string(step.step) +
                ",\"wall_ms\":" + json::num(step.wall_ms) +
                ",\"pair_ms\":" + json::num(step.pair_ms) +
                ",\"neigh_ms\":" + json::num(step.neigh_ms) +
                ",\"comm_ms\":" + json::num(step.comm_ms) +
                ",\"launches\":" + std::to_string(step.launches) +
                ",\"device_launches\":" + std::to_string(step.device_launches) +
                ",\"rebuild\":" + std::to_string(int(step.rebuild)) +
                ",\"overlap\":" + std::to_string(int(step.overlap)) +
                ",\"nlocal\":" + std::to_string(step.nlocal) +
                ",\"imbalance\":" + json::num(step.imbalance) + "}");
  }
  ThermoSample th;
  while (st.thermo.pop(th)) {
    state.last_thermo = th;
    state.have_thermo = true;
    ++state.thermo_drained;
    append_line("{\"type\":\"thermo\",\"job\":" + std::to_string(th.job_id) +
                ",\"name\":" + json::quote(st.label) +
                ",\"step\":" + std::to_string(th.step) +
                ",\"temp\":" + json::num(th.temp) +
                ",\"pe\":" + json::num(th.pe) + ",\"ke\":" + json::num(th.ke) +
                ",\"press\":" + json::num(th.press) + "}");
  }

  // In-situ analysis off the newest coordinate capture (consumer thread;
  // the step loop only paid for the buffer copy).
  if (st.coords.read(state.coords)) {
    const auto& c = state.coords;
    state.rdf = rdf_from_coords(c.x.data(), c.natoms(), c.prd, cfg_.rdf_bins,
                                cfg_.rdf_rcut, cfg_.insitu_max_atoms);
    const double msd =
        state.msd.observe(c.x.data(), c.tag.data(), c.natoms(), c.prd);
    state.have_insitu = true;
    append_line("{\"type\":\"insitu\",\"job\":" + std::to_string(st.job_id) +
                ",\"name\":" + json::quote(st.label) +
                ",\"step\":" + std::to_string(c.step) +
                ",\"atoms\":" + std::to_string(c.natoms()) +
                ",\"rdf_peak\":" + json::num(state.rdf.peak) +
                ",\"rdf_r_peak\":" + json::num(state.rdf.r_peak) +
                ",\"msd\":" + json::num(msd) + "}");
  }
}

void Hub::drain_sched(SchedTelemetry& st) {
  SchedSample ev;
  while (st.events.pop(ev)) {
    if (SchedKind(ev.kind) == SchedKind::Round) {
      last_sched_ = ev;
      have_sched_ = true;
    }
    append_line(std::string("{\"type\":\"sched\",\"kind\":\"") +
                sched_kind_name(ev.kind) +
                "\",\"round\":" + std::to_string(ev.round) +
                ",\"job\":" + std::to_string(ev.job_id) +
                ",\"queue_depth\":" + std::to_string(ev.queue_depth) +
                ",\"in_flight\":" + std::to_string(ev.in_flight) +
                ",\"round_ms\":" + json::num(ev.round_ms) + "}");
  }
}

void Hub::append_line(const std::string& line) {
  pending_ += line;
  pending_ += '\n';
  ++ndjson_lines_;
}

void Hub::flush_pending() {
  if (pending_.empty() || cfg_.path.empty()) return;
  std::ofstream f(cfg_.path + ".ndjson", std::ios::app);
  f << pending_;
  pending_.clear();
}

void Hub::write_snapshot() {
  flush_pending();
  if (cfg_.path.empty()) return;

  std::uint64_t drops = detached_drops_;
  std::string sims_json = "[";
  {
    std::lock_guard<std::mutex> lk(reg_mu_);
    bool first = true;
    for (const auto& st : sims_) {
      drops += st->steps.drops() + st->thermo.drops();
      SinkSimState* state = nullptr;
      for (auto& s : sim_states_)
        if (s->key == st.get()) state = s.get();
      if (!first) sims_json += ",";
      first = false;
      sims_json += "{\"job\":" + std::to_string(st->job_id) +
                   ",\"name\":" + json::quote(st->label) +
                   ",\"drops\":" +
                   std::to_string(st->steps.drops() + st->thermo.drops());
      if (state && state->have_step) {
        const StepSample& s = state->last_step;
        sims_json += ",\"step\":{\"step\":" + std::to_string(s.step) +
                     ",\"wall_ms\":" + json::num(s.wall_ms) +
                     ",\"pair_ms\":" + json::num(s.pair_ms) +
                     ",\"neigh_ms\":" + json::num(s.neigh_ms) +
                     ",\"comm_ms\":" + json::num(s.comm_ms) +
                     ",\"launches\":" + std::to_string(s.launches) +
                     ",\"nlocal\":" + std::to_string(s.nlocal) +
                     ",\"imbalance\":" + json::num(s.imbalance) + "}";
      }
      if (state && state->have_thermo) {
        const ThermoSample& t = state->last_thermo;
        sims_json += ",\"thermo\":{\"step\":" + std::to_string(t.step) +
                     ",\"temp\":" + json::num(t.temp) +
                     ",\"pe\":" + json::num(t.pe) +
                     ",\"ke\":" + json::num(t.ke) +
                     ",\"press\":" + json::num(t.press) + "}";
      }
      if (state && state->have_insitu) {
        sims_json += ",\"insitu\":{\"step\":" +
                     std::to_string(state->coords.step) +
                     ",\"atoms\":" + std::to_string(state->coords.natoms()) +
                     ",\"captures\":" + std::to_string(st->coords.captures()) +
                     ",\"rdf_peak\":" + json::num(state->rdf.peak) +
                     ",\"rdf_r_peak\":" + json::num(state->rdf.r_peak) +
                     ",\"msd\":" + json::num(state->msd.msd()) + "}";
      }
      sims_json += "}";
    }
    for (const auto& st : scheds_) drops += st->events.drops();
  }
  sims_json += "]";

  std::string out = "{\"schema\":\"mlk-telemetry-1\"";
  out += ",\"pass\":" + std::to_string(passes_.load() + 1);
  out += ",\"interval_ms\":" + std::to_string(cfg_.interval_ms);
  out += ",\"ndjson_lines\":" + std::to_string(ndjson_lines_);
  out += ",\"drops\":{\"total\":" + std::to_string(drops) + "}";
  out += ",\"launches\":{\"total\":" +
         std::to_string(kk::profiling::total_launches()) +
         ",\"device\":" +
         std::to_string(kk::profiling::total_device_launches()) + "}";
  out += ",\"instances\":[";
  {
    bool first = true;
    for (const auto& s : kk::DeviceInstance::live_stats()) {
      if (!first) out += ",";
      first = false;
      out += "{\"id\":" + std::to_string(s.id) +
             ",\"name\":" + json::quote(s.name) +
             ",\"tasks\":" + std::to_string(s.tasks) + "}";
    }
  }
  out += "]";
  out += ",\"sims\":" + sims_json;
  out += ",\"finished\":[";
  {
    bool first = true;
    for (const auto& f : finished_) {
      if (!first) out += ",";
      first = false;
      out += "{\"job\":" + std::to_string(f.job_id) +
             ",\"name\":" + json::quote(f.name) +
             ",\"steps\":" + std::to_string(f.sum.steps_published) +
             ",\"thermo\":" + std::to_string(f.sum.thermo_published) +
             ",\"captures\":" + std::to_string(f.sum.coord_captures) +
             ",\"drops\":" + std::to_string(f.sum.drops) +
             ",\"last_step\":" + std::to_string(f.sum.last_step) + "}";
    }
  }
  out += "]";
  if (have_sched_) {
    out += ",\"server\":{\"round\":" + std::to_string(last_sched_.round) +
           ",\"queue_depth\":" + std::to_string(last_sched_.queue_depth) +
           ",\"in_flight\":" + std::to_string(last_sched_.in_flight) +
           ",\"round_ms\":" + json::num(last_sched_.round_ms) + "}";
  }
  out += "}\n";

  // Atomic replace: readers always see a complete document.
  const std::string tmp = cfg_.path + ".tmp";
  {
    std::ofstream f(tmp);
    f << out;
  }
  std::rename(tmp.c_str(), cfg_.path.c_str());
}

}  // namespace mlk::tools::telemetry
