// Profiling hot-path overhead: what does a parallel dispatch cost on top of
// the kernel body, with profiling (a) disabled, (b) counting launches, and
// (c) driving a registered KernelTimer tool?
//
// The disabled path must be a fast early-out (one relaxed atomic load — no
// lock, no map, no string): the gate is <2% overhead versus executing the
// same body inline, measured on a work-bearing kernel. The counting path
// adds one or two relaxed fetch_adds on two process-wide totals; per-kernel
// tables exist only in the opt-in KernelTimer tool (row three).
//
// Second gate: the live telemetry stream (docs/OBSERVABILITY.md). An LJ
// melt stepped with the full hub active — wait-free ring publishes from the
// step loop, periodic coordinate captures, and the sink thread draining +
// running the in-situ RDF/MSD — must cost <2% step time versus the same
// melt with telemetry off. The ring drop rate is reported alongside (and
// lands in the metrics JSON under "telemetry" with MLK_BENCH_METRICS).
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>

#include "bench_common.hpp"
#include "kokkos/core.hpp"
#include "tools/kernel_timer.hpp"
#include "tools/telemetry/telemetry.hpp"

namespace {

// A kernel body with measurable but small work, so dispatch overhead is
// visible yet the comparison reflects a realistic small launch (the Fig. 4
// latency-limit regime: many launches of modest kernels).
constexpr std::size_t kItems = 4096;
constexpr int kReps = 2000;

double body_sink = 0.0;

inline double body(std::size_t i) {
  const double x = double(i) * 1e-3;
  return x * x + 0.5 * x;
}

/// The exact work a Host-space dispatch performs, without the dispatch.
double run_inline() {
  mlk::Timer t;
  for (int r = 0; r < kReps; ++r) {
    double acc = 0.0;
    for (std::size_t i = 0; i < kItems; ++i) acc += body(i);
    body_sink += acc;
  }
  return t.seconds();
}

double run_dispatched() {
  mlk::Timer t;
  for (int r = 0; r < kReps; ++r) {
    double acc = 0.0;
    kk::parallel_for("bench::overhead", kk::RangePolicy<kk::Host>(kItems),
                     [&](std::size_t i) { acc += body(i); });
    body_sink += acc;
  }
  return t.seconds();
}

double best_of(double (*fn)(), int trials = 5) {
  double best = 1e300;
  for (int i = 0; i < trials; ++i) {
    const double t = fn();
    if (t < best) best = t;
  }
  return best;
}

// ---------------------------------------------------------------------------
// Telemetry step-time gate
// ---------------------------------------------------------------------------

constexpr int kMeltSteps = 200;

/// One fresh LJ melt advanced kMeltSteps; returns loop seconds per step.
/// When the hub is streaming, the Verlet loop attaches and publishes; the
/// detach summary accumulates into the published/drop tallies.
double melt_step_seconds(std::uint64_t* published, std::uint64_t* drops) {
  mlk::init_all();
  mlk::Simulation sim;
  mlk::Input in(sim);
  in.line("units lj");
  in.line("lattice fcc 0.8442");
  in.line("create_atoms 5 5 5 jitter 0.05 78123");
  in.line("mass 1 1.0");
  in.line("velocity all create 1.44 87287");
  in.line("pair_style lj/cut 2.5");
  in.line("pair_coeff * * 1.0 1.0");
  in.line("fix 1 all nve");
  in.line("thermo 20");
  sim.thermo.print = false;
  sim.setup();

  mlk::Timer t;
  in.line("run " + std::to_string(kMeltSteps));
  const double sec = t.seconds();

  if (published && drops) {
    mlk::tools::telemetry::TelemetrySummary s;
    sim.detach_telemetry(&s);
    *published += s.steps_published + s.thermo_published;
    *drops += s.drops;
  }
  return sec / kMeltSteps;
}

double melt_best_of(std::uint64_t* published, std::uint64_t* drops,
                    int trials = 5) {
  double best = 1e300;
  for (int i = 0; i < trials; ++i)
    best = std::min(best, melt_step_seconds(published, drops));
  return best;
}

}  // namespace

int main() {
  bench::Metrics metrics("bench_overhead");
  mlk::perf::banner("Profiling hot-path overhead per dispatch",
                    "gate: disabled-mode dispatch overhead < 2%");

  run_inline();  // warmup
  const double t_inline = best_of(run_inline);

  const bool prev = kk::profiling::set_enabled(false);
  const double t_disabled = best_of(run_dispatched);
  kk::profiling::set_enabled(true);
  const double t_counting = best_of(run_dispatched);

  auto timer = std::make_shared<mlk::tools::KernelTimer>();
  kk::profiling::register_tool(timer);
  const double t_tool = best_of(run_dispatched);
  kk::profiling::deregister_tool(timer);
  kk::profiling::set_enabled(prev);

  const double ns_per = 1e9 / double(kReps);
  auto row = [&](const char* mode, double t) {
    std::printf("%-28s %10.3f ms   %8.1f ns/launch   %+7.2f%% vs inline\n",
                mode, t * 1e3, (t - t_inline) * ns_per,
                100.0 * (t - t_inline) / t_inline);
  };
  std::printf("%zu-item Host kernel, %d launches; best of 5 trials\n\n",
              kItems, kReps);
  row("inline loop (no dispatch)", t_inline);
  row("dispatch, profiling off", t_disabled);
  row("dispatch, launch counting", t_counting);
  row("dispatch, KernelTimer tool", t_tool);

  const double overhead_pct = 100.0 * (t_disabled - t_inline) / t_inline;
  std::printf("\nprofiling-disabled dispatch overhead: %.2f%% -> %s\n",
              overhead_pct, overhead_pct < 2.0 ? "PASS (< 2%)" : "FAIL");
  (void)body_sink;

  // --- gate 2: live telemetry streaming vs off, same melt ----------------
  namespace tel = mlk::tools::telemetry;
  std::printf("\nLJ melt (500 atoms, %d steps/trial, best of 5): "
              "telemetry off vs streaming\n", kMeltSteps);

  const double t_off = melt_best_of(nullptr, nullptr);

  const std::string tel_path =
      (std::filesystem::temp_directory_path() / "bench_overhead.telemetry")
          .string();
  // Default configuration — the gate covers what MLK_TELEMETRY=<path>
  // gives you: 50ms drain cadence, coordinate capture every 50 steps,
  // subsampled in-situ RDF + MSD on the sink thread. The sink competes for
  // cores with the step loop (this box may have a single core), so the
  // budget covers consumer-side work too, not just the ring publishes.
  tel::Config cfg;
  cfg.path = tel_path;
  tel::Hub::instance().start(cfg);
  std::uint64_t published = 0, drops = 0;
  const double t_on = melt_best_of(&published, &drops);
  tel::Hub::instance().stop();
  std::remove(tel_path.c_str());
  std::remove((tel_path + ".ndjson").c_str());

  const double tel_pct = 100.0 * (t_on - t_off) / t_off;
  const double drop_rate =
      published > 0 ? double(drops) / double(published) : 0.0;
  std::printf("  telemetry off   %10.3f us/step\n", t_off * 1e6);
  std::printf("  telemetry on    %10.3f us/step   (ring publish + sink + "
              "in-situ RDF/MSD)\n", t_on * 1e6);
  std::printf("  %llu samples published, %llu dropped (drop rate %.4f)\n",
              (unsigned long long)published, (unsigned long long)drops,
              drop_rate);
  std::printf("telemetry step-time overhead: %.2f%% -> %s\n", tel_pct,
              tel_pct < 2.0 ? "PASS (< 2%)" : "FAIL");

  metrics.set_extra(
      "telemetry",
      "{\"step_us_off\":" + std::to_string(t_off * 1e6) +
          ",\"step_us_on\":" + std::to_string(t_on * 1e6) +
          ",\"overhead_pct\":" + std::to_string(tel_pct) +
          ",\"published\":" + std::to_string(published) +
          ",\"drops\":" + std::to_string(drops) +
          ",\"drop_rate\":" + std::to_string(drop_rate) + "}");

  return overhead_pct < 2.0 && tel_pct < 2.0 ? 0 : 1;
}
