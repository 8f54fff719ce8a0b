// Observability wiring: environment-variable activation of the built-in
// profiling tools and the combined profile report used by the `profile dump`
// input command.
//
//   MLK_PROFILE=1|on      register KernelTimer + MemorySpaceTracker; text
//                         report to stderr at process exit
//   MLK_PROFILE=<path>    same, but dump JSON to <path> at exit (plus
//                         <path>.rank<r> per simmpi rank when ranks ran)
//   MLK_TRACE=<path>      register ChromeTrace; write chrome://tracing JSON
//                         to <path> at exit (plus <path>.rank<r> per rank)
//   MLK_TELEMETRY=<path>[:key=val,...]
//                         start the real-time telemetry hub streaming a live
//                         JSON snapshot to <path> and an NDJSON tail to
//                         <path>.ndjson (src/tools/telemetry/). Options:
//                         interval_ms, coords_every, rdf_bins, rdf_rcut,
//                         insitu_max_atoms — e.g.
//                         MLK_TELEMETRY=/tmp/t.json:interval_ms=20,coords_every=25
//
// The full observability surface is documented in docs/OBSERVABILITY.md.
// Tools registered here are global (they observe every Simulation in the
// process) and are flushed by kk::profiling::finalize_tools() via atexit.
#pragma once

#include <memory>
#include <string>

#include "tools/kernel_timer.hpp"
#include "tools/memory_tracker.hpp"

namespace mlk::tools {

/// Read MLK_PROFILE / MLK_TRACE / MLK_TELEMETRY and register the
/// corresponding tools. Idempotent; called from mlk::init_all().
void init_from_env();

/// Parse "<path>[:key=val,...]" into a telemetry Config and start the hub.
/// Shared by the MLK_TELEMETRY hook and the `telemetry` input command.
/// Returns false (with a message to stderr) on a malformed option.
bool start_telemetry_from_spec(const std::string& spec);

/// Write the combined {"kernels": ..., "memory": ...} profile report;
/// `kernels` is a KernelTimer::json_fragment() (all tags or one rank's).
void write_profile_json(const std::string& path, const std::string& kernels,
                        const MemorySpaceTracker& mem);

}  // namespace mlk::tools
