// PairBatch — cross-simulation fused force dispatch (docs/SERVER.md).
//
// The paper's Table 2 lesson is that small systems starve per-kernel
// parallelism (Fig. 2a) and batching work items recovers it. Applied across
// jobs: co-resident Simulations whose pair styles report the same batch
// signature enlist one Slice each — a per-row closure covering the style's
// zero+force work plus an epilogue — and launch() dispatches ONE fused
// parallel_for over the concatenated row ranges with a per-slice offset
// table, instead of a handful of small launches per job.
//
// Bitwise contract: an enlisted row must perform exactly the arithmetic the
// job's solo kernels would perform for that row, and write only that row of
// its own job's arrays (full-list atom parallelism: row i accumulates into
// atom i, never scatters to j). Under that contract the fused launch is
// bitwise-identical to the solo launches for ANY partitioning of the row
// space across pool threads. Work whose result depends on reduction order
// (eflag energy/virial tallies) must not enlist — the style's
// batch_signature() returns "" on those steps and the scheduler falls back
// to the solo path.
//
// Styles with multi-pass pipelines (SNAP's stage/ui/yi/deidrj) would need
// one PairBatch per pass with a barrier between launches; the slice
// structure supports that shape, but only the single-pass LJ enlistment is
// wired up so far (docs/SERVER.md "batching semantics").
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

namespace mlk {

class PairBatch {
 public:
  /// One job's contribution: `rows` closures indexed [0, rows) that run
  /// inside the fused launch, plus an epilogue run on the launching thread
  /// after the launch completes (scatter contribute, tally fold-back).
  struct Slice {
    std::string label;
    std::size_t rows = 0;
    std::function<void(std::size_t)> row;
    std::function<void()> epilogue;
  };

  void add(Slice s) { slices_.push_back(std::move(s)); }

  std::size_t size() const { return slices_.size(); }
  bool empty() const { return slices_.empty(); }

  /// Dispatch one fused parallel_for over every enlisted slice's rows, then
  /// run the epilogues in enlistment order and clear the batch. The kernel
  /// name is "PairBatch::force[k]" with k the slice count, so profiling
  /// tools show fused launches distinctly from per-job kernels.
  void launch();

 private:
  std::vector<Slice> slices_;
};

}  // namespace mlk
