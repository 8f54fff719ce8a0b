// Reproduces Table 2: relative performance uplift from work-batching in the
// top three SNAP kernels on NVIDIA H100 and AMD MI300A (64k atoms), from the
// GPU performance model. The batch factors are model inputs (SnapConfig);
// the CPU kernels have no batching knob (EXPERIMENTS.md, Table 2).
//
// Paper values: ComputeUi 2.23x (batch 4) H100 / 1.75x (batch 2) MI300A;
//               ComputeYi 1.54x / 1.04x (batch 4);
//               ComputeFusedDeidrj 1.49x / 1.74x (fused all 3 directions).
#include <cstdio>

#include "bench_common.hpp"

using namespace mlk;
using namespace mlk::perf;

namespace {

double kernel_time(const GpuModel& gpu, const std::vector<KernelWorkload>& ws,
                   const std::string& name) {
  for (const auto& w : ws)
    if (w.name.find(name) != std::string::npos) return gpu.time(w).seconds;
  return 0.0;
}

}  // namespace

int main() {
  bench::Metrics metrics("bench_table2_batching");
  const auto& s = bench::snap_stats();
  const bigint n = 64000;
  std::printf("SNAP twojmax=8: idxu=%d idxz=%d idxb=%d, neighbors/atom=%.1f "
              "(measured)\n",
              s.snap_idxu, s.snap_idxz, s.snap_idxb, s.snap_neighbors);

  banner("Work-batching speedups for the top three SNAP kernels",
         "Table 2 (64k atoms)");

  Table t({"Kernel", "MI300A model", "MI300A paper", "H100 model",
           "H100 paper"});
  const GpuModel h100(arch("H100"));
  const GpuModel mi300(arch("MI300A"));

  {
    SnapConfig base;
    base.ui_batch = 1;
    SnapConfig b4 = base;
    b4.ui_batch = 4;
    SnapConfig b2 = base;
    b2.ui_batch = 2;
    const double h = kernel_time(h100, snap_workloads(n, s, base), "ComputeUi") /
                     kernel_time(h100, snap_workloads(n, s, b4), "ComputeUi");
    const double m = kernel_time(mi300, snap_workloads(n, s, base), "ComputeUi") /
                     kernel_time(mi300, snap_workloads(n, s, b2), "ComputeUi");
    t.add_row({"ComputeUi", Table::num(m, 2) + "x (batch 2)", "1.75x (batch 2)",
               Table::num(h, 2) + "x (batch 4)", "2.23x (batch 4)"});
  }
  {
    SnapConfig base;
    base.yi_batch = 1;
    SnapConfig b4 = base;
    b4.yi_batch = 4;
    const double h = kernel_time(h100, snap_workloads(n, s, base), "ComputeYi") /
                     kernel_time(h100, snap_workloads(n, s, b4), "ComputeYi");
    const double m = kernel_time(mi300, snap_workloads(n, s, base), "ComputeYi") /
                     kernel_time(mi300, snap_workloads(n, s, b4), "ComputeYi");
    t.add_row({"ComputeYi", Table::num(m, 2) + "x (batch 4)", "1.04x (batch 4)",
               Table::num(h, 2) + "x (batch 4)", "1.54x (batch 4)"});
  }
  {
    SnapConfig fused;
    SnapConfig unfused;
    unfused.fused_deidrj = false;
    const double h =
        kernel_time(h100, snap_workloads(n, s, unfused), "Deidrj") /
        kernel_time(h100, snap_workloads(n, s, fused), "Deidrj");
    const double m =
        kernel_time(mi300, snap_workloads(n, s, unfused), "Deidrj") /
        kernel_time(mi300, snap_workloads(n, s, fused), "Deidrj");
    t.add_row({"ComputeFusedDeidrj", Table::num(m, 2) + "x", "1.74x",
               Table::num(h, 2) + "x", "1.49x"});
  }
  t.print();
  std::printf("shape check: all uplifts > 1 on both architectures; batching "
              "helps everywhere because it reduces atomics and exposes ILP\n");
  return 0;
}
