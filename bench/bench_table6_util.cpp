// Table VI reproduction: resource utilization of the five heuristics and
// RLScheduler (trained on the utilization reward) on four workloads.
// Shape targets: utilization is the more stable metric — differences across
// schedulers are small — and a heuristic that wins on bsld can lose here.
//
// The table carries an EXACT column and an optimality-gap summary against
// the window-makespan proxy (utilization's exact counterpart on a finite
// window). `--json` emits the gap study alone as the perf-gate report.
#include "bench_common.hpp"
int main(int argc, char** argv) {
  rlsched::bench::TableOptions opts;
  opts.json_bench = "bench_table6_util";
  opts.json = rlsched::bench::json_flag(argc, argv);
  return rlsched::bench::run_scheduling_table(
      "Table VI: scheduling towards resource utilization",
      rlsched::sim::Metric::Utilization,
      {"Lublin-1", "SDSC-SP2", "HPC2N", "Lublin-2"}, opts);
}
