// Table V reproduction: average bounded slowdown of FCFS/WFP3/UNICEP/SJF/F1
// and RLScheduler on four workloads, with and without backfilling.
// Shape targets from the paper: heuristics are inconsistent across traces
// (e.g. SJF best on Lublin-2, worst on SDSC-SP2 with backfilling); RL is
// best or close-to-best everywhere.
//
// The table carries an EXACT column (the bounded-window exact planner from
// sched/exact.hpp driven through the live env) and an optimality-gap
// summary solved on standalone contended windows. `--json` emits the gap
// study alone as the perf-gate report (docs/benchmarks.md).
#include "bench_common.hpp"
int main(int argc, char** argv) {
  rlsched::bench::TableOptions opts;
  opts.json_bench = "bench_table5_bsld";
  opts.json = rlsched::bench::json_flag(argc, argv);
  return rlsched::bench::run_scheduling_table(
      "Table V: scheduling towards bounded slowdown",
      rlsched::sim::Metric::BoundedSlowdown,
      {"Lublin-1", "SDSC-SP2", "HPC2N", "Lublin-2"}, opts);
}
