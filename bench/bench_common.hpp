#pragma once
// Shared infrastructure for the paper-reproduction benchmark binaries.
//
// Scaling: the paper trains for ~100 epochs of 100x256-job trajectories on a
// multi-core Xeon; this harness defaults to a reduced budget that finishes
// on a single laptop core while preserving the qualitative shape of every
// result. Environment variables restore paper scale:
//
//   RLSCHED_BENCH_EPOCHS     training epochs per model          (default 15)
//   RLSCHED_BENCH_TRAJ       trajectories per epoch             (default 12)
//   RLSCHED_BENCH_PI_ITERS   policy/value update iters          (default 10)
//   RLSCHED_BENCH_MINIBATCH  transitions per update iteration   (default 512;
//                            0 means FULL BATCH — every collected
//                            transition in one update step)
//   RLSCHED_BENCH_EVAL_SEQS  evaluation sequences per cell      (default 5)
//   RLSCHED_BENCH_EVAL_LEN   jobs per evaluation sequence       (default 512)
//   RLSCHED_BENCH_SEED       master seed                        (default 42)
//   RLSCHED_WORKERS          rollout/update threads             (default 1;
//                            clamped to hardware concurrency — training
//                            results are bitwise identical for every
//                            worker count, only wall clock changes)
//   RLSCHED_BATCH            inference batch width B            (default 8;
//                            windows per batched policy forward in rollout
//                            collection and evaluation sweeps; validated
//                            like RLSCHED_WORKERS — garbage/0/negative
//                            rejected, clamped to util::kMaxBatchWindows.
//                            Bitwise identical results for every value)
//   RLSCHED_MODEL_DIR        trained-model cache directory
//                            (default ./rlsched_models)
//
// Values are validated (util/env.hpp): a non-numeric value falls back to
// the default with a warning on stderr, and out-of-range values clamp.
//
// Paper scale: EPOCHS=100 TRAJ=100 PI_ITERS=80 MINIBATCH=0 EVAL_SEQS=10
// EVAL_LEN=1024.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/rlscheduler.hpp"
#include "rl/observation.hpp"
#include "sched/exact.hpp"
#include "sched/heuristics.hpp"
#include "sim/env.hpp"
#include "workload/synthetic.hpp"

namespace rlsched::bench {

/// True when `--json` is among the arguments.
bool json_flag(int argc, char** argv);

/// The machine report every gated bench prints with --json, compared
/// against bench/baseline.json by scripts/perf_gate.py. The schema and
/// the gate rules are in docs/benchmarks.md. Checks are within-run: a
/// failed one makes finish() return a nonzero exit status.
class Report {
 public:
  enum class Better { kHigher, kLower };
  enum class Miss { kFails, kWarns };
  /// The band around the baseline every compared value gets unless it
  /// names its own.
  static constexpr double kTolerance = 0.25;

  explicit Report(std::string bench) : bench_(std::move(bench)) {}

  /// Build and run settings; a mismatch with the baseline fails.
  void config(const char* key, std::size_t v);
  void config(const char* key, bool v);
  void config(const char* key, const char* v);
  /// Host properties; a mismatch skips the baseline comparisons.
  void host(const char* key, const char* v);

  void check(const std::string& name, bool ok);
  void check_at_least(const std::string& name, double value, double min);
  void check_at_most(const std::string& name, double value, double max);

  /// A value compared against its baseline within `tolerance`.
  void value(const std::string& name, double v, Better better, Miss miss,
             double tolerance = kTolerance);

  /// Names every failed check on stderr, prints the report on stdout when
  /// `json`, and returns the process exit status.
  int finish(bool json) const;

 private:
  using Fields = std::vector<std::pair<std::string, std::string>>;
  std::string bench_;
  Fields config_, host_, checks_, values_;  ///< key -> JSON text
  std::vector<std::string> failed_;
};

/// Observation windows the inference benches time: the first decision
/// points of an SDSC-SP2 episode that always picks slot 0. That episode
/// is not congested: every window holds exactly one job, so the kernel
/// policy scores its narrowest live prefix on each (mean_occupancy says
/// how full a pool is).
inline constexpr std::size_t kPoolWindows = 160;  // divisible by 8 and 32

struct ObsPool {
  std::vector<rl::Observation> obs;
  std::vector<const rl::Observation*> ptr;
};

ObsPool make_pool(std::uint64_t seed);

/// Mean jobs per window (Observation::count) over the pool.
double mean_occupancy(const ObsPool& pool);

/// Best-of-3 decisions/sec of `sweep`, one pass over the pool per call.
/// Throughput on a shared host dips under neighbour interference but never
/// exceeds what the machine can do, so the maximum is the low-noise
/// estimate. `allocs` is the calling binary's tests/counting_alloc.hpp
/// counter: a timed loop that allocates after warmup exits nonzero.
template <typename F>
double decisions_per_sec(F&& sweep,
                         const std::atomic<unsigned long long>& allocs) {
  sweep();  // warmup: sizes every batch scratch
  const unsigned long long allocs_before = allocs;
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    std::size_t decisions = 0;
    double elapsed = 0.0;
    do {
      sweep();
      decisions += kPoolWindows;
      elapsed = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    } while (elapsed < 0.2);
    best = std::max(best, static_cast<double>(decisions) / elapsed);
  }
  if (allocs != allocs_before) {
    std::fprintf(stderr,
                 "FATAL: timed decision loop allocated %llu times after "
                 "warmup\n",
                 allocs - allocs_before);
    std::exit(1);
  }
  return best;
}

struct Scale {
  std::size_t epochs;
  std::size_t trajectories;
  std::size_t pi_iters;
  std::size_t minibatch;
  std::size_t eval_seqs;
  std::size_t eval_len;
  std::uint64_t seed;
  std::size_t workers;
  std::size_t batch;
  std::string model_dir;
};

/// Read the scale from the environment (defaults above).
Scale bench_scale();

/// Trained model plus its per-epoch metric curve.
struct TrainedModel {
  std::unique_ptr<core::RLScheduler> scheduler;
  std::vector<double> curve;  ///< avg metric per epoch (empty if cache hit
                              ///< and curve file missing)
  bool from_cache = false;
};

/// Train an RLScheduler on `trace_name` for the given goal, or load it from
/// the on-disk cache when an identical configuration was trained before.
/// The cache key covers every input that affects the result.
TrainedModel train_or_load(const std::string& trace_name, sim::Metric metric,
                           rl::PolicyKind policy, bool filter,
                           const Scale& scale);

/// The paper's standard evaluation protocol: `n` random contiguous
/// sequences of `len` jobs from the trace, shared across schedulers.
std::vector<std::vector<trace::Job>> eval_sequences(const trace::Trace& trace,
                                                    std::size_t n,
                                                    std::size_t len,
                                                    std::uint64_t seed);

/// Metric of one heuristic on one sequence. Pass the heuristic's
/// PriorityKind (sched::Heuristic::kind) so time-invariant baselines run
/// on the env's O(log P) min-key index.
double heuristic_value(const std::vector<trace::Job>& seq, int processors,
                       const sim::PriorityFn& priority, bool backfill,
                       sim::Metric metric,
                       sim::PriorityKind kind = sim::PriorityKind::TimeVarying);

/// Average metric of a heuristic over shared sequences.
double heuristic_avg(const std::vector<std::vector<trace::Job>>& seqs,
                     int processors, const sim::PriorityFn& priority,
                     bool backfill, sim::Metric metric,
                     sim::PriorityKind kind = sim::PriorityKind::TimeVarying);

/// Average metric of a trained RL model over shared sequences (optionally on
/// a foreign cluster size, for the generalization table).
double rl_avg(const core::RLScheduler& model,
              const std::vector<std::vector<trace::Job>>& seqs,
              int processors, bool backfill, sim::Metric metric);

/// Pretty float for table cells.
std::string cell(double v);

/// Shared driver for the training-curve figures (Figs 10-13): train (or
/// load) one kernel-policy model per trace for `metric` and print the
/// per-epoch metric curves side by side.
int run_training_curves(const std::string& title, sim::Metric metric,
                        const std::vector<std::string>& traces);

/// Optimality-gap study configuration: W standalone contended windows of K
/// jobs per trace, solved exactly (node-budgeted branch-and-bound) and
/// replayed greedily under every heuristic. The node budget is chosen so
/// well-pruned windows prove optimality while pathological ones fall back
/// to the admissible bound (proved=false) — both paths stay exercised.
struct GapStudyConfig {
  std::size_t window = 8;       ///< jobs per window (K)
  std::size_t windows = 12;     ///< windows per trace (W)
  std::uint64_t max_nodes = 60000;  ///< B&B budget per window
};

/// Per-trace gap-study results: exact/bound/proved per window plus every
/// heuristic's greedy objective on the same windows. The per-window gap is
/// heuristic / exact on proved windows and heuristic / bound otherwise
/// (still an upper bound on the true gap — the bound is admissible).
struct TraceGapStudy {
  std::string trace;
  std::vector<double> exact;  ///< solver objective per window
  std::vector<double> bound;  ///< admissible root lower bound per window
  std::vector<int> proved;    ///< 1 = search exhausted, objective optimal
  std::uint64_t nodes = 0;    ///< total B&B placements across windows
  std::vector<std::string> heuristic_names;
  std::vector<std::vector<double>> heuristic;  ///< [heuristic][window]
};

/// Run the gap study on `windows` deterministic windows sampled from the
/// trace (seeded by `seed` and the trace name — identical across runs and
/// hosts for a given build).
TraceGapStudy run_gap_study(const std::string& trace_name,
                            sched::ExactObjective objective,
                            const GapStudyConfig& gap, std::uint64_t seed);

/// Metric -> exact-solver objective: Utilization maps to the window
/// makespan proxy, everything else to total bounded slowdown.
sched::ExactObjective exact_objective_for(sim::Metric metric);

/// Average metric of the exact-window policy (ExactWindowPolicy driven
/// through the live env, rearmed per sequence) over shared sequences.
double exact_avg(const std::vector<std::vector<trace::Job>>& seqs,
                 int processors, bool backfill, sim::Metric metric,
                 sched::ExactObjective objective);

/// Options for run_scheduling_table. When `json_bench` is set the table
/// gains an EXACT column and an optimality-gap summary, and `json = true`
/// switches to the gap study's Report alone (no RL training — the CI perf
/// job runs this mode).
struct TableOptions {
  const char* json_bench = nullptr;  ///< JSON "bench" field; nullptr = off
  bool json = false;                 ///< emit the gap study's report only
};

/// Shared driver for the scheduling-results tables (Tables V, VI, X, XI):
/// evaluate the five heuristics plus the RL model trained on each trace,
/// with and without backfilling, and print the paper's row layout.
int run_scheduling_table(const std::string& title, sim::Metric metric,
                         const std::vector<std::string>& traces,
                         const TableOptions& opts = {});

}  // namespace rlsched::bench
