#pragma once
// Bounded-window exact scheduler — the optimality-gap baseline.
//
// `ExactWindowScheduler` runs depth-first branch-and-bound over job start
// ORDERINGS on a window of K <= kMaxExactWindow pending jobs against a
// free-capacity staircase (free processors now + the running set's
// completion releases). The placement model is the serial decision process
// of SchedulingEnv::run_priority without backfill: jobs start in the chosen
// order, each at the earliest time >= the previous start where the
// staircase admits its processor request, and the objective (total bounded
// slowdown, or window makespan as the utilization proxy) is summed over
// the resulting start vector in WINDOW INDEX order — one arithmetic shared
// by the search, evaluate_order, and evaluate_greedy, and insensitive to
// which permutation produced tied start times — so the optimum is bitwise
// equal to a brute-force permutation enumeration
// (tests/test_exact_window.cpp holds that equality).
//
// Pruning uses an admissible LP-relaxation-style lower bound built from
// the same staircase ideas as sim/pending_index.hpp:
//  * per-job earliest-start relaxation — each unplaced job is probed
//    against the staircase ignoring the other unplaced jobs, which can
//    only UNDER-estimate its true start (competitors only consume
//    capacity), and bounded slowdown is monotone in start time;
//  * fractional-packing area bound (makespan) — the remaining work
//    area sum(procs_j * run_j) must fit under the capacity profile from
//    the frontier on, so the earliest horizon h with enough integrated
//    free area lower-bounds the makespan.
// Both arguments, and why a failed staircase probe proves infeasibility,
// are written out in DESIGN.md ("Exact solver & optimality gap").
//
// The search is node-budgeted: when the budget exhausts mid-search the
// incumbent (always a complete, valid schedule — the first DFS descent
// reaches a leaf before any budget check) is returned with proved=false,
// and the root lower bound still brackets the true optimum from below.
//
// `ExactWindowPolicy` adapts the solver into a sixth Heuristic-compatible
// policy: it plans the first K observable jobs, serves the plan as a
// TimeVarying priority (plan rank = score) or as step() actions, and
// replans when the plan is exhausted — reusing sim/env.cpp, the
// observation builder, and the differential-gate harness unchanged.
//
// Allocation contract: after reserve()/construction every solve() and
// policy decision is heap-allocation-free (fixed kMaxExactWindow arrays;
// release buffers reserved to the processor count), so the adapter runs
// under bench_sched_scaling's counting-operator-new check.

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sched/heuristics.hpp"
#include "sim/env.hpp"
#include "trace/job.hpp"

namespace rlsched::sched {

/// Hard cap on the branch-and-bound window (bitmask state fits a u32;
/// 16! leaves is already far beyond any sane node budget).
inline constexpr std::size_t kMaxExactWindow = 16;

enum class ExactObjective {
  TotalBoundedSlowdown,  ///< minimize sum of per-job bounded slowdowns
  Makespan,              ///< minimize (max end - now); utilization proxy
};

const char* exact_objective_name(ExactObjective o);

/// One future capacity release: `procs` processors free at time `end`.
struct Release {
  double end = 0.0;
  std::int32_t procs = 0;
};

/// A self-contained window subproblem. `releases` must be sorted by end
/// ascending with end > now (Timeline::live() satisfies both); job
/// requested_procs must be clamped to [1, processors] (the env's prepare()
/// invariant). Jobs carry submit <= now.
struct WindowProblem {
  double now = 0.0;
  std::int32_t processors = 1;
  std::int32_t free = 0;  ///< free processors at `now`
  std::vector<Release> releases;
  std::vector<trace::Job> jobs;  ///< size <= kMaxExactWindow for solve()
};

struct WindowSolution {
  std::array<std::uint32_t, kMaxExactWindow> order{};  ///< job indices
  std::uint32_t count = 0;     ///< == problem jobs count
  double objective = 0.0;      ///< objective of `order`
  double bound = 0.0;          ///< admissible root lower bound
  bool proved = false;         ///< search exhausted => objective is optimal
  std::uint64_t nodes = 0;     ///< branch-and-bound placements explored
};

struct ExactConfig {
  /// Window size policies plan over (clamped to kMaxExactWindow).
  std::size_t window = 8;
  /// Node budget per solve; 0 = unlimited. When it exhausts, the incumbent
  /// is returned with proved=false.
  std::uint64_t max_nodes = 200000;
  ExactObjective objective = ExactObjective::TotalBoundedSlowdown;
};

class ExactWindowScheduler {
 public:
  explicit ExactWindowScheduler(ExactConfig cfg = {});

  const ExactConfig& config() const { return cfg_; }

  /// Pre-size the release buffers so later solve() calls cannot allocate.
  void reserve(std::size_t max_releases);

  /// Branch-and-bound over every ordering of p.jobs (throws
  /// std::invalid_argument above kMaxExactWindow — callers slice windows).
  /// Deterministic: the returned order is the lexicographically first
  /// permutation attaining the incumbent objective, identical to a
  /// strict-< lexicographic enumeration.
  WindowSolution solve(const WindowProblem& p);

  /// Objective of a fixed placement order under the same serial model and
  /// the same accumulation arithmetic as solve(). `order` must be a
  /// permutation of [0, p.jobs.size()).
  double evaluate_order(const WindowProblem& p,
                        std::span<const std::uint32_t> order);

  /// Emulate SchedulingEnv::run_priority's serial decision loop (no
  /// backfill) on the window: scores recomputed at each decision clock,
  /// strict-< minimum with first-in-queue-order winning ties. Returns the
  /// greedy order/objective with proved=false and bound = root bound —
  /// the per-heuristic side of the optimality-gap tables.
  WindowSolution evaluate_greedy(const WindowProblem& p,
                                 const sim::PriorityFn& priority);

  /// The admissible root lower bound alone (fuzzed against enumeration).
  double root_bound(const WindowProblem& p);

 private:
  void load(const WindowProblem& p);
  /// Free capacity at time t given the first `depth` placements.
  std::int64_t cap_at(double t, std::size_t depth) const;
  /// Earliest t >= frontier where capacity admits `procs`; +inf if never.
  double earliest_start(double frontier, std::int32_t procs,
                        std::size_t depth);
  /// Earliest horizon with integrated free area >= work from `frontier`.
  double area_horizon(double frontier, double work, std::size_t depth);
  /// Admissible full-vector bound: placed jobs at their actual term,
  /// unplaced at their earliest-start relaxation, combined with the leaf
  /// arithmetic — bitwise <= every leaf of the subtree.
  double lower_bound(double frontier, std::uint32_t used, std::size_t depth);
  /// Objective of the start vector in start_, summed in WINDOW INDEX
  /// order — permutations that place every job at the same times yield
  /// bitwise-identical objectives (placement-order summation would round
  /// ties differently per permutation and break the enumeration gate).
  double objective_of_starts() const;
  void dfs(std::size_t depth, double frontier);

  ExactConfig cfg_;

  // loaded problem
  std::size_t n_ = 0;
  double now_ = 0.0;
  std::int32_t total_procs_ = 1;
  std::int64_t free_ = 0;
  std::vector<double> rel_end_;        ///< release ends, ascending
  std::vector<std::int64_t> rel_cum_;  ///< rel_cum_[i] = free + procs[0..i)
  std::vector<std::int32_t> rel_procs_;
  std::array<double, kMaxExactWindow> submit_{};
  std::array<double, kMaxExactWindow> run_{};
  std::array<std::int32_t, kMaxExactWindow> procs_{};

  // search state
  std::array<double, kMaxExactWindow> start_{};  ///< per-job start times
  std::array<double, kMaxExactWindow> placed_end_{};
  std::array<std::int32_t, kMaxExactWindow> placed_procs_{};
  std::array<std::uint32_t, kMaxExactWindow> perm_{};
  std::array<std::uint32_t, kMaxExactWindow> best_{};
  std::array<std::uint32_t, kMaxExactWindow> scratch_{};  ///< placed-end sort
  std::uint32_t used_ = 0;  ///< bitmask of placed jobs during dfs
  double best_obj_ = 0.0;
  bool best_found_ = false;
  bool out_of_budget_ = false;
  std::uint64_t nodes_ = 0;
};

/// The solver adapted as the sixth baseline policy over a live env.
/// One adapter serves one env; call rearm() after env.reset() (a fresh
/// episode invalidates the plan's job indices). Materialized episodes
/// only — streaming compaction remaps job indices under the plan.
class ExactWindowPolicy {
 public:
  explicit ExactWindowPolicy(const sim::SchedulingEnv& env,
                             ExactConfig cfg = {});

  /// Score = plan rank (TimeVarying; pass kKind to run_priority). The
  /// returned function references *this, which must outlive the episode.
  sim::PriorityFn priority();
  static constexpr sim::PriorityKind kKind = sim::PriorityKind::TimeVarying;

  /// Planned head as a position in env.observable(), for step() loops.
  std::size_t next_action();

  /// Drop the current plan (mandatory after env.reset()).
  void rearm() { plan_len_ = 0; }

  struct Stats {
    std::uint64_t solves = 0;   ///< branch-and-bound invocations
    std::uint64_t proved = 0;   ///< solves that exhausted the search
    std::uint64_t nodes = 0;    ///< total placements explored
    double objective_sum = 0.0; ///< sum of window objectives
    double bound_sum = 0.0;     ///< sum of window lower bounds
  };
  const Stats& stats() const { return stats_; }

 private:
  void maybe_replan();
  bool plan_live() const;
  double rank(const trace::Job& job);

  const sim::SchedulingEnv* env_;
  ExactWindowScheduler solver_;
  WindowProblem prob_;  ///< reused buffers, reserved at construction
  std::array<std::uint32_t, kMaxExactWindow> plan_{};  ///< env job indices
  std::uint32_t plan_len_ = 0;
  Stats stats_;
};

/// Package a policy as a Heuristic row ("EXACT") for table benches.
Heuristic exact_heuristic(ExactWindowPolicy& policy);

}  // namespace rlsched::sched
