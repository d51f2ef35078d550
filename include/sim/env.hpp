#pragma once
// Event-driven scheduling simulator — the hot core of the system.
//
// Design for throughput at ARCHIVE-SCALE backlogs (the Table IX decision
// cost gate, now flat from 1k to 64k pending jobs — bench_sched_scaling):
//  * the running set is an incrementally ordered completion TIMELINE with
//    a cached free-capacity prefix (sim/timeline.hpp): an EASY reservation
//    is an O(log R) lookup invalidated only by job start/completion,
//    instead of the seed's copy-the-heap-and-sort per backfill pass;
//  * the pending queue is an order-stable INDEXED tombstone structure
//    (sim/pending_index.hpp): a Fenwick tree over queue positions keeps
//    the observable window dense in O(log P), a (min procs, min requested
//    time) segment tree answers "first job in queue order that fits
//    free/spare/window" for EASY backfill without rescanning the backlog,
//    and a min-key segment tree gives time-invariant heuristics an
//    O(log P) argmin — no mid-vector erases anywhere on the hot path;
//  * a free-processor counter instead of a bitmap — starting/finishing a
//    job is O(1) bookkeeping plus the index updates;
//  * the observable window handed to policies is a zero-copy span of at
//    most max_observable job ids, maintained incrementally;
//  * all metric accounting (bounded slowdown, utilization, wait, fairness)
//    is incremental at job start — results are O(users) to read, not O(n);
//  * every schedule, metric, and trained parameter is BITWISE IDENTICAL
//    to the retained naive seed core: the indexes reorganize the search,
//    never the comparisons — enforced forever by
//    tests/test_sched_core_equiv.cpp (same determinism discipline as
//    RLSCHED_WORKERS/RLSCHED_BATCH);
//  * ingestion is pluggable: reset() with a materialized vector keeps the
//    zero-allocation contract below; reset() with a trace::JobSource
//    streams the episode in chunks with O(backlog + chunk) peak memory and
//    a schedule bitwise identical to the materialized run (amortized
//    allocation is accepted there — buffers grow/compact with the
//    backlog, never with the trace);
//  * after reset() every container stays within reserved capacity: the
//    step()/run_priority() loop performs ZERO heap allocation (enforced by
//    tests/test_zero_alloc.cpp with a counting global operator new), and
//    reset() itself reuses capacity across same-length episodes, so a
//    long-lived env re-reset per episode stops allocating after warmup.
//
// Threading contract: a SchedulingEnv is NOT internally synchronized —
// every method (including the const ones, which read mutable-free state)
// must be called from one thread at a time. Parallel rollout collection
// therefore gives each pool worker its OWN env instance; distinct envs
// share nothing and may run fully concurrently.

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sim/pending_index.hpp"
#include "sim/timeline.hpp"
#include "trace/job_source.hpp"
#include "trace/trace.hpp"

namespace rlsched::sim {

/// Policies never see more than this many pending jobs (paper MAX_OBSV_SIZE):
/// decision cost stays flat as the backlog grows.
inline constexpr std::size_t kMaxObservable = 128;

enum class Metric {
  BoundedSlowdown,
  Slowdown,
  WaitTime,
  Turnaround,
  Utilization,
  FairBoundedSlowdown,  ///< max over users of their avg bounded slowdown
};

std::string metric_name(Metric m);

/// +1 when larger is better (Utilization), -1 otherwise. Rewards are
/// reward_sign(m) * value(m).
int reward_sign(Metric m);

/// The paper's interactive threshold for bounded slowdown (seconds).
inline constexpr double kBoundedSlowdownThreshold = 10.0;

/// Per-job bounded slowdown — the same formula the simulator's incremental
/// accumulators use, exported so streaming consumers (start-hook percentile
/// estimators in the benches/examples) cannot drift from it.
inline double bounded_slowdown(double wait, double run) {
  const double run_floor =
      run > kBoundedSlowdownThreshold ? run : kBoundedSlowdownThreshold;
  const double s = (wait + run) / run_floor;
  return s > 1.0 ? s : 1.0;
}

/// Priority score for heuristic scheduling: LOWER runs first.
using PriorityFn = std::function<double(const trace::Job&, double now)>;

/// How a priority function depends on the decision clock.
///
/// TimeInvariant promises priority(job, t1) == priority(job, t2) bitwise
/// for all t (FCFS/SJF/F1 qualify: they read only immutable job fields).
/// run_priority() then serves each decision from an incrementally
/// maintained min-key index in O(log P) instead of an O(P) scan — with a
/// schedule guaranteed identical to the scan (same doubles, leftmost on
/// ties). TimeVarying (the safe default) keeps the scan: wait-time scores
/// like WFP3/UNICEP reorder as the clock moves, so no static index can
/// serve them without changing tie-rounding behavior. Scores should be
/// finite: +/-inf TimeInvariant scores fall back to the scan for the
/// affected decisions (correct, just unindexed), and NaN scores are
/// unsupported in either kind (the scan's strict-< makes NaN ordering
/// position-dependent).
enum class PriorityKind {
  TimeVarying,
  TimeInvariant,
};

struct RunResult {
  std::size_t jobs = 0;
  double avg_bounded_slowdown = 0.0;
  double avg_slowdown = 0.0;
  double avg_wait = 0.0;
  double avg_turnaround = 0.0;
  double utilization = 0.0;
  double makespan = 0.0;
  double max_user_bounded_slowdown = 0.0;

  double value(Metric m) const;
};

/// Field-by-field bitwise equality (memcmp on the doubles, so -0.0 != 0.0
/// and identical NaNs compare equal). This is the comparator behind the
/// streamed-vs-materialized and indexed-vs-reference equivalence gates in
/// the tests and benches: one definition, so the gates cannot check
/// different field sets as RunResult evolves.
bool bitwise_equal(const RunResult& a, const RunResult& b);

/// Per-user average bounded slowdown of an already-scheduled job set,
/// sorted by user id. (Analysis helper; not on the hot path.)
std::vector<std::pair<int, double>> per_user_bounded_slowdown(
    const std::vector<trace::Job>& jobs);

struct EnvConfig {
  bool backfill = false;  ///< EASY backfilling around the selected head job
  std::size_t max_observable = kMaxObservable;
};

class SchedulingEnv {
 public:
  explicit SchedulingEnv(int processors, EnvConfig cfg = {});

  /// Swap in a new cluster size / config before the next reset(). Lets the
  /// batched evaluator pool env instances across evaluate() calls that
  /// target different cluster sizes instead of reconstructing them (all
  /// reserved capacity survives). Only valid between episodes — state from
  /// a running episode is discarded by the next reset() anyway.
  void reconfigure(int processors, EnvConfig cfg) {
    processors_ = processors;
    free_ = processors;
    cfg_ = cfg;
    if (cfg_.max_observable == 0 || cfg_.max_observable > kMaxObservable) {
      cfg_.max_observable = kMaxObservable;
    }
  }

  /// Load a job sequence and advance to the first arrival. Allocation
  /// happens here (and only here): every container reserves for the whole
  /// episode.
  void reset(const std::vector<trace::Job>& jobs);
  void reset(std::vector<trace::Job>&& jobs);

  /// Streamed episode: rewind `source` and pull jobs from it in
  /// `chunk_jobs` batches as simulation time reaches them, instead of
  /// requiring the whole trace up front. Started jobs are recycled out of
  /// the live buffer (amortized O(1) compaction), so peak memory is
  /// O(backlog + chunk) — independent of trace length. The schedule and
  /// every metric are bitwise identical to a materialized reset() of the
  /// same (submit-sorted) jobs; the source must deliver nondecreasing
  /// submit times or this throws std::runtime_error. `source` must outlive
  /// the episode. Note: jobs() only exposes the live buffer in this mode —
  /// use set_start_hook() for per-job schedule records.
  void reset(trace::JobSource& source, std::size_t chunk_jobs = 4096);

  /// Observer fired at every job start, after its schedule state and the
  /// incremental metrics are written. Plain function pointer: zero cost
  /// when unset, no allocation when set. Survives reset(). Streaming
  /// consumers use it to see per-job records the env no longer retains.
  using StartHook = void (*)(void* ctx, const trace::Job& job);
  void set_start_hook(StartHook hook, void* ctx) {
    start_hook_ = hook;
    start_hook_ctx_ = ctx;
  }

  /// One scheduling decision: start the `action`-th job of the observable
  /// window (waiting for processors if needed, EASY-backfilling others
  /// meanwhile when enabled), then advance until another decision is due.
  /// Returns true when every job has been started.
  bool step(std::size_t action);

  /// Run the whole episode under a priority heuristic (min-score first).
  /// Pass PriorityKind::TimeInvariant when `priority` ignores `now`
  /// (sched::Heuristic::kind says so per baseline) to serve decisions from
  /// the O(log P) min-key index; the default keeps the reference-identical
  /// O(P) scan.
  RunResult run_priority(const PriorityFn& priority,
                         PriorityKind kind = PriorityKind::TimeVarying);

  /// Pending jobs visible to a policy: indices into jobs(), arrival order,
  /// at most max_observable of them. Valid until the next step.
  std::span<const std::uint32_t> observable() const {
    return pending_.window();
  }

  const std::vector<trace::Job>& jobs() const { return jobs_; }
  double now() const { return now_; }
  int processors() const { return processors_; }
  int free_processors() const { return free_; }
  bool done() const { return drained_ && started_ == total_jobs_; }
  /// Jobs ingested so far (== jobs().size() for materialized episodes).
  std::size_t total_jobs() const { return total_jobs_; }
  /// Live-buffer length — the streaming-mode memory gauge the RSS bench
  /// tracks; equals the full episode length when materialized.
  std::size_t buffered_jobs() const { return jobs_.size(); }

  /// Read-only view of the pending-queue index, for the descent
  /// instrumentation (bench_sched_scaling's node-visit assertions). The
  /// stats accessors are the only intended use.
  const PendingIndex& pending_index() const { return pending_; }

  /// Read-only view of the running-set timeline. The exact bounded-window
  /// policy (sched/exact.hpp) snapshots live() to build the free-capacity
  /// staircase of its window subproblem. Valid until the next step.
  const Timeline& timeline() const { return timeline_; }

  /// Metrics of the (possibly partial) schedule so far.
  RunResult result() const;

 private:
  void prepare();                 ///< sort, clamp, reserve, advance to t0
  void begin_episode();           ///< zero counters/accumulators/queues
  bool refill();                  ///< pull one chunk; false when drained
  void maybe_compact();           ///< recycle started jobs (streaming only)
  void compact();
  void enqueue(std::uint32_t idx);
  void arrive_until_now();
  void advance_one_event();       ///< jump to next completion/arrival
  void ensure_pending();          ///< advance until a decision is possible
  void start_job(std::uint32_t idx);
  void start_with_wait(std::uint32_t idx);
  void try_backfill(const trace::Job& head);

  int processors_;
  EnvConfig cfg_;

  std::vector<trace::Job> jobs_;
  PendingIndex pending_;  ///< indexed pending queue, arrival order
  Timeline timeline_;     ///< running set ordered by completion time
  std::vector<int> user_ids_;              ///< sorted distinct users
  std::vector<double> user_bsld_sum_;
  std::vector<std::uint32_t> user_count_;

  double now_ = 0.0;
  int free_ = 0;
  std::size_t next_arrival_ = 0;
  std::size_t started_ = 0;

  // streaming state (source_ == nullptr => materialized episode)
  trace::JobSource* source_ = nullptr;
  std::size_t chunk_jobs_ = 0;
  bool drained_ = true;            ///< no further jobs will arrive
  std::size_t total_jobs_ = 0;     ///< ingested so far (== n materialized)
  double last_ingested_submit_ = 0.0;  ///< order guard across refills
  std::size_t dead_in_buffer_ = 0; ///< started jobs awaiting compaction
  std::vector<std::uint32_t> remap_;  ///< compaction scratch

  StartHook start_hook_ = nullptr;
  void* start_hook_ctx_ = nullptr;

  /// Active TimeInvariant priority during run_priority(): arrivals compute
  /// their static key through it. Null outside such an episode.
  const PriorityFn* key_fn_ = nullptr;

  // incremental metric accumulators
  double sum_bsld_ = 0.0, sum_sld_ = 0.0, sum_wait_ = 0.0, sum_turn_ = 0.0;
  double busy_area_ = 0.0;
  double min_submit_ = 0.0, max_end_ = 0.0;
};

}  // namespace rlsched::sim
