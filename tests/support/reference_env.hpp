#pragma once
// The FROZEN naive scheduling core — the seed implementation kept verbatim
// (O(backlog) pending-queue scans and erases, O(R log R) copy-and-sort
// reservations) so the indexed core in sim/env.hpp can be differentially
// gated against it forever. It is test support, not library code: the
// rlsched_reference target (tests/CMakeLists.txt) links it into
//
//  * tests/test_sched_core_equiv.cpp, which asserts bitwise-identical
//    RunResults and per-job start times between SchedulingEnv and
//    ReferenceEnv — and, for the kernel policy, equal observation inputs
//    at every decision — across fuzzed traces, every heuristic, backfill
//    on/off, materialized and streamed ingestion;
//  * bench/bench_sched_scaling.cpp measures the >= 10x decisions/sec
//    speedup the indexed core must deliver over this one on a 64k-job
//    storm backlog (gated in CI by scripts/perf_gate.py).
//
// Do NOT optimize this class. Its only job is to be obviously correct and
// stay byte-for-byte equivalent in behavior to the documented semantics.
// The one deliberate delta from the original seed code (mirrored in the
// indexed core): reservation() accumulates completions in equal-end-time
// GROUPS before testing the capacity crossing, so the spare-processor
// count no longer depends on std::sort's unstable permutation of tied
// completion times — the semantics had to become order-free before an
// incremental structure could reproduce them bitwise.
//
// Shares Metric/RunResult/EnvConfig/PriorityFn/bounded_slowdown with
// sim/env.hpp — one definition each, so the two cores cannot drift on the
// metric formulas themselves.

#include <cstdint>
#include <span>
#include <vector>

#include "sim/env.hpp"
#include "trace/job_source.hpp"

namespace rlsched::sim {

class ReferenceEnv {
 public:
  explicit ReferenceEnv(int processors, EnvConfig cfg = {});

  void reset(const std::vector<trace::Job>& jobs);
  void reset(trace::JobSource& source, std::size_t chunk_jobs = 4096);

  using StartHook = void (*)(void* ctx, const trace::Job& job);
  void set_start_hook(StartHook hook, void* ctx) {
    start_hook_ = hook;
    start_hook_ctx_ = ctx;
  }

  bool step(std::size_t action);

  /// `kind` is accepted for signature parity with SchedulingEnv and
  /// ignored: the reference always does the O(backlog) min-scan, which IS
  /// the semantics the indexed key path must reproduce.
  RunResult run_priority(const PriorityFn& priority,
                         PriorityKind kind = PriorityKind::TimeVarying);

  std::span<const std::uint32_t> observable() const;

  const std::vector<trace::Job>& jobs() const { return jobs_; }
  double now() const { return now_; }
  int processors() const { return processors_; }
  int free_processors() const { return free_; }
  bool done() const { return drained_ && started_ == total_jobs_; }

  RunResult result() const;

 private:
  struct Completion {
    double end;
    std::int32_t procs;
  };
  struct CompletionLater {
    bool operator()(const Completion& a, const Completion& b) const {
      return a.end > b.end;
    }
  };

  void prepare();
  void begin_episode();
  bool refill();
  void maybe_compact();
  void compact();
  void arrive_until_now();
  void advance_one_event();
  void ensure_pending();
  void start_job(std::uint32_t idx);
  void start_with_wait(std::uint32_t idx);
  void try_backfill(const trace::Job& head);
  double reservation(int needed, int* spare);

  int processors_;
  EnvConfig cfg_;

  std::vector<trace::Job> jobs_;
  std::vector<std::uint32_t> pending_;
  std::vector<Completion> running_;
  std::vector<Completion> shadow_;
  std::vector<int> user_ids_;
  std::vector<double> user_bsld_sum_;
  std::vector<std::uint32_t> user_count_;

  double now_ = 0.0;
  int free_ = 0;
  std::size_t next_arrival_ = 0;
  std::size_t started_ = 0;

  trace::JobSource* source_ = nullptr;
  std::size_t chunk_jobs_ = 0;
  bool drained_ = true;
  std::size_t total_jobs_ = 0;
  double last_ingested_submit_ = 0.0;
  std::size_t dead_in_buffer_ = 0;
  std::vector<std::uint32_t> remap_;

  StartHook start_hook_ = nullptr;
  void* start_hook_ctx_ = nullptr;

  double sum_bsld_ = 0.0, sum_sld_ = 0.0, sum_wait_ = 0.0, sum_turn_ = 0.0;
  double busy_area_ = 0.0;
  double min_submit_ = 0.0, max_end_ = 0.0;
};

}  // namespace rlsched::sim
