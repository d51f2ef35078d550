#pragma once
// The request/response contract of the public API. The same structs are
// the wire contract of the serve:: daemon — an in-process call and a
// daemon request describe work identically.
//
// A ScheduleRequest names exactly ONE job source:
//   * jobs       — one materialized sequence
//   * sequences  — a batch of sequences swept with batched inference
//   * stream     — a trace::JobSource pulled in chunk_jobs batches with
//                  O(backlog + chunk) memory
// plus processors (0 = caller default: the training cluster in-process,
// the session's cluster in the daemon, the stream's own recorded cluster
// for streams) and backfill. Results come back as a ScheduleResult (one
// RunResult per scheduled sequence) behind a Status instead of an ad-hoc
// exception.

#include <cstddef>
#include <vector>

#include "core/status.hpp"
#include "sim/env.hpp"
#include "trace/job.hpp"
#include "trace/job_source.hpp"

namespace rlsched::core {

struct ScheduleRequest {
  // Exactly one of the three sources must be non-null. The pointed-to data
  // is borrowed for the duration of the call; the daemon's submit() copies
  // jobs/sequences into its queue (streams stay borrowed — keep the source
  // alive until the request completes).
  const std::vector<trace::Job>* jobs = nullptr;
  const std::vector<std::vector<trace::Job>>* sequences = nullptr;
  trace::JobSource* stream = nullptr;

  /// Cluster size to schedule on; 0 = the caller's default (see above).
  int processors = 0;
  /// EASY backfilling around the selected head job.
  bool backfill = false;
  /// Streamed ingestion chunk (stream source only).
  std::size_t chunk_jobs = 4096;
  /// Optional completion deadline, in seconds relative to submission;
  /// 0 = no deadline. serve::Daemon enforces it: an expired request
  /// completes with kDeadlineExceeded instead of a result, rejected at
  /// admission if it expired while queued, abandoned between inference
  /// steps if it expires mid-dispatch. The in-process
  /// RLScheduler::schedule() cannot enforce it and rejects a nonzero
  /// deadline with kInvalidArgument.
  double deadline_seconds = 0.0;
};

struct ScheduleResult {
  /// One entry per scheduled sequence, in request order. Single-source
  /// requests (jobs / stream) produce exactly one entry.
  std::vector<sim::RunResult> runs;

  const sim::RunResult& run() const { return runs.front(); }
};

/// Shape-validate a request (source combination, chunk size, processors
/// sign). Shared by the in-process entry point and the daemon so both
/// reject malformed requests identically.
Status validate(const ScheduleRequest& request);

/// The process-wide runtime knobs (rollout/update worker threads and the
/// inference batch width B), with the precedence chain
///
///     explicit config  >  environment  >  built-in default
///
/// defined HERE and nowhere else. A zero field means "unset — defer to the
/// environment"; from_env() reads RLSCHED_WORKERS / RLSCHED_BATCH through
/// the validated parsers (garbage/0/negative rejected, workers clamped to
/// hardware concurrency, batch clamped to util::kMaxBatchWindows) and falls
/// back to the built-in defaults. Both knobs are bitwise-irrelevant to
/// every result — they only move throughput — so resolution never needs to
/// be part of a model cache key.
struct RuntimeConfig {
  static constexpr std::size_t kDefaultWorkers = 1;
  static constexpr std::size_t kDefaultBatch = 8;

  std::size_t workers = 0;  ///< 0 = unset (environment, then default)
  std::size_t batch = 0;    ///< 0 = unset (environment, then default)

  /// Environment layer: concrete values (never 0) from RLSCHED_WORKERS /
  /// RLSCHED_BATCH where set and valid, built-in defaults otherwise.
  static RuntimeConfig from_env();

  /// Collapse the precedence chain: explicit fields of *this win, unset
  /// (zero) fields take the environment/default value. The returned config
  /// has no zero fields.
  RuntimeConfig resolved() const;
};

}  // namespace rlsched::core
