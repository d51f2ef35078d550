#pragma once
// JobSource: the ingestion abstraction behind the simulator. A source hands
// out jobs in nondecreasing submit order, a bounded chunk at a time, so a
// consumer never needs the whole trace in memory. The materialized Trace
// implements it over its job vector; ShardedReader implements it by
// cursoring through SWF shard files with O(chunk) peak memory. The
// simulator's streaming reset() pulls from this interface on demand —
// streamed and materialized ingestion of the same trace produce bitwise
// identical schedules and metrics (tests/test_stream_equivalence.cpp).

#include <algorithm>
#include <cstddef>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "trace/job.hpp"

namespace rlsched::trace {

class JobSource {
 public:
  virtual ~JobSource() = default;

  virtual const std::string& name() const = 0;

  /// Cluster size. 0 means unknown (only legal for empty sources).
  virtual int processors() const = 0;

  /// Append up to `max_jobs` further jobs to `out` (existing contents are
  /// untouched, so a consumer can fetch straight into its live buffer).
  /// Returns the number appended; 0 means the source is exhausted.
  /// Delivered jobs must be in nondecreasing submit order.
  virtual std::size_t fetch(std::size_t max_jobs, std::vector<Job>& out) = 0;

  /// Restart the cursor at the first job.
  virtual void rewind() = 0;
};

/// Table II column set, computed from a trace's jobs.
struct Characteristics {
  std::string name;
  int processors = 0;
  std::size_t jobs = 0;
  double mean_interarrival = 0.0;
  double mean_requested_time = 0.0;
  double mean_requested_procs = 0.0;
  std::size_t distinct_users = 0;
};

/// Incremental Table II calibration statistics: feed jobs chunk by chunk
/// (arbitrary shard boundaries), or accumulate shards independently and
/// merge(). O(distinct users) memory; Trace::characteristics() is this
/// accumulator run over the whole vector, so streamed and materialized
/// characteristics agree exactly.
class CharacteristicsAccumulator {
 public:
  void add(const Job& j) {
    ++count_;
    sum_requested_time_ += j.requested_time;
    sum_requested_procs_ += j.requested_procs;
    first_submit_ = std::min(first_submit_, j.submit_time);
    last_submit_ = std::max(last_submit_, j.submit_time);
    users_.insert(j.user);
  }

  void merge(const CharacteristicsAccumulator& o) {
    count_ += o.count_;
    sum_requested_time_ += o.sum_requested_time_;
    sum_requested_procs_ += o.sum_requested_procs_;
    first_submit_ = std::min(first_submit_, o.first_submit_);
    last_submit_ = std::max(last_submit_, o.last_submit_);
    users_.insert(o.users_.begin(), o.users_.end());
  }

  std::size_t count() const { return count_; }

  Characteristics finish(std::string name, int processors) const {
    Characteristics c;
    c.name = std::move(name);
    c.processors = processors;
    c.jobs = count_;
    if (count_ == 0) return c;
    const double n = static_cast<double>(count_);
    if (count_ > 1) {
      c.mean_interarrival = (last_submit_ - first_submit_) / (n - 1.0);
    }
    c.mean_requested_time = sum_requested_time_ / n;
    c.mean_requested_procs = sum_requested_procs_ / n;
    c.distinct_users = users_.size();
    return c;
  }

 private:
  std::size_t count_ = 0;
  double sum_requested_time_ = 0.0;
  double sum_requested_procs_ = 0.0;
  double first_submit_ = std::numeric_limits<double>::infinity();
  double last_submit_ = -std::numeric_limits<double>::infinity();
  std::set<int> users_;
};

}  // namespace rlsched::trace
