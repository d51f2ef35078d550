#pragma once
// Job traces: the materialized trace container and Standard Workload
// Format (SWF) import/export — the format of the Parallel Workloads
// Archive traces the paper evaluates on. The job record lives in
// trace/job.hpp; the streaming counterpart is trace/sharded_reader.hpp.

#include <cstdint>
#include <string>
#include <vector>

#include "trace/job.hpp"
#include "trace/job_source.hpp"
#include "util/rng.hpp"

namespace rlsched::trace {

class Trace : public JobSource {
 public:
  Trace() = default;
  Trace(std::string name, int processors, std::vector<Job> jobs);

  /// Parse an SWF file. Cluster size comes from the "; MaxProcs:" header
  /// (falling back to the largest per-job request). Throws std::runtime_error
  /// on unreadable files.
  static Trace load_swf(const std::string& path, const std::string& name = "");

  /// Write the trace as SWF (18-column rows plus a MaxProcs header).
  void save_swf(const std::string& path) const;

  const std::string& name() const override { return name_; }
  int processors() const override { return processors_; }
  std::size_t size() const { return jobs_.size(); }

  // --- JobSource: stream the materialized jobs in submit order ---
  std::size_t fetch(std::size_t max_jobs, std::vector<Job>& out) override;
  void rewind() override { cursor_ = 0; }
  const Job& operator[](std::size_t i) const { return jobs_[i]; }
  const std::vector<Job>& jobs() const { return jobs_; }

  /// Contiguous slice [start, start+len), rebased so the first job submits
  /// at t=0 and with schedule state cleared. Out-of-range is clamped.
  std::vector<Job> sequence(std::size_t start, std::size_t len) const;

  /// Like sequence(), but written into `out` — reuses its capacity, so a
  /// caller with a warmed scratch vector (each rollout worker keeps one)
  /// performs no heap allocation.
  void sequence_into(std::size_t start, std::size_t len,
                     std::vector<Job>& out) const;

  /// Random contiguous `len`-job slice (the paper's evaluation protocol).
  std::vector<Job> sample_sequence(util::Rng& rng, std::size_t len) const;

  /// sample_sequence() into a reused scratch vector; consumes exactly the
  /// same rng draws, so the two variants pick identical slices.
  void sample_sequence_into(util::Rng& rng, std::size_t len,
                            std::vector<Job>& out) const;

  Characteristics characteristics() const;

 private:
  std::string name_;
  int processors_ = 0;
  std::vector<Job> jobs_;    ///< sorted by submit_time
  std::size_t cursor_ = 0;  ///< JobSource fetch position
};

}  // namespace rlsched::trace
