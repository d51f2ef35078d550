#pragma once
// Trajectory filtering (paper SS IV-C): score candidate training sequences
// with a fast SJF rollout and keep only those inside R = (median, 2*mean] of
// the trace's SJF-metric distribution — dropping both trivially 'easy'
// sequences (no gradient signal) and the rare pathological ones that blow
// up the variance (Fig 3/9).

#include <cstdint>
#include <vector>

#include "sim/env.hpp"
#include "trace/trace.hpp"

namespace rlsched::rl {

/// Metric of a plain SJF rollout of `seq` on `probe` — the paper's cheap
/// difficulty probe for a candidate sequence. `probe` fixes the cluster
/// (construct it with the trace's processors and the default, no-backfill
/// EnvConfig) and is reused across calls so that, once its capacity is
/// warm, probing a same-length sequence performs no heap allocation.
double sjf_metric(sim::SchedulingEnv& probe,
                  const std::vector<trace::Job>& seq, sim::Metric metric);

struct FilterRange {
  double lo = 0.0;  ///< exclusive (median)
  double hi = 0.0;  ///< inclusive (2 * mean)
  bool contains(double v) const { return v > lo && v <= hi; }
};

/// Probe parameters PPOTrainer uses when estimating R lazily; exported so
/// the Fig 9 bench reports exactly the range training used.
inline constexpr std::size_t kFilterProbeSamples = 50;
inline constexpr std::uint64_t kFilterSeedSalt = 0x5eedULL;

/// Estimate R from `samples` random `seq_len`-job sequences of the trace.
FilterRange compute_filter_range(const trace::Trace& trace, sim::Metric metric,
                                 std::size_t seq_len, std::size_t samples,
                                 std::uint64_t seed);

}  // namespace rlsched::rl
