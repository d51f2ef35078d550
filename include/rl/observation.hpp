#pragma once
// Fixed-size observation tensor for the policy networks. The builder writes
// into a flat float array in struct-of-arrays layout (feature-major, job
// axis contiguous) so the kernel network's batched GEMV loops stream it.
// Everything is std::array — building and copying an Observation performs
// no heap allocation.

#include <array>
#include <cmath>
#include <cstdint>

#include "sim/env.hpp"

namespace rlsched::rl {

/// Window size seen by every policy (paper MAX_OBSV_SIZE). Mirrors the
/// simulator's cutoff: decision cost is flat in the backlog length.
inline constexpr std::size_t kMaxObservable = sim::kMaxObservable;

/// Per-job features, all normalized to O(1) ranges:
///   0: log1p(wait time) / 12
///   1: log1p(requested runtime) / 12
///   2: log1p(requested procs) / log1p(cluster procs)
///   3: job fits in the currently free processors (0/1)
///   4: free processor fraction of the cluster
///   5: valid-slot bias (1 for real jobs, 0 for padding)
inline constexpr std::size_t kJobFeatures = 6;

/// Invariant: slots at and past `count` hold zero features and a zero
/// mask. The kernel policy scores only a prefix of slots past `count` and
/// gives the rest that prefix's last logit, and the greedy argmax scans
/// `count` slots, so both rely on it. ObservationBuilder is the only
/// producer.
struct Observation {
  /// SoA: features[f * kMaxObservable + j] is feature f of window slot j.
  std::array<float, kJobFeatures * kMaxObservable> features;
  std::array<std::uint8_t, kMaxObservable> mask;  ///< 1 = real job
  std::uint32_t count = 0;                        ///< valid slots
};

using Logits = std::array<float, kMaxObservable>;

class ObservationBuilder {
 public:
  /// Snapshot the env's observable window into caller-owned storage (a
  /// rollout slot, a batch-packing slab, a loop-local Observation); padding
  /// slots are zeroed and masked out. Inline: it runs on every replay,
  /// serve and PPO decision.
  void build_into(const sim::SchedulingEnv& env, Observation& out) const {
    out.features.fill(0.0f);
    out.mask.fill(0);

    const auto window = env.observable();
    const auto& jobs = env.jobs();
    const double now = env.now();
    // Loop-invariant: one read for the whole window, not one per feature
    // row.
    const int free_procs = env.free_processors();
    const float free_frac = static_cast<float>(free_procs) /
                            static_cast<float>(env.processors());
    const float procs_norm =
        1.0f / std::log1p(static_cast<float>(env.processors()));

    out.count = static_cast<std::uint32_t>(window.size());
    float* f0 = out.features.data();  // wait
    float* f1 = f0 + kMaxObservable;  // requested time
    float* f2 = f1 + kMaxObservable;  // requested procs
    float* f3 = f2 + kMaxObservable;  // fits now
    float* f4 = f3 + kMaxObservable;  // free fraction
    float* f5 = f4 + kMaxObservable;  // valid bias
    for (std::size_t j = 0; j < window.size(); ++j) {
      const trace::Job& job = jobs[window[j]];
      const float wait = static_cast<float>(now - job.submit_time);
      f0[j] = std::log1p(wait > 0.0f ? wait : 0.0f) * (1.0f / 12.0f);
      f1[j] = std::log1p(static_cast<float>(job.requested_time)) *
              (1.0f / 12.0f);
      f2[j] =
          std::log1p(static_cast<float>(job.requested_procs)) * procs_norm;
      f3[j] = job.requested_procs <= free_procs ? 1.0f : 0.0f;
      f4[j] = free_frac;
      f5[j] = 1.0f;
      out.mask[j] = 1;
    }
  }
};

}  // namespace rlsched::rl
