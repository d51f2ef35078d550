#pragma once
// Public façade: one object that owns a workload, trains the paper's PPO
// policy on it, schedules unseen sequences, and persists models.
//
// Scheduling goes through ONE entry point — schedule(const
// ScheduleRequest&) — whose request struct names the job source
// (materialized sequence, batch of sequences, or a streamed
// trace::JobSource), the cluster size, backfilling, and the streaming
// chunk; errors come back as core::Status instead of ad-hoc exceptions.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/api.hpp"
#include "core/status.hpp"
#include "rl/composite.hpp"
#include "rl/ppo.hpp"
#include "sim/env.hpp"
#include "trace/trace.hpp"

namespace rlsched::core {

struct RLSchedulerConfig {
  sim::Metric metric = sim::Metric::BoundedSlowdown;
  rl::PolicyKind policy = rl::PolicyKind::Kernel;
  bool trajectory_filtering = false;
  rl::CompositeReward composite;  ///< optional multi-objective reward

  std::size_t seq_len = 256;
  std::size_t trajectories_per_epoch = 10;
  std::size_t pi_iters = 10;
  std::size_t v_iters = 10;
  std::size_t minibatch = 512;  ///< 0 = full batch
  std::uint64_t seed = 42;
  /// Worker threads and inference batch width B. Zero fields defer to the
  /// environment (RLSCHED_WORKERS / RLSCHED_BATCH) and then the built-in
  /// defaults — the precedence chain lives in RuntimeConfig::resolved(),
  /// shared with the serve:: daemon. Both knobs are bitwise-irrelevant to
  /// every result (pure throughput), so they stay out of model cache keys.
  RuntimeConfig runtime;
};

class RLScheduler {
 public:
  using EpochCallback = std::function<void(const rl::EpochStats&)>;

  RLScheduler(const trace::Trace& trace, RLSchedulerConfig cfg);
  ~RLScheduler();
  RLScheduler(RLScheduler&&) noexcept;
  RLScheduler& operator=(RLScheduler&&) noexcept;

  /// Train for `epochs` epochs; `on_epoch` (when set) fires after each one.
  rl::TrainHistory train(std::size_t epochs,
                         const EpochCallback& on_epoch = {});

  /// Greedy-schedule the request's job source with the current policy.
  /// request.processors == 0 means the training cluster for materialized
  /// sources and the stream's own recorded cluster for streamed ones.
  /// Sequence batches sweep with batched inference (runtime.batch windows
  /// per policy forward) — runs[i] is bitwise identical to a single-sequence
  /// request of sequences[i]. Malformed requests and engine rejections
  /// (e.g. out-of-order streamed submits) come back as a non-OK Status.
  /// Every request runs to completion, so a nonzero deadline_seconds is
  /// rejected with kInvalidArgument: serve::Daemon is the path that
  /// enforces deadlines. Const but not thread-safe: it runs the trainer's
  /// policy, whose activation scratch it writes. One RLScheduler serves
  /// one caller at a time; serve::Daemon is the concurrent serving path.
  StatusOr<ScheduleResult> schedule(const ScheduleRequest& request) const;

  void save(const std::string& path) const;
  void load(const std::string& path);

  rl::PPOTrainer& trainer() { return *trainer_; }
  const rl::PPOTrainer& trainer() const { return *trainer_; }
  const RLSchedulerConfig& config() const { return cfg_; }

 private:
  RLSchedulerConfig cfg_;
  int processors_ = 0;
  std::unique_ptr<rl::PPOTrainer> trainer_;
};

}  // namespace rlsched::core
