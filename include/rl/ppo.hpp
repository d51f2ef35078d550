#pragma once
// Proximal Policy Optimization over the scheduling environment: GAE
// advantages, clipped surrogate objective, minibatched Adam updates, and a
// separate value network. Trajectory and gradient buffers are allocated
// once at construction and reused across epochs — the steady-state training
// loop performs no heap allocation.
//
// Parallelism (n_workers > 1): the two per-epoch costs are both fanned out
// over a reusable thread pool, and both are constructed to be bitwise
// worker-count independent — the same seed produces the same trajectories,
// advantages, and updated parameters whether 1 or K workers ran:
//
//  * rollout collection — embarrassingly parallel. Each pool worker owns a
//    SchedulingEnv, a policy clone (for its activation scratch), a value-net
//    scratch, and a sequence buffer; each TRAJECTORY owns a counter-based
//    RNG substream keyed by (seed, trajectory index), and lands in its own
//    RolloutBuffer slot. The merge walks slots in index order.
//  * minibatch gradient accumulation — each minibatch is cut into fixed
//    64-sample chunks; workers accumulate into per-CHUNK gradient scratch,
//    and the reduction sums chunks in chunk order. Chunk boundaries depend
//    only on the batch, never on the worker count, so float summation order
//    is reproducible.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/mlp.hpp"
#include "nn/ops.hpp"
#include "rl/composite.hpp"
#include "rl/filter.hpp"
#include "rl/observation.hpp"
#include "rl/policy.hpp"
#include "rl/rollout.hpp"
#include "sim/env.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workload/synthetic.hpp"

namespace rlsched::rl {

class BatchedEvaluator;

struct PPOConfig {
  sim::Metric metric = sim::Metric::BoundedSlowdown;
  PolicyKind policy = PolicyKind::Kernel;
  bool trajectory_filtering = false;
  CompositeReward composite;  ///< overrides `metric` as reward when set

  std::size_t seq_len = 256;  ///< jobs per trajectory (paper SS V-A)
  std::size_t trajectories_per_epoch = 10;
  std::size_t pi_iters = 10;
  std::size_t v_iters = 10;
  /// Transitions per update; 0 means FULL BATCH (all collected transitions
  /// in a single Adam step per iteration).
  std::size_t minibatch = 512;
  std::uint64_t seed = 42;
  bool backfill = false;  ///< backfilling during training rollouts
  /// Rollout/update threads (RLSCHED_WORKERS). Results are bitwise
  /// identical for every value; 0 is treated as 1.
  std::size_t n_workers = 1;
  /// Inference batch width B (RLSCHED_BATCH): rollout collection advances
  /// up to B trajectories in lockstep per worker and scores their windows
  /// in ONE policy forward (job axis B x 128); evaluate_batch() groups
  /// sequences the same way. Bitwise identical results for every value —
  /// like n_workers, B is a throughput knob, never a semantics knob — so
  /// it is not part of the model cache key. 0 is treated as 1.
  std::size_t batch = 8;

  float pi_lr = 3e-4f;
  float v_lr = 1e-3f;
  float clip = 0.2f;
  float gamma = 1.0f;   ///< finite episodes with terminal reward
  float lam = 0.97f;    ///< GAE lambda
  float target_kl = 0.05f;  ///< early-stop threshold per policy iteration
};

struct EpochStats {
  std::size_t epoch = 0;
  double avg_metric = 0.0;  ///< cfg.metric averaged over the epoch's rollouts
  double seconds = 0.0;
  double collect_seconds = 0.0;  ///< rollout-collection share of `seconds`
  double update_seconds = 0.0;   ///< policy+value-update share of `seconds`
};

struct TrainHistory {
  std::vector<EpochStats> epochs;
};

class PPOTrainer {
 public:
  PPOTrainer(const trace::Trace& trace, PPOConfig cfg);
  ~PPOTrainer();

  /// Collect trajectories_per_epoch rollouts and run the PPO update.
  EpochStats train_epoch();

  // The evaluate* calls are const but not thread-safe: they run the
  // trainer's own policy (whose activation scratch they write), and
  // evaluate_batch() builds its evaluator on first use. One trainer serves
  // one caller at a time; serve::Daemon is the concurrent serving path.

  /// Greedy (argmax) rollout of the current policy on an arbitrary
  /// sequence/cluster.
  sim::RunResult evaluate(const std::vector<trace::Job>& seq, int processors,
                          bool backfill) const;

  /// Greedy rollout over a streamed job source (e.g. trace::ShardedReader):
  /// the episode is pulled in `chunk_jobs` batches with O(backlog + chunk)
  /// peak memory and yields bitwise the same schedule as evaluate() on the
  /// materialized jobs. Rewinds `source` first.
  sim::RunResult evaluate_stream(trace::JobSource& source, int processors,
                                 bool backfill,
                                 std::size_t chunk_jobs = 4096) const;

  /// Batched greedy rollouts: schedules the sequences in lockstep groups
  /// of cfg.batch, scoring up to batch observation windows per policy
  /// forward. out[i] is bitwise identical to evaluate(seqs[i], ...) — the
  /// evaluation sweeps in the benches go through this path.
  std::vector<sim::RunResult> evaluate_batch(
      const std::vector<std::vector<trace::Job>>& seqs, int processors,
      bool backfill) const;

  const Policy& policy() const { return *policy_; }
  Policy& policy() { return *policy_; }
  const PPOConfig& config() const { return cfg_; }
  std::size_t worker_count() const { return pool_.workers(); }

  // Read-only views of the most recent epoch's merged buffers (determinism
  // tests and the scaling bench compare these across worker counts).
  std::size_t steps() const { return steps_; }
  const Observation& observation(std::size_t i) const { return *obs_ptr_[i]; }
  const std::vector<std::uint32_t>& actions() const { return act_buf_; }
  const std::vector<float>& logps() const { return logp_buf_; }
  const std::vector<float>& values() const { return val_buf_; }
  const std::vector<float>& advantages() const { return adv_buf_; }
  const std::vector<float>& returns() const { return ret_buf_; }
  const std::vector<float>& terminal_rewards() const { return traj_reward_; }
  const std::vector<std::size_t>& trajectory_ends() const { return traj_end_; }
  const std::vector<float>& value_params() const { return value_params_; }

  void save(const std::string& path) const;
  void load(const std::string& path);

 private:
  /// Per-worker mutable state. Policies and the value net keep activation
  /// scratch inside, so each worker gets its own instances; parameters are
  /// synced from the canonical copies before each fan-out.
  struct Worker;

  /// Minibatch chunk width for parallel gradient accumulation. Fixed (not
  /// derived from the worker count) so the reduction order — and therefore
  /// the trained parameters — never depend on how many threads ran.
  static constexpr std::size_t kGradChunk = 64;

  void collect_trajectories();
  /// Lockstep-collect the trajectories of group `g` (global indices
  /// [g*batch, g*batch + nb)): every decision step batches the live lanes'
  /// windows into one policy forward and one value forward. Per-lane RNG
  /// substreams keep the result bitwise identical for every batch width.
  void collect_group(std::size_t group, std::uint64_t round, Worker& w);
  void sync_worker_policies();
  void reset_perm();
  void compute_advantages();
  void update_policy();
  void update_value();
  double reward_of(const sim::RunResult& r) const;
  /// Argmax rollout of the current policy from `env`'s reset state — the
  /// one loop behind evaluate() and evaluate_stream().
  sim::RunResult greedy(sim::SchedulingEnv& env) const;

  trace::Trace trace_;
  PPOConfig cfg_;
  std::size_t batch_ = 1;  ///< cfg.batch with 0 clamped to 1
  util::Rng rng_;
  ObservationBuilder builder_;

  std::unique_ptr<Policy> policy_;
  /// Lazily built on the first evaluate_batch() and reused: its env pool
  /// and batch slabs persist, so repeated sweeps stop allocating.
  mutable std::unique_ptr<BatchedEvaluator> evaluator_;
  nn::FlatMlp value_net_;
  std::vector<float> value_params_;
  nn::Adam pi_opt_, v_opt_;

  std::vector<std::unique_ptr<Worker>> workers_;
  util::ThreadPool pool_;

  // per-trajectory collection slots + merged per-epoch views
  std::vector<RolloutBuffer> slots_;
  std::vector<const Observation*> obs_ptr_;  ///< slot storage, merged order
  std::vector<std::uint32_t> act_buf_;
  std::vector<float> logp_buf_, val_buf_, adv_buf_, ret_buf_;
  std::vector<std::size_t> traj_end_;  ///< exclusive end index per rollout
  std::vector<float> traj_reward_;     ///< terminal reward per rollout
  std::size_t steps_ = 0;
  std::uint64_t collect_round_ = 0;  ///< feeds the per-trajectory substreams

  // update scratch
  std::vector<float> pi_grad_, v_grad_;
  std::vector<std::vector<float>> chunk_grad_;  ///< one slab per chunk
  std::vector<double> chunk_kl_;
  std::vector<std::uint32_t> perm_;

  FilterRange filter_range_;
  bool filter_ready_ = false;
  std::size_t epoch_ = 0;
  double epoch_metric_sum_ = 0.0;
};

}  // namespace rlsched::rl
