// Parallel rollout collection must be bitwise worker-count independent:
// with the same seed, a 1-worker and a 4-worker trainer produce identical
// observations, actions, log-probs, values, rewards, advantages — and,
// because the minibatch gradient reduction is chunk-ordered, identical
// updated parameters. Also gates the zero-allocation discipline: after a
// warmup epoch, a full train_epoch() (collection fan-out included) performs
// no heap allocation on any thread. Both checks run with trajectory
// filtering off and on, and for the LeNet baseline (filtering off), whose
// per-worker clones carry their own batch scratch.
#include <cstdio>

#include "counting_alloc.hpp"

#include <utility>
#include <vector>

#include "rl/ppo.hpp"

#include "rl_fixtures.hpp"
#include "test_util.hpp"

namespace {

using namespace rlsched;

rl::PPOConfig test_config(std::size_t workers, bool filtering,
                          rl::PolicyKind kind) {
  rl::PPOConfig cfg;
  cfg.policy = kind;
  cfg.trajectory_filtering = filtering;
  cfg.seq_len = 64;
  cfg.trajectories_per_epoch = 8;
  cfg.pi_iters = 2;
  cfg.v_iters = 2;
  cfg.minibatch = 0;  // full batch -> multiple chunks per update step
  cfg.seed = 7;
  cfg.n_workers = workers;
  return cfg;
}

/// Worker-count determinism and the warmed zero-alloc gate for one config.
int check_config(const trace::Trace& trace, bool filtering,
                 rl::PolicyKind kind) {
  rl::PPOTrainer one(trace, test_config(1, filtering, kind));
  rl::PPOTrainer four(trace, test_config(4, filtering, kind));
  CHECK(one.worker_count() == 1);
  CHECK(four.worker_count() == 4);

  // Epoch 1: trajectories, advantages, and updated params all bitwise equal.
  const auto s1 = one.train_epoch();
  const auto s4 = four.train_epoch();
  CHECK(s1.avg_metric == s4.avg_metric);
  CHECK(one.steps() > 0);
  test::check_epochs_identical(one, four);

  // Epoch 2: the substream bookkeeping advances identically, and epoch 2
  // trains on parameters produced by epoch 1's (parallel) update — any
  // divergence anywhere would compound and show up here.
  one.train_epoch();
  four.train_epoch();
  test::check_epochs_identical(one, four);

  // Zero-allocation gate: with capacity warmed by two epochs, a further
  // full train_epoch — per-worker envs, sequence resampling (and, with
  // filtering, the SJF probe rollouts), the pool fan-outs, both updates —
  // must not touch the heap from any thread.
  {
    const unsigned long long before =
        g_allocs.load(std::memory_order_relaxed);
    four.train_epoch();
    const unsigned long long after =
        g_allocs.load(std::memory_order_relaxed);
    if (after != before) {
      std::fprintf(stderr,
                   "parallel train_epoch (%s, filtering %d) allocated %llu "
                   "times after warmup\n",
                   rl::policy_kind_name(kind).c_str(), filtering ? 1 : 0,
                   after - before);
      return 1;
    }
  }

  // A different worker count mid-sweep (3: does not divide 8 trajectories
  // evenly) still matches.
  rl::PPOTrainer three(trace, test_config(3, filtering, kind));
  three.train_epoch();
  three.train_epoch();
  three.train_epoch();
  one.train_epoch();
  test::check_epochs_identical(one, three);
  return 0;
}

}  // namespace

int main() {
  const auto trace = test::congested_trace();
  // Unfiltered sampling, the paper's trajectory filtering (the e2e train
  // workload's configuration), and the LeNet baseline unfiltered.
  const std::pair<bool, rl::PolicyKind> configs[] = {
      {false, rl::PolicyKind::Kernel},
      {true, rl::PolicyKind::Kernel},
      {false, rl::PolicyKind::LeNet}};
  for (const auto& [filtering, kind] : configs) {
    if (const int rc = check_config(trace, filtering, kind); rc != 0) return rc;
  }
  std::puts("parallel rollout determinism + zero-alloc: OK");
  return 0;
}
