// Parallel rollout collection must be bitwise worker-count independent:
// with the same seed, a 1-worker and a 4-worker trainer produce identical
// observations, actions, log-probs, values, rewards, advantages — and,
// because the minibatch gradient reduction is chunk-ordered, identical
// updated parameters. Also gates the zero-allocation discipline: after a
// warmup epoch, a full train_epoch() (collection fan-out included) performs
// no heap allocation on any thread. Both checks run with trajectory
// filtering off and on.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

static std::atomic<unsigned long long> g_allocs{0};

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
// Nothrow family too — a partial override mixes allocator families
// (miscounts, and trips ASan's alloc-dealloc-mismatch check).
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

#include <vector>

#include "rl/ppo.hpp"
#include "util/rng.hpp"
#include "workload/synthetic.hpp"

#include "test_util.hpp"

namespace {

using namespace rlsched;

// Congested workload (multi-job windows at every decision) so the policy
// actually has choices and gradients are non-trivial.
trace::Trace congested_trace() {
  util::Rng rng(99);
  std::vector<trace::Job> jobs;
  for (int i = 0; i < 1200; ++i) {
    trace::Job j;
    j.id = i + 1;
    j.submit_time = 20.0 * i;
    j.requested_time = 600.0 + 4000.0 * rng.uniform();
    j.run_time = j.requested_time * rng.uniform(0.5, 1.0);
    j.requested_procs = 1 + static_cast<int>(rng.below(48));
    j.user = 1 + static_cast<int>(rng.below(6));
    jobs.push_back(j);
  }
  return trace::Trace("congested", 128, std::move(jobs));
}

rl::PPOConfig test_config(std::size_t workers, bool filtering) {
  rl::PPOConfig cfg;
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

void check_epochs_identical(const rl::PPOTrainer& a, const rl::PPOTrainer& b) {
  CHECK(a.steps() == b.steps());
  CHECK(a.trajectory_ends() == b.trajectory_ends());
  for (std::size_t i = 0; i < a.steps(); ++i) {
    const rl::Observation& oa = a.observation(i);
    const rl::Observation& ob = b.observation(i);
    CHECK(oa.count == ob.count);
    CHECK(oa.mask == ob.mask);
    CHECK(oa.features == ob.features);  // bitwise float equality
  }
  CHECK(a.actions() == b.actions());
  CHECK(a.logps() == b.logps());
  CHECK(a.values() == b.values());
  CHECK(a.advantages() == b.advantages());
  CHECK(a.returns() == b.returns());
  CHECK(a.terminal_rewards() == b.terminal_rewards());
  // Chunk-ordered gradient reduction: the UPDATED parameters match too.
  CHECK(a.policy().param_vector() == b.policy().param_vector());
  CHECK(a.value_params() == b.value_params());
}

/// Worker-count determinism and the warmed zero-alloc gate for one config.
int check_config(const trace::Trace& trace, bool filtering) {
  rl::PPOTrainer one(trace, test_config(1, filtering));
  rl::PPOTrainer four(trace, test_config(4, filtering));
  CHECK(one.worker_count() == 1);
  CHECK(four.worker_count() == 4);

  // Epoch 1: trajectories, advantages, and updated params all bitwise equal.
  const auto s1 = one.train_epoch();
  const auto s4 = four.train_epoch();
  CHECK(s1.avg_metric == s4.avg_metric);
  CHECK(one.steps() > 0);
  check_epochs_identical(one, four);

  // Epoch 2: the substream bookkeeping advances identically, and epoch 2
  // trains on parameters produced by epoch 1's (parallel) update — any
  // divergence anywhere would compound and show up here.
  one.train_epoch();
  four.train_epoch();
  check_epochs_identical(one, four);

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
                   "parallel train_epoch (filtering %d) allocated %llu times "
                   "after warmup\n",
                   filtering ? 1 : 0, after - before);
      return 1;
    }
  }

  // A different worker count mid-sweep (3: does not divide 8 trajectories
  // evenly) still matches.
  rl::PPOTrainer three(trace, test_config(3, filtering));
  three.train_epoch();
  three.train_epoch();
  three.train_epoch();
  one.train_epoch();
  check_epochs_identical(one, three);
  return 0;
}

}  // namespace

int main() {
  const auto trace = congested_trace();
  // Unfiltered sampling, and the paper's trajectory filtering (the e2e
  // train workload's configuration).
  for (const bool filtering : {false, true}) {
    if (const int rc = check_config(trace, filtering); rc != 0) return rc;
  }
  std::puts("parallel rollout determinism + zero-alloc: OK");
  return 0;
}
