// Batched inference must be invisible in every result: for B in
// {1, 3, 8, 32} a trainer configured with inference batch width B produces
// BITWISE identical trajectories, metrics, and updated parameters to the
// unbatched (B=1) trainer, and evaluate_batch() reproduces the per-sequence
// evaluate() results bit for bit. For every network, one masked backward
// over a batch of windows equals one-window calls in window order, bitwise.
// Also gates the zero-allocation discipline of the batched decision loop
// (pack + B x 128 forward + per-window argmax) after warmup.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>

#include "counting_alloc.hpp"

#include <vector>

#include "nn/ops.hpp"
#include "rl/batch_eval.hpp"
#include "rl/ppo.hpp"
#include "util/rng.hpp"

#include "rl_fixtures.hpp"
#include "test_util.hpp"

namespace {

using namespace rlsched;

rl::PPOConfig test_config(std::size_t batch, rl::PolicyKind kind) {
  rl::PPOConfig cfg;
  cfg.policy = kind;
  cfg.seq_len = 64;
  cfg.trajectories_per_epoch = 8;
  cfg.pi_iters = 2;
  cfg.v_iters = 2;
  cfg.minibatch = 0;  // full batch -> multiple chunks per update step
  cfg.seed = 7;
  cfg.batch = batch;
  return cfg;
}

// Training: batch width B must be bitwise invisible in trajectories,
// metrics, and UPDATED parameters (collection lockstep + batched update
// chunks both reduce order-stably).
void check_training_batch_invariance(rl::PolicyKind kind,
                                     const std::vector<std::size_t>& widths,
                                     std::size_t epochs) {
  const auto trace = test::congested_trace();
  rl::PPOTrainer reference(trace, test_config(1, kind));
  std::vector<double> ref_metric;
  for (std::size_t e = 0; e < epochs; ++e) {
    ref_metric.push_back(reference.train_epoch().avg_metric);
  }
  for (const std::size_t B : widths) {
    rl::PPOTrainer batched(trace, test_config(B, kind));
    for (std::size_t e = 0; e < epochs; ++e) {
      CHECK(batched.train_epoch().avg_metric == ref_metric[e]);
    }
    test::check_epochs_identical(reference, batched);
  }
}

// Evaluation sweeps: evaluate_batch() == per-sequence evaluate(), bitwise,
// for every batch width and with backfilling on and off.
void check_eval_batch_invariance() {
  const auto trace = test::congested_trace();
  rl::PPOTrainer trainer(trace, test_config(1, rl::PolicyKind::Kernel));
  trainer.train_epoch();  // move off the random init

  util::Rng rng(17);
  std::vector<std::vector<trace::Job>> seqs;
  for (std::size_t i = 0; i < 7; ++i) {
    seqs.push_back(trace.sample_sequence(rng, 96));
  }
  for (const bool backfill : {false, true}) {
    std::vector<sim::RunResult> unbatched;
    for (const auto& s : seqs) {
      unbatched.push_back(trainer.evaluate(s, trace.processors(), backfill));
    }
    for (const std::size_t B : {1u, 3u, 8u, 32u}) {
      rl::BatchedEvaluator evaluator(trainer.policy(), B);
      std::vector<sim::RunResult> batched(seqs.size());
      evaluator.evaluate(seqs, trace.processors(), backfill, batched.data());
      for (std::size_t i = 0; i < seqs.size(); ++i) {
        CHECK(sim::bitwise_equal(batched[i], unbatched[i]));
      }
    }
  }
}

// The batched decision loop (pack + one B x 128 forward + per-window
// argmax) must be allocation-free once its scratch is warm, and every
// batched action must equal the unbatched argmax.
void check_batched_decision_zero_alloc() {
  util::Rng rng(5);
  const auto policy =
      rl::make_policy(rl::PolicyKind::Kernel, rl::kMaxObservable, rng);
  constexpr std::size_t B = 32;
  const std::vector<rl::Observation> obs = test::decision_windows(B);
  std::vector<const rl::Observation*> obs_ptr;
  for (const rl::Observation& o : obs) obs_ptr.push_back(&o);
  std::vector<float> logits(B * rl::kMaxObservable);
  std::vector<std::uint32_t> actions(B);

  rl::batched_argmax(*policy, obs_ptr.data(), B, logits.data(),
                     actions.data());  // warmup sizes the batch scratch
  const unsigned long long before = g_allocs;
  for (int round = 0; round < 3; ++round) {
    rl::batched_argmax(*policy, obs_ptr.data(), B, logits.data(),
                       actions.data());
  }
  const unsigned long long after = g_allocs;
  if (after != before) {
    std::fprintf(stderr, "batched decision loop allocated %llu times\n",
                 after - before);
    std::exit(1);
  }

  rl::Logits single;
  for (std::size_t k = 0; k < B; ++k) {
    policy->logits_batch(&obs_ptr[k], 1, single.data());
    const std::size_t a = nn::argmax_masked(single.data(),
                                            obs[k].mask.data(),
                                            rl::kMaxObservable);
    CHECK(actions[k] == a);
    // The batched logits row itself is bitwise identical too.
    for (std::size_t j = 0; j < rl::kMaxObservable; ++j) {
      CHECK(logits[k * rl::kMaxObservable + j] == single[j]);
    }
  }
}

// The contract of Policy::backward_batch, for every network: one forward
// and one masked backward over 7 windows accumulate bitwise the gradient
// of one-window forward/backward pairs in window order, skipping the
// inactive windows. The mask leaves the first and last windows out and
// has active runs of 1 and 2; inactive rows of dlogits are NaN, so any
// read of them poisons the gradient.
void check_masked_backward_equals_windows(rl::PolicyKind kind) {
  util::Rng rng(31);
  const auto policy = rl::make_policy(kind, rl::kMaxObservable, rng);
  constexpr std::size_t n = 7;
  constexpr std::uint8_t active[n] = {0, 1, 1, 0, 1, 0, 0};
  const std::vector<rl::Observation> obs = test::decision_windows(n);
  std::vector<const rl::Observation*> obs_ptr;
  for (const rl::Observation& o : obs) obs_ptr.push_back(&o);
  std::vector<float> dlogits(n * rl::kMaxObservable);
  for (std::size_t i = 0; i < dlogits.size(); ++i) {
    dlogits[i] = active[i / rl::kMaxObservable]
                     ? static_cast<float>(rng.normal())
                     : std::numeric_limits<float>::quiet_NaN();
  }

  const std::size_t np = policy->parameter_count();
  std::vector<float> batched(np, 0.0f), one_by_one(np, 0.0f);
  std::vector<float> out(dlogits.size());
  policy->logits_batch(obs_ptr.data(), n, out.data());
  policy->backward_batch(obs_ptr.data(), n, dlogits.data(), active,
                         batched.data());
  for (std::size_t k = 0; k < n; ++k) {
    if (active[k] == 0) continue;
    policy->logits_batch(&obs_ptr[k], 1, out.data());
    policy->backward_batch(&obs_ptr[k], 1,
                           dlogits.data() + k * rl::kMaxObservable, nullptr,
                           one_by_one.data());
  }
  CHECK(std::memcmp(batched.data(), one_by_one.data(),
                    np * sizeof(float)) == 0);
  CHECK(std::any_of(batched.begin(), batched.end(),
                    [](float g) { return g != 0.0f; }));
}

}  // namespace

int main() {
  check_training_batch_invariance(rl::PolicyKind::Kernel, {3, 8, 32}, 2);
  // One epoch and one width suffice for the remaining code paths: MlpV1
  // covers the sample-axis batched forward/backward, LeNet its per-window
  // conv stack under the sample-axis head. The kernel policy above carries
  // the full gate.
  check_training_batch_invariance(rl::PolicyKind::MlpV1, {8}, 1);
  check_training_batch_invariance(rl::PolicyKind::LeNet, {8}, 1);
  for (const rl::PolicyKind kind :
       {rl::PolicyKind::Kernel, rl::PolicyKind::MlpV1, rl::PolicyKind::MlpV2,
        rl::PolicyKind::MlpV3, rl::PolicyKind::LeNet}) {
    check_masked_backward_equals_windows(kind);
  }
  check_eval_batch_invariance();
  check_batched_decision_zero_alloc();
  std::puts("batched inference bitwise invariance + zero-alloc: OK");
  return 0;
}
