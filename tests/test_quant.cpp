// Gates for the int8 quantized inference path (nn/quant.hpp + the kernel
// policy's quantize-on-load):
//
//   * every packed kernel — weight packing, activation quantization, the
//     fused hidden layer (integer epilogue clamp((dot + acc0) >> rshift,
//     0, 255)), the dequantizing final layer — is BITWISE equal to a naive
//     unpacked scalar reference built from the same arithmetic contract
//     (clamp-then-rne packing, exact int32 MACs, arithmetic shift,
//     single-rounding fmaf dequant), across ragged column counts that
//     exercise the vector paths' tail lanes on every RLSCHED_SIMD width;
//   * edge tensors: all-zero weights (scale 1, exact-zero products,
//     bias-only output), saturating extremes (amax maps to exactly +-127,
//     over-range activations clamp to 255, negatives to 0, and full
//     i32-range accumulator inits saturate exactly through the packed
//     epilogue);
//   * quantize-on-load round-trip determinism: enable -> disable ->
//     re-enable reproduces bit-identical quantized logits;
//   * quantization OFF is bitwise invisible: logits_quant_batch and the
//     quant batched-argmax are the exact float path;
//   * accuracy fixture over real evaluation windows (trained policy):
//     per-logit error bound vs float32, >= 99.9% masked-argmax agreement
//     on decisive windows (float top-2 gap beyond the bound), bounded
//     regret on every window, with the batched quant rows bitwise equal
//     to the unbatched quant forward.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <vector>

#include "nn/ops.hpp"
#include "nn/quant.hpp"
#include "rl/batch_eval.hpp"
#include "rl/observation.hpp"
#include "rl/policy.hpp"
#include "rl/ppo.hpp"
#include "sim/env.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"
#include "workload/synthetic.hpp"

namespace {
using namespace rlsched;

// --- naive reference: same arithmetic contract, no packing, no SIMD ---

std::uint8_t ref_u8(float t) {
  t = std::min(std::max(t, 0.0f), 255.0f);
  return static_cast<std::uint8_t>(
      static_cast<std::int32_t>(std::nearbyintf(t)));
}

std::int8_t ref_s8(float t) {
  t = std::min(std::max(t, -127.0f), 127.0f);
  return static_cast<std::int8_t>(
      static_cast<std::int32_t>(std::nearbyintf(t)));
}

struct RefLayer {
  std::vector<std::int8_t> qw;   // [out][in]
  std::vector<std::uint8_t> qa;  // [in][J]
  std::vector<std::int32_t> acc; // [out][J]
};

RefLayer ref_forward(const std::vector<float>& w, const std::vector<float>& a,
                     std::size_t out_dim, std::size_t in_dim, std::size_t J,
                     float wscale, float ascale) {
  RefLayer r;
  r.qw.resize(out_dim * in_dim);
  for (std::size_t i = 0; i < r.qw.size(); ++i) {
    r.qw[i] = ref_s8(w[i] / wscale);
  }
  r.qa.resize(in_dim * J);
  for (std::size_t i = 0; i < r.qa.size(); ++i) {
    r.qa[i] = ref_u8(a[i] / ascale);
  }
  r.acc.assign(out_dim * J, 0);
  for (std::size_t o = 0; o < out_dim; ++o) {
    for (std::size_t i = 0; i < in_dim; ++i) {
      for (std::size_t j = 0; j < J; ++j) {
        r.acc[o * J + j] += static_cast<std::int32_t>(r.qa[i * J + j]) *
                            r.qw[o * in_dim + i];
      }
    }
  }
  return r;
}

// --- packed-kernel equivalence across shapes (ragged tails included) ---

void check_layer_shapes(std::size_t out_dim, std::size_t in_dim,
                        std::size_t J, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> w(out_dim * in_dim), a(in_dim * J);
  for (float& x : w) x = static_cast<float>(rng.uniform(-1.5, 1.5));
  for (float& x : a) {
    // Mostly in-range positives, some negatives (relu/0-clamp path) and
    // some over-range values (255-clamp path).
    const double u = rng.uniform();
    x = u < 0.1 ? static_cast<float>(-rng.uniform())
                : static_cast<float>(rng.uniform(0.0, u > 0.9 ? 9.0 : 2.0));
  }
  const float wscale = nn::weight_scale(w.data(), w.size());
  const float ascale = 2.0f / 255.0f;
  const RefLayer ref =
      ref_forward(w, a, out_dim, in_dim, J, wscale, ascale);

  const std::size_t groups = nn::quant_groups(in_dim);
  std::vector<std::int8_t> wq(out_dim * groups * nn::kQuantGroup);
  nn::pack_weights_s8(w.data(), out_dim, in_dim, wscale, wq.data());
  for (std::size_t o = 0; o < out_dim; ++o) {
    for (std::size_t i = 0; i < groups * nn::kQuantGroup; ++i) {
      const std::int8_t want = i < in_dim ? ref.qw[o * in_dim + i] : 0;
      CHECK(wq[(o * groups) * nn::kQuantGroup + i] == want);
    }
  }

  std::vector<std::uint8_t> aq(groups * J * nn::kQuantGroup);
  nn::pack_acts_u8(a.data(), in_dim, J, J, 1.0f / ascale, aq.data());
  for (std::size_t i = 0; i < groups * nn::kQuantGroup; ++i) {
    for (std::size_t j = 0; j < J; ++j) {
      const std::uint8_t want = i < in_dim ? ref.qa[i * J + j] : 0;
      CHECK(aq[((i / 4) * J + j) * 4 + i % 4] == want);
    }
  }

  // Fused hidden layer (needs out_dim % 4 == 0). Several shift amounts,
  // accumulator inits spanning negative through saturating.
  if (out_dim % 4 == 0) {
    for (const int rshift : {0, 3, 7}) {
      std::vector<std::int32_t> acc0(out_dim);
      for (std::int32_t& x : acc0) {
        x = static_cast<std::int32_t>(rng.uniform(-60000.0, 60000.0)) +
            (rshift > 0 ? std::int32_t{1} << (rshift - 1) : 0);
      }
      std::vector<std::uint8_t> got((out_dim / 4) * J * 4);
      nn::quant_dense_hidden(aq.data(), wq.data(), out_dim, groups, J,
                             rshift, acc0.data(), got.data());
      for (std::size_t o = 0; o < out_dim; ++o) {
        for (std::size_t j = 0; j < J; ++j) {
          const std::int32_t t = (ref.acc[o * J + j] + acc0[o]) >> rshift;
          const auto want =
              static_cast<std::uint8_t>(std::min(std::max(t, 0), 255));
          CHECK(got[((o / 4) * J + j) * 4 + o % 4] == want);
        }
      }
    }
  }

  // Dequantizing final layer (any out_dim).
  {
    std::vector<float> bias(out_dim);
    for (float& x : bias) x = static_cast<float>(rng.uniform(-1.0, 1.0));
    const float m = wscale * ascale;
    std::vector<float> got(out_dim * J);
    nn::quant_dense_f32(aq.data(), wq.data(), out_dim, groups, J, m,
                        bias.data(), got.data());
    for (std::size_t o = 0; o < out_dim; ++o) {
      for (std::size_t j = 0; j < J; ++j) {
        const float want = std::fmaf(
            static_cast<float>(ref.acc[o * J + j]), m, bias[o]);
        CHECK(std::memcmp(&got[o * J + j], &want, sizeof(float)) == 0);
      }
    }
  }
}

void test_kernels_vs_reference() {
  // (out_dim, in_dim, J): the policy's real shapes plus ragged column
  // counts (J % 16 != 0 exercises the vector backends' scalar tails) and
  // in_dim not a multiple of the packing group.
  const std::size_t shapes[][3] = {{32, 6, 128}, {16, 32, 128}, {8, 16, 128},
                                   {4, 8, 128},  {8, 16, 17},   {4, 7, 5},
                                   {8, 3, 1},    {12, 9, 33},   {1, 8, 128},
                                   {3, 5, 17},   {2, 4, 16},    {5, 6, 31}};
  std::uint64_t seed = 40;
  for (const auto& s : shapes) {
    check_layer_shapes(s[0], s[1], s[2], ++seed);
  }
}

// --- edge tensors ---

void test_zero_and_saturation() {
  // All-zero weights: scale 1 (no divide-by-zero), products exactly zero,
  // the final layer returns the bias bit-for-bit.
  const std::vector<float> zeros(4 * 8, 0.0f);
  CHECK(nn::weight_scale(zeros.data(), zeros.size()) == 1.0f);
  std::vector<std::int8_t> wq(4 * 2 * 4);
  nn::pack_weights_s8(zeros.data(), 4, 8, 1.0f, wq.data());
  for (const std::int8_t q : wq) CHECK(q == 0);

  std::vector<float> a(8 * 16);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<float>(i) * 0.37f;
  }
  std::vector<std::uint8_t> aq(2 * 16 * 4);
  nn::pack_acts_u8(a.data(), 8, 16, 16, 1.0f, aq.data());
  const float bias[4] = {-2.5f, 0.0f, 1.25f, 7.0f};
  std::vector<float> out(4 * 16);
  nn::quant_dense_f32(aq.data(), wq.data(), 4, 2, 16, 0.125f, bias,
                      out.data());
  for (std::size_t o = 0; o < 4; ++o) {
    for (std::size_t j = 0; j < 16; ++j) CHECK(out[o * 16 + j] == bias[o]);
  }
  // And the hidden layer collapses to clamp(acc0[o] >> rshift, 0, 255) —
  // including full i32-range inits, which must saturate exactly through
  // the packed epilogue (2043 >> 3 == 255 is the exact boundary).
  const std::int32_t c[4] = {-(std::int32_t{1} << 30), 900, 2043,
                             std::int32_t{1} << 30};
  std::vector<std::uint8_t> h(1 * 16 * 4);
  nn::quant_dense_hidden(aq.data(), wq.data(), 4, 2, 16, 3, c, h.data());
  const std::uint8_t want_h[4] = {0, 112, 255, 255};  // 900 >> 3 == 112
  for (std::size_t j = 0; j < 16; ++j) {
    for (std::size_t r = 0; r < 4; ++r) CHECK(h[j * 4 + r] == want_h[r]);
  }

  // Saturating extremes: amax quantizes to exactly +-127; activations at
  // and beyond the calibrated ceiling clamp to 255, negatives to 0.
  const float w[8] = {2.0f, -2.0f, 1.0f, -1.0f, 0.5f, 0.0f, 1.99999f, -0.5f};
  const float ws = nn::weight_scale(w, 8);
  CHECK(ws == 2.0f / 127.0f);
  std::vector<std::int8_t> wq2(1 * 2 * 4);
  nn::pack_weights_s8(w, 1, 8, ws, wq2.data());
  CHECK(wq2[0] == 127 && wq2[1] == -127);
  CHECK(wq2[2] == 64);  // rne(63.5) rounds to even

  const float acts[4] = {255.0f, 300.0f, -7.0f, 254.49f};
  std::vector<std::uint8_t> aq2(1 * 1 * 4);
  nn::pack_acts_u8(acts, 4, 1, 1, 1.0f, aq2.data());
  CHECK(aq2[0] == 255 && aq2[1] == 255 && aq2[2] == 0 && aq2[3] == 254);
}

// --- policy-level fixtures over real evaluation windows ---

std::vector<rl::Observation> collect_observations(const rl::Policy& policy,
                                                  std::size_t limit) {
  std::vector<rl::Observation> out;
  const rl::ObservationBuilder builder;
  for (const std::uint64_t seed : {17ull, 29ull}) {
    auto trace = workload::make_trace("SDSC-SP2", 500, seed);
    // Compress submits so windows stay congested (multi-job argmaxes).
    auto jobs = trace.jobs();
    for (trace::Job& j : jobs) j.submit_time *= 0.05;
    sim::SchedulingEnv env(trace.processors(),
                           sim::EnvConfig{true, rl::kMaxObservable});
    env.reset(jobs);
    rl::Observation obs;
    const rl::Observation* ptr = &obs;
    rl::Logits l;
    std::uint32_t action = 0;
    while (!env.done() && out.size() < limit) {
      builder.build_into(env, obs);
      out.push_back(obs);
      rl::batched_argmax(policy, &ptr, 1, l.data(), &action);
      env.step(action);
    }
  }
  return out;
}

void test_policy_quant() {
  // A briefly-trained policy, not the random init: argmax agreement is
  // only meaningful for a policy with actual preferences. The 0.01-scaled
  // random head scores every job within ~1e-3 of every other — pure
  // near-ties that ANY finite-precision change flips — while training
  // separates the scores the way a deployed policy's would be.
  // Train on a small congested cluster (SDSC-SP2, 128 procs) with
  // compressed submits. On an uncontended trace every ordering reaches
  // slowdown 1.0, all advantages normalize to exactly zero, and the
  // policy gradient vanishes — the "trained" policy would silently stay
  // at its random init (near-tied logits, meaningless argmax agreement).
  auto base = workload::make_trace("SDSC-SP2", 600, 23);
  std::vector<trace::Job> jobs(base.jobs().begin(), base.jobs().end());
  for (trace::Job& j : jobs) j.submit_time *= 0.05;
  trace::Trace trace("sdsc-congested", base.processors(), std::move(jobs));
  rl::PPOConfig tcfg;
  tcfg.policy = rl::PolicyKind::Kernel;
  tcfg.seq_len = 64;
  tcfg.trajectories_per_epoch = 8;
  tcfg.pi_iters = 4;
  tcfg.v_iters = 2;
  tcfg.seed = 5;
  rl::PPOTrainer trainer(trace, tcfg);
  for (int e = 0; e < 40; ++e) trainer.train_epoch();
  rl::Policy* policy = &trainer.policy();
  const std::vector<rl::Observation> fixture =
      collect_observations(*policy, 600);
  CHECK(fixture.size() >= 200);
  std::vector<const rl::Observation*> ptrs;
  for (const rl::Observation& o : fixture) ptrs.push_back(&o);

  // Float rows (logits_batch stays float with quantization on) and the
  // quantized rows of the whole fixture, window-major.
  constexpr std::size_t K = rl::kMaxObservable;
  const std::size_t n = fixture.size();
  const std::size_t bytes = n * K * sizeof(float);
  std::vector<float> f(n * K), q(n * K), first(n * K);

  // OFF is bitwise invisible: the quant entry points ARE the float path.
  CHECK(!policy->quant_enabled());
  policy->logits_batch(ptrs.data(), n, f.data());
  policy->logits_quant_batch(ptrs.data(), n, q.data());
  CHECK(std::memcmp(f.data(), q.data(), bytes) == 0);

  // Calibrate on a prefix, evaluate on everything (held-out windows too).
  CHECK(policy->enable_quant(ptrs.data(), 64));
  CHECK(policy->quant_enabled());

  // Round-trip determinism of quantize-on-load.
  policy->logits_quant_batch(ptrs.data(), n, first.data());
  policy->disable_quant();
  CHECK(!policy->quant_enabled());
  CHECK(policy->enable_quant(ptrs.data(), 64));
  policy->logits_quant_batch(ptrs.data(), n, q.data());
  CHECK(std::memcmp(q.data(), first.data(), bytes) == 0);

  // Batched quant rows == the one-window quant forward, bitwise, at n and
  // at the B = 32 of the quant batched-argmax.
  for (std::size_t k = 0; k < n; ++k) {
    policy->logits_quant_batch(&ptrs[k], 1, q.data() + k * K);
  }
  CHECK(std::memcmp(q.data(), first.data(), bytes) == 0);
  const std::size_t B = 32;
  std::vector<float> slab(B * K);
  std::vector<std::uint32_t> actions(B);
  rl::batched_argmax_quant(*policy, ptrs.data(), B, slab.data(),
                           actions.data());
  CHECK(std::memcmp(slab.data(), first.data(), B * K * sizeof(float)) == 0);

  // Accuracy. Per-tensor int8 through four layers carries an error floor
  // of a few percent of the logit range, so raw argmax equality over ALL
  // windows is not a meaningful target: a window whose top-2 scores are
  // tied within that resolution is flipped by ANY finite-precision change,
  // and either pick is equally good. The gates that ARE meaningful:
  //   1. every logit within a per-logit error bound tol,
  //   2. >=99.9% argmax agreement on DECISIVE windows (float top-2 masked
  //      gap > 2*tol). Gate 1 implies 100% here — q[best] >= f[best]-tol
  //      beats q[j] <= f[j]+tol < f[best]-tol for every rival j — so any
  //      disagreement means the quantized path broke a real preference.
  //   3. bounded regret on EVERY window: the float score of the quantized
  //      pick is within 2*tol of the float-optimal score (also implied by
  //      gate 1; checked directly so a bound bug cannot hide).
  float logit_amax = 0.0f;
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t j = 0; j < fixture[k].count; ++j) {
      logit_amax = std::max(logit_amax, std::fabs(f[k * K + j]));
    }
  }
  const float tol = 0.08f * std::max(logit_amax, 1e-3f);
  std::size_t decisive = 0, agree = 0;
  float err_max = 0.0f, regret_max = 0.0f;
  for (std::size_t k = 0; k < n; ++k) {
    const float* fk = f.data() + k * K;
    const float* qk = first.data() + k * K;
    const std::uint8_t* mask = fixture[k].mask.data();
    for (std::size_t j = 0; j < fixture[k].count; ++j) {
      err_max = std::max(err_max, std::fabs(qk[j] - fk[j]));
    }
    const std::size_t af = nn::argmax_masked(fk, mask, K);
    const std::size_t aq = nn::argmax_masked(qk, mask, K);
    regret_max = std::max(regret_max, fk[af] - fk[aq]);
    float second = -std::numeric_limits<float>::infinity();
    for (std::size_t j = 0; j < K; ++j) {
      if (mask[j] && j != af) second = std::max(second, fk[j]);
    }
    if (fk[af] - second > 2.0f * tol) {  // single-candidate gap = +inf
      ++decisive;
      agree += af == aq;
    }
  }
  std::printf("quant[%s]: logit amax %.4g, max err %.4g (tol %.4g), "
              "regret max %.4g, decisive agreement %zu/%zu (fixture %zu)\n",
              nn::quant_isa(), static_cast<double>(logit_amax),
              static_cast<double>(err_max), static_cast<double>(tol),
              static_cast<double>(regret_max), agree, decisive,
              fixture.size());
  CHECK(err_max <= tol);
  CHECK(regret_max <= 2.0f * tol);
  // The decisive set must be a real sample, not a vacuous gate.
  CHECK(decisive * 4 >= fixture.size());
  CHECK(static_cast<double>(agree) >= 0.999 * static_cast<double>(decisive));

  // Disabled again -> float path, bitwise (the "off is off" gate).
  policy->disable_quant();
  std::vector<float> slab_q(B * K);
  std::vector<std::uint32_t> actions_f(B), actions_q(B);
  rl::batched_argmax(*policy, ptrs.data(), B, slab.data(), actions_f.data());
  rl::batched_argmax_quant(*policy, ptrs.data(), B, slab_q.data(),
                           actions_q.data());
  CHECK(std::memcmp(slab.data(), slab_q.data(), B * K * sizeof(float)) == 0);
  CHECK(actions_f == actions_q);
}

}  // namespace

int main() {
  test_kernels_vs_reference();
  test_zero_and_saturation();
  test_policy_quant();
  std::printf("quantized inference: packed kernels bitwise vs reference, "
              "edge tensors, round-trip, accuracy gates: OK (isa=%s)\n",
              rlsched::nn::quant_isa());
  return 0;
}
