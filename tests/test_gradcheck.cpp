// Finite-difference gradient check for every hand-written backprop kernel:
// FlatMlp (dense + ReLU masks), batched dense layers (the kernel policy's
// SoA path), and conv1d (the LeNet baseline) — and for whole networks
// through Policy::logits_batch / backward_batch. The PPO smoke test cannot
// catch a wrong gradient — "parameters moved" and "metric finite" both
// hold under a sign or index bug — so this is the net that does.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>
#include <vector>

#include "nn/mlp.hpp"
#include "nn/ops.hpp"
#include "rl/policy.hpp"
#include "rl_fixtures.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace {

// Loss = sum(output * R) for a fixed random R, so dLoss/doutput = R.
// `floor` is the gradient size below which the error counts as absolute.
double rel_err(double a, double b, double floor = 1e-3) {
  return std::fabs(a - b) / std::max(floor, std::fabs(a) + std::fabs(b));
}

void fill(std::vector<float>& v, rlsched::util::Rng& rng, double scale) {
  for (float& x : v) x = static_cast<float>(scale * rng.normal());
}

constexpr float kEps = 1e-3f;

/// The loss at slot + kEps and at slot - kEps; the slot is restored.
template <typename Loss>
std::pair<double, double> probe(float& slot, const Loss& loss) {
  const float keep = slot;
  slot = keep + kEps;
  const double up = loss();
  slot = keep - kEps;
  const double down = loss();
  slot = keep;
  return {up, down};
}

/// Central difference of the loss in `slot`.
template <typename Loss>
double numeric(float& slot, const Loss& loss) {
  const auto [up, down] = probe(slot, loss);
  return (up - down) / (2.0 * kEps);
}

void check_flat_mlp() {
  using rlsched::nn::FlatMlp;
  rlsched::util::Rng rng(7);
  const FlatMlp net({5, 7, 4, 3});
  std::vector<float> params(net.param_count());
  net.init(params.data(), rng);
  std::vector<float> x(5), r(3), grad(net.param_count(), 0.0f), dx(5, 0.0f);
  fill(x, rng, 1.0);
  fill(r, rng, 1.0);

  auto loss = [&]() {
    const float* out = net.forward_batch(params.data(), x.data(), 1);
    double s = 0.0;
    for (std::size_t i = 0; i < r.size(); ++i) s += out[i] * r[i];
    return s;
  };
  loss();  // populate activations for the paired backward
  net.backward_batch(params.data(), x.data(), r.data(), grad.data(), 1,
                     /*window=*/0, nullptr, dx.data());

  for (std::size_t i = 0; i < params.size(); i += 3) {  // sample every 3rd
    CHECK(rel_err(numeric(params[i], loss), grad[i]) < 2e-2);
  }
  for (std::size_t i = 0; i < x.size(); ++i) {
    CHECK(rel_err(numeric(x[i], loss), dx[i]) < 2e-2);
  }
}

// J = 37 reaches the backward's vector tiles and its ragged tail at every
// lane width; J = 5 stays below one lane block at 8 and 16 lanes. `floor`
// is rel_err's: each C element the central difference moves carries the
// float forward's rounding, ~1e-7, which the 2e-3 step turns into up to
// ~1e-4 of error; among J = 37's 222 dA entries some fall below 1e-3.
void check_dense_batch(std::size_t out, std::size_t in, std::size_t J,
                       double floor) {
  using namespace rlsched::nn;
  rlsched::util::Rng rng(11);
  std::vector<float> W(out * in), b(out), A(in * J), C(out * J), R(out * J);
  fill(W, rng, 0.7);
  fill(b, rng, 0.3);
  fill(A, rng, 1.0);
  fill(R, rng, 1.0);

  auto loss = [&]() {
    dense_batch_forward(W.data(), b.data(), A.data(), C.data(), out, in, J,
                        /*relu=*/true);
    double s = 0.0;
    for (std::size_t i = 0; i < C.size(); ++i) s += C[i] * R[i];
    return s;
  };
  loss();
  std::vector<float> dC(R), dA(in * J, 0.0f), gW(out * in, 0.0f),
      gb(out, 0.0f);
  dense_batch_backward(W.data(), A.data(), C.data(), dC.data(), dA.data(),
                       gW.data(), gb.data(), out, in, J, /*relu=*/true);

  for (std::size_t i = 0; i < W.size(); ++i) {
    CHECK(rel_err(numeric(W[i], loss), gW[i], floor) < 2e-2);
  }
  for (std::size_t i = 0; i < b.size(); ++i) {
    CHECK(rel_err(numeric(b[i], loss), gb[i], floor) < 2e-2);
  }
  for (std::size_t i = 0; i < A.size(); ++i) {
    CHECK(rel_err(numeric(A[i], loss), dA[i], floor) < 2e-2);
  }
}

void check_conv1d() {
  using namespace rlsched::nn;
  rlsched::util::Rng rng(13);
  constexpr std::size_t CO = 2, CI = 3, L = 8, K = 5;
  std::vector<float> W(CO * CI * K), b(CO), A(CI * L), C(CO * L), R(CO * L);
  fill(W, rng, 0.7);
  fill(b, rng, 0.3);
  fill(A, rng, 1.0);
  fill(R, rng, 1.0);

  auto loss = [&]() {
    conv1d_forward(W.data(), b.data(), A.data(), C.data(), CO, CI, L, K,
                   /*relu=*/true);
    double s = 0.0;
    for (std::size_t i = 0; i < C.size(); ++i) s += C[i] * R[i];
    return s;
  };
  loss();
  std::vector<float> dC(R), dA(CI * L, 0.0f), gW(CO * CI * K, 0.0f),
      gb(CO, 0.0f);
  conv1d_backward(W.data(), A.data(), C.data(), dC.data(), dA.data(),
                  gW.data(), gb.data(), CO, CI, L, K, /*relu=*/true);

  for (std::size_t i = 0; i < W.size(); ++i) {
    CHECK(rel_err(numeric(W[i], loss), gW[i]) < 2e-2);
  }
  for (std::size_t i = 0; i < b.size(); ++i) {
    CHECK(rel_err(numeric(b[i], loss), gb[i]) < 2e-2);
  }
  for (std::size_t i = 0; i < A.size(); ++i) {
    CHECK(rel_err(numeric(A[i], loss), dA[i]) < 2e-2);
  }
}

// Whole networks through their batched entry points, on three real
// windows of 4 to 6 jobs. Loss = sum(logits * R) over the valid slots: like
// the PPO loss it puts no gradient on masked slots, whose zero features sit
// exactly on the kink of every zero-bias ReLU they reach. About 1000
// evenly strided parameters per network are checked. A parameter whose
// one-sided differences disagree lies within kEps of a ReLU kink, where no
// finite difference estimates the gradient: it is skipped, and at most 5%
// of the sample may be (one hidden unit near its kink for one job moves
// every parameter it reads or feeds).
void check_policy(rlsched::rl::PolicyKind kind) {
  using namespace rlsched;
  const std::vector<rl::Observation> windows = test::decision_windows(3, 4, 6);
  std::vector<const rl::Observation*> ptr;
  for (const rl::Observation& w : windows) ptr.push_back(&w);
  util::Rng rng(19);
  const auto policy = rl::make_policy(kind, rl::kMaxObservable, rng);
  std::vector<float> R(3 * rl::kMaxObservable), out(R.size());
  fill(R, rng, 1.0);
  for (std::size_t i = 0; i < R.size(); ++i) {
    R[i] *= windows[i / rl::kMaxObservable].mask[i % rl::kMaxObservable];
  }
  auto loss = [&]() {
    policy->logits_batch(ptr.data(), 3, out.data());
    double s = 0.0;
    for (std::size_t i = 0; i < out.size(); ++i) s += out[i] * R[i];
    return s;
  };
  const double base = loss();  // activations for the paired backward
  std::vector<float> grad(policy->parameter_count(), 0.0f);
  policy->backward_batch(ptr.data(), 3, R.data(), nullptr, grad.data());

  std::vector<float>& params = policy->param_vector();
  const std::size_t stride = std::max<std::size_t>(1, params.size() / 1000);
  std::size_t sampled = 0, kinks = 0;
  for (std::size_t i = 0; i < params.size(); i += stride, ++sampled) {
    const auto [up, down] = probe(params[i], loss);
    if (rel_err((up - base) / kEps, (base - down) / kEps, 1e-2) >= 2e-2) {
      ++kinks;
    } else {
      CHECK(rel_err((up - down) / (2.0 * kEps), grad[i], 1e-2) < 2e-2);
    }
  }
  std::printf("%s: %zu parameters sampled, %zu kinks skipped\n",
              rl::policy_kind_name(kind).c_str(), sampled, kinks);
  CHECK(kinks * 20 <= sampled);
}

}  // namespace

int main() {
  check_flat_mlp();
  check_dense_batch(3, 4, 5, 1e-3);
  check_dense_batch(5, 6, 37, 1e-2);
  check_conv1d();
  check_policy(rlsched::rl::PolicyKind::Kernel);
  check_policy(rlsched::rl::PolicyKind::MlpV1);
  check_policy(rlsched::rl::PolicyKind::LeNet);
  std::puts("gradient checks: OK");
  return 0;
}
