// Finite-difference gradient check for every hand-written backprop kernel:
// FlatMlp (dense + ReLU masks), batched dense layers (the kernel policy's
// SoA path), and conv1d (the LeNet baseline). The PPO smoke test cannot
// catch a wrong gradient — "parameters moved" and "metric finite" both
// hold under a sign or index bug — so this is the net that does.
#include <cmath>
#include <cstdio>
#include <vector>

#include "nn/mlp.hpp"
#include "nn/ops.hpp"
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
    const float* out = net.forward(params.data(), x.data());
    double s = 0.0;
    for (std::size_t i = 0; i < r.size(); ++i) s += out[i] * r[i];
    return s;
  };
  loss();  // populate activations for the paired backward
  net.backward(params.data(), x.data(), r.data(), grad.data(), dx.data(),
               /*recompute=*/false);

  const float eps = 1e-3f;
  for (std::size_t i = 0; i < params.size(); i += 3) {  // sample every 3rd
    const float keep = params[i];
    params[i] = keep + eps;
    const double up = loss();
    params[i] = keep - eps;
    const double down = loss();
    params[i] = keep;
    const double numeric = (up - down) / (2.0 * eps);
    CHECK(rel_err(numeric, grad[i]) < 2e-2);
  }
  for (std::size_t i = 0; i < x.size(); ++i) {
    const float keep = x[i];
    x[i] = keep + eps;
    const double up = loss();
    x[i] = keep - eps;
    const double down = loss();
    x[i] = keep;
    CHECK(rel_err((up - down) / (2.0 * eps), dx[i]) < 2e-2);
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

  const float eps = 1e-3f;
  auto numeric = [&](float& slot) {
    const float keep = slot;
    slot = keep + eps;
    const double up = loss();
    slot = keep - eps;
    const double down = loss();
    slot = keep;
    return (up - down) / (2.0 * eps);
  };
  for (std::size_t i = 0; i < W.size(); ++i) {
    CHECK(rel_err(numeric(W[i]), gW[i], floor) < 2e-2);
  }
  for (std::size_t i = 0; i < b.size(); ++i) {
    CHECK(rel_err(numeric(b[i]), gb[i], floor) < 2e-2);
  }
  for (std::size_t i = 0; i < A.size(); ++i) {
    CHECK(rel_err(numeric(A[i]), dA[i], floor) < 2e-2);
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

  const float eps = 1e-3f;
  auto numeric = [&](float& slot) {
    const float keep = slot;
    slot = keep + eps;
    const double up = loss();
    slot = keep - eps;
    const double down = loss();
    slot = keep;
    return (up - down) / (2.0 * eps);
  };
  for (std::size_t i = 0; i < W.size(); ++i) CHECK(rel_err(numeric(W[i]), gW[i]) < 2e-2);
  for (std::size_t i = 0; i < b.size(); ++i) CHECK(rel_err(numeric(b[i]), gb[i]) < 2e-2);
  for (std::size_t i = 0; i < A.size(); ++i) CHECK(rel_err(numeric(A[i]), dA[i]) < 2e-2);
}

}  // namespace

int main() {
  check_flat_mlp();
  check_dense_batch(3, 4, 5, 1e-3);
  check_dense_batch(5, 6, 37, 1e-2);
  check_conv1d();
  std::puts("gradient checks: OK");
  return 0;
}
