// Bit-equality gates for the explicit-SIMD dense kernels (nn/ops.hpp).
//
// 1. The production kernels must match a plain scalar REFERENCE that
//    implements the documented canonical order — kSimdLanes lane
//    accumulators over full lane blocks, the fixed pairwise lane tree,
//    ragged tail appended sequentially — to exact bit equality, on random
//    data at the networks' training shapes, at every ragged edge of the
//    backward's tiles, and with J not a multiple of the vector width.
// 2. A windowed batched backward must equal sequential single-window
//    backwards bitwise (the property that keeps batch size out of trained
//    parameters), including with inactive windows skipped.
// 3. FlatMlp::forward_batch column k must equal forward() of sample k.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include "nn/mlp.hpp"
#include "nn/ops.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace {

using namespace rlsched;

void fill(std::vector<float>& v, util::Rng& rng, double scale) {
  for (float& x : v) x = static_cast<float>(scale * rng.normal());
}

bool bits_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

// ---------------------------------------------------------------------------
// Reference implementations of the canonical order, in plain scalar code.
// Deliberately independent of the production kernels: lane accumulators are
// a float array, the tree combine is an explicit loop.
// ---------------------------------------------------------------------------

float ref_tree_sum(float* lane) {
  for (std::size_t w = 1; w < nn::kSimdLanes; w *= 2) {
    for (std::size_t i = 0; i + w < nn::kSimdLanes; i += 2 * w) {
      lane[i] += lane[i + w];
    }
  }
  return lane[0];
}

float ref_window_dot(const float* d, const float* a, std::size_t n) {
  float lane[nn::kSimdLanes] = {};
  const std::size_t nv = n - n % nn::kSimdLanes;
  std::size_t j = 0;
  for (; j < nv; j += nn::kSimdLanes) {
    for (std::size_t l = 0; l < nn::kSimdLanes; ++l) {
      lane[l] += d[j + l] * a[j + l];
    }
  }
  float s = ref_tree_sum(lane);
  for (; j < n; ++j) s += d[j] * a[j];
  return s;
}

float ref_window_sum(const float* d, std::size_t n) {
  float lane[nn::kSimdLanes] = {};
  const std::size_t nv = n - n % nn::kSimdLanes;
  std::size_t j = 0;
  for (; j < nv; j += nn::kSimdLanes) {
    for (std::size_t l = 0; l < nn::kSimdLanes; ++l) lane[l] += d[j + l];
  }
  float s = ref_tree_sum(lane);
  for (; j < n; ++j) s += d[j];
  return s;
}

void ref_forward(const float* W, const float* b, const float* A, float* C,
                 std::size_t out, std::size_t in, std::size_t J, bool relu) {
  for (std::size_t o = 0; o < out; ++o) {
    float* row = C + o * J;
    for (std::size_t j = 0; j < J; ++j) row[j] = b[o];
    for (std::size_t i = 0; i < in; ++i) {
      const float wv = W[o * in + i];
      const float* a = A + i * J;
      for (std::size_t j = 0; j < J; ++j) row[j] += wv * a[j];
    }
    if (relu) {
      for (std::size_t j = 0; j < J; ++j) {
        row[j] = row[j] > 0.0f ? row[j] : 0.0f;
      }
    }
  }
}

void ref_backward(const float* W, const float* A, const float* C, float* dC,
                  float* dA, float* gW, float* gb, std::size_t out,
                  std::size_t in, std::size_t J, bool relu,
                  std::size_t window, const std::uint8_t* active) {
  const std::size_t win = window == 0 ? J : window;
  const std::size_t nwin = win == 0 ? 0 : J / win;
  if (relu) {
    for (std::size_t o = 0; o < out; ++o) {
      for (std::size_t w = 0; w < nwin; ++w) {
        if (active != nullptr && active[w] == 0) continue;
        for (std::size_t j = w * win; j < (w + 1) * win; ++j) {
          if (C[o * J + j] <= 0.0f) dC[o * J + j] = 0.0f;
        }
      }
    }
  }
  for (std::size_t o = 0; o < out; ++o) {
    for (std::size_t w = 0; w < nwin; ++w) {
      if (active != nullptr && active[w] == 0) continue;
      gb[o] += ref_window_sum(dC + o * J + w * win, win);
    }
    for (std::size_t i = 0; i < in; ++i) {
      for (std::size_t w = 0; w < nwin; ++w) {
        if (active != nullptr && active[w] == 0) continue;
        gW[o * in + i] +=
            ref_window_dot(dC + o * J + w * win, A + i * J + w * win, win);
      }
    }
  }
  if (dA != nullptr) {
    for (std::size_t i = 0; i < in; ++i) {
      for (std::size_t w = 0; w < nwin; ++w) {
        if (active != nullptr && active[w] == 0) continue;
        for (std::size_t j = w * win; j < (w + 1) * win; ++j) {
          dA[i * J + j] = 0.0f;
        }
      }
    }
    for (std::size_t o = 0; o < out; ++o) {
      for (std::size_t i = 0; i < in; ++i) {
        const float wv = W[o * in + i];
        for (std::size_t w = 0; w < nwin; ++w) {
          if (active != nullptr && active[w] == 0) continue;
          for (std::size_t j = w * win; j < (w + 1) * win; ++j) {
            dA[i * J + j] += wv * dC[o * J + j];
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------

void check_forward_vs_reference() {
  util::Rng rng(21);
  // Shapes chosen to cover ragged tails: J spans 1, lane-1, lane, lane+1,
  // odd primes, and multi-window sizes.
  const std::size_t shapes[][3] = {{1, 1, 1},   {3, 4, 5},    {8, 6, 7},
                                   {5, 3, 16},  {2, 9, 17},   {7, 2, 31},
                                   {4, 4, 128}, {3, 5, 257},  {6, 6, 384}};
  for (const auto& s : shapes) {
    const std::size_t out = s[0], in = s[1], J = s[2];
    for (const bool relu : {false, true}) {
      std::vector<float> W(out * in), b(out), A(in * J);
      fill(W, rng, 0.8);
      fill(b, rng, 0.4);
      fill(A, rng, 1.0);
      std::vector<float> C(out * J, -1.0f), Cref(out * J, -2.0f);
      nn::dense_batch_forward(W.data(), b.data(), A.data(), C.data(), out,
                              in, J, relu);
      ref_forward(W.data(), b.data(), A.data(), Cref.data(), out, in, J,
                  relu);
      CHECK(bits_equal(C, Cref));
    }
  }
}

void check_backward_vs_reference() {
  util::Rng rng(22);
  // {out, in, J, window}; window 0 = single window, including ragged J.
  // The kernel policy's four layers and the value net's first layer run
  // at their training shapes; out and in of 1-3 past a multiple of the
  // gW and dA tiles reach every ragged-edge tile.
  const std::size_t shapes[][4] = {
      {3, 4, 5, 0},    {8, 6, 7, 0},     {5, 3, 33, 0},  {2, 9, 128, 0},
      {4, 5, 24, 8},   {3, 4, 20, 5},    {6, 2, 384, 128}, {2, 3, 68, 17},
      {1, 8, 128, 0},  {8, 16, 128, 0},  {16, 32, 128, 0}, {32, 6, 128, 0},
      {32, 768, 64, 0}, {5, 7, 37, 0},   {6, 5, 24, 8},  {7, 6, 45, 0},
      {5, 6, 10, 1},   {7, 5, 23, 1},    {6, 7, 36, 3}};
  // Active-window masks: none; every other window off; and runs of 1, 2
  // and 3 active windows between inactive ones, the first and the last
  // window inactive.
  constexpr std::uint8_t kRuns[] = {0, 1, 0, 1, 1, 0, 1, 1, 1, 0};
  for (const auto& s : shapes) {
    const std::size_t out = s[0], in = s[1], J = s[2], window = s[3];
    const std::size_t nwin = window == 0 ? 1 : J / window;
    for (const bool relu : {false, true}) {
      for (const int mask : {0, 1, 2}) {
        std::vector<float> W(out * in), A(in * J), C(out * J), dC0(out * J);
        fill(W, rng, 0.8);
        fill(A, rng, 1.0);
        fill(C, rng, 1.0);
        fill(dC0, rng, 1.0);
        std::vector<std::uint8_t> active(nwin, 1);
        for (std::size_t w = 0; w < nwin; ++w) {
          if (mask == 1 && w % 2 == 0) active[w] = 0;
          if (mask == 2) active[w] = w + 1 == nwin ? 0 : kRuns[w % 10];
        }
        const std::uint8_t* act = mask != 0 ? active.data() : nullptr;

        std::vector<float> dC(dC0), dA(in * J, 0.5f), gW(out * in, 0.25f),
            gb(out, 0.125f);
        nn::dense_batch_backward(W.data(), A.data(), C.data(), dC.data(),
                                 dA.data(), gW.data(), gb.data(), out, in, J,
                                 relu, window, act);
        std::vector<float> rdC(dC0), rdA(in * J, 0.5f), rgW(out * in, 0.25f),
            rgb(out, 0.125f);
        ref_backward(W.data(), A.data(), C.data(), rdC.data(), rdA.data(),
                     rgW.data(), rgb.data(), out, in, J, relu, window, act);
        CHECK(bits_equal(gW, rgW));
        CHECK(bits_equal(gb, rgb));
        CHECK(bits_equal(dA, rdA));
        CHECK(bits_equal(dC, rdC));
      }
    }
  }
}

// A windowed batched backward must be BITWISE identical to sequential
// single-window backwards — the property that makes batch size invisible
// to trained parameters.
void check_windowed_equals_sequential() {
  util::Rng rng(23);
  const std::size_t out = 5, in = 4, win = 19;  // ragged vs any lane width
  for (const std::size_t nwin : {1u, 3u, 8u}) {
    const std::size_t J = nwin * win;
    std::vector<float> W(out * in), A(in * J), C(out * J), dC0(out * J);
    fill(W, rng, 0.8);
    fill(A, rng, 1.0);
    fill(C, rng, 1.0);
    fill(dC0, rng, 1.0);

    std::vector<float> dC(dC0), dA(in * J), gW(out * in, 0.0f), gb(out, 0.0f);
    nn::dense_batch_backward(W.data(), A.data(), C.data(), dC.data(),
                             dA.data(), gW.data(), gb.data(), out, in, J,
                             /*relu=*/true, win, nullptr);

    // Sequential single-window calls on views of each window. The window
    // views are strided out of the batched arrays (row stride J), so copy
    // each window into compact (x win) buffers first.
    std::vector<float> sgW(out * in, 0.0f), sgb(out, 0.0f);
    std::vector<float> sdA(in * J);
    for (std::size_t w = 0; w < nwin; ++w) {
      std::vector<float> Aw(in * win), Cw(out * win), dCw(out * win),
          dAw(in * win);
      for (std::size_t i = 0; i < in; ++i) {
        std::memcpy(Aw.data() + i * win, A.data() + i * J + w * win,
                    win * sizeof(float));
      }
      for (std::size_t o = 0; o < out; ++o) {
        std::memcpy(Cw.data() + o * win, C.data() + o * J + w * win,
                    win * sizeof(float));
        std::memcpy(dCw.data() + o * win, dC0.data() + o * J + w * win,
                    win * sizeof(float));
      }
      nn::dense_batch_backward(W.data(), Aw.data(), Cw.data(), dCw.data(),
                               dAw.data(), sgW.data(), sgb.data(), out, in,
                               win, /*relu=*/true);
      for (std::size_t i = 0; i < in; ++i) {
        std::memcpy(sdA.data() + i * J + w * win, dAw.data() + i * win,
                    win * sizeof(float));
      }
    }
    CHECK(bits_equal(gW, sgW));
    CHECK(bits_equal(gb, sgb));
    CHECK(bits_equal(dA, sdA));
  }
}

void check_flat_mlp_batch() {
  util::Rng rng(24);
  nn::FlatMlp net({6, 11, 5, 3});
  std::vector<float> params(net.param_count());
  net.init(params.data(), rng);

  for (const std::size_t n : {1u, 2u, 7u, 32u}) {
    std::vector<float> X(6 * n);
    fill(X, rng, 1.0);
    // SoA slab: feature i of sample k at X[i*n + k]. Column k extracted
    // for the single-sample reference call.
    std::vector<float> batched(3 * n);
    {
      const float* out = net.forward_batch(params.data(), X.data(), n);
      std::memcpy(batched.data(), out, batched.size() * sizeof(float));
    }
    for (std::size_t k = 0; k < n; ++k) {
      float xk[6];
      for (std::size_t i = 0; i < 6; ++i) xk[i] = X[i * n + k];
      const float* out = net.forward_batch(params.data(), xk, 1);
      for (std::size_t o = 0; o < 3; ++o) {
        CHECK(std::memcmp(&batched[o * n + k], &out[o], sizeof(float)) == 0);
      }
    }

    // Per-sample-window batched backward == sequential one-sample calls.
    std::vector<float> dOut(3 * n);
    fill(dOut, rng, 1.0);
    std::vector<float> g(net.param_count(), 0.0f), dX(6 * n, 0.0f);
    net.forward_batch(params.data(), X.data(), n);
    net.backward_batch(params.data(), X.data(), dOut.data(), g.data(), n,
                       /*window=*/1, nullptr, dX.data());
    std::vector<float> gs(net.param_count(), 0.0f);
    for (std::size_t k = 0; k < n; ++k) {
      float xk[6], dk[3], dxk[6];
      for (std::size_t i = 0; i < 6; ++i) xk[i] = X[i * n + k];
      for (std::size_t o = 0; o < 3; ++o) dk[o] = dOut[o * n + k];
      net.forward_batch(params.data(), xk, 1);
      net.backward_batch(params.data(), xk, dk, gs.data(), 1, /*window=*/0,
                         nullptr, dxk);
      for (std::size_t i = 0; i < 6; ++i) {
        CHECK(std::memcmp(&dX[i * n + k], &dxk[i], sizeof(float)) == 0);
      }
    }
    CHECK(bits_equal(g, gs));
  }
}

}  // namespace

int main() {
  std::printf("RLSCHED_SIMD lanes: %zu\n", nn::kSimdLanes);
  check_forward_vs_reference();
  check_backward_vs_reference();
  check_windowed_equals_sequential();
  check_flat_mlp_batch();
  std::puts("simd kernel bit-equality: OK");
  return 0;
}
