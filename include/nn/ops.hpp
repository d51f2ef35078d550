#pragma once
// Cache-friendly neural-net primitives for the policy/value networks.
// Everything operates on caller-owned flat float buffers — no tensors, no
// allocation, no dispatch. Batched variants keep the job axis J contiguous
// (struct-of-arrays), so the inner loops vectorize across pending jobs —
// and J may span B stacked observation windows (B x 128 for the kernel
// policy), which is how batched inference amortizes weight traffic.
//
// Determinism contract of the dense kernels:
//  * forward and dA are elementwise along J — each output element depends
//    only on its own column, accumulated in i (respectively o) order — so
//    a batched call is trivially bitwise identical to per-window calls;
//  * reductions along J (gW, gb) are ORDER-STABLE: one partial sum per
//    window, added in window order, each partial computed with kSimdLanes
//    lane accumulators over full lane blocks, the fixed pairwise lane tree,
//    then the ragged tail sequentially (nn/simd.hpp). A batched backward is
//    therefore bitwise identical to sequential single-window backwards —
//    batch size can never leak into trained parameters. The lane width is
//    a build constant (like -march), never a runtime knob.

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <vector>

#include "nn/simd.hpp"

namespace rlsched::nn {

// ---------------------------------------------------------------------------
// Dense layers over an SoA batch: A is (in x J), C is (out x J),
// W is (out x in) row-major, b is (out).
// ---------------------------------------------------------------------------

/// Register-tiled GEMV/GEMM microkernel: kRowBlock output rows x kTileVecs
/// vector lanes of the job axis are accumulated entirely in registers, so
/// each C element is written exactly once and each A element is loaded once
/// per row block (the naive loop re-loads and re-stores the C row for every
/// input — 3 memory ops per FMA — and that, not FLOPs, bounds the seed's
/// decision latency). The per-ELEMENT arithmetic order is unchanged (bias
/// first, inputs in ascending i, relu last), so the tiled kernel is bitwise
/// identical to the naive reference whatever the tile shape.
inline constexpr std::size_t kRowBlock = 4;   ///< output rows per microtile
inline constexpr std::size_t kTileVecs = 2;   ///< vectors per j-microtile

/// gW microtile of the backward: kGradRows x kGradCols (o, i) pairs share
/// each dC and A vector load, and their 8 lane accumulators fit AVX2's 16
/// vector registers beside the 6 loads. At one lane the tile is 1-D: GCC's
/// default FP contraction leaves some products of a 2-D scalar tile
/// unfused, and the tile would then miss the scalar reference's bits.
inline constexpr std::size_t kGradRows = kSimdLanes == 1 ? 1 : 4;
inline constexpr std::size_t kGradCols = 2;

namespace detail {

/// Calls f(std::integral_constant<std::size_t, min(n, Max)>{}) for n >= 1:
/// a ragged edge of n < Max rows or columns gets its own compile-time tile.
template <std::size_t Max, typename F>
inline void with_tile(std::size_t n, F&& f) {
  if constexpr (Max > 0) {
    if (n >= Max) {
      f(std::integral_constant<std::size_t, Max>{});
    } else {
      with_tile<Max - 1>(n, f);
    }
  }
}

/// Columns [j, j1) of one row block that are narrower than a microtile:
/// single vectors, then scalars, in dense_row_block's per-element order.
/// A function of its own: with these loops inside it, GCC 12 compiled
/// dense_row_block's microtile loop about 20% slower.
template <std::size_t Rows>
inline void dense_row_tail(const float* __restrict W, std::size_t wr,
                           std::size_t wk, const float* __restrict b,
                           const float* __restrict A, float* __restrict C,
                           std::size_t r0, std::size_t K, std::size_t ld,
                           std::size_t j, std::size_t j1, bool relu) {
  const float* w = W + r0 * wr;
  const std::size_t w_end = K * wk;
  // Single-vector middle tier: batches narrower than a full microtile
  // (e.g. a 8-12 column value-net chunk) must still vectorize.
  for (; j + kSimdLanes <= j1; j += kSimdLanes) {
    VecF acc[Rows];
    RLSCHED_UNROLL
    for (std::size_t r = 0; r < Rows; ++r) {
      acc[r] = vsplat(b != nullptr ? b[r0 + r] : 0.0f);
    }
    for (std::size_t wo = 0, ao = j; wo != w_end; wo += wk, ao += ld) {
      const VecF av = vload(A + ao);
      RLSCHED_UNROLL
      for (std::size_t r = 0; r < Rows; ++r) {
        acc[r] += vsplat(w[r * wr + wo]) * av;
      }
    }
    RLSCHED_UNROLL
    for (std::size_t r = 0; r < Rows; ++r) {
      vstore(C + (r0 + r) * ld + j, relu ? vmax0(acc[r]) : acc[r]);
    }
  }
  // Ragged tail: same order, scalar accumulators.
  for (; j < j1; ++j) {
    for (std::size_t r = 0; r < Rows; ++r) {
      float s = b != nullptr ? b[r0 + r] : 0.0f;
      for (std::size_t k = 0; k < K; ++k) {
        s += w[r * wr + k * wk] * A[k * ld + j];
      }
      if (relu) s = s > 0.0f ? s : 0.0f;
      C[(r0 + r) * ld + j] = s;
    }
  }
}

/// One block of `Rows` rows of C over columns [j0, j1) of slabs with row
/// stride ld: C[r][j] = b[r] + sum over ascending k of W(r, k) * A[k][j],
/// relu last. W(r, k) sits at W[r * wr + k * wk], so the backward's dA
/// runs here on the transposed weights (wr = 1, wk = in); a null b is a
/// zero bias.
template <std::size_t Rows>
inline void dense_row_block(const float* __restrict W, std::size_t wr,
                            std::size_t wk, const float* __restrict b,
                            const float* __restrict A, float* __restrict C,
                            std::size_t r0, std::size_t K, std::size_t ld,
                            std::size_t j0, std::size_t j1, bool relu) {
  constexpr std::size_t tile = kTileVecs * kSimdLanes;
  // The k loop steps the weight offset to a precomputed end, so it carries
  // no counter beside its two offsets.
  const float* w = W + r0 * wr;
  const std::size_t w_end = K * wk;
  VecF vb[Rows];
  RLSCHED_UNROLL
  for (std::size_t r = 0; r < Rows; ++r) {
    vb[r] = vsplat(b != nullptr ? b[r0 + r] : 0.0f);
  }
  std::size_t j = j0;
  for (; j + tile <= j1; j += tile) {
    VecF acc[Rows][kTileVecs];
    RLSCHED_UNROLL
    for (std::size_t r = 0; r < Rows; ++r) {
      RLSCHED_UNROLL
      for (std::size_t t = 0; t < kTileVecs; ++t) acc[r][t] = vb[r];
    }
    for (std::size_t wo = 0, ao = j; wo != w_end; wo += wk, ao += ld) {
      VecF av[kTileVecs];
      RLSCHED_UNROLL
      for (std::size_t t = 0; t < kTileVecs; ++t) {
        av[t] = vload(A + ao + t * kSimdLanes);
      }
      RLSCHED_UNROLL
      for (std::size_t r = 0; r < Rows; ++r) {
        const VecF vw = vsplat(w[r * wr + wo]);
        RLSCHED_UNROLL
        for (std::size_t t = 0; t < kTileVecs; ++t) {
          acc[r][t] += vw * av[t];
        }
      }
    }
    RLSCHED_UNROLL
    for (std::size_t r = 0; r < Rows; ++r) {
      float* row = C + (r0 + r) * ld + j;
      RLSCHED_UNROLL
      for (std::size_t t = 0; t < kTileVecs; ++t) {
        vstore(row + t * kSimdLanes,
               relu ? vmax0(acc[r][t]) : acc[r][t]);
      }
    }
  }
  if (j < j1) {
    dense_row_tail<Rows>(W, wr, wk, b, A, C, r0, K, ld, j, j1, relu);
  }
}

/// Every row block of C = W·A (+ b, relu) over columns [j0, j1).
inline void dense_rows(const float* W, std::size_t wr, std::size_t wk,
                       const float* b, const float* A, float* C,
                       std::size_t rows, std::size_t K, std::size_t ld,
                       std::size_t j0, std::size_t j1, bool relu) {
  for (std::size_t r0 = 0; r0 < rows; r0 += kRowBlock) {
    with_tile<kRowBlock>(rows - r0, [&](auto R) {
      dense_row_block<decltype(R)::value>(W, wr, wk, b, A, C, r0, K, ld, j0,
                                          j1, relu);
    });
  }
}

/// gW[o][i] += one order-stable partial per active window, in window order,
/// for the R x Cn pairs o0 <= o < o0 + R, i0 <= i < i0 + Cn. The gW values
/// stay in registers across windows. Within a window each pair keeps its
/// own lane accumulator over full lane blocks in ascending j, the lane
/// trees run kSimdLanes pairs at a time (lane_tree_sums), and the ragged
/// tail is appended in ascending j: per pair, the exact float sequence of
/// one scalar dot product per window.
template <std::size_t R, std::size_t Cn>
inline void grad_tile(const float* __restrict dC, const float* __restrict A,
                      float* __restrict gW, std::size_t o0, std::size_t i0,
                      std::size_t in, std::size_t J, std::size_t win,
                      std::size_t nwin, const std::uint8_t* win_active) {
  constexpr std::size_t P = R * Cn;
  const std::size_t nv = win - win % kSimdLanes;
  float g[P];
  RLSCHED_UNROLL
  for (std::size_t r = 0; r < R; ++r) {
    RLSCHED_UNROLL
    for (std::size_t c = 0; c < Cn; ++c) {
      g[r * Cn + c] = gW[(o0 + r) * in + i0 + c];
    }
  }
  for (std::size_t w = 0; w < nwin; ++w) {
    if (win_active != nullptr && win_active[w] == 0) continue;
    const float* d = dC + o0 * J + w * win;
    const float* a = A + i0 * J + w * win;
    float s[P] = {};  // a window without a full lane block sums to +0
    if (nv > 0) {
      VecF acc[P] = {};
      for (std::size_t j = 0; j < nv; j += kSimdLanes) {
        VecF dv[R], av[Cn];
        RLSCHED_UNROLL
        for (std::size_t r = 0; r < R; ++r) dv[r] = vload(d + r * J + j);
        RLSCHED_UNROLL
        for (std::size_t c = 0; c < Cn; ++c) av[c] = vload(a + c * J + j);
        RLSCHED_UNROLL
        for (std::size_t r = 0; r < R; ++r) {
          RLSCHED_UNROLL
          for (std::size_t c = 0; c < Cn; ++c) {
            acc[r * Cn + c] += dv[r] * av[c];
          }
        }
      }
      lane_tree_sums(acc, s);
    }
    for (std::size_t j = nv; j < win; ++j) {
      RLSCHED_UNROLL
      for (std::size_t r = 0; r < R; ++r) {
        RLSCHED_UNROLL
        for (std::size_t c = 0; c < Cn; ++c) {
          s[r * Cn + c] += d[r * J + j] * a[c * J + j];
        }
      }
    }
    RLSCHED_UNROLL
    for (std::size_t p = 0; p < P; ++p) g[p] += s[p];
  }
  RLSCHED_UNROLL
  for (std::size_t r = 0; r < R; ++r) {
    RLSCHED_UNROLL
    for (std::size_t c = 0; c < Cn; ++c) {
      gW[(o0 + r) * in + i0 + c] = g[r * Cn + c];
    }
  }
}

}  // namespace detail

inline void dense_batch_forward(const float* __restrict W,
                                const float* __restrict b,
                                const float* __restrict A,
                                float* __restrict C, std::size_t out,
                                std::size_t in, std::size_t J, bool relu) {
  detail::dense_rows(W, in, 1, b, A, C, out, in, J, 0, J, relu);
}

/// Order-stable reduction of one window: lane accumulators over full lane
/// blocks, fixed pairwise lane tree, ragged tail appended sequentially.
inline float window_sum(const float* __restrict d, std::size_t n) {
  VecF acc = vsplat(0.0f);
  const std::size_t nv = n - n % kSimdLanes;
  std::size_t j = 0;
  for (; j < nv; j += kSimdLanes) acc += vload(d + j);
  float s = lane_tree_sum(acc);
  for (; j < n; ++j) s += d[j];
  return s;
}

/// Backward of dense_batch_forward, generalized to batched inputs. `C` is
/// the post-activation output and `dC` its incoming gradient (modified in
/// place when relu). Accumulates into gW/gb; writes dA when non-null.
///
/// The job axis may cover `J / window` stacked independent windows
/// (`window` == 0 means one window spanning all of J; otherwise J must be
/// a multiple of `window`). Per-parameter reductions form one order-stable
/// partial per window and add partials in window order, so a batched call
/// is bitwise identical to sequential single-window calls. `win_active`,
/// when non-null, holds one byte per window: windows with 0 are skipped
/// entirely — no gW/gb contribution, dA region untouched, dC ignored (the
/// PPO update drops clip-saturated samples this way, exactly as the
/// unbatched path skips their backward call).
inline void dense_batch_backward(const float* __restrict W,
                                 const float* __restrict A,
                                 const float* __restrict C,
                                 float* __restrict dC, float* __restrict dA,
                                 float* __restrict gW, float* __restrict gb,
                                 std::size_t out, std::size_t in,
                                 std::size_t J, bool relu,
                                 std::size_t window = 0,
                                 const std::uint8_t* win_active = nullptr) {
  const std::size_t win = window == 0 ? J : window;
  const std::size_t nwin = win == 0 ? 0 : J / win;
  const auto active = [&](std::size_t w) {
    return win_active == nullptr || win_active[w] != 0;
  };
  if (relu) {
    const std::size_t wv_blocks = win - win % kSimdLanes;
    for (std::size_t o = 0; o < out; ++o) {
      float* d = dC + o * J;
      const float* c = C + o * J;
      for (std::size_t w = 0; w < nwin; ++w) {
        if (!active(w)) continue;
        float* dw = d + w * win;
        const float* cw = c + w * win;
        std::size_t j = 0;
        for (; j < wv_blocks; j += kSimdLanes) {
          vstore(dw + j, vmask_relu(vload(cw + j), vload(dw + j)));
        }
        for (; j < win; ++j) {
          if (cw[j] <= 0.0f) dw[j] = 0.0f;
        }
      }
    }
  }
  for (std::size_t o = 0; o < out; ++o) {
    const float* d = dC + o * J;
    for (std::size_t w = 0; w < nwin; ++w) {
      if (active(w)) gb[o] += window_sum(d + w * win, win);
    }
  }
  for (std::size_t o0 = 0; o0 < out; o0 += kGradRows) {
    detail::with_tile<kGradRows>(out - o0, [&](auto R) {
      for (std::size_t i0 = 0; i0 < in; i0 += kGradCols) {
        detail::with_tile<kGradCols>(in - i0, [&](auto Cn) {
          detail::grad_tile<decltype(R)::value, decltype(Cn)::value>(
              dC, A, gW, o0, i0, in, J, win, nwin, win_active);
        });
      }
    });
  }
  if (dA != nullptr) {
    // dA = Wᵀ·dC summed in ascending o from +0 — the forward microkernel
    // with zero bias on the transposed weights. It is elementwise along J,
    // so each run of consecutive active windows is one column range.
    for (std::size_t w = 0; w < nwin;) {
      if (!active(w)) {
        ++w;
        continue;
      }
      std::size_t e = w + 1;
      while (e < nwin && active(e)) ++e;
      detail::dense_rows(W, 1, in, nullptr, dC, dA, in, out, J, w * win,
                         e * win, /*relu=*/false);
      w = e;
    }
  }
}

// ---------------------------------------------------------------------------
// 1-D convolution along the job axis (LeNet baseline): A is (ci x L),
// C is (co x L), W is (co x ci x k) with odd k and same-padding.
// ---------------------------------------------------------------------------

inline void conv1d_forward(const float* W, const float* b, const float* A,
                           float* C, std::size_t co, std::size_t ci,
                           std::size_t L, std::size_t k, bool relu) {
  const std::ptrdiff_t half = static_cast<std::ptrdiff_t>(k / 2);
  for (std::size_t o = 0; o < co; ++o) {
    float* row = C + o * L;
    for (std::size_t x = 0; x < L; ++x) row[x] = b[o];
    for (std::size_t i = 0; i < ci; ++i) {
      const float* a = A + i * L;
      const float* w = W + (o * ci + i) * k;
      for (std::size_t t = 0; t < k; ++t) {
        const float wv = w[t];
        const std::ptrdiff_t off = static_cast<std::ptrdiff_t>(t) - half;
        const std::size_t lo = off < 0 ? static_cast<std::size_t>(-off) : 0;
        const std::size_t hi =
            off > 0 ? L - static_cast<std::size_t>(off) : L;
        for (std::size_t x = lo; x < hi; ++x) {
          row[x] += wv * a[static_cast<std::size_t>(
                        static_cast<std::ptrdiff_t>(x) + off)];
        }
      }
    }
    if (relu) {
      for (std::size_t x = 0; x < L; ++x) row[x] = row[x] > 0.0f ? row[x] : 0.0f;
    }
  }
}

inline void conv1d_backward(const float* W, const float* A, const float* C,
                            float* dC, float* dA, float* gW, float* gb,
                            std::size_t co, std::size_t ci, std::size_t L,
                            std::size_t k, bool relu) {
  const std::ptrdiff_t half = static_cast<std::ptrdiff_t>(k / 2);
  if (relu) {
    for (std::size_t o = 0; o < co; ++o) {
      float* d = dC + o * L;
      const float* c = C + o * L;
      for (std::size_t x = 0; x < L; ++x) {
        if (c[x] <= 0.0f) d[x] = 0.0f;
      }
    }
  }
  if (dA != nullptr) {
    for (std::size_t i = 0; i < ci * L; ++i) dA[i] = 0.0f;
  }
  for (std::size_t o = 0; o < co; ++o) {
    const float* d = dC + o * L;
    for (std::size_t x = 0; x < L; ++x) gb[o] += d[x];
    for (std::size_t i = 0; i < ci; ++i) {
      const float* a = A + i * L;
      float* gw = gW + (o * ci + i) * k;
      const float* w = W + (o * ci + i) * k;
      float* da = dA != nullptr ? dA + i * L : nullptr;
      for (std::size_t t = 0; t < k; ++t) {
        const std::ptrdiff_t off = static_cast<std::ptrdiff_t>(t) - half;
        const std::size_t lo = off < 0 ? static_cast<std::size_t>(-off) : 0;
        const std::size_t hi =
            off > 0 ? L - static_cast<std::size_t>(off) : L;
        float acc = 0.0f;
        for (std::size_t x = lo; x < hi; ++x) {
          const std::size_t src = static_cast<std::size_t>(
              static_cast<std::ptrdiff_t>(x) + off);
          acc += d[x] * a[src];
          if (da != nullptr) da[src] += d[x] * w[t];
        }
        gw[t] += acc;
      }
    }
  }
}

/// Halving average pool along the length axis: (c x L) -> (c x L/2).
inline void avgpool2_forward(const float* A, float* C, std::size_t c,
                             std::size_t L) {
  const std::size_t half = L / 2;
  for (std::size_t i = 0; i < c; ++i) {
    const float* a = A + i * L;
    float* o = C + i * half;
    for (std::size_t x = 0; x < half; ++x) {
      o[x] = 0.5f * (a[2 * x] + a[2 * x + 1]);
    }
  }
}

inline void avgpool2_backward(const float* dC, float* dA, std::size_t c,
                              std::size_t L) {
  const std::size_t half = L / 2;
  for (std::size_t i = 0; i < c; ++i) {
    const float* d = dC + i * half;
    float* da = dA + i * L;
    for (std::size_t x = 0; x < L; ++x) da[x] = 0.0f;
    for (std::size_t x = 0; x < half; ++x) {
      da[2 * x] = 0.5f * d[x];
      da[2 * x + 1] = 0.5f * d[x];
    }
  }
}

// ---------------------------------------------------------------------------
// Masked categorical head
// ---------------------------------------------------------------------------

/// Index of the largest value whose mask byte is non-zero; ties break to the
/// LOWEST index (deterministic), and an all-masked input returns 0.
///
/// Two passes: a branchless masked max (which vectorizes — the one-pass
/// first-max scan carries a (best, found) recurrence that cannot), then the
/// first index attaining it. Bit-identical to the one-pass scan for every
/// NaN-free input: a strictly-greater update also keeps the FIRST index
/// attaining the maximum, which is exactly what the equality scan returns
/// (+-0.0 compare equal under both, so mixed zero signs tie to the lowest
/// index either way). This scan runs once per scheduling decision, after
/// dense layers that amortize to ~2 float ops per logit — at that scale the
/// branchy scalar scan was a measurable slice of total decision latency.
inline std::size_t argmax_masked(const float* v, const std::uint8_t* mask,
                                 std::size_t n) {
  constexpr float kNegInf = -std::numeric_limits<float>::infinity();
  float best_v = kNegInf;
  std::size_t i = 0;
#if RLSCHED_SIMD > 1
  // Lane-parallel masked max. Max is an exact select (no rounding), so the
  // lane partitioning cannot change best_v, and the index comes from the
  // sequential equality scan below — the result is identical at every
  // lane width, unlike the summing kernels.
  const VecF vninf = vsplat(kNegInf);
  VecF vb = vninf;
  for (; i + kSimdLanes <= n; i += kSimdLanes) {
    vb = vmax(vb, vselect_bytes(mask + i, vload(v + i), vninf));
  }
  for (std::size_t l = 0; l < kSimdLanes; ++l) {
    best_v = vb[l] > best_v ? vb[l] : best_v;
  }
#endif
  for (; i < n; ++i) {
    const float x = mask[i] != 0 ? v[i] : kNegInf;
    best_v = x > best_v ? x : best_v;
  }
  for (std::size_t k = 0; k < n; ++k) {
    if (mask[k] != 0 && v[k] == best_v) return k;
  }
  return 0;
}

template <std::size_t N>
std::size_t argmax_masked(const std::array<float, N>& v,
                          const std::array<std::uint8_t, N>& mask) {
  return argmax_masked(v.data(), mask.data(), N);
}

/// Numerically-stable softmax over the masked entries; masked-out
/// probabilities are exactly 0. All-masked input yields all zeros.
inline void softmax_masked(const float* logits, const std::uint8_t* mask,
                           float* probs, std::size_t n) {
  float peak = -1e30f;
  bool any = false;
  for (std::size_t i = 0; i < n; ++i) {
    if (mask[i] != 0 && (!any || logits[i] > peak)) {
      peak = logits[i];
      any = true;
    }
  }
  if (!any) {
    for (std::size_t i = 0; i < n; ++i) probs[i] = 0.0f;
    return;
  }
  float sum = 0.0f;
  for (std::size_t i = 0; i < n; ++i) {
    probs[i] = mask[i] != 0 ? std::exp(logits[i] - peak) : 0.0f;
    sum += probs[i];
  }
  const float inv = 1.0f / sum;
  for (std::size_t i = 0; i < n; ++i) probs[i] *= inv;
}

// ---------------------------------------------------------------------------
// Adam optimizer over a flat parameter vector
// ---------------------------------------------------------------------------

class Adam {
 public:
  Adam(std::size_t n, float lr)
      : lr_(lr), m_(n, 0.0f), v_(n, 0.0f) {}

  void step(float* params, const float* grad) {
    ++t_;
    const float b1t = 1.0f - std::pow(0.9f, static_cast<float>(t_));
    const float b2t = 1.0f - std::pow(0.999f, static_cast<float>(t_));
    const std::size_t n = m_.size();
    for (std::size_t i = 0; i < n; ++i) {
      m_[i] = 0.9f * m_[i] + 0.1f * grad[i];
      v_[i] = 0.999f * v_[i] + 0.001f * grad[i] * grad[i];
      const float mh = m_[i] / b1t;
      const float vh = v_[i] / b2t;
      params[i] -= lr_ * mh / (std::sqrt(vh) + 1e-8f);
    }
  }

 private:
  float lr_;
  std::uint64_t t_ = 0;
  std::vector<float> m_, v_;
};

}  // namespace rlsched::nn
