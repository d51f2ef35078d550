#pragma once
// Compile-time SIMD configuration for the nn/ kernels.
//
// RLSCHED_SIMD is the number of float lanes per vector (1, 2, 4, 8, or 16);
// it defaults to the widest sensible width for the target ISA and can be
// overridden at configure time (cmake -DRLSCHED_SIMD=N). RLSCHED_SIMD=1 is
// the scalar fallback: the SAME algorithms run with one-lane "vectors", so
// every code path stays exercised on targets without vector units.
//
// Determinism contract (see ops.hpp for the kernels that rely on it):
// the lane width is a BUILD-level constant, like -march. Within one build,
// results are bitwise independent of batch size and worker count; across
// builds with different RLSCHED_SIMD the reduction order (and therefore
// float results) may differ, exactly as they may across -march levels.
//
// Vectors are GCC/Clang vector extensions: lane-wise + - * are IEEE-exact
// per lane (a vector add is N independent scalar adds), which is what makes
// the vectorized kernels bit-comparable against a plain scalar reference
// implementing the same lane order (tests/test_ops_simd.cpp).

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>

// Full unrolling of the tiny constant-trip microkernel loops (nn/ops.hpp)
// is what keeps their accumulator arrays in registers; -O2 alone does not
// reliably unroll them, and spilled accumulators cost ~2.5x.
#if defined(__clang__)
#define RLSCHED_UNROLL _Pragma("clang loop unroll(full)")
#elif defined(__GNUC__)
#define RLSCHED_UNROLL _Pragma("GCC unroll 16")
#else
#define RLSCHED_UNROLL
#endif

#ifndef RLSCHED_SIMD
#if defined(__AVX512F__) || defined(__AVX2__) || defined(__AVX__)
#define RLSCHED_SIMD 8
#elif defined(__SSE2__) || defined(__ARM_NEON) || defined(__aarch64__)
#define RLSCHED_SIMD 4
#else
#define RLSCHED_SIMD 1
#endif
#endif

namespace rlsched::nn {

inline constexpr std::size_t kSimdLanes = RLSCHED_SIMD;
static_assert(kSimdLanes == 1 || kSimdLanes == 2 || kSimdLanes == 4 ||
                  kSimdLanes == 8 || kSimdLanes == 16,
              "RLSCHED_SIMD must be a power of two in [1, 16]");

#if RLSCHED_SIMD > 1

using VecF = float __attribute__((vector_size(RLSCHED_SIMD * sizeof(float))));

inline VecF vload(const float* p) {
  VecF v;
  std::memcpy(&v, p, sizeof(v));  // unaligned load
  return v;
}

inline void vstore(float* p, VecF v) { std::memcpy(p, &v, sizeof(v)); }

inline VecF vsplat(float x) { return x - VecF{}; }

/// Lane-wise relu, bit-identical to the scalar `v > 0 ? v : 0`.
inline VecF vmax0(VecF v) {
  VecF r{};
  for (std::size_t l = 0; l < kSimdLanes; ++l) r[l] = v[l] > 0.0f ? v[l] : 0.0f;
  return r;
}

/// Lane-wise relu gradient mask, bit-identical to the scalar
/// `c <= 0 ? 0 : d` (a pure select — no arithmetic).
inline VecF vmask_relu(VecF c, VecF d) {
  VecF r{};
  for (std::size_t l = 0; l < kSimdLanes; ++l) {
    r[l] = c[l] <= 0.0f ? 0.0f : d[l];
  }
  return r;
}

/// Lane-wise exact max — a pure select, no rounding, so any lane
/// partitioning of a max-reduction yields the same result.
inline VecF vmax(VecF a, VecF b) {
  VecF r{};
  for (std::size_t l = 0; l < kSimdLanes; ++l) {
    r[l] = a[l] > b[l] ? a[l] : b[l];
  }
  return r;
}

/// Lane l takes x[l] where the mask BYTE m[l] is non-zero, else y[l].
/// Widening the bytes and blending through integer bit ops (not a lane
/// loop over mixed u8/float — that mix defeats auto-vectorization) keeps
/// the select exact and branchless.
using VecU8 = std::uint8_t __attribute__((vector_size(RLSCHED_SIMD)));
using VecI = int __attribute__((vector_size(RLSCHED_SIMD * sizeof(int))));

inline VecF vselect_bytes(const std::uint8_t* m, VecF x, VecF y) {
  VecU8 mb;
  std::memcpy(&mb, m, sizeof(mb));
  const VecI sel = __builtin_convertvector(mb, VecI) != VecI{};  // -1 / 0
  VecI xi, yi;
  std::memcpy(&xi, &x, sizeof(xi));
  std::memcpy(&yi, &y, sizeof(yi));
  const VecI r = (xi & sel) | (yi & ~sel);
  VecF out;
  std::memcpy(&out, &r, sizeof(out));
  return out;
}

/// Combine the lane accumulators with a FIXED pairwise tree:
/// ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)) for 8 lanes, and so on. The tree
/// shape is part of the kernel contract — it never depends on runtime sizes.
inline float lane_tree_sum(VecF v) {
  float lane[kSimdLanes];
  vstore(lane, v);
  for (std::size_t w = 1; w < kSimdLanes; w *= 2) {
    for (std::size_t i = 0; i + w < kSimdLanes; i += 2 * w) {
      lane[i] += lane[i + w];
    }
  }
  return lane[0];
}

namespace detail {

/// Lane m of the result is lane 2m + lane 2m+1 of the concatenation a:b:
/// one level of lane_tree_sum's tree, applied to two vectors at once.
inline VecF pair_sums(VecF a, VecF b) {
  return [&]<std::size_t... I>(std::index_sequence<I...>) {
    return __builtin_shufflevector(a, b, (2 * I)...) +
           __builtin_shufflevector(a, b, (2 * I + 1)...);
  }(std::make_index_sequence<kSimdLanes>{});
}

/// The cross-vector levels over t[0, N): each merges adjacent vectors.
template <std::size_t N, std::size_t G>
inline void merge_levels(VecF (&t)[G]) {
  if constexpr (N > 1) {
    RLSCHED_UNROLL
    for (std::size_t k = 0; k < N / 2; ++k) {
      t[k] = pair_sums(t[2 * k], t[2 * k + 1]);
    }
    merge_levels<N / 2>(t);
  }
}

}  // namespace detail

/// s[p] = lane_tree_sum(v[p]) for every p, bitwise, kSimdLanes vectors at
/// a time (the transposed tree). Level by level, pair_sums merges adjacent
/// vectors until one vector holds every input's partials as adjacent
/// lanes; pair_sums of that vector with itself finishes the levels left.
/// Each level adds exactly the lane pairs lane_tree_sum adds at that
/// level, and IEEE addition is commutative, so no bit moves. A group short
/// of a power of two is padded with zero vectors, whose lanes are computed
/// and dropped.
template <std::size_t N>
inline void lane_tree_sums(const VecF (&v)[N], float (&s)[N]) {
  constexpr std::size_t G = std::min(kSimdLanes, std::bit_ceil(N));
  RLSCHED_UNROLL
  for (std::size_t p0 = 0; p0 < N; p0 += G) {
    VecF t[G];
    RLSCHED_UNROLL
    for (std::size_t k = 0; k < G; ++k) {
      t[k] = p0 + k < N ? v[p0 + k] : VecF{};
    }
    detail::merge_levels<G>(t);
    RLSCHED_UNROLL
    for (std::size_t g = kSimdLanes / G; g > 1; g /= 2) {
      t[0] = detail::pair_sums(t[0], t[0]);
    }
    RLSCHED_UNROLL
    for (std::size_t k = 0; k < G; ++k) {
      if (p0 + k < N) s[p0 + k] = t[0][k];
    }
  }
}

#else  // RLSCHED_SIMD == 1: scalar fallback, same algorithm with one lane

struct VecF {
  float v;
};

inline VecF vload(const float* p) { return VecF{*p}; }
inline void vstore(float* p, VecF x) { *p = x.v; }
inline VecF vsplat(float x) { return VecF{x}; }
inline VecF vmax0(VecF x) { return VecF{x.v > 0.0f ? x.v : 0.0f}; }
inline VecF vmask_relu(VecF c, VecF d) {
  return VecF{c.v <= 0.0f ? 0.0f : d.v};
}
inline VecF vmax(VecF a, VecF b) { return VecF{a.v > b.v ? a.v : b.v}; }
inline VecF vselect_bytes(const std::uint8_t* m, VecF x, VecF y) {
  return VecF{*m != 0 ? x.v : y.v};
}
inline float lane_tree_sum(VecF x) { return x.v; }
template <std::size_t N>
inline void lane_tree_sums(const VecF (&v)[N], float (&s)[N]) {
  for (std::size_t p = 0; p < N; ++p) s[p] = v[p].v;
}
inline VecF operator+(VecF a, VecF b) { return VecF{a.v + b.v}; }
inline VecF operator*(VecF a, VecF b) { return VecF{a.v * b.v}; }
inline VecF& operator+=(VecF& a, VecF b) {
  a.v += b.v;
  return a;
}

#endif

}  // namespace rlsched::nn
