#pragma once
// A flat dense stack (ReLU hidden layers, linear output) over caller-owned
// parameters, with manual backprop. Parameters live in one contiguous float
// vector so Adam, save/load, and gradient buffers are trivial memcpy-shaped
// operations. Scratch activations are preallocated at construction — calls
// never allocate — and grow once when a larger batch is first seen, so the
// steady-state batched loops are allocation-free too.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "nn/ops.hpp"
#include "util/rng.hpp"

namespace rlsched::nn {

class FlatMlp {
 public:
  /// sizes = {input, hidden..., output}.
  explicit FlatMlp(std::vector<std::size_t> sizes);

  std::size_t param_count() const { return param_count_; }

  /// He-normal init; the output layer is scaled by `out_scale` (a small
  /// value keeps the initial policy near-uniform).
  void init(float* params, util::Rng& rng, float out_scale = 1.0f) const;

  /// Prewarm the batch scratch for up to `n` columns, so a zero-allocation
  /// loop can size everything up front instead of growing on first use
  /// (lazy growth is worker-schedule dependent — a pool worker may see its
  /// first full-size chunk epochs after warmup).
  void reserve_batch(std::size_t n) const { ensure_batch(n); }

  /// Forward over an SoA slab `X` (input_size x n, sample axis
  /// contiguous; n == 1 is one sample). Returns the output activations
  /// (output_size x n, valid until the next call); column k is bitwise
  /// identical to the n == 1 forward of sample k alone. Scratch grows to
  /// the largest n ever seen and is then reused — warm the peak batch once
  /// and the loop stops allocating.
  const float* forward_batch(const float* params, const float* X,
                             std::size_t n) const;

  /// Backward paired with the most recent forward_batch() on the same
  /// (params, X, n) — activations are reused, never recomputed. `dOut` is
  /// (output_size x n); gradients accumulate into `gparams`. Reductions
  /// across the sample axis use `window` granularity in sample units (0 =
  /// the whole batch as one order-stable window, 1 = per-sample partials
  /// added sequentially — bitwise identical to n one-sample calls);
  /// `win_active` skips windows (see nn::dense_batch_backward). `dX`
  /// optional (input_size x n).
  void backward_batch(const float* params, const float* X, const float* dOut,
                      float* gparams, std::size_t n, std::size_t window = 0,
                      const std::uint8_t* win_active = nullptr,
                      float* dX = nullptr) const;

 private:
  void ensure_batch(std::size_t n) const;  ///< grow act_/dact_ to n columns

  std::vector<std::size_t> sizes_;
  std::vector<std::size_t> w_off_, b_off_;
  std::vector<std::size_t> act_off_;  ///< per-layer offsets in SAMPLE units
  std::size_t param_count_ = 0;
  std::size_t act_total_ = 0;         ///< activations per sample
  mutable std::size_t batch_cap_ = 1;
  mutable std::vector<float> act_;   // activations of every layer
  mutable std::vector<float> dact_;  // gradient scratch
};

}  // namespace rlsched::nn
