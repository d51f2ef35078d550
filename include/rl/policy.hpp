#pragma once
// Policy networks: the paper's kernel-based network (a small MLP applied
// with shared weights to every observable job — per-job scoring, order
// equivariant) plus the Table IV baselines: flat MLPs v1-v3 and a
// LeNet-style convolutional head. All parameters live in one flat float
// vector. A network runs one way: batched over `n` observation windows
// (n == 1 for a single decision), forward then paired backward; neither
// allocates once reserve_batch() has sized the batch scratch.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "rl/observation.hpp"
#include "util/rng.hpp"

namespace rlsched::rl {

enum class PolicyKind { Kernel, MlpV1, MlpV2, MlpV3, LeNet };

std::string policy_kind_name(PolicyKind k);

class Policy {
 public:
  virtual ~Policy() = default;

  // Concurrency: even the const calls write the activation scratch inside,
  // so one object serves one caller at a time. Concurrent callers hold
  // their own instances (PPOTrainer's workers clone it); serve::Daemon is
  // the concurrent serving path, running each policy on one shard.

  /// Score `n` stacked observation windows in ONE forward pass, one logit
  /// per observable slot (masking happens in the caller). `out` is
  /// window-major: the logits of window k land at
  /// out[k * kMaxObservable + j]. Row k is bitwise identical to the n == 1
  /// call on *obs[k] — batching can never change a decision. Batch scratch
  /// grows to the largest n ever seen, then is reused.
  virtual void logits_batch(const Observation* const* obs, std::size_t n,
                            float* out) const = 0;

  /// Prewarm batch scratch for up to `n` windows so subsequent batched
  /// calls never allocate (zero-alloc loops size everything up front).
  virtual void reserve_batch(std::size_t n) const = 0;

  /// Accumulate d(loss)/d(params) into `gparams` (length parameter_count())
  /// for the batch scored by the MOST RECENT logits_batch() on the same
  /// (obs, n), reusing its activations. `dlogits` is window-major like
  /// logits_batch()'s output. Windows with win_active[k] == 0 (when
  /// non-null) contribute nothing, which is how the PPO update drops
  /// clip-saturated samples. Gradient reductions are order-stable per
  /// window (window order, lane-stratified within — see nn/ops.hpp), so the
  /// accumulated gradient is bitwise identical to n == 1 calls on the
  /// active windows in window order: batch size never leaks into trained
  /// parameters.
  virtual void backward_batch(const Observation* const* obs, std::size_t n,
                              const float* dlogits,
                              const std::uint8_t* win_active,
                              float* gparams) const = 0;

  virtual PolicyKind kind() const = 0;

  // --- int8 quantized inference (see nn/quant.hpp) ---
  //
  // Quantize-on-load: enable_quant() snapshots the CURRENT parameters
  // into packed int8 weights and calibrates static activation scales from
  // the given observations; parameter updates after that point do not
  // flow into the quantized path until it is re-enabled. The float path
  // is untouched and remains the default — with quantization disabled
  // logits_quant_batch is the exact float computation, so schedules are
  // bitwise unchanged.

  /// Quantize current weights and calibrate activation scales from `n`
  /// representative observations (n == 0 falls back to unit scales).
  /// Returns false (and stays on float) for policies without a native
  /// int8 path; only the kernel policy has one.
  virtual bool enable_quant(const Observation* const* calib, std::size_t n) {
    (void)calib;
    (void)n;
    return false;
  }
  virtual void disable_quant() {}
  virtual bool quant_enabled() const { return false; }

  /// Quantized counterpart of logits_batch(): row k is bitwise identical
  /// to the n == 1 quantized call on *obs[k]; with quantization disabled it
  /// defers to logits_batch() exactly.
  virtual void logits_quant_batch(const Observation* const* obs,
                                  std::size_t n, float* out) const {
    logits_batch(obs, n, out);
  }

  std::size_t parameter_count() const { return params_.size(); }
  std::vector<float>& param_vector() { return params_; }
  const std::vector<float>& param_vector() const { return params_; }

 protected:
  std::vector<float> params_;
};

/// Build a policy for a `max_observable`-slot window (must not exceed
/// kMaxObservable; the bundled benches pass rl::kMaxObservable).
std::unique_ptr<Policy> make_policy(PolicyKind kind,
                                    std::size_t max_observable,
                                    util::Rng& rng);

}  // namespace rlsched::rl
