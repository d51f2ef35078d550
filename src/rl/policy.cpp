#include "rl/policy.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>

#include "nn/mlp.hpp"
#include "nn/ops.hpp"
#include "nn/quant.hpp"

namespace rlsched::rl {

std::string policy_kind_name(PolicyKind k) {
  switch (k) {
    case PolicyKind::Kernel: return "kernel";
    case PolicyKind::MlpV1: return "mlp_v1";
    case PolicyKind::MlpV2: return "mlp_v2";
    case PolicyKind::MlpV3: return "mlp_v3";
    case PolicyKind::LeNet: return "lenet";
  }
  return "unknown";
}

namespace {

/// dst (cols x rows) = the transpose of src (rows x cols). Moves window-major
/// logits rows onto a FlatMlp's SoA sample axis (element o of window k at
/// soa[o * n + k]) and back; a pure copy.
void transpose(const float* src, std::size_t rows, std::size_t cols,
               float* dst) {
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      dst[c * rows + r] = src[r * cols + c];
    }
  }
}

/// The slots [0, c) of a window holding `count` jobs that the kernel policy
/// scores: the jobs plus at least one padding slot, rounded up to whole
/// forward microtiles, so every column runs the microtile code a 128-wide
/// pass runs. Padding slots hold zero features (see Observation), so they
/// all get slot c - 1's logit.
std::size_t live_width(std::uint32_t count) {
  constexpr std::size_t tile = nn::kTileVecs * nn::kSimdLanes;
  static_assert(kMaxObservable % tile == 0);
  return std::min(kMaxObservable, (count + tile) / tile * tile);
}

// ---------------------------------------------------------------------------
// Kernel network: shared per-job MLP {features, 32, 16, 8, 1} evaluated as
// batched dense layers over the SoA job axis — one GEMM-shaped pass scores
// a window's live prefix (live_width slots; the rest copy its last logit).
//
// Batched entry points use WINDOW-BLOCKED scheduling: each window runs the
// full layer stack with its activation block (at most ~32 KB) L1-resident,
// writing into its slice of a window-major activation slab (retained for
// the paired backward). The alternative — one contiguous J = B x 128 job axis
// through every layer, which the nn/ kernels fully support — was measured
// ~1.5x SLOWER here: this net's weights are ~6 KB (nothing to amortize,
// the batched win that carries the value net and the MLP baselines), while
// the layerwise batched activations spill L1 from B=2. Equivalence is
// unconditional either way: forwards are per-column exact and the
// window-order gradient reductions match sequential per-window backwards
// bitwise, so the schedule is a pure locality decision.
// ---------------------------------------------------------------------------
class KernelPolicy final : public Policy {
 public:
  explicit KernelPolicy(util::Rng& rng) {
    std::size_t off = 0;
    for (std::size_t l = 0; l + 1 < kLayers.size(); ++l) {
      w_off_[l] = off;
      off += kLayers[l] * kLayers[l + 1];
      b_off_[l] = off;
      off += kLayers[l + 1];
    }
    params_.resize(off);
    for (std::size_t l = 1; l < kLayers.size(); ++l) {
      act_off_[l - 1] = act_unit_;
      act_unit_ += kLayers[l] * kMaxObservable;
    }
    dact_.resize(act_unit_);
    x_off_ = act_unit_;
    act_unit_ += kLayers[0] * kMaxObservable;
    act_.resize(act_unit_);
    const std::size_t last = kLayers.size() - 2;
    for (std::size_t l = 0; l + 1 < kLayers.size(); ++l) {
      const float scale = std::sqrt(2.0f / static_cast<float>(kLayers[l])) *
                          (l == last ? 0.01f : 1.0f);
      float* w = params_.data() + w_off_[l];
      for (std::size_t i = 0; i < kLayers[l] * kLayers[l + 1]; ++i) {
        w[i] = scale * static_cast<float>(rng.normal());
      }
    }
  }

  void logits_batch(const Observation* const* obs, std::size_t n,
                    float* out) const override {
    ensure_batch(n);
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t c = live_width(obs[k]->count);
      const float* top = forward_window(obs[k]->features.data(), k, c);
      float* row = out + k * kMaxObservable;
      std::memcpy(row, top, c * sizeof(float));
      std::fill(row + c, row + kMaxObservable, top[c - 1]);
    }
  }

  void reserve_batch(std::size_t n) const override { ensure_batch(n); }

  void backward_batch(const Observation* const* obs, std::size_t n,
                      const float* dlogits, const std::uint8_t* win_active,
                      float* gparams) const override {
    for (std::size_t k = 0; k < n; ++k) {
      if (win_active != nullptr && win_active[k] == 0) continue;
      const float* dl = dlogits + k * kMaxObservable;
      // Past c every dlogit is +-0 (the PPO loss puts none on masked
      // slots), so those slots' products are +-0 and every gradient sum,
      // which starts at +0, is the full-width one bit for bit. A gradient
      // on a slot past c needs that slot's activations: re-score the
      // window at full width first.
      std::size_t c = live_width(obs[k]->count);
      if (std::any_of(dl + c, dl + kMaxObservable,
                      [](float d) { return d != 0.0f; })) {
        c = kMaxObservable;
        (void)forward_window(obs[k]->features.data(), k, c);
      }
      backward_window(k, c, dl, gparams);
    }
  }

  PolicyKind kind() const override { return PolicyKind::Kernel; }

  // --- int8 path: per-layer packed weights + static calibrated scales ---
  //
  // The whole stack runs in nn/quant.hpp's group-packed u8 layout:
  // features quantize once, the three hidden layers requantize in place
  // (ping-pong between two 4 KB scratch slabs), and the 1-wide head
  // dequantizes straight into the logits row. Inference only — training
  // stays float, so enable_quant() is a snapshot of the current weights.

  bool enable_quant(const Observation* const* calib,
                    std::size_t n) override {
    constexpr std::size_t J = kMaxObservable;
    const std::size_t layers = kLayers.size() - 1;
    // Static activation scales: amax over the calibration set of each
    // layer's float input (features, then each relu output), spread over
    // the full u8 range. Unit scales when uncalibrated keep the mapping
    // deterministic (just coarse). The live prefix holds a padding slot
    // whenever one exists, so its amax is the full window's.
    std::array<float, 4> amax{};
    for (std::size_t s = 0; s < n; ++s) {
      const float* f = calib[s]->features.data();
      const std::size_t c = live_width(calib[s]->count);
      for (std::size_t i = 0; i < kLayers[0]; ++i) {
        for (std::size_t j = 0; j < c; ++j) {
          amax[0] = std::max(amax[0], f[i * J + j]);
        }
      }
      (void)forward_window(f, 0, c);  // fills window 0's activation slab
      for (std::size_t l = 0; l + 1 < layers; ++l) {
        const float* h = act_.data() + act_off_[l];
        for (std::size_t i = 0; i < kLayers[l + 1] * c; ++i) {
          amax[l + 1] = std::max(amax[l + 1], h[i]);
        }
      }
    }
    for (std::size_t l = 0; l < layers; ++l) {
      const std::size_t groups = nn::quant_groups(kLayers[l]);
      wscale_[l] = nn::weight_scale(params_.data() + w_off_[l],
                                    kLayers[l] * kLayers[l + 1]);
      wq_[l].resize(kLayers[l + 1] * groups * nn::kQuantGroup);
      nn::pack_weights_s8(params_.data() + w_off_[l], kLayers[l + 1],
                          kLayers[l], wscale_[l], wq_[l].data());
    }
    // Each hidden layer's OUTPUT scale is constrained to a power-of-two
    // multiple of its accumulator scale s_in * s_w (see nn/quant.hpp), the
    // smallest such scale whose 255-step range still covers the measured
    // output amax — rounding the scale UP, so the u8 clamp never clips
    // tighter than the calibration sweep saw. That makes the requant
    // multiplier exactly 2^-rshift, and the bias plus the round-half-up
    // constant fold into the int32 accumulator init acc0.
    ascale_[0] = amax[0] > 0.0f ? amax[0] / 255.0f : 1.0f;
    for (std::size_t l = 0; l + 1 < layers; ++l) {
      const float sacc = ascale_[l] * wscale_[l];
      const double need =
          static_cast<double>(amax[l + 1]) / (255.0 * sacc);
      int rs = need > 1.0
                   ? static_cast<int>(std::ceil(std::log2(need)))
                   : 0;
      rs = std::min(std::max(rs, 0), 24);
      rshift_[l] = rs;
      ascale_[l + 1] = sacc * static_cast<float>(1 << rs);
      acc0_[l].resize(kLayers[l + 1]);
      const float* b = params_.data() + b_off_[l];
      for (std::size_t o = 0; o < kLayers[l + 1]; ++o) {
        // Clamp the requantized bias to +-2^30: |dot| < 2^21, so the
        // accumulator can never wrap even for degenerate scales.
        float t = b[o] / sacc;
        t = std::min(std::max(t, -1073741824.0f), 1073741824.0f);
        acc0_[l][o] =
            static_cast<std::int32_t>(std::nearbyintf(t)) +
            (rs > 0 ? std::int32_t{1} << (rs - 1) : 0);
      }
    }
    mfinal_ = ascale_[layers - 1] * wscale_[layers - 1];
    // Two ping-pong scratch slabs sized for the widest layer input
    // (32 channels -> 4 KB), 64-byte aligned: the hidden kernels stream
    // 64-byte rows, and cache-line-split loads cost ~20% end to end.
    const std::size_t slab =
        nn::quant_groups(kLayers[1]) * J * nn::kQuantGroup;
    aq_store_.resize(2 * slab + 63);
    const auto base = reinterpret_cast<std::uintptr_t>(aq_store_.data());
    std::uint8_t* p = aq_store_.data() + ((64 - base % 64) % 64);
    aq_ping_ = p;
    aq_pong_ = p + slab;
    quant_on_ = true;
    return true;
  }

  void disable_quant() override { quant_on_ = false; }
  bool quant_enabled() const override { return quant_on_; }

  void logits_quant_batch(const Observation* const* obs, std::size_t n,
                          float* out) const override {
    if (!quant_on_) {
      logits_batch(obs, n, out);
      return;
    }
    for (std::size_t k = 0; k < n; ++k) {
      quant_window(obs[k]->features.data(), live_width(obs[k]->count),
                   out + k * kMaxObservable);
    }
  }

 private:
  void ensure_batch(std::size_t n) const {
    if (n <= batch_cap_) return;
    batch_cap_ = n;
    act_.resize(act_unit_ * n);
  }

  /// Full layer stack over window k's first c slots, at row stride c: their
  /// features are packed into the window's slab block, beside every
  /// layer's activations (both retained for backward_window). Returns the
  /// c logits.
  const float* forward_window(const float* features, std::size_t k,
                              std::size_t c) const {
    float* base = act_.data() + k * act_unit_;
    float* x = base + x_off_;
    for (std::size_t i = 0; i < kLayers[0]; ++i) {
      std::memcpy(x + i * c, features + i * kMaxObservable,
                  c * sizeof(float));
    }
    const float* in = x;
    for (std::size_t l = 0; l + 1 < kLayers.size(); ++l) {
      float* out = base + act_off_[l];
      nn::dense_batch_forward(params_.data() + w_off_[l],
                              params_.data() + b_off_[l], in, out,
                              kLayers[l + 1], kLayers[l], c,
                              /*relu=*/l + 2 < kLayers.size());
      in = out;
    }
    return in;
  }

  /// Pairs with the latest forward_window(features, k, c). Gradient scratch
  /// is shared across windows (backwards run sequentially); gW/gb
  /// reductions use the order-stable lane order of nn::dense_batch_backward.
  void backward_window(std::size_t k, std::size_t c, const float* dlogits,
                       float* gparams) const {
    const std::size_t layers = kLayers.size() - 1;
    const float* base = act_.data() + k * act_unit_;
    std::memcpy(dact_.data() + act_off_[layers - 1], dlogits,
                c * sizeof(float));
    for (std::size_t l = layers; l-- > 0;) {
      const float* a_in = base + (l == 0 ? x_off_ : act_off_[l - 1]);
      float* d_out = dact_.data() + act_off_[l];
      float* d_in = l == 0 ? nullptr : dact_.data() + act_off_[l - 1];
      nn::dense_batch_backward(params_.data() + w_off_[l], a_in,
                               base + act_off_[l], d_out, d_in,
                               gparams + w_off_[l], gparams + b_off_[l],
                               kLayers[l + 1], kLayers[l], c,
                               /*relu=*/l + 1 < layers);
    }
  }

  /// One window's first c slots through the quantized stack: quantize
  /// features, three fused int8 hidden layers, dequantizing head into
  /// `out`; slots c..127 copy slot c - 1's logit (128 floats in all).
  void quant_window(const float* features, std::size_t c, float* out) const {
    std::uint8_t* cur = aq_ping_;
    std::uint8_t* nxt = aq_pong_;
    nn::pack_acts_u8(features, kLayers[0], c, kMaxObservable,
                     1.0f / ascale_[0], cur);
    for (std::size_t l = 0; l + 2 < kLayers.size(); ++l) {
      nn::quant_dense_hidden(cur, wq_[l].data(), kLayers[l + 1],
                             nn::quant_groups(kLayers[l]), c, rshift_[l],
                             acc0_[l].data(), nxt);
      std::swap(cur, nxt);
    }
    const std::size_t last = kLayers.size() - 2;
    nn::quant_dense_f32(cur, wq_[last].data(), kLayers[last + 1],
                        nn::quant_groups(kLayers[last]), c, mfinal_,
                        params_.data() + b_off_[last], out);
    std::fill(out + c, out + kMaxObservable, out[c - 1]);
  }

  static constexpr std::array<std::size_t, 5> kLayers = {kJobFeatures, 32,
                                                         16, 8, 1};
  std::array<std::size_t, 4> w_off_{}, b_off_{};
  std::array<std::size_t, 4> act_off_{};  ///< float offsets within a window
  std::size_t x_off_ = 0;     ///< packed layer-0 input within a window
  std::size_t act_unit_ = 0;  ///< slab floats per window
  mutable std::size_t batch_cap_ = 1;
  mutable std::vector<float> act_;   ///< window-major activation slab
  mutable std::vector<float> dact_;  ///< one window of gradient scratch

  // int8 snapshot (enable_quant) + per-window packed-activation scratch
  bool quant_on_ = false;
  std::array<std::vector<std::int8_t>, 4> wq_;
  std::array<float, 4> wscale_{}, ascale_{};
  std::array<int, 3> rshift_{};
  std::array<std::vector<std::int32_t>, 3> acc0_;
  float mfinal_ = 0.0f;
  mutable std::vector<std::uint8_t> aq_store_;  ///< backing, over-allocated
  mutable std::uint8_t* aq_ping_ = nullptr;     ///< 64B-aligned slabs
  mutable std::uint8_t* aq_pong_ = nullptr;
};

// ---------------------------------------------------------------------------
// Flat MLP baselines: the whole window (features flattened) through dense
// layers to 128 logits. Destroys permutation equivariance — the paper's
// point in Fig 8. Batched entry points stack observations along the SAMPLE
// axis of the FlatMlp (J = n columns), amortizing the big weight matrices
// across the batch; per-sample (window=1) gradient reductions keep the
// update bitwise identical to one-window calls in window order.
// ---------------------------------------------------------------------------
class MlpPolicy final : public Policy {
 public:
  MlpPolicy(PolicyKind kind, std::vector<std::size_t> hidden, util::Rng& rng)
      : kind_(kind), net_(make_sizes(std::move(hidden))) {
    params_.resize(net_.param_count());
    net_.init(params_.data(), rng, 0.01f);
  }

  void logits_batch(const Observation* const* obs, std::size_t n,
                    float* out) const override {
    ensure_batch(n);
    constexpr std::size_t in = kJobFeatures * kMaxObservable;
    // Transpose-pack into the SoA sample axis: feature i of sample k at
    // x[i*n + k].
    for (std::size_t k = 0; k < n; ++k) {
      const float* f = obs[k]->features.data();
      for (std::size_t i = 0; i < in; ++i) x_[i * n + k] = f[i];
    }
    transpose(net_.forward_batch(params_.data(), x_.data(), n),
              kMaxObservable, n, out);
  }

  void reserve_batch(std::size_t n) const override {
    ensure_batch(n);
    net_.reserve_batch(n);
  }

  void backward_batch(const Observation* const* obs, std::size_t n,
                      const float* dlogits, const std::uint8_t* win_active,
                      float* gparams) const override {
    (void)obs;  // x_ still holds the transposed pack from logits_batch
    transpose(dlogits, n, kMaxObservable, dsoa_.data());
    net_.backward_batch(params_.data(), x_.data(), dsoa_.data(), gparams, n,
                        /*window=*/1, win_active, nullptr);
  }

  PolicyKind kind() const override { return kind_; }

 private:
  void ensure_batch(std::size_t n) const {
    if (n <= batch_cap_ && !x_.empty()) return;
    batch_cap_ = n > batch_cap_ ? n : batch_cap_;
    x_.resize(kJobFeatures * kMaxObservable * batch_cap_);
    dsoa_.resize(kMaxObservable * batch_cap_);
  }

  static std::vector<std::size_t> make_sizes(std::vector<std::size_t> hidden) {
    std::vector<std::size_t> sizes;
    sizes.push_back(kJobFeatures * kMaxObservable);
    for (const std::size_t h : hidden) sizes.push_back(h);
    sizes.push_back(kMaxObservable);
    return sizes;
  }
  PolicyKind kind_;
  nn::FlatMlp net_;
  mutable std::size_t batch_cap_ = 0;
  mutable std::vector<float> x_, dsoa_;  ///< transposed pack + dOut scratch
};

// ---------------------------------------------------------------------------
// LeNet-style baseline: conv1d/pool stacks along the job axis, then a dense
// head. Pooling mixes neighbouring queue slots — the order sensitivity that
// degrades its training curves. Each window runs its conv/pool stack into
// its own block of a window-major slab; the head runs once along the sample
// axis, as in MlpPolicy. Head and conv parameters are disjoint, so the head
// backward of every window before the conv backwards (window order) keeps
// each parameter's float-add sequence that of one-window calls.
// ---------------------------------------------------------------------------
class LeNetPolicy final : public Policy {
 public:
  explicit LeNetPolicy(util::Rng& rng) : head_({kHeadIn, 64, kMaxObservable}) {
    conv1_w_ = 0;
    conv1_b_ = conv1_w_ + kC1 * kJobFeatures * kK;
    conv2_w_ = conv1_b_ + kC1;
    conv2_b_ = conv2_w_ + kC2 * kC1 * kK;
    head_off_ = conv2_b_ + kC2;
    params_.resize(head_off_ + head_.param_count());

    auto init_conv = [&rng, this](std::size_t w_off, std::size_t count,
                                  std::size_t fan_in) {
      const float scale = std::sqrt(2.0f / static_cast<float>(fan_in));
      for (std::size_t i = 0; i < count; ++i) {
        params_[w_off + i] = scale * static_cast<float>(rng.normal());
      }
    };
    init_conv(conv1_w_, kC1 * kJobFeatures * kK, kJobFeatures * kK);
    init_conv(conv2_w_, kC2 * kC1 * kK, kC1 * kK);
    head_.init(params_.data() + head_off_, rng, 0.01f);
    dact_.resize(kUnit);
  }

  void logits_batch(const Observation* const* obs, std::size_t n,
                    float* out) const override {
    constexpr std::size_t L = kMaxObservable;
    const float* p = params_.data();
    ensure_batch(n);
    for (std::size_t k = 0; k < n; ++k) {
      float* a = act_.data() + k * kUnit;
      nn::conv1d_forward(p + conv1_w_, p + conv1_b_, obs[k]->features.data(),
                         a, kC1, kJobFeatures, L, kK, true);
      nn::avgpool2_forward(a, a + kAtP1, kC1, L);
      nn::conv1d_forward(p + conv2_w_, p + conv2_b_, a + kAtP1, a + kAtC2,
                         kC2, kC1, L / 2, kK, true);
      nn::avgpool2_forward(a + kAtC2, a + kAtP2, kC2, L / 2);
      for (std::size_t i = 0; i < kHeadIn; ++i) x_[i * n + k] = a[kAtP2 + i];
    }
    transpose(head_.forward_batch(p + head_off_, x_.data(), n),
              kMaxObservable, n, out);
  }

  void reserve_batch(std::size_t n) const override {
    ensure_batch(n);
    head_.reserve_batch(n);
  }

  void backward_batch(const Observation* const* obs, std::size_t n,
                      const float* dlogits, const std::uint8_t* win_active,
                      float* gparams) const override {
    constexpr std::size_t L = kMaxObservable;
    const float* p = params_.data();
    float* d = dact_.data();
    transpose(dlogits, n, kMaxObservable, dsoa_.data());
    head_.backward_batch(p + head_off_, x_.data(), dsoa_.data(),
                         gparams + head_off_, n, /*window=*/1, win_active,
                         dx_.data());
    for (std::size_t k = 0; k < n; ++k) {
      if (win_active != nullptr && win_active[k] == 0) continue;
      const float* a = act_.data() + k * kUnit;
      for (std::size_t i = 0; i < kHeadIn; ++i) d[kAtP2 + i] = dx_[i * n + k];
      nn::avgpool2_backward(d + kAtP2, d + kAtC2, kC2, L / 2);
      nn::conv1d_backward(p + conv2_w_, a + kAtP1, a + kAtC2, d + kAtC2,
                          d + kAtP1, gparams + conv2_w_, gparams + conv2_b_,
                          kC2, kC1, L / 2, kK, true);
      nn::avgpool2_backward(d + kAtP1, d, kC1, L);
      nn::conv1d_backward(p + conv1_w_, obs[k]->features.data(), a, d,
                          nullptr, gparams + conv1_w_, gparams + conv1_b_,
                          kC1, kJobFeatures, L, kK, true);
    }
  }

  PolicyKind kind() const override { return PolicyKind::LeNet; }

 private:
  void ensure_batch(std::size_t n) const {
    if (n <= batch_cap_) return;
    batch_cap_ = n;
    act_.resize(kUnit * n);
    x_.resize(kHeadIn * n);
    dx_.resize(kHeadIn * n);
    dsoa_.resize(kMaxObservable * n);
  }

  static constexpr std::size_t kC1 = 8, kC2 = 8, kK = 5;
  // A window's block: c1 (kC1 x 128) at 0, p1 (kC1 x 64), c2 (kC2 x 64)
  // and p2 (kC2 x 32, the head input) at these offsets.
  static constexpr std::size_t kAtP1 = kC1 * kMaxObservable,
                               kAtC2 = kAtP1 + kC1 * kMaxObservable / 2,
                               kAtP2 = kAtC2 + kC2 * kMaxObservable / 2,
                               kHeadIn = kC2 * kMaxObservable / 4,
                               kUnit = kAtP2 + kHeadIn;
  std::size_t conv1_w_, conv1_b_, conv2_w_, conv2_b_, head_off_;
  nn::FlatMlp head_;
  mutable std::size_t batch_cap_ = 0;
  mutable std::vector<float> act_;   ///< window-major activation blocks
  mutable std::vector<float> dact_;  ///< one window's gradients, same layout
  mutable std::vector<float> x_, dx_, dsoa_;  ///< head input, dX, dOut (SoA)
};

}  // namespace

std::unique_ptr<Policy> make_policy(PolicyKind kind,
                                    std::size_t max_observable,
                                    util::Rng& rng) {
  if (max_observable > kMaxObservable) {
    throw std::invalid_argument(
        "max_observable exceeds compiled kMaxObservable");
  }
  switch (kind) {
    case PolicyKind::Kernel:
      return std::make_unique<KernelPolicy>(rng);
    case PolicyKind::MlpV1:
      return std::make_unique<MlpPolicy>(kind,
                                         std::vector<std::size_t>{128, 128},
                                         rng);
    case PolicyKind::MlpV2:
      return std::make_unique<MlpPolicy>(kind,
                                         std::vector<std::size_t>{256, 256},
                                         rng);
    case PolicyKind::MlpV3:
      return std::make_unique<MlpPolicy>(kind,
                                         std::vector<std::size_t>{512, 512},
                                         rng);
    case PolicyKind::LeNet:
      return std::make_unique<LeNetPolicy>(rng);
  }
  throw std::invalid_argument("unknown policy kind");
}

}  // namespace rlsched::rl
