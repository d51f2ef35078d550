#include "nn/mlp.hpp"

#include <cmath>
#include <cstring>

namespace rlsched::nn {

FlatMlp::FlatMlp(std::vector<std::size_t> sizes) : sizes_(std::move(sizes)) {
  for (std::size_t l = 0; l + 1 < sizes_.size(); ++l) {
    w_off_.push_back(param_count_);
    param_count_ += sizes_[l] * sizes_[l + 1];
    b_off_.push_back(param_count_);
    param_count_ += sizes_[l + 1];
    act_off_.push_back(act_total_);
    act_total_ += sizes_[l + 1];
  }
  act_.resize(act_total_);
  dact_.resize(act_total_);
}

void FlatMlp::ensure_batch(std::size_t n) const {
  if (n <= batch_cap_) return;
  batch_cap_ = n;
  act_.resize(act_total_ * n);
  dact_.resize(act_total_ * n);
}

void FlatMlp::init(float* params, util::Rng& rng, float out_scale) const {
  const std::size_t layers = sizes_.size() - 1;
  for (std::size_t l = 0; l < layers; ++l) {
    const std::size_t in = sizes_[l], out = sizes_[l + 1];
    const float scale =
        std::sqrt(2.0f / static_cast<float>(in)) *
        (l + 1 == layers ? out_scale : 1.0f);
    float* w = params + w_off_[l];
    for (std::size_t i = 0; i < in * out; ++i) {
      w[i] = scale * static_cast<float>(rng.normal());
    }
    float* b = params + b_off_[l];
    for (std::size_t i = 0; i < out; ++i) b[i] = 0.0f;
  }
}

const float* FlatMlp::forward_batch(const float* params, const float* X,
                                    std::size_t n) const {
  ensure_batch(n);
  const std::size_t layers = sizes_.size() - 1;
  const float* in = X;
  for (std::size_t l = 0; l < layers; ++l) {
    float* out = act_.data() + act_off_[l] * batch_cap_;
    dense_batch_forward(params + w_off_[l], params + b_off_[l], in, out,
                        sizes_[l + 1], sizes_[l], n,
                        /*relu=*/l + 1 < layers);
    in = out;
  }
  return in;
}

void FlatMlp::backward_batch(const float* params, const float* X,
                             const float* dOut, float* gparams, std::size_t n,
                             std::size_t window,
                             const std::uint8_t* win_active,
                             float* dX) const {
  ensure_batch(n);
  const std::size_t layers = sizes_.size() - 1;
  std::memcpy(dact_.data() + act_off_[layers - 1] * batch_cap_, dOut,
              sizes_.back() * n * sizeof(float));
  for (std::size_t l = layers; l-- > 0;) {
    const float* a_in =
        l == 0 ? X : act_.data() + act_off_[l - 1] * batch_cap_;
    float* d_out = dact_.data() + act_off_[l] * batch_cap_;
    float* d_in = l == 0 ? dX : dact_.data() + act_off_[l - 1] * batch_cap_;
    dense_batch_backward(params + w_off_[l], a_in,
                         act_.data() + act_off_[l] * batch_cap_, d_out, d_in,
                         gparams + w_off_[l], gparams + b_off_[l],
                         sizes_[l + 1], sizes_[l], n,
                         /*relu=*/l + 1 < layers, window, win_active);
  }
}

}  // namespace rlsched::nn
