#include "rl/batch_eval.hpp"

#include <algorithm>

#include "nn/ops.hpp"

namespace rlsched::rl {

namespace {

/// Per-window masked argmax over a window-major logits slab.
void argmax_rows(const Observation* const* obs, std::size_t n,
                 const float* logits_slab, std::uint32_t* actions) {
  for (std::size_t k = 0; k < n; ++k) {
    actions[k] = static_cast<std::uint32_t>(
        nn::argmax_masked(logits_slab + k * kMaxObservable,
                          obs[k]->mask.data(), kMaxObservable));
  }
}

}  // namespace

void batched_argmax(const Policy& policy, const Observation* const* obs,
                    std::size_t n, float* logits_slab,
                    std::uint32_t* actions) {
  policy.logits_batch(obs, n, logits_slab);
  argmax_rows(obs, n, logits_slab, actions);
}

void batched_argmax_quant(const Policy& policy, const Observation* const* obs,
                          std::size_t n, float* logits_slab,
                          std::uint32_t* actions) {
  policy.logits_quant_batch(obs, n, logits_slab);
  argmax_rows(obs, n, logits_slab, actions);
}

BatchedEvaluator::BatchedEvaluator(const Policy& policy, std::size_t batch)
    : policy_(policy), batch_(batch == 0 ? 1 : batch) {
  policy_.reserve_batch(batch_);
  obs_.resize(batch_);
  obs_ptr_.resize(batch_);
  logits_.resize(batch_ * kMaxObservable);
  actions_.resize(batch_);
  alive_.reserve(batch_);
}

void BatchedEvaluator::evaluate(
    const std::vector<std::vector<trace::Job>>& seqs, int processors,
    bool backfill, sim::RunResult* out) {
  const sim::EnvConfig cfg{backfill, kMaxObservable};
  for (std::size_t group = 0; group < seqs.size(); group += batch_) {
    const std::size_t nb = std::min(batch_, seqs.size() - group);
    while (envs_.size() < nb) envs_.emplace_back(processors, cfg);
    alive_.clear();
    for (std::size_t k = 0; k < nb; ++k) {
      envs_[k].reconfigure(processors, cfg);
      envs_[k].reset(seqs[group + k]);
      if (!envs_[k].done()) alive_.push_back(static_cast<std::uint32_t>(k));
    }
    while (!alive_.empty()) {
      const std::size_t n = alive_.size();
      for (std::size_t w = 0; w < n; ++w) {
        builder_.build_into(envs_[alive_[w]], obs_[w]);
        obs_ptr_[w] = &obs_[w];
      }
      batched_argmax(policy_, obs_ptr_.data(), n, logits_.data(),
                     actions_.data());
      std::size_t keep = 0;
      for (std::size_t w = 0; w < n; ++w) {
        sim::SchedulingEnv& env = envs_[alive_[w]];
        env.step(actions_[w]);
        if (!env.done()) alive_[keep++] = alive_[w];
      }
      alive_.resize(keep);
    }
    for (std::size_t k = 0; k < nb; ++k) out[group + k] = envs_[k].result();
  }
}

}  // namespace rlsched::rl
