#pragma once
// Batched greedy inference over the scheduling environment.
//
// A policy scores one observation window per forward pass; evaluation
// sweeps pay full weight traffic per window. This layer packs B pending
// decision points — one per live environment — into ONE batched forward
// (see Policy::logits_batch), then unpacks a per-window masked argmax over
// each window's `count` occupied slots. Batching is invisible in the
// results: every logits row is bitwise identical to the unbatched forward
// of that window, so actions, schedules, and metrics match the
// one-env-at-a-time path exactly (tests/test_batched_inference.cpp gates
// this at B in {1,3,8,32}).
//
// The evaluator advances its environments in lockstep: each iteration
// builds observations for the still-running envs, scores them in one
// batch, steps each env with its own argmax, and drops finished envs from
// the live set. Envs and scratch slabs are pooled across evaluate() calls
// (SchedulingEnv::reconfigure), so steady-state sweeps do not allocate.

#include <cstdint>
#include <vector>

#include "rl/observation.hpp"
#include "rl/policy.hpp"
#include "sim/env.hpp"
#include "trace/job.hpp"

namespace rlsched::rl {

/// One batched greedy decision: logits for `n` windows in one forward pass
/// plus per-window masked argmax. `logits_slab` is caller-owned scratch of
/// n * kMaxObservable floats; `actions[k]` receives window k's decision —
/// bitwise identical to the n == 1 call on *obs[k] alone.
void batched_argmax(const Policy& policy, const Observation* const* obs,
                    std::size_t n, float* logits_slab,
                    std::uint32_t* actions);

/// Same contract through the quantized forward (Policy::logits_quant_batch).
/// With quantization disabled on the policy this IS batched_argmax — the
/// float fallback makes the switch bitwise-invisible.
void batched_argmax_quant(const Policy& policy, const Observation* const* obs,
                          std::size_t n, float* logits_slab,
                          std::uint32_t* actions);

class BatchedEvaluator {
 public:
  /// `batch` = max windows per forward (clamped up from 0 to 1). The
  /// policy's batch scratch grows once to this width and is then reused.
  explicit BatchedEvaluator(const Policy& policy, std::size_t batch);

  /// Greedy-schedule every sequence in lockstep groups of at most `batch`.
  /// out[i] is bitwise identical to the unbatched greedy rollout of
  /// seqs[i] on the same cluster.
  void evaluate(const std::vector<std::vector<trace::Job>>& seqs,
                int processors, bool backfill, sim::RunResult* out);

 private:
  const Policy& policy_;
  std::size_t batch_;
  ObservationBuilder builder_;
  std::vector<sim::SchedulingEnv> envs_;  ///< pooled across calls
  std::vector<Observation> obs_;
  std::vector<const Observation*> obs_ptr_;
  std::vector<float> logits_;
  std::vector<std::uint32_t> actions_;
  std::vector<std::uint32_t> alive_;  ///< window slot -> env index
};

}  // namespace rlsched::rl
