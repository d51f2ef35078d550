#pragma once
// Fixtures shared by the policy and PPO tests.

#include <cstdint>
#include <vector>

#include "rl/observation.hpp"
#include "rl/ppo.hpp"
#include "sim/env.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

#include "test_util.hpp"

namespace rlsched::test {

// Jobs arrive far faster than the 128-processor machine drains, so the
// policy sees multi-job windows at nearly every decision: batching has
// real windows to pack and gradients are non-trivial.
inline trace::Trace congested_trace() {
  util::Rng rng(99);
  std::vector<trace::Job> jobs;
  for (int i = 0; i < 1200; ++i) {
    trace::Job j;
    j.id = i + 1;
    j.submit_time = 20.0 * i;
    j.requested_time = 600.0 + 4000.0 * rng.uniform();
    j.run_time = j.requested_time * rng.uniform(0.5, 1.0);
    j.requested_procs = 1 + static_cast<int>(rng.below(48));
    j.user = 1 + static_cast<int>(rng.below(6));
    jobs.push_back(j);
  }
  return trace::Trace("congested", 128, std::move(jobs));
}

/// The first `n` decision windows holding `lo` to `hi` jobs, from an
/// episode over the congested trace that always picks slot 0.
inline std::vector<rl::Observation> decision_windows(
    std::size_t n, std::uint32_t lo = 1,
    std::uint32_t hi = rl::kMaxObservable) {
  const trace::Trace trace = congested_trace();
  sim::SchedulingEnv env(trace.processors());
  env.reset(trace.sequence(0, 256));
  const rl::ObservationBuilder builder;
  std::vector<rl::Observation> out;
  rl::Observation obs;
  for (; !env.done() && out.size() < n; env.step(0)) {
    builder.build_into(env, obs);
    if (obs.count >= lo && obs.count <= hi) out.push_back(obs);
  }
  CHECK(out.size() == n);
  return out;
}

/// Trajectories, advantages and updated parameters of the two trainers'
/// last epochs are bitwise equal.
inline void check_epochs_identical(const rl::PPOTrainer& a,
                                   const rl::PPOTrainer& b) {
  CHECK(a.steps() == b.steps());
  CHECK(a.trajectory_ends() == b.trajectory_ends());
  for (std::size_t i = 0; i < a.steps(); ++i) {
    const rl::Observation& oa = a.observation(i);
    const rl::Observation& ob = b.observation(i);
    CHECK(oa.count == ob.count);
    CHECK(oa.mask == ob.mask);
    CHECK(oa.features == ob.features);  // bitwise float equality
  }
  CHECK(a.actions() == b.actions());
  CHECK(a.logps() == b.logps());
  CHECK(a.values() == b.values());
  CHECK(a.advantages() == b.advantages());
  CHECK(a.returns() == b.returns());
  CHECK(a.terminal_rewards() == b.terminal_rewards());
  // Chunk-ordered gradient reduction: the UPDATED parameters match too.
  CHECK(a.policy().param_vector() == b.policy().param_vector());
  CHECK(a.value_params() == b.value_params());
}

}  // namespace rlsched::test
