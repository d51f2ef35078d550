// The acceptance gate for the simulator hot path: after reset(), a full
// episode via step()/run_priority() — and the RL decision path
// (ObservationBuilder + kernel policy + masked argmax) — must perform ZERO
// heap allocation. Verified with counting global operator new/delete.
#include <cstdio>
#include <cstdlib>
#include <new>

#include "counting_alloc.hpp"

#include "rl/batch_eval.hpp"
#include "rl/observation.hpp"
#include "rl/policy.hpp"
#include "sched/heuristics.hpp"
#include "sim/env.hpp"
#include "test_util.hpp"
#include "workload/synthetic.hpp"

int main() {
  using namespace rlsched;
  const auto trace = workload::make_trace("SDSC-SP2", 3000, 42);
  util::Rng rng(1);
  const auto seq = trace.sequence(0, 512);
  const auto sjf = sched::sjf_priority();

  // --- heuristic episode, with backfilling (the allocation-heavier path),
  // --- in BOTH run_priority kinds: the TimeVarying min-scan and the
  // --- TimeInvariant min-key index (enable_keys + take_min_key + the
  // --- pending-index compact/grow rebuilds must all stay in reserve) ---
  for (const auto kind : {sim::PriorityKind::TimeVarying,
                          sim::PriorityKind::TimeInvariant}) {
    sim::SchedulingEnv env(trace.processors(), {.backfill = true});
    env.reset(seq);
    const unsigned long long before = g_allocs;
    const auto result = env.run_priority(sjf, kind);
    const unsigned long long after = g_allocs;
    CHECK(result.jobs == seq.size());
    if (after != before) {
      std::fprintf(stderr, "run_priority (kind %d) allocated %llu times\n",
                   static_cast<int>(kind), after - before);
      return 1;
    }
  }

  // --- step() driven episode ---
  {
    sim::SchedulingEnv env(trace.processors());
    env.reset(seq);
    const unsigned long long before = g_allocs;
    while (!env.done()) env.step(0);
    const unsigned long long after = g_allocs;
    CHECK(after == before);
  }

  // --- RL decision loop: observation build + kernel logits + argmax ---
  {
    const auto policy = rl::make_policy(rl::PolicyKind::Kernel,
                                        rl::kMaxObservable, rng);
    const rl::ObservationBuilder builder;
    sim::SchedulingEnv env(trace.processors(), {.backfill = true});
    env.reset(seq);
    rl::Observation obs;
    const rl::Observation* ptr = &obs;
    rl::Logits logits;
    std::uint32_t action = 0;
    const unsigned long long before = g_allocs;
    while (!env.done()) {
      builder.build_into(env, obs);
      rl::batched_argmax(*policy, &ptr, 1, logits.data(), &action);
      env.step(action);
    }
    const unsigned long long after = g_allocs;
    if (after != before) {
      std::fprintf(stderr, "RL decision loop allocated %llu times\n",
                   after - before);
      return 1;
    }
  }

  std::puts("zero-allocation hot path: OK");
  return 0;
}
