// Table IX reproduction: computational cost of RLScheduler, measured with
// google-benchmark on this host:
//   * SJF sorting 128 pending jobs and picking one        (paper: 0.71 ms*)
//   * RLScheduler DNN making a decision for 128 jobs      (paper: 0.30 ms*)
//   * one training epoch                                  (paper: 123 s)
// (*the paper's numbers are for Python implementations; ours are native C++
//  so the absolute values are far smaller — the shape target is that a DNN
//  decision is the same order as, or cheaper than, a heuristic sort, and
//  decision latency does not grow with queue depth beyond MAX_OBSV_SIZE.)
#include <benchmark/benchmark.h>

#include <algorithm>

#include "bench_common.hpp"
#include "nn/ops.hpp"
#include "rl/observation.hpp"
#include "rl/policy.hpp"

namespace {

using namespace rlsched;

sim::SchedulingEnv make_busy_env(std::size_t pending) {
  // One running job fills the machine; `pending` jobs queue behind it.
  const auto trace = workload::make_trace("SDSC-SP2", pending + 8, 42);
  std::vector<trace::Job> jobs;
  trace::Job filler;
  filler.id = 0;
  filler.submit_time = 0.0;
  filler.run_time = 1e7;
  filler.requested_procs = 128;
  filler.requested_time = 1e7;
  jobs.push_back(filler);
  for (std::size_t i = 0; i < pending; ++i) {
    trace::Job j = trace[i];
    j.submit_time = 1.0;
    j.reset_schedule_state();
    jobs.push_back(j);
  }
  sim::SchedulingEnv env(128);
  env.reset(std::move(jobs));
  env.step(0);  // start the filler; everything else is now pending
  return env;
}

void BM_SjfSortAndPick(benchmark::State& state) {
  auto env = make_busy_env(static_cast<std::size_t>(state.range(0)));
  const auto obs = env.observable();
  const double now = env.now();
  const auto sjf = sched::sjf_priority();
  for (auto _ : state) {
    // Sort a copy of the pending window by priority and pick the head —
    // what a production SJF implementation does per scheduling event.
    std::vector<std::size_t> order(obs.begin(), obs.end());
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                return sjf(env.jobs()[a], now) < sjf(env.jobs()[b], now);
              });
    benchmark::DoNotOptimize(order.front());
  }
}
BENCHMARK(BM_SjfSortAndPick)->Arg(128)->Unit(benchmark::kMicrosecond);

void BM_RlDecision(benchmark::State& state) {
  auto env = make_busy_env(static_cast<std::size_t>(state.range(0)));
  util::Rng rng(1);
  const auto policy =
      rl::make_policy(rl::PolicyKind::Kernel, rl::kMaxObservable, rng);
  const rl::ObservationBuilder builder;
  rl::Observation obs;
  for (auto _ : state) {
    builder.build_into(env, obs);
    const auto logits = policy->logits(obs);
    benchmark::DoNotOptimize(nn::argmax_masked(logits, obs.mask));
  }
}
// Decision cost must stay flat beyond MAX_OBSV_SIZE = 128: extra pending
// jobs are cut off before the network ever sees them.
BENCHMARK(BM_RlDecision)->Arg(128)->Arg(512)->Arg(2048)
    ->Unit(benchmark::kMicrosecond);

void BM_TrainingEpoch(benchmark::State& state) {
  const auto scale = bench::bench_scale();
  const auto trace = workload::make_trace("Lublin-1", 10000, scale.seed);
  rl::PPOConfig cfg;
  cfg.trajectories_per_epoch = scale.trajectories;
  cfg.pi_iters = scale.pi_iters;
  cfg.v_iters = scale.pi_iters;
  cfg.minibatch = scale.minibatch;
  cfg.seed = scale.seed;
  rl::PPOTrainer trainer(trace, cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(trainer.train_epoch().avg_metric);
  }
}
BENCHMARK(BM_TrainingEpoch)->Unit(benchmark::kSecond)->Iterations(1);

void BM_PolicyParameterCount(benchmark::State& state) {
  util::Rng rng(1);
  const auto policy =
      rl::make_policy(rl::PolicyKind::Kernel, rl::kMaxObservable, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy->parameter_count());
  }
  state.counters["parameters"] =
      static_cast<double>(policy->parameter_count());
}
BENCHMARK(BM_PolicyParameterCount);

}  // namespace

BENCHMARK_MAIN();
