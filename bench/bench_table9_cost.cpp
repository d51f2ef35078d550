// Table IX reproduction: computational cost of RLScheduler on this host:
//   * SJF sorting 128 pending jobs and picking one        (paper: 0.71 ms*)
//   * RLScheduler DNN making a decision for 128 jobs      (paper: 0.30 ms*)
//   * one training epoch                                  (paper: 123 s)
// plus the kernel policy's parameter count.
// (*the paper's numbers are for Python implementations; ours are native C++
//  so the absolute values are far smaller — the shape target is that a DNN
//  decision is the same order as, or cheaper than, a heuristic sort, and
//  decision latency does not grow with queue depth beyond MAX_OBSV_SIZE.)
//
// Every time is the best of 3 timed runs after one warm-up call; a
// decision run repeats the call for at least 50 ms and takes the mean.
// The training epoch runs at the RLSCHED_BENCH_* / RLSCHED_WORKERS scale
// (bench_common.hpp). Output: a human table on stderr, and with --json the
// bench::Report on stdout. The report's one check is within-run: a
// decision over 2048 pending jobs costs at most 1.5x one over 128, since
// the network sees only the first 128. The report has no baseline entry:
// no perf gate compares its absolute times.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <vector>

#include "bench_common.hpp"
#include "nn/simd.hpp"
#include "rl/batch_eval.hpp"
#include "rl/observation.hpp"
#include "rl/policy.hpp"

namespace {

using namespace rlsched;

// Results feed this sink so the timed calls cannot be optimized away.
volatile std::size_t g_sink = 0;

/// Best of 3 runs of the mean seconds per call of `op`; each run repeats
/// the call until `min_seconds` have passed (at least once).
template <typename F>
double best_of_3(F&& op, double min_seconds) {
  op();  // warm-up: lazy set-up and caches
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    std::size_t calls = 0;
    double elapsed = 0.0;
    do {
      op();
      ++calls;
      elapsed = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    } while (elapsed < min_seconds);
    best = std::min(best, elapsed / static_cast<double>(calls));
  }
  return best;
}

constexpr double kMinRunSeconds = 0.05;

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

double sjf_sort_and_pick_seconds(std::size_t pending) {
  const auto env = make_busy_env(pending);
  const auto obs = env.observable();
  const double now = env.now();
  const auto sjf = sched::sjf_priority();
  return best_of_3([&] {
    // Sort a copy of the pending window by priority and pick the head —
    // what a production SJF implementation does per scheduling event.
    std::vector<std::size_t> order(obs.begin(), obs.end());
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                return sjf(env.jobs()[a], now) < sjf(env.jobs()[b], now);
              });
    g_sink = order.front();
  }, kMinRunSeconds);
}

double rl_decision_seconds(const rl::Policy& policy, std::size_t pending) {
  const auto env = make_busy_env(pending);
  const rl::ObservationBuilder builder;
  rl::Observation obs;
  const rl::Observation* ptr = &obs;
  rl::Logits logits;
  std::uint32_t action = 0;
  return best_of_3([&] {
    builder.build_into(env, obs);
    rl::batched_argmax(policy, &ptr, 1, logits.data(), &action);
    g_sink = action;
  }, kMinRunSeconds);
}

double training_epoch_seconds(const bench::Scale& scale) {
  const auto trace = workload::make_trace("Lublin-1", 10000, scale.seed);
  rl::PPOConfig cfg;
  cfg.trajectories_per_epoch = scale.trajectories;
  cfg.pi_iters = scale.pi_iters;
  cfg.v_iters = scale.pi_iters;
  cfg.minibatch = scale.minibatch;
  cfg.seed = scale.seed;
  cfg.n_workers = scale.workers;
  cfg.batch = scale.batch;
  rl::PPOTrainer trainer(trace, cfg);
  // One call is one epoch: the warm-up epoch plus 3 timed ones.
  return best_of_3([&] {
    g_sink = static_cast<std::size_t>(trainer.train_epoch().avg_metric);
  }, 0.0);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Scale scale = bench::bench_scale();
  util::Rng rng(1);
  const auto kernel =
      rl::make_policy(rl::PolicyKind::Kernel, rl::kMaxObservable, rng);

  const double sjf_s = sjf_sort_and_pick_seconds(128);
  // Decision cost must stay flat beyond MAX_OBSV_SIZE = 128: extra pending
  // jobs are cut off before the network ever sees them.
  const std::size_t kPending[] = {128, 512, 2048};
  double rl_s[3];
  for (std::size_t k = 0; k < 3; ++k) {
    rl_s[k] = rl_decision_seconds(*kernel, kPending[k]);
  }
  const double epoch_s = training_epoch_seconds(scale);
  const std::size_t params = kernel->parameter_count();

  std::fprintf(stderr,
               "Table IX: computational cost (best of 3, SIMD lanes %zu)\n",
               nn::kSimdLanes);
  std::fprintf(stderr, "%-44s %14s %10s\n", "measurement", "this host",
               "paper");
  std::fprintf(stderr, "%-44s %11.3f us %10s\n",
               "SJF sort + pick, 128 pending jobs", 1e6 * sjf_s, "0.71 ms");
  for (std::size_t k = 0; k < 3; ++k) {
    char label[64];
    std::snprintf(label, sizeof(label), "RL decision, %zu pending jobs",
                  kPending[k]);
    std::fprintf(stderr, "%-44s %11.3f us %10s\n", label, 1e6 * rl_s[k],
                 k == 0 ? "0.30 ms" : "");
  }
  char epoch_label[96];
  std::snprintf(epoch_label, sizeof(epoch_label),
                "training epoch (traj %zu, iters %zu, workers %zu)",
                scale.trajectories, scale.pi_iters, scale.workers);
  std::fprintf(stderr, "%-44s %12.3f s %10s\n", epoch_label, epoch_s,
               "123 s");
  std::fprintf(stderr, "%-44s %14zu\n", "kernel policy parameters", params);
  const double flat = rl_s[2] / rl_s[0];
  std::fprintf(stderr, "decision 2048 vs 128 pending: %.2fx (check <= 1.5x)\n",
               flat);

  using B = bench::Report::Better;
  using M = bench::Report::Miss;
  bench::Report report("bench_table9_cost");
  report.config("simd_lanes", nn::kSimdLanes);
  report.config("trajectories", scale.trajectories);
  report.config("pi_iters", scale.pi_iters);
  report.config("minibatch", scale.minibatch);
  report.config("workers", scale.workers);
  report.check_at_most("rl_decision_2048_over_128", flat, 1.5);
  report.value("sjf_sort_pick_128_us", 1e6 * sjf_s, B::kLower, M::kWarns);
  for (std::size_t k = 0; k < 3; ++k) {
    report.value("rl_decision_" + std::to_string(kPending[k]) + "_us",
                 1e6 * rl_s[k], B::kLower, M::kWarns);
  }
  report.value("training_epoch_s", epoch_s, B::kLower, M::kWarns);
  report.value("kernel_parameters", static_cast<double>(params), B::kLower,
               M::kWarns);
  return report.finish(bench::json_flag(argc, argv));
}
