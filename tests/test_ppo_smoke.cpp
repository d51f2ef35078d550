// One-epoch PPO smoke test at a tiny budget: training runs, produces a
// finite metric, actually moves the policy parameters, a save/load round
// trip reproduces the greedy schedule bit-for-bit, and a truncated,
// trailing-garbage or wrong-count model file is rejected without touching
// the loaded scheduler.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/rlscheduler.hpp"
#include "util/rng.hpp"
#include "workload/synthetic.hpp"

#include "test_util.hpp"

namespace {
// A deliberately congested workload: jobs arrive far faster than the
// machine drains, so every decision sees a multi-job window. (A sampled
// low-load sequence can present single-job windows at every step — then
// the policy gradient is correctly zero and the "parameters moved" check
// would be vacuous.)
rlsched::trace::Trace congested_trace() {
  rlsched::util::Rng rng(99);
  std::vector<rlsched::trace::Job> jobs;
  for (int i = 0; i < 1500; ++i) {
    rlsched::trace::Job j;
    j.id = i + 1;
    j.submit_time = 20.0 * i;
    j.requested_time = 600.0 + 4000.0 * rng.uniform();
    j.run_time = j.requested_time * rng.uniform(0.5, 1.0);
    j.requested_procs = 1 + static_cast<int>(rng.below(48));
    j.user = 1 + static_cast<int>(rng.below(6));
    jobs.push_back(j);
  }
  return rlsched::trace::Trace("congested", 128, std::move(jobs));
}
}  // namespace

int main() {
  using namespace rlsched;
  const auto trace = congested_trace();

  core::RLSchedulerConfig cfg;
  cfg.seq_len = 64;
  cfg.trajectories_per_epoch = 3;
  cfg.pi_iters = 3;
  cfg.v_iters = 3;
  cfg.minibatch = 0;  // full batch
  cfg.seed = 5;
  core::RLScheduler scheduler(trace, cfg);

  const std::vector<float> params_before =
      scheduler.trainer().policy().param_vector();
  CHECK(!params_before.empty());

  std::size_t callbacks = 0;
  const auto history = scheduler.train(1, [&callbacks](const rl::EpochStats& e) {
    ++callbacks;
    CHECK(std::isfinite(e.avg_metric));
  });
  CHECK(callbacks == 1);
  CHECK(history.epochs.size() == 1);
  CHECK(std::isfinite(history.epochs[0].avg_metric));
  CHECK(history.epochs[0].avg_metric > 0.0);
  CHECK(history.epochs[0].seconds >= 0.0);

  const std::vector<float>& params_after =
      scheduler.trainer().policy().param_vector();
  bool moved = false;
  for (std::size_t i = 0; i < params_after.size(); ++i) {
    if (params_after[i] != params_before[i]) {
      moved = true;
      break;
    }
  }
  CHECK(moved);

  // Greedy scheduling works and yields finite metrics.
  util::Rng rng(3);
  const auto seq = trace.sample_sequence(rng, 128);
  core::ScheduleRequest req;
  req.jobs = &seq;
  req.backfill = true;
  const auto scheduled = scheduler.schedule(req);
  CHECK(scheduled.ok());
  const auto result = scheduled.value().run();
  CHECK(result.jobs == seq.size());
  CHECK(std::isfinite(result.avg_bounded_slowdown));
  CHECK(result.utilization > 0.0 && result.utilization <= 1.0 + 1e-9);

  // Save / load round trip: an identically-configured scheduler loaded from
  // disk must produce the identical schedule, bitwise.
  const std::string path = "test_ppo_smoke.model.txt";
  scheduler.save(path);
  core::RLScheduler reloaded(trace, cfg);
  reloaded.load(path);
  CHECK(sim::bitwise_equal(reloaded.schedule(req).value().run(), result));

  // A rejected model file throws and leaves the live scheduler exactly as
  // it was. The files carry the trained parameters, so loading them into an
  // untrained scheduler would show any partial overwrite.
  std::stringstream saved;
  saved << std::ifstream(path).rdbuf();
  const std::string text = saved.str();
  const std::size_t values = scheduler.trainer().value_params().size();
  const std::string value_header = "value " + std::to_string(values);
  std::string wrong_count = text;
  wrong_count.replace(wrong_count.find(value_header), value_header.size(),
                      "value " + std::to_string(values - 1));
  core::RLScheduler untrained(trace, cfg);
  const auto policy_before = untrained.trainer().policy().param_vector();
  const auto value_before = untrained.trainer().value_params();
  const auto run_before = untrained.schedule(req).value().run();
  for (const std::string& bad :
       {text.substr(0, text.size() / 3), text + "garbage 1 2 3\n",
        wrong_count}) {
    std::ofstream(path) << bad;
    bool threw = false;
    try {
      untrained.load(path);
    } catch (const std::runtime_error&) {
      threw = true;
    }
    CHECK(threw);
    CHECK(untrained.trainer().policy().param_vector() == policy_before);
    CHECK(untrained.trainer().value_params() == value_before);
    CHECK(sim::bitwise_equal(untrained.schedule(req).value().run(),
                             run_before));
  }
  std::remove(path.c_str());

  // MINIBATCH=0 (full batch) and a nonzero minibatch both train.
  core::RLSchedulerConfig mb = cfg;
  mb.minibatch = 32;
  core::RLScheduler small_batches(trace, mb);
  const auto h2 = small_batches.train(1);
  CHECK(std::isfinite(h2.epochs.at(0).avg_metric));

  std::puts("ppo smoke: OK");
  return 0;
}
