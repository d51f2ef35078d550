// `train`: the paper's learning loop. rl::PPOTrainer on PIK-IPLEX with the
// kernel policy and trajectory filtering, the default PPO config otherwise
// (10 trajectories x 256 jobs, 10 policy and 10 value iterations,
// minibatch 512), batch 8. The PPO update dominates an epoch, so nn
// backward and rl update changes show here and nowhere else.
//
// Two departures from the default, both for a steady measurement:
//  * the KL early stop is off. With it on, how many policy iterations an
//    epoch runs depends on the training dynamics of the seed, so the work
//    per epoch (and the epoch time) would change from run to run with no
//    change in the code;
//  * one worker. An epoch waits for its slowest worker, and a second
//    thread cannot be moved across CPUs from outside the library (see
//    CpuRotation), so two workers doubled the run-to-run spread. Results
//    are bitwise the same for every worker count.
#include <cmath>
#include <limits>
#include <memory>

#include "e2e.hpp"
#include "rl/ppo.hpp"
#include "util/rng.hpp"
#include "workload/synthetic.hpp"

namespace e2e {

using namespace rlsched;

namespace {

constexpr std::size_t kMinEpochs = 3;

struct TrainScale {
  std::size_t trace_jobs = 10000;
  std::size_t eval_seqs = 32;
  std::size_t eval_len = 1024;
};

rl::PPOConfig train_config(const Options& opt) {
  rl::PPOConfig cfg;
  cfg.policy = rl::PolicyKind::Kernel;
  cfg.trajectory_filtering = true;
  cfg.seed = opt.seed;
  cfg.n_workers = 1;
  cfg.batch = 8;
  cfg.target_kl = std::numeric_limits<float>::infinity();
  if (opt.smoke) {
    cfg.trajectories_per_epoch = 2;
    cfg.seq_len = 64;
    cfg.pi_iters = 2;
    cfg.v_iters = 2;
  }
  return cfg;
}

}  // namespace

int run_train(const Options& opt, Report& r) {
  const TrainScale scale =
      opt.smoke ? TrainScale{2000, 4, 256} : TrainScale{};
  const rl::PPOConfig cfg = train_config(opt);
  const std::size_t jobs_per_epoch = cfg.trajectories_per_epoch * cfg.seq_len;
  r.set_config("trace", json_string("PIK-IPLEX"));
  r.set_config("workers", std::to_string(cfg.n_workers));
  r.set_config("batch", std::to_string(cfg.batch));
  r.set_config("dispatchers", "0");
  r.set_config("jobs_per_epoch", std::to_string(jobs_per_epoch));

  // Set-up: synthesize the trace, build the trainer, one warm-up epoch.
  trace::Trace trace;
  std::unique_ptr<rl::PPOTrainer> trainer;
  const auto setup = [&] {
    trace = workload::make_trace("PIK-IPLEX", scale.trace_jobs, opt.seed);
    trainer = std::make_unique<rl::PPOTrainer>(trace, cfg);
    trainer->train_epoch();
  };
  const double first_setup_s = timed(setup);

  // Measured epochs, placed by CpuRotation; the fastest one is the estimate.
  const CpuRotation cpus;
  Tracer tracer(kSpanCap);
  const std::uint32_t st_epoch = tracer.stage("rl.ppo.epoch");
  const std::uint32_t st_collect = tracer.stage("rl.ppo.collect");
  const std::uint32_t st_update = tracer.stage("rl.ppo.update");
  std::vector<double> epoch_s, traced_epoch_s;
  bool metrics_finite = true;
  measure_units(opt, kMinEpochs, [&](std::size_t slot, bool traced) {
    cpus.pin(slot);
    const std::int64_t t0 = now_ns();
    if (traced) tracer.begin(st_epoch, r.attempted);
    const rl::EpochStats s = trainer->train_epoch();
    if (traced) {
      // The library's own epoch split, placed inside the epoch span.
      const std::int64_t t1 =
          t0 + static_cast<std::int64_t>(s.collect_seconds * 1e9);
      const std::int64_t t2 =
          t1 + static_cast<std::int64_t>(s.update_seconds * 1e9);
      tracer.span(st_collect, r.attempted, t0, t1);
      tracer.span(st_update, r.attempted, t1, t2);
      tracer.end();
    }
    (traced ? traced_epoch_s : epoch_s).push_back(seconds_since(t0));
    ++r.attempted;
    if (!std::isfinite(s.avg_metric)) {
      ++r.failed;
      metrics_finite = false;
    }
  });
  r.check("epoch_metrics_finite", metrics_finite);

  // Score the trained policy on held-out sequences with backfill.
  util::Rng eval_rng(opt.seed ^ 0xE7A1ULL);
  std::vector<std::vector<trace::Job>> held_out;
  for (std::size_t i = 0; i < scale.eval_seqs; ++i) {
    held_out.push_back(trace.sample_sequence(eval_rng, scale.eval_len));
  }
  const std::vector<sim::RunResult> scored =
      trainer->evaluate_batch(held_out, trace.processors(), true);
  double bsld = 0.0;
  for (const sim::RunResult& run : scored) bsld += run.avg_bounded_slowdown;
  bsld /= static_cast<double>(held_out.size());
  r.check("held_out_bsld_valid", std::isfinite(bsld) && bsld >= 1.0);
  r.detail("train_bsld", bsld);
  // Batching is invisible: the unbatched rollout gives the same bits.
  bool batched_equals_single = true;
  for (std::size_t i = 0; i < 2 && i < held_out.size(); ++i) {
    batched_equals_single =
        batched_equals_single &&
        sim::bitwise_equal(
            trainer->evaluate(held_out[i], trace.processors(), true),
            scored[i]);
  }
  r.check("batched_equals_single", batched_equals_single);
  r.detail_list("epoch_s", epoch_s);

  // Epochs repeat one operation: fixed trajectory and iteration counts and
  // no early stop fix the update's work; only trajectory filtering's
  // resampling varies, inside the few-percent collection share.
  const double epoch_best = fastest(epoch_s);
  if (!opt.traced()) {
    r.metric("jobs_per_s", static_cast<double>(jobs_per_epoch) / epoch_best,
             "jobs/s");
    r.metric("op_p50_ms", epoch_best * 1e3, "ms");
    report_setup_and_memory(r, first_setup_s, [&] { trainer.reset(); },
                            setup);
    return 0;
  }
  double traced_total = 0.0;
  for (const double s : traced_epoch_s) traced_total += s;
  layer_shares(r,
               {{"rl.ppo.collect_frac", tracer.totals(st_collect).self_s},
                {"rl.ppo.update_frac", tracer.totals(st_update).self_s}},
               traced_total, fastest(traced_epoch_s), epoch_best);
  span_details(r, {&tracer});
  r.check("trace_file_written", write_trace_file(opt.trace_file, {&tracer}));
  return 0;
}

}  // namespace e2e
