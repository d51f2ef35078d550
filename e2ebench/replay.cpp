// `replay`: offline greedy scheduling with full inference batches.
// core::RLScheduler::schedule over held-out SDSC-SP2 sequences with EASY
// backfill, batch 8 and fixed-seed kernel weights; one request schedules
// one batch of 8 sequences. The batched policy forward is most of a
// decision, so nn forward changes show here most.
//
// The traced run re-runs the same requests through a loop that mirrors
// rl::BatchedEvaluator::evaluate with spans around each public call; its
// results must be bitwise equal to the untraced requests.
#include <algorithm>
#include <cmath>
#include <memory>

#include "core/rlscheduler.hpp"
#include "e2e.hpp"
#include "nn/ops.hpp"
#include "rl/observation.hpp"
#include "workload/synthetic.hpp"

namespace e2e {

using namespace rlsched;

namespace {

constexpr std::size_t kBatch = 8;
constexpr std::uint64_t kPolicySeed = 42;
constexpr std::size_t kMinPasses = 3;
using Group = std::vector<std::vector<trace::Job>>;

/// rl::BatchedEvaluator::evaluate, step for step, with a span around each
/// library call: sim.reset, rl.obs, nn.forward, nn.argmax, sim.step.
class TracedReplay {
 public:
  TracedReplay(const rl::Policy& policy, Tracer& t)
      : policy_(policy),
        t_(t),
        st_call_(t.stage("replay.request")),
        st_reset_(t.stage("sim.reset")),
        st_obs_(t.stage("rl.obs")),
        st_fwd_(t.stage("nn.forward")),
        st_argmax_(t.stage("nn.argmax")),
        st_step_(t.stage("sim.step")),
        obs_(kBatch),
        obs_ptr_(kBatch),
        logits_(kBatch * rl::kMaxObservable),
        actions_(kBatch) {
    policy_.reserve_batch(kBatch);
  }

  void run(const Group& seqs, int processors, std::uint64_t request,
           std::vector<sim::RunResult>& out) {
    Scope call(&t_, st_call_, request);
    const sim::EnvConfig cfg{true, rl::kMaxObservable};
    out.assign(seqs.size(), sim::RunResult{});
    for (std::size_t group = 0; group < seqs.size(); group += kBatch) {
      const std::size_t nb = std::min(kBatch, seqs.size() - group);
      while (envs_.size() < nb) envs_.emplace_back(processors, cfg);
      alive_.clear();
      for (std::size_t k = 0; k < nb; ++k) {
        Scope s(&t_, st_reset_, request * kBatch + k);
        envs_[k].reconfigure(processors, cfg);
        envs_[k].reset(seqs[group + k]);
        if (!envs_[k].done()) alive_.push_back(static_cast<std::uint32_t>(k));
      }
      while (!alive_.empty()) {
        const std::size_t n = alive_.size();
        {
          Scope s(&t_, st_obs_, request);
          for (std::size_t w = 0; w < n; ++w) {
            builder_.build_into(envs_[alive_[w]], obs_[w]);
            obs_ptr_[w] = &obs_[w];
          }
        }
        {
          Scope s(&t_, st_fwd_, request);
          policy_.logits_batch(obs_ptr_.data(), n, logits_.data());
        }
        {
          Scope s(&t_, st_argmax_, request);
          for (std::size_t k = 0; k < n; ++k) {
            actions_[k] = static_cast<std::uint32_t>(nn::argmax_masked(
                logits_.data() + k * rl::kMaxObservable, obs_[k].mask.data(),
                rl::kMaxObservable));
          }
        }
        ++forwards_;
        windows_ += n;
        Scope s(&t_, st_step_, request);
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

  std::vector<StageTime> stages() const {
    return {{"rl.obs_frac", t_.totals(st_obs_).self_s},
            {"nn.forward_frac", t_.totals(st_fwd_).self_s},
            {"nn.argmax_frac", t_.totals(st_argmax_).self_s},
            {"sim.step_frac", t_.totals(st_step_).self_s},
            {"sim.reset_frac", t_.totals(st_reset_).self_s}};
  }
  double windows_per_forward() const {
    return forwards_ > 0 ? static_cast<double>(windows_) /
                               static_cast<double>(forwards_)
                         : 0.0;
  }

 private:
  const rl::Policy& policy_;
  Tracer& t_;
  std::uint32_t st_call_, st_reset_, st_obs_, st_fwd_, st_argmax_, st_step_;
  rl::ObservationBuilder builder_;
  std::vector<sim::SchedulingEnv> envs_;
  std::vector<rl::Observation> obs_;
  std::vector<const rl::Observation*> obs_ptr_;
  std::vector<float> logits_;
  std::vector<std::uint32_t> actions_;
  std::vector<std::uint32_t> alive_;
  std::uint64_t forwards_ = 0;
  std::uint64_t windows_ = 0;
};

/// Each request's wall times, one per pass. A request costs its fastest
/// pass; a pass costs the sum of those.
struct Passes {
  std::vector<std::vector<double>> per_request;

  std::size_t passes() const { return per_request.front().size(); }
  std::vector<double> request_best() const {
    std::vector<double> out;
    for (const auto& v : per_request) out.push_back(fastest(v));
    return out;
  }
  double pass_s() const {
    double s = 0.0;
    for (const double m : request_best()) s += m;
    return s;
  }
  double request_p50_s() const { return median(request_best()); }
  std::vector<double> all() const {
    std::vector<double> out;
    for (const auto& v : per_request) out.insert(out.end(), v.begin(), v.end());
    return out;
  }
  double total_s() const {
    double s = 0.0;
    for (const double x : all()) s += x;
    return s;
  }
};

bool runs_equal(const std::vector<sim::RunResult>& a,
                const std::vector<sim::RunResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!sim::bitwise_equal(a[i], b[i])) return false;
  }
  return true;
}

}  // namespace

int run_replay(const Options& opt, Report& r) {
  const std::size_t n_seqs = opt.smoke ? 16 : 256;
  const std::size_t seq_len = opt.smoke ? 256 : 1024;
  r.set_config("trace", json_string("SDSC-SP2"));
  r.set_config("workers", "1");
  r.set_config("batch", std::to_string(kBatch));
  r.set_config("dispatchers", "0");
  r.set_config("sequences", std::to_string(n_seqs));
  r.set_config("sequence_jobs", std::to_string(seq_len));

  // The kernel weights are the same on every run; the seed changes only
  // the jobs. Weights drawn per seed would change how deep the queues get
  // and so the work per job, which no amount of averaging removes.
  core::RLSchedulerConfig cfg;
  cfg.policy = rl::PolicyKind::Kernel;
  cfg.seed = kPolicySeed;
  cfg.runtime.workers = 1;
  cfg.runtime.batch = kBatch;

  // One request = one batch of sequences; one pass = every request once.
  std::vector<Group> requests;
  std::unique_ptr<core::RLScheduler> sched;
  std::vector<std::vector<sim::RunResult>> first_pass;
  /// The request's runs; empty when the scheduler refused it.
  const auto schedule = [&](const Group& g) {
    core::ScheduleRequest req;
    req.sequences = &g;
    req.backfill = true;
    auto res = sched->schedule(req);
    return res.ok() ? std::move(res.value().runs)
                    : std::vector<sim::RunResult>{};
  };

  // Set-up: the seed's what-if of a fixed SDSC-SP2 trace, cut into
  // consecutive sequences (the whole trace, so every busy and quiet
  // stretch of it is replayed); the scheduler; one warm-up pass, which
  // also records the reference results.
  int processors = 0;
  const auto setup = [&] {
    const auto base =
        workload::make_trace("SDSC-SP2", n_seqs * seq_len, kTraceSeed);
    const trace::Trace trace(base.name(), base.processors(),
                             what_if(base, opt.seed));
    processors = trace.processors();
    for (std::size_t i = 0; i < n_seqs; ++i) {
      if (i % kBatch == 0) requests.emplace_back();
      requests.back().push_back(trace.sequence(i * seq_len, seq_len));
    }
    sched = std::make_unique<core::RLScheduler>(trace, cfg);
    for (const Group& g : requests) first_pass.push_back(schedule(g));
  };
  const double first_setup_s = timed(setup);
  bool warmup_ok = true;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    warmup_ok = warmup_ok && first_pass[i].size() == requests[i].size();
  }
  r.check("warmup_ok", warmup_ok);

  // Measured passes. Request i of pass p runs on CPU (i + p) mod #CPUs, so
  // a few passes place every request on every CPU; a request's fastest
  // pass is its cost, and a pass costs the sum of those. Traced passes run
  // the same requests through TracedReplay.
  const CpuRotation cpus;
  Tracer tracer(kSpanCap);
  TracedReplay traced_replay(sched->trainer().policy(), tracer);
  Passes untraced, traced;
  untraced.per_request.resize(requests.size());
  traced.per_request.resize(requests.size());
  bool deterministic = true, traced_equal = true;
  std::uint64_t request_id = 0;
  measure_units(opt, kMinPasses, [&](std::size_t slot, bool trace_pass) {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      cpus.pin(i + slot);
      const std::int64_t t0 = now_ns();
      std::vector<sim::RunResult> runs;
      if (trace_pass) {
        traced_replay.run(requests[i], processors, request_id++, runs);
      } else {
        runs = schedule(requests[i]);
      }
      (trace_pass ? traced : untraced)
          .per_request[i]
          .push_back(seconds_since(t0));
      ++r.attempted;
      if (runs.size() != requests[i].size()) ++r.failed;
      bool& all_equal = trace_pass ? traced_equal : deterministic;
      all_equal = all_equal && runs_equal(runs, first_pass[i]);
    }
  });
  r.check("passes_bitwise_deterministic", deterministic);

  // Batching is invisible: a single-sequence request gives the same bits.
  core::ScheduleRequest one;
  one.jobs = &requests.front().front();
  one.backfill = true;
  const auto single = sched->schedule(one);
  r.check("batched_equals_single",
          single.ok() && !first_pass[0].empty() &&
              sim::bitwise_equal(single.value().run(), first_pass[0][0]));

  double bsld = 0.0;
  for (const auto& runs : first_pass) {
    for (const sim::RunResult& run : runs) bsld += run.avg_bounded_slowdown;
  }
  bsld /= static_cast<double>(n_seqs);
  r.check("bsld_valid", std::isfinite(bsld) && bsld >= 1.0);
  r.detail("replay_bsld", bsld);

  const double jobs_per_pass = static_cast<double>(n_seqs * seq_len);
  r.detail("passes", static_cast<double>(untraced.passes()));
  r.detail("request_p99_ms", percentile(untraced.all(), 0.99) * 1e3);
  r.detail_list("request_best_s", untraced.request_best());
  if (!opt.traced()) {
    r.metric("jobs_per_s", jobs_per_pass / untraced.pass_s(), "jobs/s");
    r.metric("op_p50_ms", untraced.request_p50_s() * 1e3, "ms");
    const auto teardown = [&] {
      sched.reset();
      requests.clear();
      first_pass.clear();
    };
    report_setup_and_memory(r, first_setup_s, teardown, setup);
    return 0;
  }

  r.check("traced_equals_untraced_bitwise", traced_equal);
  layer_shares(r, traced_replay.stages(), traced.total_s(), traced.pass_s(),
               untraced.pass_s());
  r.metric("rl.windows_per_forward", traced_replay.windows_per_forward(),
           "windows/fwd");
  span_details(r, {&tracer});
  r.check("trace_file_written", write_trace_file(opt.trace_file, {&tracer}));
  return 0;
}

}  // namespace e2e
