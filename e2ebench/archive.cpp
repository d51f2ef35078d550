// `archive`: an archive what-if replay with no nn at all. A PIK-IPLEX
// archive, arrivals compressed to 0.3x (a deep backlog), stored as 8 SWF
// shards, is streamed through trace::ShardedReader into
// SchedulingEnv::reset(source, 4096) and scheduled FCFS with EASY
// backfill. SWF parsing and the deep-backlog backfill split a pass, so
// this is the main workload for trace and sim changes and the bypass for
// nn changes.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include "e2e.hpp"
#include "sched/heuristics.hpp"
#include "sim/env.hpp"
#include "trace/sharded_reader.hpp"
#include "workload/synthetic.hpp"

namespace e2e {

using namespace rlsched;

namespace {

constexpr std::size_t kShards = 8;
constexpr std::size_t kChunk = 4096;
constexpr double kArrivalScale = 0.3;
constexpr std::size_t kMinPasses = 3;

std::size_t archive_jobs(const Options& opt) {
  return opt.smoke ? 20000 : 1000000;
}

/// Times every fetch from the wrapped source as a trace.fetch span.
class TimedSource final : public trace::JobSource {
 public:
  TimedSource(trace::JobSource& inner, Tracer& t)
      : inner_(inner), t_(t), st_fetch_(t.stage("trace.fetch")) {}
  const std::string& name() const override { return inner_.name(); }
  int processors() const override { return inner_.processors(); }
  std::size_t fetch(std::size_t max_jobs,
                    std::vector<trace::Job>& out) override {
    Scope s(&t_, st_fetch_, fetches_++);
    return inner_.fetch(max_jobs, out);
  }
  void rewind() override { inner_.rewind(); }
  std::uint32_t stage() const { return st_fetch_; }

 private:
  trace::JobSource& inner_;
  Tracer& t_;
  std::uint32_t st_fetch_;
  std::uint64_t fetches_ = 0;
};

}  // namespace

/// An archive is one fixed history: --seed asks a what-if of it.
int prepare_archive(const Options& opt, const std::string& dir) {
  namespace fs = std::filesystem;
  const std::size_t n = archive_jobs(opt);
  const auto base = workload::make_trace("PIK-IPLEX", n, kTraceSeed);
  const std::vector<trace::Job> jobs = what_if(base, opt.seed);
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::size_t per_shard = (n + kShards - 1) / kShards;
  for (std::size_t sh = 0; sh < kShards; ++sh) {
    char path[4096];
    std::snprintf(path, sizeof(path), "%s/shard_%02zu.swf", dir.c_str(), sh);
    std::FILE* out = std::fopen(path, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path);
      return 1;
    }
    if (sh == 0) std::fprintf(out, "; MaxProcs: %d\n", base.processors());
    const std::size_t end = std::min(n, (sh + 1) * per_shard);
    for (std::size_t i = sh * per_shard; i < end; ++i) {
      const trace::Job& j = jobs[i];
      std::fprintf(out,
                   "%" PRId64 " %.12g -1 %.12g %d -1 -1 %d %.12g -1 1 %d -1 "
                   "-1 -1 -1 -1 -1\n",
                   j.id, j.submit_time * kArrivalScale, j.run_time,
                   j.requested_procs, j.requested_procs, j.requested_time,
                   j.user);
    }
    if (std::fclose(out) != 0) return 1;
  }
  std::printf("{\"jobs\": %zu, \"shards\": %zu}\n", n, kShards);
  return 0;
}

int run_archive(const Options& opt, Report& r) {
  const std::size_t n = archive_jobs(opt);
  r.set_config("trace", json_string("PIK-IPLEX"));
  r.set_config("workers", "1");
  r.set_config("batch", "0");
  r.set_config("dispatchers", "0");
  r.set_config("jobs", std::to_string(n));
  r.set_config("shards", std::to_string(kShards));
  r.set_config("chunk_jobs", std::to_string(kChunk));

  const sim::PriorityFn fcfs = sched::fcfs_priority();
  std::unique_ptr<trace::ShardedReader> reader;
  std::unique_ptr<sim::SchedulingEnv> env;
  sim::RunResult reference;
  const auto pass = [&](trace::JobSource& source, const sim::PriorityFn& fn) {
    env->reset(source, kChunk);
    return env->run_priority(fn, sim::PriorityKind::TimeInvariant);
  };

  // Set-up: open the shards, build the env, one warm-up pass (which also
  // records the reference result and warms the page cache).
  const auto setup = [&] {
    reader = std::make_unique<trace::ShardedReader>(opt.data_dir, "archive");
    env = std::make_unique<sim::SchedulingEnv>(reader->processors(),
                                               sim::EnvConfig{true});
    reference = pass(*reader, fcfs);
  };
  const double first_setup_s = timed(setup);
  r.check("all_jobs_scheduled", reference.jobs == n);
  r.check("no_rows_skipped", reader->rows_skipped() == 0);
  r.check("bsld_valid", std::isfinite(reference.avg_bounded_slowdown) &&
                            reference.avg_bounded_slowdown >= 1.0);
  r.detail("archive_bsld", reference.avg_bounded_slowdown);
  r.detail("archive_utilization", reference.utilization);

  // Measured passes, placed by CpuRotation; the fastest pass is the
  // estimate. Traced passes time fetches through the source wrapper and
  // count priority calls through a wrapper around the heuristic; sim.run
  // is the rest of the pass.
  const CpuRotation cpus;
  Tracer tracer(kSpanCap);
  const std::uint32_t st_run = tracer.stage("sim.run");
  TimedSource timed(*reader, tracer);
  std::uint64_t priority_calls = 0;
  const sim::PriorityFn counted = [&](const trace::Job& j, double now) {
    ++priority_calls;
    return fcfs(j, now);
  };
  std::vector<double> pass_s, traced_s;
  bool deterministic = true, traced_equal = true;
  measure_units(opt, kMinPasses, [&](std::size_t slot, bool traced) {
    cpus.pin(slot);
    const std::int64_t t0 = now_ns();
    sim::RunResult res;
    if (traced) {
      Scope s(&tracer, st_run, slot);
      res = pass(timed, counted);
    } else {
      res = pass(*reader, fcfs);
    }
    (traced ? traced_s : pass_s).push_back(seconds_since(t0));
    ++r.attempted;
    const bool same = sim::bitwise_equal(res, reference);
    if (!same) ++r.failed;
    bool& all_same = traced ? traced_equal : deterministic;
    all_same = all_same && same;
  });
  r.check("passes_bitwise_deterministic", deterministic);

  r.detail_list("pass_s", pass_s);
  if (!opt.traced()) {
    r.metric("jobs_per_s", static_cast<double>(n) / fastest(pass_s),
             "jobs/s");
    r.metric("op_p50_ms", fastest(pass_s) * 1e3, "ms");
    const auto teardown = [&] {
      env.reset();
      reader.reset();
    };
    report_setup_and_memory(r, first_setup_s, teardown, setup);
    return 0;
  }

  double traced_total = 0.0;
  for (const double s : traced_s) traced_total += s;
  r.check("traced_equals_untraced_bitwise", traced_equal);
  layer_shares(r,
               {{"trace.fetch_frac", tracer.totals(timed.stage()).self_s},
                {"sim.run_frac", tracer.totals(st_run).self_s}},
               traced_total, fastest(traced_s), fastest(pass_s));
  r.metric("sched.priority_calls_per_job",
           static_cast<double>(priority_calls) /
               static_cast<double>(n * traced_s.size()),
           "calls/job");
  span_details(r, {&tracer});
  r.check("trace_file_written", write_trace_file(opt.trace_file, {&tracer}));
  return 0;
}

}  // namespace e2e
