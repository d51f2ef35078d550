// The streaming tentpole's load-bearing guarantee: ingesting the same SWF
// trace materialized (Trace::load_swf -> reset(vector)) or streamed
// (ShardedReader / Trace-as-JobSource -> reset(JobSource&)) produces
// BITWISE-identical schedules — the same job-start event sequence, the
// same per-job start/wait times, the same aggregate metrics — for every
// shard size, including pathological ones (1 job per chunk) and a trace
// split across multiple shard files.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "rl/batch_eval.hpp"
#include "rl/observation.hpp"
#include "rl/policy.hpp"
#include "sched/heuristics.hpp"
#include "sim/env.hpp"
#include "test_util.hpp"
#include "trace/sharded_reader.hpp"
#include "trace/trace.hpp"
#include "workload/synthetic.hpp"

namespace {
using namespace rlsched;

struct Event {
  std::int64_t id;
  double submit;
  double start;
  int procs;
};

void record_event(void* ctx, const trace::Job& j) {
  static_cast<std::vector<Event>*>(ctx)->push_back(
      {j.id, j.submit_time, j.start_time, j.requested_procs});
}

bool bitwise_equal(const std::vector<Event>& a, const std::vector<Event>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].procs != b[i].procs) return false;
    if (std::memcmp(&a[i].submit, &b[i].submit, sizeof(double)) != 0) {
      return false;
    }
    if (std::memcmp(&a[i].start, &b[i].start, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

// RunResult comparisons use the library's sim::bitwise_equal — the same
// comparator the streaming bench gates on.
using sim::bitwise_equal;

struct Run {
  std::vector<Event> events;
  sim::RunResult result;
};

// EASY backfilling (FCFS + EASY) episode driven by run_priority().
Run run_easy(sim::SchedulingEnv& env) {
  Run r;
  env.set_start_hook(&record_event, &r.events);
  r.result = env.run_priority(sched::fcfs_priority());
  env.set_start_hook(nullptr, nullptr);
  return r;
}

// Greedy kernel-policy episode driven by step().
Run run_kernel(sim::SchedulingEnv& env, const rl::Policy& policy) {
  Run r;
  env.set_start_hook(&record_event, &r.events);
  const rl::ObservationBuilder builder;
  rl::Observation obs;
  const rl::Observation* ptr = &obs;
  rl::Logits logits;
  std::uint32_t action = 0;
  while (!env.done()) {
    builder.build_into(env, obs);
    rl::batched_argmax(policy, &ptr, 1, logits.data(), &action);
    env.step(action);
  }
  r.result = env.result();
  env.set_start_hook(nullptr, nullptr);
  return r;
}
}  // namespace

int main() {
  using namespace rlsched;
  namespace fs = std::filesystem;

  // Fixture: a synthetic HPC2N-alike exported to SWF, then loaded back —
  // both ingestion paths read the very same file through the shared
  // row parser, so job values cannot diverge at the source.
  const std::string swf = "test_equiv.swf";
  const std::string shard_dir = "test_equiv_shards";
  workload::make_trace("HPC2N", 400, 9).save_swf(swf);
  auto materialized = trace::Trace::load_swf(swf, "fixture");
  const int procs = materialized.processors();
  CHECK(procs > 0);
  CHECK(materialized.size() == 400);

  // Split the same file into 3 shard files (only the first carries the
  // MaxProcs header — the reader must pick it up before any data row).
  {
    std::ifstream in(swf);
    fs::create_directory(shard_dir);
    std::ofstream outs[3] = {
        std::ofstream(shard_dir + "/a_part0.swf"),
        std::ofstream(shard_dir + "/b_part1.swf"),
        std::ofstream(shard_dir + "/c_part2.swf")};
    std::string line;
    std::size_t row = 0;
    while (std::getline(in, line)) {
      if (!line.empty() && line[0] == ';') {
        outs[0] << line << '\n';
        continue;
      }
      outs[std::min<std::size_t>(row * 3 / 400, 2)] << line << '\n';
      ++row;
    }
  }

  util::Rng rng(3);
  const auto policy =
      rl::make_policy(rl::PolicyKind::Kernel, rl::kMaxObservable, rng);

  // --- baselines: materialized ingestion ---
  Run base_easy, base_kernel;
  {
    sim::SchedulingEnv env(procs, {.backfill = true});
    env.reset(materialized.jobs());
    base_easy = run_easy(env);
  }
  {
    sim::SchedulingEnv env(procs, {.backfill = true});
    env.reset(materialized.jobs());
    base_kernel = run_kernel(env, *policy);
  }
  CHECK(base_easy.result.jobs == 400);
  CHECK(base_kernel.result.jobs == 400);

  // --- streamed ingestion at every shard size, single file ---
  const std::size_t shard_sizes[] = {1, 7, 64, 400 /* whole file */};
  for (const std::size_t shard : shard_sizes) {
    trace::ShardedReader reader(swf, "fixture-stream");
    CHECK(reader.processors() == procs);

    sim::SchedulingEnv env(procs, {.backfill = true});
    env.reset(reader, shard);
    const Run easy = run_easy(env);
    if (!bitwise_equal(easy.events, base_easy.events) ||
        !bitwise_equal(easy.result, base_easy.result)) {
      std::fprintf(stderr, "EASY stream != materialized at shard=%zu\n",
                   shard);
      return 1;
    }
    CHECK(env.total_jobs() == 400);  // every job was ingested exactly once

    sim::SchedulingEnv env2(procs, {.backfill = true});
    env2.reset(reader, shard);  // reset() rewinds the source itself
    const Run kernel = run_kernel(env2, *policy);
    if (!bitwise_equal(kernel.events, base_kernel.events) ||
        !bitwise_equal(kernel.result, base_kernel.result)) {
      std::fprintf(stderr, "kernel stream != materialized at shard=%zu\n",
                   shard);
      return 1;
    }
  }

  // --- streamed ingestion across a directory of shard files ---
  for (const std::size_t shard : shard_sizes) {
    trace::ShardedReader reader(shard_dir, "fixture-dir");
    CHECK(reader.shard_paths().size() == 3);
    CHECK(reader.processors() == procs);
    sim::SchedulingEnv env(procs, {.backfill = true});
    env.reset(reader, shard);
    const Run easy = run_easy(env);
    CHECK(bitwise_equal(easy.events, base_easy.events));
    CHECK(bitwise_equal(easy.result, base_easy.result));
  }

  // --- the materialized Trace is itself a JobSource ---
  {
    auto copy = materialized;  // fetch() advances a cursor: use a copy
    sim::SchedulingEnv env(procs, {.backfill = true});
    env.reset(copy, 7);
    const Run easy = run_easy(env);
    CHECK(bitwise_equal(easy.events, base_easy.events));
    CHECK(bitwise_equal(easy.result, base_easy.result));
  }

  // --- streamed characteristics match the materialized calibration ---
  {
    trace::ShardedReader reader(shard_dir, "fixture");
    trace::CharacteristicsAccumulator whole;
    std::vector<trace::CharacteristicsAccumulator> per_chunk;
    std::vector<trace::Job> chunk;
    while (true) {
      chunk.clear();
      if (reader.fetch(64, chunk) == 0) break;
      per_chunk.emplace_back();
      for (const trace::Job& j : chunk) {
        whole.add(j);
        per_chunk.back().add(j);
      }
    }
    trace::CharacteristicsAccumulator merged;
    for (const auto& acc : per_chunk) merged.merge(acc);

    const auto want = materialized.characteristics();
    // Sequential streamed accumulation is the same adds in the same order
    // as the materialized pass: exact. The per-chunk merge reassociates
    // the sums (chunk subtotals added together), so it agrees to
    // floating-point reassociation, with counts still exact.
    const auto got_seq = whole.finish("fixture", reader.processors());
    CHECK(got_seq.jobs == want.jobs);
    CHECK(got_seq.processors == want.processors);
    CHECK(got_seq.distinct_users == want.distinct_users);
    CHECK_NEAR(got_seq.mean_interarrival, want.mean_interarrival, 0.0);
    CHECK_NEAR(got_seq.mean_requested_time, want.mean_requested_time, 0.0);
    CHECK_NEAR(got_seq.mean_requested_procs, want.mean_requested_procs, 0.0);

    const auto got_merged = merged.finish("fixture", reader.processors());
    CHECK(got_merged.jobs == want.jobs);
    CHECK(got_merged.distinct_users == want.distinct_users);
    CHECK_NEAR(got_merged.mean_interarrival, want.mean_interarrival,
               1e-9 * want.mean_interarrival);
    CHECK_NEAR(got_merged.mean_requested_time, want.mean_requested_time,
               1e-9 * want.mean_requested_time);
    CHECK_NEAR(got_merged.mean_requested_procs, want.mean_requested_procs,
               1e-9 * want.mean_requested_procs);
  }

  std::remove(swf.c_str());
  fs::remove_all(shard_dir);
  std::puts("streamed == materialized (EASY + kernel, all shard sizes): OK");
  return 0;
}
