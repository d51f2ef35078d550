// The indexed-core acceptance gate: SchedulingEnv (timeline + Fenwick fit
// index + min-key index) must produce BITWISE-identical schedules to the
// frozen naive ReferenceEnv — the same job-start event sequence, the same
// per-job start times, the same aggregate RunResult — across:
//
//   * randomized fuzz traces (storm bursts with tied submit times,
//     integer-rounded runtimes that force equal completion times, zero
//     runtimes, over-wide requests that exercise the clamp) and synthetic
//     PIK-IPLEX storm + SDSC-SP2 workloads;
//   * adversarial staircase mixes — anticorrelated procs/req_time storms
//     behind full-width blockers, exact duplicates (tied keys), and
//     horizon/spare boundary probes — the shapes that defeat the plain
//     (min, min) backfill prune and stress the Pareto-staircase index;
//   * all five Table III heuristics via run_priority() — the
//     time-invariant ones (FCFS/SJF/F1) in BOTH kinds, proving the
//     O(log P) min-key index equals the O(P) scan decision for decision;
//   * a TimeInvariant priority scoring some jobs +inf (the indexed core's
//     non-finite fallback scan);
//   * the kernel policy via step() with both cores in LOCKSTEP: at every
//     decision the reference must show bitwise-equal observation inputs
//     (window jobs, now(), free_processors()), of which an observation is
//     a pure function;
//   * a seeded random-action agent via step();
//   * backfill off and on (EASY reservations + fit-index queue jumps);
//   * materialized and streamed ingestion (chunk sizes 1 and 17), and a
//     shuffled (unsorted) job vector.
//
// Every mismatch reports the fuzz seed and configuration so a failure is
// reproducible from the log line alone.
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "rl/batch_eval.hpp"
#include "rl/observation.hpp"
#include "rl/policy.hpp"
#include "sched/heuristics.hpp"
#include "sim/env.hpp"
#include "test_util.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"
#include "workload/synthetic.hpp"

#include "reference_env.hpp"

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

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool events_equal(const std::vector<Event>& a, const std::vector<Event>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].procs != b[i].procs ||
        !same_bits(a[i].submit, b[i].submit) ||
        !same_bits(a[i].start, b[i].start)) {
      return false;
    }
  }
  return true;
}

struct Run {
  std::vector<Event> events;
  sim::RunResult result;
};

struct Context {
  const char* trace_label;
  std::uint64_t seed;
  bool backfill;
  const char* driver;
  std::size_t chunk;  // 0 = materialized
};

[[noreturn]] void fail(const Context& c, const char* what) {
  std::fprintf(stderr,
               "MISMATCH (%s): trace=%s seed=%llu backfill=%d driver=%s "
               "%s\n",
               what, c.trace_label,
               static_cast<unsigned long long>(c.seed), c.backfill ? 1 : 0,
               c.driver,
               c.chunk == 0 ? "materialized"
                            : ("chunk=" + std::to_string(c.chunk)).c_str());
  std::exit(1);
}

// --- episode drivers ---
//
// Each driver plays one episode on both cores and returns {indexed run,
// reference run}. The independent ones are templated over the core and
// run the same episode on each in turn.

template <class Env>
Run drive_heuristic(Env& env, const sim::PriorityFn& fn,
                    sim::PriorityKind kind) {
  Run r;
  env.set_start_hook(&record_event, &r.events);
  r.result = env.run_priority(fn, kind);
  env.set_start_hook(nullptr, nullptr);
  return r;
}

template <class Env>
Run drive_random(Env& env, std::uint64_t seed) {
  // Same seed on both cores: as long as the observable windows agree, the
  // drawn action sequences agree — any divergence surfaces as an event
  // mismatch.
  util::Rng rng(seed);
  Run r;
  env.set_start_hook(&record_event, &r.events);
  while (!env.done()) {
    const std::size_t w = env.observable().size();
    env.step(static_cast<std::size_t>(rng.below(w)));
  }
  r.result = env.result();
  env.set_start_hook(nullptr, nullptr);
  return r;
}

/// Everything an observation reads from a core: the window's jobs (id and
/// the submit/requested fields the features use), the clock, and the free
/// and total processor counts.
void check_observation_inputs(const Context& c, const sim::SchedulingEnv& env,
                              const sim::ReferenceEnv& ref) {
  if (!same_bits(env.now(), ref.now())) fail(c, "now() at a decision");
  if (env.free_processors() != ref.free_processors() ||
      env.processors() != ref.processors()) {
    fail(c, "free_processors() at a decision");
  }
  const auto wa = env.observable();
  const auto wb = ref.observable();
  if (wa.size() != wb.size()) fail(c, "window size at a decision");
  for (std::size_t k = 0; k < wa.size(); ++k) {
    const trace::Job& a = env.jobs()[wa[k]];
    const trace::Job& b = ref.jobs()[wb[k]];
    if (a.id != b.id || a.requested_procs != b.requested_procs ||
        !same_bits(a.submit_time, b.submit_time) ||
        !same_bits(a.requested_time, b.requested_time)) {
      fail(c, "window job at a decision");
    }
  }
}

/// The kernel policy with both cores in lockstep: observe SchedulingEnv,
/// require the reference's observation inputs to match bit for bit, then
/// step both with the one chosen action.
std::pair<Run, Run> drive_kernel(const Context& c, sim::SchedulingEnv& env,
                                 sim::ReferenceEnv& ref,
                                 const rl::Policy& policy) {
  Run got, want;
  env.set_start_hook(&record_event, &got.events);
  ref.set_start_hook(&record_event, &want.events);
  const rl::ObservationBuilder builder;
  rl::Observation obs;
  const rl::Observation* ptr = &obs;
  rl::Logits logits;
  std::uint32_t action = 0;
  while (!env.done()) {
    if (ref.done()) fail(c, "done() at a decision");
    check_observation_inputs(c, env, ref);
    builder.build_into(env, obs);
    rl::batched_argmax(policy, &ptr, 1, logits.data(), &action);
    env.step(action);
    ref.step(action);
  }
  if (!ref.done()) fail(c, "done() at the end");
  got.result = env.result();
  want.result = ref.result();
  env.set_start_hook(nullptr, nullptr);
  ref.set_start_hook(nullptr, nullptr);
  return {std::move(got), std::move(want)};
}

/// Adapts an independent per-core driver to the pair signature.
template <class DriveFn>
auto on_each(DriveFn drive) {
  return [drive](const Context&, sim::SchedulingEnv& env,
                 sim::ReferenceEnv& ref) {
    Run got = drive(env);
    Run want = drive(ref);
    return std::pair<Run, Run>{std::move(got), std::move(want)};
  };
}

// --- the differential check ---

void check_pair(const Context& c, const sim::SchedulingEnv& env,
                const sim::ReferenceEnv& ref, const Run& got,
                const Run& want) {
  if (!events_equal(got.events, want.events)) fail(c, "start events");
  if (!sim::bitwise_equal(got.result, want.result)) fail(c, "RunResult");
  if (c.chunk == 0) {
    // Materialized: both cores retain the full (identically sorted) job
    // vector — require per-job start-time equality too.
    const auto& a = env.jobs();
    const auto& b = ref.jobs();
    if (a.size() != b.size()) fail(c, "job count");
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i].id != b[i].id || !same_bits(a[i].start_time, b[i].start_time)) {
        fail(c, "per-job start time");
      }
    }
  }
}

template <class PairFn>
void compare(Context c, const std::vector<trace::Job>& jobs, int procs,
             PairFn&& drive_pair) {
  const sim::EnvConfig cfg{.backfill = c.backfill};
  // materialized
  {
    c.chunk = 0;
    sim::SchedulingEnv env(procs, cfg);
    sim::ReferenceEnv ref(procs, cfg);
    env.reset(jobs);
    ref.reset(jobs);
    const auto [got, want] = drive_pair(c, env, ref);
    check_pair(c, env, ref, got, want);
  }
  // streamed, pathological and mid-size chunks
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{17}}) {
    c.chunk = chunk;
    trace::Trace src_a("equiv", procs, jobs);
    trace::Trace src_b("equiv", procs, jobs);
    sim::SchedulingEnv env(procs, cfg);
    sim::ReferenceEnv ref(procs, cfg);
    env.reset(src_a, chunk);
    ref.reset(src_b, chunk);
    const auto [got, want] = drive_pair(c, env, ref);
    check_pair(c, env, ref, got, want);
  }
}

// --- fuzz workload: storms, ties, degenerate jobs ---

std::vector<trace::Job> fuzz_trace(std::uint64_t seed, int* procs_out) {
  util::Rng rng(seed);
  const int procs_choices[] = {4, 16, 64};
  const int procs = procs_choices[rng.below(3)];
  const std::size_t n = 60 + rng.below(240);
  std::vector<trace::Job> jobs(n);
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    trace::Job& j = jobs[i];
    j.id = static_cast<std::int64_t>(i) + 1;
    // Bursty arrivals: 40% of jobs share their submit time with the
    // previous job (storm spikes + exact submit ties); otherwise advance
    // by an integer-ish gap.
    if (i > 0 && rng.uniform() < 0.4) {
      t = jobs[i - 1].submit_time;
    } else {
      t += static_cast<double>(rng.below(30));
    }
    j.submit_time = t;
    // Integer runtimes from a small set make equal completion times
    // common — the reservation tie-group semantics must hold.
    const double runs[] = {0.0, 1.0, 5.0, 10.0, 50.0, 120.0, 777.0};
    j.run_time = runs[rng.below(7)];
    j.requested_time = rng.uniform() < 0.5
                           ? j.run_time
                           : j.run_time + static_cast<double>(rng.below(60));
    // Mostly narrow, sometimes wider than the machine (clamp path).
    j.requested_procs = 1 + static_cast<int>(rng.below(
        rng.uniform() < 0.15 ? static_cast<std::uint64_t>(2 * procs)
                             : static_cast<std::uint64_t>(procs)));
    j.user = static_cast<int>(rng.below(5));
  }
  *procs_out = procs;
  return jobs;
}

// --- adversarial workload: staircase-shaped mixes ---
//
// Blocks of jobs with ANTICORRELATED procs/req_time (narrow-and-long vs
// wide-and-short, procs ascending while req_time descends) put every
// subtree's (min procs, min req_time) on two DIFFERENT jobs, so the plain
// corner prune passes while no actual job fits — the shape that degrades
// a corner-only descent to O(P) and that the Pareto staircase must prune
// without ever skipping an eligible job. Full-width blockers pin the
// machine so each decision answers the backfill query against a live
// reservation horizon; exact duplicates tie every index key at the same
// submit time; integer requests place jobs exactly ON the
// now + req_time == horizon and procs == spare/free edges.
std::vector<trace::Job> adversarial_trace(std::uint64_t seed,
                                          int* procs_out) {
  util::Rng rng(seed);
  const int procs = rng.uniform() < 0.5 ? 32 : 64;
  std::vector<trace::Job> jobs;
  double t = 0.0;
  std::int64_t id = 1;
  const std::size_t blocks = 4 + rng.below(4);
  for (std::size_t b = 0; b < blocks; ++b) {
    trace::Job blocker{};
    blocker.id = id++;
    blocker.submit_time = t;
    blocker.run_time = 60.0 + static_cast<double>(rng.below(5)) * 30.0;
    blocker.requested_time = blocker.run_time;
    blocker.requested_procs = procs;
    blocker.user = 0;
    jobs.push_back(blocker);

    // The anticorrelated staircase storm, all submitted in one tick.
    const std::size_t steps = 8 + rng.below(24);
    for (std::size_t s = 0; s < steps; ++s) {
      trace::Job j{};
      j.id = id++;
      j.submit_time = t;
      j.requested_procs = std::min(
          1 + static_cast<int>((s * static_cast<std::size_t>(procs)) /
                               steps),
          procs);
      j.requested_time = static_cast<double>((steps - s) * 15 + 30);
      j.run_time = rng.uniform() < 0.2
                       ? 0.0
                       : std::min(j.requested_time,
                                  static_cast<double>(5 + 10 * rng.below(6)));
      j.user = static_cast<int>(rng.below(3));
      jobs.push_back(j);
      if (rng.uniform() < 0.25) {
        trace::Job dup = j;  // exact tie in every index key
        dup.id = id++;
        jobs.push_back(dup);
      }
    }

    // Horizon-boundary probes: request exactly the blocker's length at
    // widths 1..4, so eligibility flips on the == edge of
    // now + req_time <= horizon and on procs == spare as the tail drains.
    for (int w = 1; w <= 4; ++w) {
      trace::Job j{};
      j.id = id++;
      j.submit_time = t;
      j.requested_time = blocker.run_time;
      j.run_time = rng.uniform() < 0.5 ? j.requested_time : 1.0;
      j.requested_procs = w;
      j.user = 1;
      jobs.push_back(j);
    }
    t += static_cast<double>(30 + rng.below(90));
  }
  *procs_out = procs;
  return jobs;
}

}  // namespace

int main() {
  using namespace rlsched;
  util::Rng policy_rng(7);
  const auto policy =
      rl::make_policy(rl::PolicyKind::Kernel, rl::kMaxObservable, policy_rng);

  struct Workload {
    const char* label;
    std::uint64_t seed;
    int procs;
    std::vector<trace::Job> jobs;
  };
  std::vector<Workload> workloads;

  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Workload w{"fuzz", seed, 0, {}};
    w.jobs = fuzz_trace(seed, &w.procs);
    workloads.push_back(std::move(w));
  }
  for (std::uint64_t seed = 101; seed <= 104; ++seed) {
    Workload w{"adversarial", seed, 0, {}};
    w.jobs = adversarial_trace(seed, &w.procs);
    workloads.push_back(std::move(w));
  }
  {
    // PIK-IPLEX storm: Table II shape with submits compressed 100x so the
    // whole trace stacks into a standing backlog under heavy contention.
    auto trace = workload::make_trace("PIK-IPLEX", 700, 11);
    Workload w{"pik-storm", 11, trace.processors(), trace.jobs()};
    for (trace::Job& j : w.jobs) j.submit_time *= 0.01;
    workloads.push_back(std::move(w));
  }
  {
    auto trace = workload::make_trace("SDSC-SP2", 600, 13);
    workloads.push_back(
        {"sdsc", 13, trace.processors(), trace.jobs()});
  }
  {
    // Unsorted input: a shuffled fuzz trace takes both cores' stable_sort
    // path, and tied submits keep their shuffled relative order.
    Workload w{"shuffled-fuzz", 5, 0, {}};
    w.jobs = fuzz_trace(w.seed, &w.procs);
    util::Rng shuffle_rng(w.seed);
    for (std::size_t i = w.jobs.size(); i-- > 1;) {
      std::swap(w.jobs[i], w.jobs[shuffle_rng.below(i + 1)]);
    }
    workloads.push_back(std::move(w));
  }

  // A TimeInvariant score that is +inf for every fourth job: whenever only
  // such jobs are pending, the indexed core's key tree cannot answer and it
  // falls back to the scan, which must still match the reference.
  const sim::PriorityFn sjf_with_inf = [](const trace::Job& j, double) {
    return j.id % 4 == 0 ? std::numeric_limits<double>::infinity()
                         : j.requested_time;
  };

  std::size_t episodes = 0;
  for (const Workload& w : workloads) {
    for (const bool backfill : {false, true}) {
      Context c{w.label, w.seed, backfill, "", 0};
      for (const auto& h : sched::all_heuristics()) {
        c.driver = h.name.c_str();
        compare(c, w.jobs, w.procs, on_each([&](auto& env) {
                  return drive_heuristic(env, h.priority, h.kind);
                }));
        ++episodes;
        if (h.kind == sim::PriorityKind::TimeInvariant) {
          // Cross-check the min-key index against the plain scan: the
          // indexed core must give the same schedule under either kind.
          compare(c, w.jobs, w.procs, on_each([&](auto& env) {
                    return drive_heuristic(env, h.priority,
                                           sim::PriorityKind::TimeVarying);
                  }));
          ++episodes;
        }
      }
      c.driver = "sjf-with-inf";
      compare(c, w.jobs, w.procs, on_each([&](auto& env) {
                return drive_heuristic(env, sjf_with_inf,
                                       sim::PriorityKind::TimeInvariant);
              }));
      ++episodes;
      c.driver = "kernel";
      compare(c, w.jobs, w.procs,
              [&](const Context& ctx, sim::SchedulingEnv& env,
                  sim::ReferenceEnv& ref) {
                return drive_kernel(ctx, env, ref, *policy);
              });
      ++episodes;
      c.driver = "random";
      compare(c, w.jobs, w.procs, on_each([&](auto& env) {
                return drive_random(env,
                                    w.seed * 1000003 + (backfill ? 1 : 0));
              }));
      ++episodes;
    }
  }

  std::printf(
      "indexed core == reference core: %zu episode configs x "
      "{materialized, chunk=1, chunk=17}, bitwise: OK\n",
      episodes);
  return 0;
}
