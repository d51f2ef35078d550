// Scheduling-core scaling: decisions/sec on a standing PIK-IPLEX-shaped
// storm backlog of {1k, 8k, 64k} pending jobs — the data for the CI
// backlog-scaling perf gate.
//
// Three decision paths, each on BOTH cores:
//
//   fcfs_plain  step(0), no backfilling: pure queue/window/timeline
//               maintenance. This curve must be FLAT from 1k to 64k — it
//               is the polylog-core claim, and the gate pins it.
//   fcfs_easy   step(0) with EASY backfilling: the head decision is free
//               (window slot 0) so the number measures the SIMULATOR —
//               reservations + backfill search. NOT flat per decision:
//               deeper storms legitimately backfill MORE JOBS per decision
//               (the bench prints starts/decision), so this curve is gated
//               against its recorded baseline ratio, not a constant.
//   fcfs_easy_adv  the same loop on an ADVERSARIAL staircase mix:
//               anticorrelated procs/req_time ramps put every subtree's
//               (min procs, min req_time) corner on two different jobs —
//               the shape that degrades a corner-only backfill descent to
//               O(P) node visits per query. On RLSCHED_INDEX_STATS
//               builds the report checks the Pareto-staircase index's
//               node visits per query: within 2x of the benign mix at
//               64k, and under a worst-case-log bound on both mixes.
//   kernel      ObservationBuilder + kernel-policy logits + masked argmax
//               + step(): the Table IX decision cost on top of the core.
//
//   ref_*       the same loops on the frozen naive ReferenceEnv
//               (tests/support/reference_env.hpp) — the seed-core
//               denominator of the >= 10x speedup floor the report
//               checks at 64k.
//
// The indexed core must hold a FLAT per-decision cost from 1k to 64k on
// fcfs_plain and kernel (the n1k/n64k decisions-per-sec ratio); the
// reference core degrades by O(backlog), so it runs fewer repetitions at
// 64k to keep the bench affordable — the measured decision range itself
// is identical for both cores.
//
// Self-checks before timing: both cores must produce a bitwise-identical
// RunResult on a full 1k-storm episode, and the indexed timed loops must
// perform ZERO heap allocation after reset (counting operator new) — a
// perf number from a diverging or allocating core is meaningless, so
// either violation exits nonzero.
//
// Output: human table on stderr; with --json the perf-gate report on
// stdout (docs/benchmarks.md). RLSCHED_BENCH_SEED varies the workload.
#include <cstdio>
#include <cstdlib>
#include <new>

#include "../tests/counting_alloc.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "nn/ops.hpp"
#include "rl/observation.hpp"
#include "rl/policy.hpp"
#include "sched/exact.hpp"
#include "sched/heuristics.hpp"
#include "sim/env.hpp"
#include "sim/pending_index.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"
#include "workload/synthetic.hpp"

#include "reference_env.hpp"

namespace {

using namespace rlsched;

constexpr std::size_t kBacklogs[] = {1000, 8000, 64000};
const char* const kBacklogKeys[] = {"n1k", "n8k", "n64k"};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// A storm: PIK-IPLEX-shaped runtimes/widths/users, every job submitted in
/// one burst so the whole trace is a standing backlog from t = 0.
struct Storm {
  int processors;
  std::vector<trace::Job> jobs;  ///< the full 64k job set; cells slice it
};

Storm make_storm(std::uint64_t seed) {
  auto trace = workload::make_trace("PIK-IPLEX", kBacklogs[2], seed);
  Storm s{trace.processors(), trace.jobs()};
  for (trace::Job& j : s.jobs) {
    // One simultaneous burst: every job is pending from the first decision
    // on, so the measured queue is a standing n-deep backlog (any positive
    // submit spread would trickle arrivals in one at a time — an
    // event-driven clock jumps to the next arrival, never building depth).
    // Queue order on the tied submits is the generator's job order.
    j.submit_time = 0.0;
    j.reset_schedule_state();
  }
  return s;
}

std::vector<trace::Job> slice(const Storm& s, std::size_t n) {
  return {s.jobs.begin(), s.jobs.begin() + static_cast<std::ptrdiff_t>(n)};
}

/// Adversarial storm on the same cluster: the staircase-shaped mix from
/// test_sched_core_equiv at backlog scale. Ramps of jobs with procs
/// ascending while req_time descends mean a subtree's (min procs, min
/// req_time) corner combines two DIFFERENT jobs — the plain corner prune
/// passes while no actual job fits, which is what degrades a corner-only
/// descent to O(P) visits per query. Full-width blockers pin the machine
/// so most decisions answer the EASY query against a live reservation
/// horizon.
Storm make_adversarial_storm(std::uint64_t seed, int processors) {
  util::Rng rng(seed ^ 0xA5D1u);
  Storm s{processors, {}};
  s.jobs.reserve(kBacklogs[2]);
  std::int64_t id = 1;
  while (s.jobs.size() < kBacklogs[2]) {
    trace::Job blocker{};
    blocker.id = id++;
    blocker.submit_time = 0.0;
    blocker.run_time = 60.0 + static_cast<double>(rng.below(5)) * 30.0;
    blocker.requested_time = blocker.run_time;
    blocker.requested_procs = processors;
    s.jobs.push_back(blocker);
    const std::size_t steps = 96 + rng.below(64);
    for (std::size_t st = 0; st < steps && s.jobs.size() < kBacklogs[2];
         ++st) {
      trace::Job j{};
      j.id = id++;
      j.submit_time = 0.0;
      j.requested_procs = std::min(
          1 + static_cast<int>(
                  (st * static_cast<std::size_t>(processors)) / steps),
          processors);
      j.requested_time = static_cast<double>((steps - st) * 15 + 30);
      j.run_time =
          rng.uniform() < 0.2
              ? 0.0
              : std::min(j.requested_time,
                         static_cast<double>(5 + 10 * rng.below(6)));
      j.user = static_cast<int>(rng.below(3));
      s.jobs.push_back(j);
    }
  }
  return s;
}

/// Time `decisions` scheduling decisions at a standing backlog, after
/// warming the episode until the machine is CONTENDED (free processors
/// below a quarter of the cluster, capped at decisions/2 warm steps) — the
/// storm regime where heads wait and the EASY reservation + backfill
/// machinery runs on most decisions, not the trivial start-immediately
/// prefix.
template <class Env, class DriveFn, class OnResetFn>
double decisions_per_sec_r(Env& env, const std::vector<trace::Job>& jobs,
                           std::size_t decisions, int reps, bool check_allocs,
                           DriveFn&& drive, OnResetFn&& on_reset) {
  double best = 0.0;
  const int contended = std::max(1, env.processors() / 4);
  for (int rep = 0; rep < reps; ++rep) {
    env.reset(jobs);
    on_reset();
    for (std::size_t w = 0;
         w < decisions / 2 && !env.done() &&
         env.free_processors() >= contended;
         ++w) {
      drive(env);
    }
    const unsigned long long allocs_before = g_allocs;
    const auto t0 = std::chrono::steady_clock::now();
    std::size_t d = 0;
    for (; d < decisions && !env.done(); ++d) drive(env);
    const double elapsed = seconds_since(t0);
    if (check_allocs && g_allocs != allocs_before) {
      std::fprintf(stderr,
                   "FATAL: indexed-core timed loop allocated %llu times\n",
                   g_allocs - allocs_before);
      std::exit(1);
    }
    if (d == 0 || elapsed <= 0.0) continue;
    best = std::max(best, static_cast<double>(d) / elapsed);
  }
  return best;
}

template <class Env, class DriveFn>
double decisions_per_sec(Env& env, const std::vector<trace::Job>& jobs,
                         std::size_t decisions, int reps, bool check_allocs,
                         DriveFn&& drive) {
  return decisions_per_sec_r(env, jobs, decisions, reps, check_allocs,
                             std::forward<DriveFn>(drive), [] {});
}

struct Row {
  std::string name;
  double dps[3];
};

}  // namespace

int main(int argc, char** argv) {
  using B = bench::Report::Better;
  using M = bench::Report::Miss;
  bench::Report report("bench_sched_scaling");
  report.config("index_stats", sim::PendingIndex::kStatsEnabled);
  const auto seed = static_cast<std::uint64_t>(
      util::env_long("RLSCHED_BENCH_SEED", 42, 0));
  const Storm storm = make_storm(seed);

  util::Rng rng(seed ^ 0x5CA1E);
  const auto policy =
      rl::make_policy(rl::PolicyKind::Kernel, rl::kMaxObservable, rng);
  const rl::ObservationBuilder builder;
  const sim::EnvConfig cfg{.backfill = true};

  const auto fcfs_step = [](auto& env) { env.step(0); };
  const auto kernel_action = [&](const sim::SchedulingEnv& env) {
    rl::Observation obs;
    builder.build_into(env, obs);
    const rl::Logits logits = policy->logits(obs);
    return nn::argmax_masked(logits.data(), obs.mask.data(),
                             rl::kMaxObservable);
  };

  const Storm adv = make_adversarial_storm(seed, storm.processors);

  // --- self-check: full 1k-storm episodes, both cores, bitwise equal ---
  for (const Storm* s : {&storm, &adv}) {
    const auto jobs = slice(*s, kBacklogs[0]);
    sim::SchedulingEnv env(s->processors, cfg);
    sim::ReferenceEnv ref(s->processors, cfg);
    env.reset(jobs);
    ref.reset(jobs);
    while (!env.done()) fcfs_step(env);
    while (!ref.done()) fcfs_step(ref);
    if (!sim::bitwise_equal(env.result(), ref.result())) {
      std::fprintf(stderr,
                   "FATAL: indexed core != reference core on the 1k %s "
                   "storm (run test_sched_core_equiv)\n",
                   s == &adv ? "adversarial" : "benign");
      return 1;
    }
  }

  // --- check: optimality-gap invariants on one storm window ---
  // Unlimited node budget on 8 jobs proves the optimum; by construction
  // the admissible bound is bitwise <= the optimum and the optimum <= any
  // greedy order's objective. A run violating either has a broken solver.
  sched::ExactConfig ocfg;
  ocfg.window = 8;
  ocfg.max_nodes = 0;  // unlimited: the gap claim needs a proved optimum
  sched::ExactWindowScheduler osolver(ocfg);
  sched::WindowProblem owin;
  owin.now = 0.0;
  owin.processors = storm.processors;
  // Contended machine: a sliver free now, the rest released in staircase
  // steps — orderings genuinely differ, so the gap ratios are nontrivial.
  owin.free = std::max(1, storm.processors / 16);
  {
    std::int32_t busy = storm.processors - owin.free;
    for (int step = 0; busy > 0; ++step) {
      const std::int32_t r = std::max<std::int32_t>(1, busy / 2);
      owin.releases.push_back({120.0 * (step + 1), r});
      busy -= r;
    }
  }
  // Adversarial-storm jobs (short runtimes, a full-width blocker leading a
  // procs ramp): induced waits dwarf the runtimes, so bounded slowdown —
  // and the heuristic gap — actually moves with the chosen order.
  owin.jobs.assign(adv.jobs.begin(), adv.jobs.begin() + 8);
  const auto oexact = osolver.solve(owin);
  const auto ofcfs = osolver.evaluate_greedy(owin, sched::fcfs_priority());
  const auto osjf = osolver.evaluate_greedy(owin, sched::sjf_priority());
  report.check("optgap_storm_window",
               oexact.proved && oexact.bound <= oexact.objective &&
                   oexact.objective <= ofcfs.objective &&
                   oexact.objective <= osjf.objective);

  std::vector<Row> rows = {{"fcfs_plain", {}},    {"fcfs_easy", {}},
                           {"fcfs_easy_adv", {}}, {"kernel", {}},
                           {"exact_w8", {}},
                           {"ref_fcfs_plain", {}}, {"ref_fcfs_easy", {}},
                           {"ref_kernel", {}}};
  const sim::EnvConfig plain_cfg{.backfill = false};
  sim::SchedulingEnv env(storm.processors, cfg);
  sim::SchedulingEnv env_plain(storm.processors, plain_cfg);
  sim::ReferenceEnv ref(storm.processors, cfg);
  sim::ReferenceEnv ref_plain(storm.processors, plain_cfg);
  // The exact-window planner as a decision path: branch-and-bound over the
  // first 8 observable jobs, replanned when the plan drains. The node
  // budget caps per-decision work independent of backlog depth, so this
  // row must scale flat like the other indexed paths. The plan binds env
  // JOB INDICES, so each repetition rearms after reset (decisions_per_sec_r
  // below) — a stale plan would silently alias the fresh episode.
  sched::ExactConfig exact_cfg;
  exact_cfg.window = 8;
  exact_cfg.max_nodes = 20000;
  sched::ExactWindowPolicy exact_pol(env, exact_cfg);
  const auto exact_step = [&exact_pol](auto& e) {
    e.step(exact_pol.next_action());
  };
  // Visits-per-query on the two backfilled mixes (RLSCHED_INDEX_STATS
  // builds; zeros otherwise). Sampled across each row's warm + timed
  // decisions — same regime either way.
  double vpq_easy[3] = {}, vpq_adv[3] = {};
  const auto vpq_sample = [&env] {
    const std::uint64_t q = env.pending_index().fit_queries();
    const double v = static_cast<double>(env.pending_index().fit_visits());
    env.pending_index().reset_fit_stats();
    return q > 0 ? v / static_cast<double>(q) : 0.0;
  };
  for (std::size_t bi = 0; bi < 3; ++bi) {
    const std::size_t n = kBacklogs[bi];
    const auto jobs = slice(storm, n);
    const auto jobs_adv = slice(adv, n);
    // Keep the backlog STANDING: measure a prefix of the episode so the
    // pending queue stays ~n deep. Both cores run the SAME warm + measured
    // decision range — the per-decision work mix at a given episode
    // position is identical, so decisions/sec divide cleanly.
    const std::size_t k = std::min<std::size_t>(n / 3, 2000);
    const int reps_idx = 3;
    const int reps_ref = n >= kBacklogs[2] ? 1 : 2;
    rows[0].dps[bi] =
        decisions_per_sec(env_plain, jobs, k, reps_idx, true, fcfs_step);
    env.pending_index().reset_fit_stats();
    rows[1].dps[bi] =
        decisions_per_sec(env, jobs, k, reps_idx, true, fcfs_step);
    vpq_easy[bi] = vpq_sample();
    rows[2].dps[bi] =
        decisions_per_sec(env, jobs_adv, k, reps_idx, true, fcfs_step);
    vpq_adv[bi] = vpq_sample();
    rows[3].dps[bi] =
        decisions_per_sec(env, jobs, k, reps_idx, true,
                          [&](auto& e) { e.step(kernel_action(e)); });
    rows[4].dps[bi] = decisions_per_sec_r(env, jobs, k, 2, true, exact_step,
                                          [&exact_pol] { exact_pol.rearm(); });
    rows[5].dps[bi] =
        decisions_per_sec(ref_plain, jobs, k, reps_ref, false, fcfs_step);
    rows[6].dps[bi] =
        decisions_per_sec(ref, jobs, k, reps_ref, false, fcfs_step);
    // Observations read SchedulingEnv only: the reference kernel row
    // observes `env` (reset alongside) and steps BOTH cores, which stay in
    // lockstep (test_sched_core_equiv); the extra indexed step is small.
    rows[7].dps[bi] = decisions_per_sec_r(
        ref, jobs, k, reps_ref, false,
        [&](sim::ReferenceEnv& r) {
          const std::size_t a = kernel_action(env);
          env.step(a);
          r.step(a);
        },
        [&] { env.reset(jobs); });
    if constexpr (sim::PendingIndex::kStatsEnabled) {
      // The measurable worst-case-log claim: node visits per backfill
      // query stay within a small multiple of log2(backlog) on BOTH
      // mixes. A corner-only descent blows through this on the
      // adversarial ramps (O(P) visits); the Pareto staircase must not.
      const double bound =
          8.0 * std::log2(static_cast<double>(n)) + 16.0;
      const std::string at = std::string("_visits_") + kBacklogKeys[bi];
      report.check_at_most("fcfs_easy" + at, vpq_easy[bi], bound);
      report.check_at_most("fcfs_easy_adv" + at, vpq_adv[bi], bound);
    }
  }

  std::fprintf(stderr,
               "scheduling-core scaling (PIK-IPLEX storm, %d procs, seed "
               "%llu)\n",
               storm.processors, static_cast<unsigned long long>(seed));
  std::fprintf(stderr, "%-14s %12s %12s %12s %10s %12s\n", "path",
               "1k dec/s", "8k dec/s", "64k dec/s", "1k/64k", "us/dec@64k");
  for (const Row& r : rows) {
    std::fprintf(stderr, "%-14s %12.0f %12.0f %12.0f %9.2fx %12.2f\n",
                 r.name.c_str(), r.dps[0], r.dps[1], r.dps[2],
                 r.dps[0] / r.dps[2], 1e6 / r.dps[2]);
  }
  std::fprintf(stderr,
               "indexed vs reference at 64k: fcfs_plain %.1fx, fcfs_easy "
               "%.1fx, kernel %.1fx; adversarial vs benign easy %.2fx\n",
               rows[0].dps[2] / rows[5].dps[2],
               rows[1].dps[2] / rows[6].dps[2],
               rows[3].dps[2] / rows[7].dps[2],
               rows[1].dps[2] / rows[2].dps[2]);
  if constexpr (sim::PendingIndex::kStatsEnabled) {
    std::fprintf(stderr,
                 "backfill node visits/query: benign {%.1f, %.1f, %.1f}, "
                 "adversarial {%.1f, %.1f, %.1f}\n",
                 vpq_easy[0], vpq_easy[1], vpq_easy[2], vpq_adv[0],
                 vpq_adv[1], vpq_adv[2]);
  }
  std::fprintf(stderr,
               "optgap on one 8-job storm window: bound %.4g <= exact %.4g "
               "(proved) <= fcfs %.4g (%.3fx), sjf %.4g (%.3fx)\n",
               oexact.bound, oexact.objective, ofcfs.objective,
               ofcfs.objective / oexact.objective, osjf.objective,
               osjf.objective / oexact.objective);

  // Per-decision cost growth from 1k to 64k (n1k/n64k decisions/sec) and
  // node visits are host independent, so they fail past the band; the
  // speedup floors over the reference core and the flatness caps are
  // checked within the run. Absolute decisions/sec, the speedups against
  // their baseline and the adversarial slowdown only warn.
  const auto flatness = [&rows](std::size_t r) {
    return rows[r].dps[0] / rows[r].dps[2];
  };
  for (const std::size_t r : {0, 1, 3, 4}) {
    report.value(rows[r].name + "_flatness", flatness(r), B::kLower,
                 M::kFails);
  }
  report.check_at_most("fcfs_plain_flatness", flatness(0), 2.5);
  report.check_at_most("kernel_flatness", flatness(3), 2.5);
  const struct { std::size_t row, ref; double floor; } speedups[] = {
      {0, 5, 10.0}, {1, 6, 10.0}, {3, 7, 2.0}};
  for (const auto& sp : speedups) {
    const std::string name = rows[sp.row].name + "_over_ref_n64k";
    const double speedup = rows[sp.row].dps[2] / rows[sp.ref].dps[2];
    report.check_at_least(name, speedup, sp.floor);
    report.value(name, speedup, B::kHigher, M::kWarns);
  }
  for (const std::size_t r : {0, 1, 2, 3, 4}) {
    for (std::size_t b = 0; b < 3; ++b) {
      report.value(rows[r].name + "_" + kBacklogKeys[b] + "_dps",
                   rows[r].dps[b], B::kHigher, M::kWarns);
    }
  }
  report.value("fcfs_easy_adv_slowdown_n64k", rows[1].dps[2] / rows[2].dps[2],
               B::kLower, M::kWarns);
  if constexpr (sim::PendingIndex::kStatsEnabled) {
    report.check_at_most("adv_over_benign_visits_n64k",
                         vpq_adv[2] / std::max(vpq_easy[2], 1e-9), 2.0);
    report.value("fcfs_easy_visits_n64k", vpq_easy[2], B::kLower, M::kFails);
    report.value("fcfs_easy_adv_visits_n64k", vpq_adv[2], B::kLower,
                 M::kFails);
  }
  return report.finish(bench::json_flag(argc, argv));
}
