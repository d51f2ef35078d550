// serve::Daemon gates, in order of load-bearing-ness:
//   1. Cross-session batching invariance — N sessions drained together at
//      batch width B produce BITWISE the results of the same requests
//      served one session at a time at B = 1 (and of the engine's own
//      BatchedEvaluator reference).
//   2. Env pooling is invisible — a session created in a recycled slot
//      (whose env came back through the pool) schedules bitwise like the
//      first tenant did.
//   3. Session lifecycle under concurrent churn — parallel clients
//      creating/submitting/waiting/destroying sessions against the
//      background dispatcher never lose, duplicate, or cross-deliver a
//      completion.
//   4. Protocol errors on the shared Status enum: stale handles, unknown
//      request ids, cancellation by destroy, table exhaustion.
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "rl/batch_eval.hpp"
#include "rl/policy.hpp"
#include "serve/daemon.hpp"
#include "sim/env.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"
#include "workload/synthetic.hpp"

namespace {
using namespace rlsched;
using core::ScheduleRequest;
using core::ScheduleResult;
using core::Status;
using core::StatusCode;
using serve::Completion;
using serve::Daemon;
using serve::DaemonConfig;
using serve::RequestId;
using serve::SessionConfig;
using serve::SessionId;

DaemonConfig daemon_config(std::size_t batch) {
  DaemonConfig cfg;
  cfg.runtime.workers = 1;
  cfg.runtime.batch = batch;
  return cfg;
}

/// Engine-level ground truth: the unbatched greedy rollout of each
/// sequence, through the same BatchedEvaluator the trainer uses.
std::vector<sim::RunResult> reference_runs(
    const rl::Policy& policy, const std::vector<std::vector<trace::Job>>& seqs,
    int processors, bool backfill) {
  rl::BatchedEvaluator eval(policy, 1);
  std::vector<sim::RunResult> out(seqs.size());
  eval.evaluate(seqs, processors, backfill, out.data());
  return out;
}
}  // namespace

int main() {
  const auto trace = workload::make_trace("Lublin-1", 4000, 42);
  const int procs = trace.processors();
  util::Rng policy_rng(99);
  const auto policy =
      rl::make_policy(rl::PolicyKind::Kernel, rl::kMaxObservable, policy_rng);

  util::Rng rng(5);
  constexpr std::size_t kSessions = 16;
  std::vector<std::vector<trace::Job>> seqs;
  for (std::size_t i = 0; i < kSessions; ++i) {
    seqs.push_back(trace.sample_sequence(rng, 64 + 8 * i));
  }
  const auto expect = reference_runs(*policy, seqs, procs, true);

  // --- 1. cross-session batching invariance ------------------------------
  {
    std::vector<sim::RunResult> at_batch[2];
    const std::size_t widths[2] = {1, 8};
    for (int v = 0; v < 2; ++v) {
      Daemon daemon(daemon_config(widths[v]));
      CHECK(daemon.batch() == widths[v]);
      const std::uint32_t pid = daemon.register_policy(*policy);
      std::vector<SessionId> sessions;
      std::vector<RequestId> requests;
      for (std::size_t i = 0; i < kSessions; ++i) {
        SessionConfig sc;
        sc.processors = procs;
        sc.policy = pid;
        auto sid = daemon.create_session(sc);
        CHECK(sid.ok());
        sessions.push_back(sid.value());
        ScheduleRequest req;
        req.jobs = &seqs[i];
        req.backfill = true;
        auto rid = daemon.submit(sessions[i], req);
        CHECK(rid.ok());
        requests.push_back(rid.value());
      }
      // All 16 sessions pending; one drain serves them in shared batches.
      auto served = daemon.drain();
      CHECK(served.ok());
      CHECK(served.value() == kSessions);
      for (std::size_t i = 0; i < kSessions; ++i) {
        Completion c;
        CHECK(daemon.try_take(requests[i], &c).ok());
        CHECK(c.status.ok());
        CHECK(c.result.runs.size() == 1);
        CHECK(c.latency_seconds >= 0.0);
        at_batch[v].push_back(c.result.run());
      }
      const auto stats = daemon.stats();
      CHECK(stats.requests_submitted == kSessions);
      CHECK(stats.requests_completed == kSessions);
      CHECK(stats.episodes == kSessions);
      CHECK(stats.forwards > 0);
      CHECK(stats.forward_windows >= stats.forwards);
      if (widths[v] > 1) {
        // Batching actually happened: strictly fewer forwards than
        // decisions means multi-window packing occurred.
        CHECK(stats.forward_windows == stats.decisions);
        CHECK(stats.forwards < stats.decisions);
      }
    }
    for (std::size_t i = 0; i < kSessions; ++i) {
      CHECK(sim::bitwise_equal(at_batch[0][i], at_batch[1][i]));
      CHECK(sim::bitwise_equal(at_batch[1][i], expect[i]));
    }
  }

  // --- 2. env pooling is invisible + request knobs -----------------------
  {
    Daemon daemon(daemon_config(4));
    const std::uint32_t pid = daemon.register_policy(*policy);
    SessionConfig sc;
    sc.processors = procs;
    sc.policy = pid;

    auto first = daemon.create_session(sc).value();
    ScheduleRequest req;
    req.jobs = &seqs[0];
    req.backfill = true;
    ScheduleResult r1;
    CHECK(daemon.schedule(first, req, &r1).ok());
    CHECK(daemon.destroy_session(first).ok());
    CHECK(daemon.live_sessions() == 0);

    // The next tenant recycles the pooled env (same slot, bumped gen).
    auto second = daemon.create_session(sc).value();
    CHECK(second.index == first.index);
    CHECK(second.gen != first.gen);
    ScheduleResult r2;
    CHECK(daemon.schedule(second, req, &r2).ok());
    CHECK(sim::bitwise_equal(r1.run(), r2.run()));
    CHECK(sim::bitwise_equal(r1.run(), expect[0]));

    // Per-request processors override (what-if on a smaller cluster).
    ScheduleRequest what_if = req;
    what_if.processors = procs / 2;
    ScheduleResult r3;
    CHECK(daemon.schedule(second, what_if, &r3).ok());
    const auto small = reference_runs(*policy, {seqs[0]}, procs / 2, true);
    CHECK(sim::bitwise_equal(r3.run(), small[0]));
    // ...and the session still schedules bitwise on its own cluster after
    // the env was reconfigured away and back.
    ScheduleResult r4;
    CHECK(daemon.schedule(second, req, &r4).ok());
    CHECK(sim::bitwise_equal(r4.run(), expect[0]));

    // Multi-sequence request: one completion, one run per sequence, each
    // bitwise the single-sequence run.
    std::vector<std::vector<trace::Job>> three(seqs.begin(), seqs.begin() + 3);
    ScheduleRequest many;
    many.sequences = &three;
    many.backfill = true;
    ScheduleResult rm;
    CHECK(daemon.schedule(second, many, &rm).ok());
    CHECK(rm.runs.size() == 3);
    for (std::size_t i = 0; i < 3; ++i) {
      CHECK(sim::bitwise_equal(rm.runs[i], expect[i]));
    }

    // Streamed request == materialized request of the same jobs.
    auto stream_trace = trace;
    ScheduleRequest streamed;
    streamed.stream = &stream_trace;
    streamed.backfill = true;
    streamed.chunk_jobs = 512;
    ScheduleResult rs;
    CHECK(daemon.schedule(second, streamed, &rs).ok());
    ScheduleRequest materialized;
    materialized.jobs = &trace.jobs();
    materialized.backfill = true;
    ScheduleResult rmat;
    CHECK(daemon.schedule(second, materialized, &rmat).ok());
    CHECK(sim::bitwise_equal(rs.run(), rmat.run()));
  }

  // --- 3. protocol errors ------------------------------------------------
  {
    Daemon daemon(daemon_config(4));
    const std::uint32_t pid = daemon.register_policy(*policy);

    SessionConfig bad;
    bad.processors = 0;
    bad.policy = pid;
    CHECK(daemon.create_session(bad).status().code() ==
          StatusCode::kInvalidArgument);
    SessionConfig unknown_policy;
    unknown_policy.processors = procs;
    unknown_policy.policy = pid + 1;
    CHECK(daemon.create_session(unknown_policy).status().code() ==
          StatusCode::kNotFound);

    SessionConfig sc;
    sc.processors = procs;
    sc.policy = pid;
    auto sid = daemon.create_session(sc).value();

    // Malformed request fails validation at submit.
    CHECK(daemon.submit(sid, ScheduleRequest{}).status().code() ==
          StatusCode::kInvalidArgument);

    // Queued request cancelled by destroy; its completion is delivered as
    // kCancelled, and the handle goes stale.
    ScheduleRequest req;
    req.jobs = &seqs[0];
    auto rid = daemon.submit(sid, req).value();
    Completion pending;
    CHECK(daemon.try_take(rid, &pending).code() == StatusCode::kUnavailable);
    CHECK(daemon.destroy_session(sid).ok());
    Completion c;
    CHECK(daemon.try_take(rid, &c).ok());
    CHECK(c.status.code() == StatusCode::kCancelled);
    CHECK(daemon.stats().requests_cancelled == 1);

    // Stale handle: every operation reports kNotFound, and a completion is
    // delivered exactly once (second take of rid is kNotFound too).
    CHECK(daemon.submit(sid, req).status().code() == StatusCode::kNotFound);
    CHECK(daemon.destroy_session(sid).code() == StatusCode::kNotFound);
    CHECK(daemon.try_take(rid, &c).code() == StatusCode::kNotFound);
    CHECK(daemon.try_take(RequestId{999}, &c).code() ==
          StatusCode::kNotFound);
    CHECK(daemon.wait(RequestId{999}, &c).code() == StatusCode::kNotFound);

    // wait() on a request nothing will ever serve must refuse, not hang.
    auto sid2 = daemon.create_session(sc).value();
    auto rid2 = daemon.submit(sid2, req).value();
    CHECK(daemon.wait(rid2, &c).code() == StatusCode::kFailedPrecondition);

    // Session table exhaustion.
    Daemon tiny([] {
      DaemonConfig cfg = daemon_config(2);
      cfg.max_sessions = 1;
      return cfg;
    }());
    const std::uint32_t tp = tiny.register_policy(*policy);
    SessionConfig tc;
    tc.processors = procs;
    tc.policy = tp;
    auto only = tiny.create_session(tc);
    CHECK(only.ok());
    CHECK(tiny.create_session(tc).status().code() ==
          StatusCode::kResourceExhausted);
  }

  // --- 4. concurrent churn against the background dispatcher -------------
  {
    Daemon daemon(daemon_config(8));
    const std::uint32_t pid = daemon.register_policy(*policy);
    daemon.start();

    // drain() is refused while the background dispatcher owns execution.
    CHECK(daemon.drain().status().code() == StatusCode::kFailedPrecondition);

    constexpr std::size_t kClients = 4;
    constexpr std::size_t kRounds = 6;
    std::atomic<int> failures{0};
    std::vector<std::thread> clients;
    for (std::size_t t = 0; t < kClients; ++t) {
      clients.emplace_back([&, t] {
        for (std::size_t round = 0; round < kRounds; ++round) {
          const std::size_t which = (t * kRounds + round) % kSessions;
          SessionConfig sc;
          sc.processors = procs;
          sc.policy = pid;
          auto sid = daemon.create_session(sc);
          if (!sid.ok()) { ++failures; return; }
          ScheduleRequest req;
          req.jobs = &seqs[which];
          req.backfill = true;
          auto rid = daemon.submit(sid.value(), req);
          if (!rid.ok()) { ++failures; return; }
          Completion c;
          if (!daemon.wait(rid.value(), &c).ok() || !c.status.ok() ||
              c.result.runs.size() != 1 ||
              !sim::bitwise_equal(c.result.run(), expect[which])) {
            ++failures;
            return;
          }
          // Every other round, destroy with a request still queued to
          // exercise cancellation racing the dispatcher.
          if (round % 2 == 0) {
            auto extra = daemon.submit(sid.value(), req);
            if (!extra.ok()) { ++failures; return; }
            if (!daemon.destroy_session(sid.value()).ok()) {
              ++failures;
              return;
            }
            Completion dropped;
            // The extra request either got cancelled or was already being
            // served when destroy arrived — both are contract-clean.
            for (;;) {
              const Status s = daemon.try_take(extra.value(), &dropped);
              if (s.ok()) break;
              if (s.code() != StatusCode::kUnavailable) { ++failures; break; }
              std::this_thread::yield();
            }
            if (!(dropped.status.code() == StatusCode::kCancelled ||
                  dropped.status.ok())) {
              ++failures;
            }
          } else {
            if (!daemon.destroy_session(sid.value()).ok()) ++failures;
          }
        }
      });
    }
    for (auto& c : clients) c.join();
    daemon.stop();
    CHECK(failures.load() == 0);
    CHECK(daemon.live_sessions() == 0);
    const auto stats = daemon.stats();
    CHECK(stats.sessions_created == stats.sessions_destroyed);
    CHECK(stats.requests_submitted == stats.requests_completed +
                                          stats.requests_cancelled +
                                          stats.requests_shed);
    CHECK(stats.requests_failed == 0);

    // Work queued after stop() is served by a later drain on the caller.
    SessionConfig sc;
    sc.processors = procs;
    sc.policy = pid;
    auto sid = daemon.create_session(sc).value();
    ScheduleRequest req;
    req.jobs = &seqs[1];
    req.backfill = true;
    auto rid = daemon.submit(sid, req).value();
    CHECK(daemon.drain().value() == 1);
    Completion c;
    CHECK(daemon.try_take(rid, &c).ok());
    CHECK(c.status.ok());
    CHECK(sim::bitwise_equal(c.result.run(), expect[1]));
  }

  // --- 5. per-policy dispatcher sharding is bitwise invisible ------------
  {
    // Each policy id gets its OWN (identically seeded, hence identically
    // weighted) Policy object: with dispatchers > 1 the ids map to
    // different shard threads, and sharing one object across shards would
    // race on its forward scratch — exactly what the daemon header bans.
    constexpr std::size_t kPolicies = 3;
    const std::size_t shard_sweep[2] = {1, 3};
    std::vector<sim::RunResult> at_shards[2];
    for (int v = 0; v < 2; ++v) {
      DaemonConfig cfg = daemon_config(8);
      cfg.dispatchers = shard_sweep[v];
      Daemon daemon(cfg);
      CHECK(daemon.dispatchers() == shard_sweep[v]);
      std::vector<std::unique_ptr<rl::Policy>> pols;
      std::vector<std::uint32_t> pids;
      for (std::size_t p = 0; p < kPolicies; ++p) {
        util::Rng prng(99);  // the same seed as `policy` above
        pols.push_back(rl::make_policy(rl::PolicyKind::Kernel,
                                       rl::kMaxObservable, prng));
        pids.push_back(daemon.register_policy(*pols.back()));
      }
      daemon.start();
      std::vector<SessionId> sessions;
      std::vector<RequestId> requests;
      for (std::size_t i = 0; i < kSessions; ++i) {
        SessionConfig sc;
        sc.processors = procs;
        sc.policy = pids[i % kPolicies];  // spread sessions across shards
        auto sid = daemon.create_session(sc);
        CHECK(sid.ok());
        sessions.push_back(sid.value());
        ScheduleRequest req;
        req.jobs = &seqs[i];
        req.backfill = true;
        auto rid = daemon.submit(sessions[i], req);
        CHECK(rid.ok());
        requests.push_back(rid.value());
      }
      for (std::size_t i = 0; i < kSessions; ++i) {
        Completion c;
        CHECK(daemon.wait(requests[i], &c).ok());
        CHECK(c.status.ok());
        at_shards[v].push_back(c.result.run());
      }
      daemon.stop();
    }
    for (std::size_t i = 0; i < kSessions; ++i) {
      // Sharded == single-dispatcher == the engine's unbatched reference:
      // episodes depend only on their own env and policy weights, so the
      // shard layout must be bitwise invisible.
      CHECK(sim::bitwise_equal(at_shards[0][i], at_shards[1][i]));
      CHECK(sim::bitwise_equal(at_shards[1][i], expect[i]));
    }
  }

  // --- 6. schedule() vs start()/stop()/drain() lifecycle churn -----------
  {
    // Regression for the submit-and-wait retry loop: under adversarial
    // start()/stop() cycling plus a competing drain()er, every schedule()
    // call must RESOLVE — OK with the bitwise-correct result, or the
    // documented terminal kUnavailable (bounded retries, request still
    // pollable) — never busy-spin or hang. CI runs this under TSan.
    Daemon daemon(daemon_config(4));
    const std::uint32_t pid = daemon.register_policy(*policy);
    std::atomic<bool> done{false};
    std::atomic<int> failures{0};
    std::atomic<std::uint64_t> resolved_ok{0};
    std::atomic<std::uint64_t> resolved_terminal{0};

    std::thread lifecycle([&] {
      while (!done.load()) {
        daemon.start();
        std::this_thread::yield();
        daemon.stop();
      }
    });
    std::thread drainer([&] {
      while (!done.load()) {
        (void)daemon.drain();  // kFailedPrecondition while started: fine
        std::this_thread::yield();
      }
    });

    constexpr std::size_t kClients = 3;
    constexpr std::size_t kRounds = 12;
    std::vector<std::thread> clients;
    for (std::size_t t = 0; t < kClients; ++t) {
      clients.emplace_back([&, t] {
        SessionConfig sc;
        sc.processors = procs;
        sc.policy = pid;
        auto sid = daemon.create_session(sc);
        if (!sid.ok()) {
          ++failures;
          return;
        }
        ScheduleRequest req;
        req.jobs = &seqs[t];
        req.backfill = true;
        for (std::size_t round = 0; round < kRounds; ++round) {
          ScheduleResult out;
          const Status s = daemon.schedule(sid.value(), req, &out);
          if (s.ok()) {
            if (!sim::bitwise_equal(out.run(), expect[t])) {
              ++failures;
              return;
            }
            ++resolved_ok;
          } else if (s.code() == StatusCode::kUnavailable) {
            ++resolved_terminal;  // lost every lifecycle race; legal
          } else {
            ++failures;
            return;
          }
        }
      });
    }
    for (auto& c : clients) c.join();
    done.store(true);
    lifecycle.join();
    drainer.join();
    daemon.stop();
    CHECK(failures.load() == 0);
    CHECK(resolved_ok.load() + resolved_terminal.load() ==
          kClients * kRounds);
    // Terminal kUnavailable left its request submitted: a final drain on
    // the now-quiet daemon serves every leftover, so nothing is lost.
    CHECK(daemon.drain().ok());
    const auto stats = daemon.stats();
    CHECK(stats.requests_submitted == stats.requests_completed +
                                          stats.requests_cancelled +
                                          stats.requests_shed);
    CHECK(stats.requests_failed == 0);
  }

  // --- 7. shutdown/destruction accounting: nothing silently dropped ------
  {
    // shutdown(0): no drain budget, every queued request must come back as
    // a DELIVERED kCancelled completion — the stats balance to the request,
    // which is the invariant ~Daemon() relies on.
    Daemon daemon(daemon_config(4));
    const std::uint32_t pid = daemon.register_policy(*policy);
    SessionConfig sc;
    sc.processors = procs;
    sc.policy = pid;
    auto sid = daemon.create_session(sc).value();
    ScheduleRequest req;
    req.jobs = &seqs[0];
    req.backfill = true;
    std::vector<RequestId> rids;
    for (int i = 0; i < 5; ++i) rids.push_back(daemon.submit(sid, req).value());
    daemon.shutdown(0.0);
    for (const RequestId rid : rids) {
      Completion c;
      CHECK(daemon.try_take(rid, &c).ok());
      CHECK(c.status.code() == StatusCode::kCancelled);
    }
    const auto stats = daemon.stats();
    CHECK(stats.requests_submitted == 5);
    CHECK(stats.requests_cancelled == 5);
    CHECK(stats.requests_submitted == stats.requests_completed +
                                          stats.requests_cancelled +
                                          stats.requests_shed);
  }
  {
    // A generous drain budget instead SERVES the queue before stopping.
    Daemon daemon(daemon_config(4));
    const std::uint32_t pid = daemon.register_policy(*policy);
    SessionConfig sc;
    sc.processors = procs;
    sc.policy = pid;
    auto sid = daemon.create_session(sc).value();
    ScheduleRequest req;
    req.jobs = &seqs[2];
    req.backfill = true;
    auto rid = daemon.submit(sid, req).value();
    daemon.shutdown(60.0);
    Completion c;
    CHECK(daemon.try_take(rid, &c).ok());
    CHECK(c.status.ok());
    CHECK(sim::bitwise_equal(c.result.run(), expect[2]));
    const auto stats = daemon.stats();
    CHECK(stats.requests_completed == 1);
    CHECK(stats.requests_cancelled == 0);
  }
  {
    // Destruction itself: the completion hook observes one terminal
    // completion per submitted request even when the daemon dies with work
    // still queued (the destructor runs shutdown, not a silent drop).
    std::atomic<std::uint64_t> delivered{0};
    {
      Daemon daemon(daemon_config(4));  // destructor cancels, immediately
      const std::uint32_t pid = daemon.register_policy(*policy);
      daemon.set_completion_hook(
          [](void* ctx, std::uint64_t) {
            static_cast<std::atomic<std::uint64_t>*>(ctx)->fetch_add(1);
          },
          &delivered);
      SessionConfig sc;
      sc.processors = procs;
      sc.policy = pid;
      auto sid = daemon.create_session(sc).value();
      ScheduleRequest req;
      req.jobs = &seqs[0];
      req.backfill = true;
      for (int i = 0; i < 3; ++i) CHECK(daemon.submit(sid, req).ok());
    }
    CHECK(delivered.load() == 3);
  }

  std::puts("serve daemon: OK");
  return 0;
}
