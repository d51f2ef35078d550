// Deterministic chaos for the fault-tolerant serving layer. The one
// invariant every section closes on is EXACTLY-ONCE-OR-CANCELLED
// completion accounting: at every quiescent point,
//
//   requests_submitted == requests_completed + requests_cancelled +
//                         requests_shed
//
// — no request lost, none double-counted — under injected disconnects,
// torn frames, short writes, EAGAIN storms, delayed completions, deadline
// expiry, load shedding, shutdown, and server failover, on BOTH
// transports (in-process Daemon calls and the socket Server/Client pair).
//
// Faults replay exactly per seed (serve/fault.hpp): CI sweeps
// RLSCHED_FAULT_SEED over a small matrix, and any seed must pass — the
// assertions are contract-level (every verb resolves; OK results are
// BITWISE the unfaulted reference; accounting balances), not
// placement-level, so determinism makes failures reproducible rather than
// making the test brittle.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "rl/batch_eval.hpp"
#include "rl/policy.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/fault.hpp"
#include "serve/server.hpp"
#include "sim/env.hpp"
#include "test_util.hpp"
#include "util/env.hpp"
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
using serve::FaultInjector;
using serve::FaultPlan;
using serve::RequestId;
using serve::SessionConfig;
using serve::SessionId;

DaemonConfig daemon_config(std::size_t batch) {
  DaemonConfig cfg;
  cfg.runtime.workers = 1;
  cfg.runtime.batch = batch;
  return cfg;
}

/// The stats-balance invariant at a quiescent point.
void check_balance(const Daemon& daemon) {
  const auto stats = daemon.stats();
  CHECK(stats.requests_submitted == stats.requests_completed +
                                        stats.requests_cancelled +
                                        stats.requests_shed);
}

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
  const std::uint64_t seed = static_cast<std::uint64_t>(
      util::env_long("RLSCHED_FAULT_SEED", 1, 1));
  std::printf("serve faults: seed %llu\n",
              static_cast<unsigned long long>(seed));

  const auto trace = workload::make_trace("Lublin-1", 2000, 42);
  const int procs = trace.processors();
  util::Rng policy_rng(99);
  const auto policy =
      rl::make_policy(rl::PolicyKind::Kernel, rl::kMaxObservable, policy_rng);

  util::Rng rng(seed);
  constexpr std::size_t kSeqs = 8;
  std::vector<std::vector<trace::Job>> seqs;
  for (std::size_t i = 0; i < kSeqs; ++i) {
    seqs.push_back(trace.sample_sequence(rng, 48 + 8 * i));
  }
  const auto expect = reference_runs(*policy, seqs, procs, true);

  // --- 1. deadline expiry at admission (in-process, deterministic) -------
  {
    Daemon daemon(daemon_config(4));
    const std::uint32_t pid = daemon.register_policy(*policy);
    SessionConfig sc;
    sc.processors = procs;
    sc.policy = pid;
    auto sid = daemon.create_session(sc).value();

    // Expired and unexpired requests interleaved on one session: the
    // dispatcher must expire EXACTLY the deadlined ones and serve the rest
    // bitwise-identical to the unfaulted reference.
    std::vector<RequestId> doomed;
    std::vector<RequestId> live;
    for (int i = 0; i < 3; ++i) {
      ScheduleRequest dr;
      dr.jobs = &seqs[0];
      dr.backfill = true;
      dr.deadline_seconds = 1e-9;  // expired long before drain() below
      doomed.push_back(daemon.submit(sid, dr).value());
      ScheduleRequest lr;
      lr.jobs = &seqs[1];
      lr.backfill = true;
      lr.deadline_seconds = 3600.0;  // far future: never expires
      live.push_back(daemon.submit(sid, lr).value());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    CHECK(daemon.drain().ok());
    for (const RequestId rid : doomed) {
      Completion c;
      CHECK(daemon.try_take(rid, &c).ok());
      CHECK(c.status.code() == StatusCode::kDeadlineExceeded);
      CHECK(c.result.runs.empty());
    }
    for (const RequestId rid : live) {
      Completion c;
      CHECK(daemon.try_take(rid, &c).ok());
      CHECK(c.status.ok());
      CHECK(sim::bitwise_equal(c.result.run(), expect[1]));
    }
    const auto stats = daemon.stats();
    CHECK(stats.requests_submitted == 6);
    CHECK(stats.requests_expired == 3);
    CHECK(stats.requests_failed == 3);  // expired counts as completed+failed
    CHECK(stats.requests_completed == 6);
    check_balance(daemon);

    // A NEGATIVE deadline is malformed and refused at submit; expiry is
    // never an admission-time rejection (the 1e-9 requests above were
    // accepted, then expired with a DELIVERED completion).
    ScheduleRequest bad;
    bad.jobs = &seqs[0];
    bad.deadline_seconds = -1.0;
    CHECK(daemon.submit(sid, bad).status().code() ==
          StatusCode::kInvalidArgument);
  }

  // --- 2. load shedding: both admission policies, exact counts -----------
  {
    // kRejectNew: depth 2, five submits — the last three bounce at submit
    // with kResourceExhausted and are NEVER counted as submitted.
    DaemonConfig cfg = daemon_config(4);
    cfg.max_queue_depth = 2;
    cfg.shed_policy = serve::ShedPolicy::kRejectNew;
    Daemon daemon(cfg);
    const std::uint32_t pid = daemon.register_policy(*policy);
    SessionConfig sc;
    sc.processors = procs;
    sc.policy = pid;
    auto sid = daemon.create_session(sc).value();
    ScheduleRequest req;
    req.jobs = &seqs[2];
    req.backfill = true;
    std::vector<RequestId> accepted;
    for (int i = 0; i < 5; ++i) {
      auto rid = daemon.submit(sid, req);
      if (i < 2) {
        CHECK(rid.ok());
        accepted.push_back(rid.value());
      } else {
        CHECK(rid.status().code() == StatusCode::kResourceExhausted);
      }
    }
    CHECK(daemon.drain().ok());
    for (const RequestId rid : accepted) {
      Completion c;
      CHECK(daemon.try_take(rid, &c).ok());
      CHECK(c.status.ok());
      CHECK(sim::bitwise_equal(c.result.run(), expect[2]));
    }
    const auto stats = daemon.stats();
    CHECK(stats.requests_submitted == 2);
    CHECK(stats.requests_rejected == 3);
    CHECK(stats.requests_completed == 2);
    CHECK(stats.requests_shed == 0);
    check_balance(daemon);
  }
  {
    // kShedOldest: depth 2, five submits — every submit is accepted, the
    // three OLDEST get shed as delivered kResourceExhausted completions,
    // and the two newest are served.
    DaemonConfig cfg = daemon_config(4);
    cfg.max_queue_depth = 2;
    cfg.shed_policy = serve::ShedPolicy::kShedOldest;
    Daemon daemon(cfg);
    const std::uint32_t pid = daemon.register_policy(*policy);
    SessionConfig sc;
    sc.processors = procs;
    sc.policy = pid;
    auto sid = daemon.create_session(sc).value();
    ScheduleRequest req;
    req.jobs = &seqs[3];
    req.backfill = true;
    std::vector<RequestId> rids;
    for (int i = 0; i < 5; ++i) rids.push_back(daemon.submit(sid, req).value());
    CHECK(daemon.drain().ok());
    for (std::size_t i = 0; i < rids.size(); ++i) {
      Completion c;
      CHECK(daemon.try_take(rids[i], &c).ok());
      if (i < 3) {
        CHECK(c.status.code() == StatusCode::kResourceExhausted);
      } else {
        CHECK(c.status.ok());
        CHECK(sim::bitwise_equal(c.result.run(), expect[3]));
      }
    }
    const auto stats = daemon.stats();
    CHECK(stats.requests_submitted == 5);
    CHECK(stats.requests_shed == 3);
    CHECK(stats.requests_completed == 2);
    CHECK(stats.requests_rejected == 0);
    check_balance(daemon);
  }

  // --- 3. socket fault matrix ---------------------------------------------
  // Server AND client I/O both run through a seeded injector; a resilient
  // client drives schedule() rounds against it. Every call must RESOLVE:
  // OK with the bitwise reference result, a clean kAborted (retries
  // exhausted), or a non-transport payload error — never a hang, never a
  // wrong result. Afterwards the daemon's books must balance exactly.
  {
    struct Mode {
      const char* name;
      FaultPlan plan;
    };
    std::vector<Mode> modes;
    {
      FaultPlan p;
      p.seed = seed;
      p.short_io = 0.3;
      modes.push_back({"short writes", p});
    }
    {
      FaultPlan p;
      p.seed = seed;
      p.eagain = 0.3;
      modes.push_back({"eagain storms", p});
    }
    {
      FaultPlan p;
      p.seed = seed;
      p.disconnect = 0.02;  // torn frames + mid-request disconnects
      modes.push_back({"disconnects", p});
    }
    {
      FaultPlan p;
      p.seed = seed;
      p.delay = 0.2;
      p.delay_us = 200;
      modes.push_back({"delays", p});
    }
    {
      FaultPlan p;
      p.seed = seed;
      p.disconnect = 0.01;
      p.eagain = 0.1;
      p.short_io = 0.2;
      p.delay = 0.05;
      p.delay_us = 50;
      modes.push_back({"combined", p});
    }

    for (const Mode& mode : modes) {
      FaultInjector inject(mode.plan);
      Daemon daemon(daemon_config(4));
      const std::uint32_t pid = daemon.register_policy(*policy);
      serve::ServerConfig scfg;
      scfg.fault = &inject;
      serve::Server server(daemon, scfg);
      CHECK(server.status().ok());

      serve::ClientConfig ccfg;
      ccfg.retry.max_attempts = 8;
      ccfg.retry.initial_backoff_seconds = 0.0005;
      ccfg.retry.max_backoff_seconds = 0.01;
      ccfg.retry.seed = seed;
      serve::Client client(ccfg);
      client.set_fault_injector(&inject);
      CHECK(client.connect({{"127.0.0.1", server.port()}}).ok());

      SessionConfig sc;
      sc.processors = procs;
      sc.policy = pid;
      auto sid = client.create_session(sc);
      std::size_t resolved_ok = 0;
      std::size_t resolved_aborted = 0;
      std::size_t resolved_other = 0;
      if (sid.ok()) {
        constexpr std::size_t kRounds = 12;
        for (std::size_t round = 0; round < kRounds; ++round) {
          const std::size_t which = round % kSeqs;
          ScheduleRequest req;
          req.jobs = &seqs[which];
          req.backfill = true;
          ScheduleResult out;
          const Status s = client.schedule(sid.value(), req, &out);
          if (s.ok()) {
            // A faulted transport may retry and re-execute, but an OK
            // answer must be THE answer.
            CHECK(sim::bitwise_equal(out.run(), expect[which]));
            ++resolved_ok;
          } else if (s.code() == StatusCode::kAborted) {
            ++resolved_aborted;  // retries exhausted: clean terminal
          } else {
            // e.g. session re-establishment failed mid-retry; must still
            // be a clean status, never a crash or a wrong result.
            ++resolved_other;
          }
        }
        CHECK(resolved_ok + resolved_aborted + resolved_other == kRounds);
        (void)client.destroy_session(sid.value());
      } else {
        CHECK(sid.status().code() == StatusCode::kAborted);
      }
      client.close();
      server.stop();
      // Serve-or-cancel everything still in flight, then the books must
      // balance to the request.
      daemon.shutdown(10.0);
      check_balance(daemon);
      std::printf("  mode %-13s ok=%zu aborted=%zu other=%zu\n", mode.name,
                  resolved_ok, resolved_aborted, resolved_other);
      // Short writes and delays are fully absorbed by the partial-I/O
      // loops — no connection ever drops, so nothing may abort and every
      // round must produce the bitwise answer. (EAGAIN and disconnect
      // modes MAY exhaust retries; for them resolution + accounting is
      // the contract.)
      if (mode.plan.disconnect == 0.0 && mode.plan.eagain == 0.0) {
        CHECK(resolved_aborted == 0 && resolved_other == 0);
        CHECK(resolved_ok == 12);
      }
    }
  }

  // --- 4. failover across an endpoint list --------------------------------
  {
    Daemon daemon_a(daemon_config(4));
    Daemon daemon_b(daemon_config(4));
    const std::uint32_t pid_a = daemon_a.register_policy(*policy);
    const std::uint32_t pid_b = daemon_b.register_policy(*policy);
    CHECK(pid_a == pid_b);  // same id on both servers: one SessionConfig
    serve::Server server_a(daemon_a, {});
    serve::Server server_b(daemon_b, {});
    CHECK(server_a.status().ok() && server_b.status().ok());

    serve::ClientConfig ccfg;
    ccfg.retry.max_attempts = 6;
    ccfg.retry.initial_backoff_seconds = 0.0005;
    ccfg.retry.max_backoff_seconds = 0.01;
    ccfg.retry.seed = seed;
    ccfg.connect_timeout_seconds = 1.0;
    serve::Client client(ccfg);
    CHECK(client.connect({{"127.0.0.1", server_a.port()},
                          {"127.0.0.1", server_b.port()}})
              .ok());

    SessionConfig sc;
    sc.processors = procs;
    sc.policy = pid_a;
    auto sid = client.create_session(sc);
    CHECK(sid.ok());
    ScheduleRequest req;
    req.jobs = &seqs[4];
    req.backfill = true;
    ScheduleResult before;
    CHECK(client.schedule(sid.value(), req, &before).ok());
    CHECK(sim::bitwise_equal(before.run(), expect[4]));
    CHECK(daemon_a.stats().requests_submitted == 1);

    // Kill server A mid-session. The next verb must fail over to B,
    // re-establish the session there, and return the SAME bits.
    server_a.stop();
    ScheduleResult after;
    CHECK(client.schedule(sid.value(), req, &after).ok());
    CHECK(sim::bitwise_equal(after.run(), before.run()));
    CHECK(daemon_b.stats().requests_submitted == 1);
    CHECK(daemon_b.live_sessions() == 1);  // re-established, not leaked

    // The virtualized handle stays destroyable after the failover.
    CHECK(client.destroy_session(sid.value()).ok());
    CHECK(daemon_b.live_sessions() == 0);
    client.close();
    server_b.stop();
    daemon_a.shutdown(1.0);
    daemon_b.shutdown(1.0);
    check_balance(daemon_a);
    check_balance(daemon_b);
  }

  // --- 5. deadlines over the wire ------------------------------------------
  {
    // Pause the dispatchers, queue a deadlined request through the socket,
    // let it expire, then restart: the client must observe a clean
    // kDeadlineExceeded — proof the new status round-trips the wire and
    // the daemon expires admitted work it could no longer start in time.
    Daemon daemon(daemon_config(4));
    const std::uint32_t pid = daemon.register_policy(*policy);
    serve::Server server(daemon, {});
    CHECK(server.status().ok());
    daemon.stop();  // clean pause; the server keeps accepting

    serve::Client client;
    CHECK(client.connect("127.0.0.1", server.port()).ok());
    SessionConfig sc;
    sc.processors = procs;
    sc.policy = pid;
    auto sid = client.create_session(sc);
    CHECK(sid.ok());
    ScheduleRequest req;
    req.jobs = &seqs[5];
    req.backfill = true;
    req.deadline_seconds = 0.002;
    CHECK(client.send_schedule(sid.value(), req, 1).ok());
    // The deadline starts at admission: wait for the server to submit the
    // frame, then let the budget run out.
    for (int i = 0; i < 2000 && daemon.stats().requests_submitted == 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    CHECK(daemon.stats().requests_submitted == 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    daemon.start();  // admission now finds the deadline long gone
    std::uint64_t tag = 0;
    Completion c;
    CHECK(client.recv_completion(&tag, &c).ok());
    CHECK(tag == 1);
    CHECK(c.status.code() == StatusCode::kDeadlineExceeded);

    // Same request without the pause and a generous deadline: served.
    ScheduleRequest ok_req = req;
    ok_req.deadline_seconds = 3600.0;
    ScheduleResult out;
    CHECK(client.schedule(sid.value(), ok_req, &out).ok());
    CHECK(sim::bitwise_equal(out.run(), expect[5]));

    client.close();
    server.stop();
    daemon.shutdown(1.0);
    const auto stats = daemon.stats();
    CHECK(stats.requests_expired == 1);
    check_balance(daemon);
  }

  // --- 6. a resilient client's pipelined frames carry the server's id ----
  {
    // Another client creates and destroys a session first, so the server
    // recycles slot 0 at generation 2 while the resilient client's own
    // (virtual) handle is {0, 1}: a frame carrying the virtual handle would
    // address a stale slot here, and another tenant's session on a busier
    // server.
    Daemon daemon(daemon_config(4));
    const std::uint32_t pid = daemon.register_policy(*policy);
    serve::Server server(daemon, {});
    CHECK(server.status().ok());
    SessionConfig sc;
    sc.processors = procs;
    sc.policy = pid;
    {
      serve::Client other;
      CHECK(other.connect("127.0.0.1", server.port()).ok());
      auto gone = other.create_session(sc);
      CHECK(gone.ok());
      CHECK(other.destroy_session(gone.value()).ok());
    }

    serve::ClientConfig ccfg;
    ccfg.retry.max_attempts = 3;
    ccfg.retry.seed = seed;
    serve::Client client(ccfg);
    CHECK(client.connect({{"127.0.0.1", server.port()}}).ok());
    auto sid = client.create_session(sc);
    CHECK(sid.ok());
    CHECK(sid.value().index == 0 && sid.value().gen == 1);
    ScheduleRequest req;
    req.jobs = &seqs[6];
    req.backfill = true;
    ScheduleResult out;
    CHECK(client.schedule(sid.value(), req, &out).ok());
    CHECK(sim::bitwise_equal(out.run(), expect[6]));
    CHECK(client.send_schedule(sid.value(), req, 9).ok());
    std::uint64_t tag = 0;
    Completion c;
    CHECK(client.recv_completion(&tag, &c).ok());
    CHECK(tag == 9);
    CHECK(c.status.ok());
    CHECK(sim::bitwise_equal(c.result.run(), expect[6]));
    // A handle this client never issued is refused locally.
    CHECK(client.send_schedule(serve::SessionId{7, 1}, req, 10).code() ==
          StatusCode::kNotFound);

    client.close();
    server.stop();
    daemon.shutdown(1.0);
    check_balance(daemon);
  }

  std::puts("serve faults: OK");
  return 0;
}
