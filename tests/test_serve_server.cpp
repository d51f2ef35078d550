// serve::Server against live loopback sockets:
//   1. Transport invariance — every blocking and pipelined schedule
//      through the socket is BITWISE identical to the same request served
//      by an in-process Daemon (and to the engine's BatchedEvaluator
//      reference): the wire adds framing, never computation.
//   2. Malformed-frame matrix — bad version, nonzero reserved, unknown
//      and retired types, oversized declared length, truncated payloads,
//      trailing garbage, hostile counts, reply types sent to the server,
//      mid-frame disconnects: each earns a kInvalidArgument reply (where a
//      reply is possible) naming the fault, and a close, and the server
//      keeps serving everyone else.
//   3. Lifecycle — a dropped connection's sessions are destroyed and its
//      deferred replies leave nothing stored in the daemon; errors
//      (stale handles, invalid configs) cross the wire with their
//      core::Status code and message intact.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "rl/batch_eval.hpp"
#include "rl/policy.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
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
using serve::Client;
using serve::Completion;
using serve::Daemon;
using serve::DaemonConfig;
using serve::RequestId;
using serve::Server;
using serve::ServerConfig;
using serve::SessionConfig;
using serve::SessionId;
namespace wire = serve::wire;

DaemonConfig daemon_config(std::size_t batch, std::size_t dispatchers) {
  DaemonConfig cfg;
  cfg.runtime.workers = 1;
  cfg.runtime.batch = batch;
  cfg.dispatchers = dispatchers;
  return cfg;
}

/// Open a fresh connection, fire one raw byte blob, and expect the server
/// to answer kInvalidArgument (a StatusReply) with `message`, then hang
/// up. The message pins WHICH check rejected the frame: a frame built for
/// one guard must not be caught by an earlier one.
void expect_rejected(std::uint16_t port, const std::vector<std::uint8_t>& raw,
                     const std::string& message) {
  Client c;
  CHECK(c.connect("127.0.0.1", port).ok());
  CHECK(c.send_raw(raw.data(), raw.size()).ok());
  wire::Header h;
  Status st;
  CHECK(c.recv_reply(&h, &st).ok());
  CHECK(h.type == wire::MsgType::kStatusReply);
  if (st.code() != StatusCode::kInvalidArgument || st.message() != message) {
    std::fprintf(stderr, "expected '%s', got code %d (%s)\n",
                 message.c_str(), static_cast<int>(st.code()),
                 st.message().c_str());
    CHECK(false);
  }
  // The connection is closed behind the reply: the next read hits EOF.
  const Status eof = c.recv_reply(&h, &st);
  CHECK(!eof.ok());
}

bool wait_for_live_sessions(const Daemon& daemon, std::size_t want) {
  for (int i = 0; i < 2000; ++i) {  // close processing is asynchronous
    if (daemon.live_sessions() == want) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}
}  // namespace

int main() {
  const auto trace = workload::make_trace("Lublin-1", 4000, 42);
  const int procs = trace.processors();
  util::Rng policy_rng(99);
  const auto policy =
      rl::make_policy(rl::PolicyKind::Kernel, rl::kMaxObservable, policy_rng);

  util::Rng rng(5);
  constexpr std::size_t kRequests = 8;
  std::vector<std::vector<trace::Job>> seqs;
  for (std::size_t i = 0; i < kRequests; ++i) {
    seqs.push_back(trace.sample_sequence(rng, 48 + 8 * i));
  }

  // Engine ground truth, and the in-process daemon path to gate against.
  std::vector<sim::RunResult> expect(seqs.size());
  {
    rl::BatchedEvaluator eval(*policy, 1);
    eval.evaluate(seqs, procs, true, expect.data());
  }
  std::vector<sim::RunResult> inproc;
  {
    Daemon local(daemon_config(8, 1));
    const std::uint32_t pid = local.register_policy(*policy);
    SessionConfig sc;
    sc.processors = procs;
    sc.policy = pid;
    auto sid = local.create_session(sc);
    CHECK(sid.ok());
    std::vector<RequestId> rids;
    for (auto& s : seqs) {
      ScheduleRequest req;
      req.jobs = &s;
      req.backfill = true;
      auto rid = local.submit(sid.value(), req);
      CHECK(rid.ok());
      rids.push_back(rid.value());
    }
    CHECK(local.drain().ok());
    for (RequestId rid : rids) {
      Completion comp;
      CHECK(local.try_take(rid, &comp).ok());
      CHECK(comp.status.ok());
      inproc.push_back(comp.result.run());
    }
    for (std::size_t i = 0; i < seqs.size(); ++i) {
      CHECK(sim::bitwise_equal(inproc[i], expect[i]));
    }
  }

  // One daemon + one server for everything below (sharded: 2 dispatchers,
  // exercising the socket path against the multi-dispatcher backend).
  Daemon daemon(daemon_config(8, 2));
  const std::uint32_t pid = daemon.register_policy(*policy);
  Server server(daemon, ServerConfig{});
  CHECK(server.status().ok());
  CHECK(server.port() != 0);

  // --- 1a. blocking schedule(): socket == in-process, bitwise ----------
  {
    Client c;
    CHECK(c.connect("127.0.0.1", server.port()).ok());
    SessionConfig sc;
    sc.processors = procs;
    sc.policy = pid;
    auto sid = c.create_session(sc);
    CHECK(sid.ok());
    for (std::size_t i = 0; i < seqs.size(); ++i) {
      ScheduleRequest req;
      req.jobs = &seqs[i];
      req.backfill = true;
      ScheduleResult out;
      CHECK(c.schedule(sid.value(), req, &out).ok());
      CHECK(out.runs.size() == 1);
      CHECK(sim::bitwise_equal(out.run(), inproc[i]));
    }

    // --- 1b. one send_schedule + recv_completion: the pushed reply ------
    ScheduleRequest req;
    req.jobs = &seqs[0];
    req.backfill = true;
    CHECK(c.send_schedule(sid.value(), req, 77).ok());
    std::uint64_t tag = 0;
    Completion comp;
    CHECK(c.recv_completion(&tag, &comp).ok());
    CHECK(tag == 77);
    CHECK(comp.status.ok());
    CHECK(comp.latency_seconds >= 0.0);
    CHECK(sim::bitwise_equal(comp.result.run(), inproc[0]));

    // --- 1c. multi-sequence batch over the wire -------------------------
    std::vector<std::vector<trace::Job>> batch = {seqs[1], seqs[2], seqs[3]};
    ScheduleRequest breq;
    breq.sequences = &batch;
    breq.backfill = true;
    ScheduleResult bout;
    CHECK(c.schedule(sid.value(), breq, &bout).ok());
    CHECK(bout.runs.size() == 3);
    for (std::size_t k = 0; k < 3; ++k) {
      CHECK(sim::bitwise_equal(bout.runs[k], inproc[k + 1]));
    }

    // --- 1d. pipelined send_schedule / recv_completion ------------------
    for (std::size_t i = 0; i < seqs.size(); ++i) {
      ScheduleRequest preq;
      preq.jobs = &seqs[i];
      preq.backfill = true;
      CHECK(c.send_schedule(sid.value(), preq, 1000 + i).ok());
    }
    std::vector<bool> seen(seqs.size(), false);
    for (std::size_t i = 0; i < seqs.size(); ++i) {
      std::uint64_t tag = 0;
      Completion pc;
      CHECK(c.recv_completion(&tag, &pc).ok());
      CHECK(tag >= 1000 && tag < 1000 + seqs.size());
      const std::size_t idx = tag - 1000;
      CHECK(!seen[idx]);  // no duplicate or cross-delivered completion
      seen[idx] = true;
      CHECK(pc.status.ok());
      CHECK(sim::bitwise_equal(pc.result.run(), inproc[idx]));
    }

    // --- 1e. errors keep their Status across the wire -------------------
    // Streams are rejected locally, before any bytes move.
    ScheduleRequest sreq;
    auto stream_trace = workload::make_trace("Lublin-1", 16, 7);
    sreq.stream = &stream_trace;
    ScheduleResult sout;
    CHECK(c.schedule(sid.value(), sreq, &sout).code() ==
          StatusCode::kInvalidArgument);
    CHECK(c.send_schedule(sid.value(), sreq, 1).code() ==
          StatusCode::kInvalidArgument);
    // Invalid session config crosses with its code.
    SessionConfig bad;
    bad.processors = 0;
    bad.policy = pid;
    CHECK(c.create_session(bad).status().code() ==
          StatusCode::kInvalidArgument);
    SessionConfig bad_policy;
    bad_policy.processors = procs;
    bad_policy.policy = 999;
    CHECK(c.create_session(bad_policy).status().code() == StatusCode::kNotFound);
    // Stale session handle: the refused schedule is answered at once,
    // with the daemon's code and message.
    CHECK(c.destroy_session(sid.value()).ok());
    CHECK(c.destroy_session(sid.value()).code() == StatusCode::kNotFound);
    ScheduleResult stale;
    const Status gone = c.schedule(sid.value(), req, &stale);
    CHECK(gone.code() == StatusCode::kNotFound);
    CHECK(gone.message() == "unknown or stale session");
    c.close();
  }
  CHECK(wait_for_live_sessions(daemon, 0));

  // --- 2. malformed-frame matrix (each on its own connection) -----------
  {
    // A valid 8-byte-payload frame (destroy of a session nobody has) for
    // the header and length cases to corrupt.
    std::vector<std::uint8_t> valid;
    wire::encode_destroy_session(valid, 7, SessionId{1, 23});

    auto copy = valid;
    copy[4] = 3;  // future version byte
    expect_rejected(server.port(), copy,
                    "malformed frame: unsupported version byte");
    copy = valid;
    copy[6] = 0xFF;  // nonzero reserved
    expect_rejected(server.port(), copy,
                    "malformed frame: nonzero reserved bytes");
    // Type 0 was never assigned; 3, 5, 6 and 66 are retired.
    for (const int type : {0, 3, 5, 6, 66}) {
      copy = valid;
      copy[5] = static_cast<std::uint8_t>(type);
      expect_rejected(server.port(), copy,
                      "malformed frame: unknown message type");
    }
    copy = valid;
    const std::uint32_t huge = wire::kMaxPayloadBytes + 1;
    std::memcpy(copy.data(), &huge, 4);  // hostile declared length
    expect_rejected(server.port(), copy,
                    "malformed frame: declared payload exceeds 64 MiB cap");

    // Reply types are not requests; the server refuses to echo them.
    std::vector<std::uint8_t> reply_frame;
    wire::encode_status_reply(reply_frame, 9, Status::Ok());
    expect_rejected(server.port(), reply_frame,
                    "reply message type sent to the server");

    // Truncated payload behind a self-consistent header.
    std::vector<std::uint8_t> short_payload = {1, 2, 3, 4};
    std::vector<std::uint8_t> frame;
    wire::append_frame(frame, wire::MsgType::kDestroySession, 7,
                       short_payload.data(), short_payload.size());
    expect_rejected(server.port(), frame,
                    "malformed frame: truncated destroy_session");

    // Trailing garbage after a complete payload.
    frame = valid;
    frame.push_back(0xAB);
    std::uint32_t len = 8 + 1;
    std::memcpy(frame.data(), &len, 4);
    expect_rejected(server.port(), frame,
                    "malformed frame: trailing bytes after payload");

    // Schedule with a hostile job count (4 billion jobs, zero bytes).
    std::vector<std::uint8_t> p;
    wire::put_u32(p, 1);           // session index
    wire::put_u32(p, 1);           // gen
    wire::put_u8(p, 0);            // kind: single
    wire::put_i32(p, 0);           // processors
    wire::put_u8(p, 0);            // backfill
    wire::put_u64(p, 4096);        // chunk_jobs
    wire::put_f64(p, 0.0);         // deadline
    wire::put_u32(p, 1);           // nseq
    wire::put_u32(p, 0xFFFFFFFF);  // njobs
    frame.clear();
    wire::append_frame(frame, wire::MsgType::kSchedule, 7, p.data(), p.size());
    expect_rejected(server.port(), frame,
                    "malformed frame: job count exceeds payload");

    // Mid-frame disconnect: half a header, then gone. No reply to read —
    // the gate is that the server survives (checked right below).
    {
      Client c;
      CHECK(c.connect("127.0.0.1", server.port()).ok());
      std::uint8_t half[10] = {};
      std::memcpy(half, valid.data(), sizeof(half));
      CHECK(c.send_raw(half, sizeof(half)).ok());
      c.close();
    }
    // After every hostile connection above, a fresh client still gets
    // bitwise correct service.
    Client c;
    CHECK(c.connect("127.0.0.1", server.port()).ok());
    SessionConfig sc;
    sc.processors = procs;
    sc.policy = pid;
    auto sid = c.create_session(sc);
    CHECK(sid.ok());
    ScheduleRequest req;
    req.jobs = &seqs[4];
    req.backfill = true;
    ScheduleResult out;
    CHECK(c.schedule(sid.value(), req, &out).ok());
    CHECK(sim::bitwise_equal(out.run(), inproc[4]));
    c.close();
  }
  CHECK(wait_for_live_sessions(daemon, 0));

  // --- 3a. a dropped connection's sessions are destroyed ----------------
  {
    Client c;
    CHECK(c.connect("127.0.0.1", server.port()).ok());
    SessionConfig sc;
    sc.processors = procs;
    sc.policy = pid;
    CHECK(c.create_session(sc).ok());
    CHECK(c.create_session(sc).ok());
    CHECK(daemon.live_sessions() == 2);
    c.close();  // no destroy_session: the close must clean up
    CHECK(wait_for_live_sessions(daemon, 0));
  }

  // --- 3b. two clients, interleaved, one server --------------------------
  {
    Client a, b;
    CHECK(a.connect("127.0.0.1", server.port()).ok());
    CHECK(b.connect("127.0.0.1", server.port()).ok());
    SessionConfig sc;
    sc.processors = procs;
    sc.policy = pid;
    auto sa = a.create_session(sc);
    auto sb = b.create_session(sc);
    CHECK(sa.ok() && sb.ok());
    // Both clients pick the SAME tag: each completion still goes back on
    // the connection whose frame asked for it, with that frame's result.
    ScheduleRequest ra;
    ra.jobs = &seqs[5];
    ra.backfill = true;
    ScheduleRequest rb;
    rb.jobs = &seqs[6];
    rb.backfill = true;
    CHECK(a.send_schedule(sa.value(), ra, 5).ok());
    CHECK(b.send_schedule(sb.value(), rb, 5).ok());
    std::uint64_t tag = 0;
    Completion comp;
    CHECK(b.recv_completion(&tag, &comp).ok());
    CHECK(tag == 5 && comp.status.ok());
    CHECK(sim::bitwise_equal(comp.result.run(), inproc[6]));
    CHECK(a.recv_completion(&tag, &comp).ok());
    CHECK(tag == 5 && comp.status.ok());
    CHECK(sim::bitwise_equal(comp.result.run(), inproc[5]));
    ScheduleResult out;
    CHECK(b.schedule(sb.value(), ra, &out).ok());
    CHECK(sim::bitwise_equal(out.run(), inproc[5]));
    a.close();
    b.close();
  }
  CHECK(wait_for_live_sessions(daemon, 0));

  // --- 3c. a closed connection leaves nothing stored ---------------------
  {
    // A fresh daemon, so the ids of this client's requests run 1..N.
    Daemon fresh(daemon_config(8, 2));
    const std::uint32_t fpid = fresh.register_policy(*policy);
    Server fserver(fresh, ServerConfig{});
    CHECK(fserver.status().ok());
    util::Rng long_rng(11);
    std::vector<std::vector<trace::Job>> long_seqs;
    for (int i = 0; i < 4; ++i) {
      long_seqs.push_back(trace.sample_sequence(long_rng, 2048));
    }
    Client c;
    CHECK(c.connect("127.0.0.1", fserver.port()).ok());
    SessionConfig sc;
    sc.processors = procs;
    sc.policy = fpid;
    std::vector<SessionId> sids;
    for (int i = 0; i < 8; ++i) sids.push_back(c.create_session(sc).value());
    std::uint64_t issued = 0;
    for (int round = 0; round < 20; ++round) {
      for (const SessionId sid : sids) {
        ScheduleRequest req;
        req.jobs = &long_seqs[issued % long_seqs.size()];
        req.backfill = true;
        CHECK(c.send_schedule(sid, req, issued++).ok());
      }
    }
    // Close only once every frame is submitted, so the close cancels
    // requests rather than losing frames.
    for (int i = 0; i < 2000 && fresh.stats().requests_submitted < issued;
         ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    CHECK(fresh.stats().requests_submitted == issued);
    c.close();
    CHECK(wait_for_live_sessions(fresh, 0));
    bool balanced = false;
    for (int i = 0; i < 2000 && !balanced; ++i) {
      const auto st = fresh.stats();
      balanced = st.requests_submitted == st.requests_completed +
                                              st.requests_cancelled +
                                              st.requests_shed;
      if (!balanced) std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    CHECK(balanced);
    CHECK(fresh.stats().requests_cancelled > 0);  // the close beat most
    for (std::uint64_t id = 1; id <= issued; ++id) {
      Completion comp;
      CHECK(fresh.try_take(RequestId{id}, &comp).code() ==
            StatusCode::kNotFound);
    }
  }

  // --- 4. clean shutdown: the daemon outlives its server -----------------
  server.stop();
  server.stop();  // idempotent
  {
    SessionConfig sc;
    sc.processors = procs;
    sc.policy = pid;
    auto sid = daemon.create_session(sc);
    CHECK(sid.ok());
    ScheduleRequest req;
    req.jobs = &seqs[6];
    req.backfill = true;
    ScheduleResult out;
    CHECK(daemon.schedule(sid.value(), req, &out).ok());
    CHECK(sim::bitwise_equal(out.run(), inproc[6]));
    daemon.stop();
  }

  std::puts("serve server: OK");
  return 0;
}
