// serve/wire framing, without a socket in sight:
//   1. Round-trip property — every ScheduleRequest variant (single
//      sequence, multi-sequence, empty sequences, knob combinations) and
//      the full Status code x message matrix encode-then-decode to
//      BITWISE-identical values, doubles included (adversarial bit
//      patterns: -0.0, denormals, huge magnitudes, NaN payloads).
//   2. Malformed-frame matrix — the decoder survives, with a clean
//      kInvalidArgument, every prefix truncation of every valid frame,
//      trailing garbage, hostile declared lengths/counts, bad version and
//      reserved bytes, unknown and retired types, unknown kinds — never a
//      crash or a wild read (ASan is the other half of this test in CI).
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/api.hpp"
#include "serve/fault.hpp"
#include "serve/wire.hpp"
#include "test_util.hpp"

namespace {
using namespace rlsched;
using core::ScheduleRequest;
using core::Status;
using core::StatusCode;
using serve::Completion;
using serve::SessionConfig;
using serve::SessionId;
namespace wire = serve::wire;

bool job_bitwise_equal(const trace::Job& a, const trace::Job& b) {
  return a.id == b.id && std::memcmp(&a.submit_time, &b.submit_time, 8) == 0 &&
         std::memcmp(&a.run_time, &b.run_time, 8) == 0 &&
         std::memcmp(&a.requested_time, &b.requested_time, 8) == 0 &&
         a.requested_procs == b.requested_procs && a.user == b.user &&
         std::memcmp(&a.start_time, &b.start_time, 8) == 0;
}

/// Split a frame into its decoded header + a payload Reader, asserting the
/// header parses (valid-frame path).
wire::Header checked_header(const std::vector<std::uint8_t>& frame) {
  CHECK(frame.size() >= wire::kHeaderBytes);
  wire::Header h;
  CHECK(wire::decode_header(frame.data(), &h).ok());
  CHECK(frame.size() == wire::kHeaderBytes + h.payload_len);
  return h;
}

wire::Reader payload_reader(const std::vector<std::uint8_t>& frame,
                            const wire::Header& h) {
  return wire::Reader(frame.data() + wire::kHeaderBytes, h.payload_len);
}

/// Adversarial double fixtures: values whose bit patterns break any
/// encode path that round-trips through text or value conversion.
std::vector<double> nasty_doubles() {
  std::vector<double> v = {0.0, 1.0, -1.0, 1e308, -1e-308, 1.0 / 3.0,
                           123456789.123456789};
  double neg_zero = 0.0;
  neg_zero = -neg_zero;
  v.push_back(neg_zero);
  v.push_back(5e-324);  // smallest denormal
  std::uint64_t nan_bits = 0x7ff80000deadbeefULL;  // payload-carrying NaN
  double nan_val;
  std::memcpy(&nan_val, &nan_bits, 8);
  v.push_back(nan_val);
  return v;
}

bool double_bits_equal(double a, double b) {
  return std::memcmp(&a, &b, 8) == 0;
}
}  // namespace

int main() {
  const auto nasty = nasty_doubles();

  // ---------- 1a. request round trip: every variant ----------
  {
    // Single-sequence request with adversarial job fields.
    std::vector<trace::Job> jobs;
    for (std::size_t i = 0; i < nasty.size(); ++i) {
      trace::Job j;
      j.id = static_cast<std::int64_t>(i) - 3;  // negative ids too
      j.submit_time = nasty[i];
      j.run_time = nasty[(i + 1) % nasty.size()];
      j.requested_time = nasty[(i + 2) % nasty.size()];
      j.requested_procs = static_cast<int>(i * 7 + 1);
      j.user = static_cast<int>(i) - 2;
      j.start_time = nasty[(i + 3) % nasty.size()];
      jobs.push_back(j);
    }
    ScheduleRequest req;
    req.jobs = &jobs;
    req.processors = 256;
    req.backfill = true;
    req.chunk_jobs = 9999;
    req.deadline_seconds = 2.5;
    const SessionId sid{7, 42};

    std::vector<std::uint8_t> frame;
    CHECK(wire::encode_schedule(frame, 0xDEADBEEFCAFEULL, sid, req).ok());
    const wire::Header h = checked_header(frame);
    CHECK(h.type == wire::MsgType::kSchedule);
    CHECK(h.tag == 0xDEADBEEFCAFEULL);
    wire::Reader r = payload_reader(frame, h);
    SessionId got_sid;
    wire::DecodedRequest got;
    CHECK(wire::decode_schedule(r, &got_sid, &got).ok());
    CHECK(got_sid.index == 7 && got_sid.gen == 42);
    CHECK(got.single);
    CHECK(got.processors == 256);
    CHECK(got.backfill);
    CHECK(got.chunk_jobs == 9999);
    CHECK(double_bits_equal(got.deadline_seconds, 2.5));
    CHECK(got.sequences.size() == 1);
    CHECK(got.sequences[0].size() == jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      CHECK(job_bitwise_equal(got.sequences[0][i], jobs[i]));
    }
    const ScheduleRequest view = got.view();
    CHECK(view.jobs != nullptr && view.sequences == nullptr);
    CHECK(core::validate(view).ok());
  }
  {
    // Multi-sequence request, including an EMPTY sequence and an empty
    // batch-of-one-empty — shapes the daemon accepts (empty episode).
    std::vector<std::vector<trace::Job>> seqs(3);
    trace::Job j;
    j.id = 1;
    j.requested_procs = 4;
    seqs[0].assign(5, j);
    // seqs[1] stays empty
    seqs[2].assign(1, j);
    ScheduleRequest req;
    req.sequences = &seqs;
    req.backfill = false;
    std::vector<std::uint8_t> frame;
    CHECK(wire::encode_schedule(frame, 1, SessionId{}, req).ok());
    const wire::Header h = checked_header(frame);
    CHECK(h.type == wire::MsgType::kSchedule);
    wire::Reader r = payload_reader(frame, h);
    SessionId got_sid;
    wire::DecodedRequest got;
    CHECK(wire::decode_schedule(r, &got_sid, &got).ok());
    CHECK(!got.single);
    CHECK(got.sequences.size() == 3);
    CHECK(got.sequences[0].size() == 5);
    CHECK(got.sequences[1].empty());
    CHECK(got.sequences[2].size() == 1);
    CHECK(got.view().sequences != nullptr);
  }
  {
    // Streams are NOT wire-encodable: rejected at encode, frame untouched.
    class NullSource : public trace::JobSource {
     public:
      const std::string& name() const override { return name_; }
      int processors() const override { return 1; }
      std::size_t fetch(std::size_t, std::vector<trace::Job>&) override {
        return 0;
      }
      void rewind() override {}

     private:
      std::string name_ = "null";
    };
    NullSource src;
    ScheduleRequest req;
    req.stream = &src;
    std::vector<std::uint8_t> frame;
    CHECK(wire::encode_schedule(frame, 1, SessionId{}, req).code() ==
          StatusCode::kInvalidArgument);
    CHECK(frame.empty());
  }

  // ---------- 1b. session and reply round trips ----------
  {
    SessionConfig cfg;
    cfg.processors = 1024;
    cfg.policy = 3;
    std::vector<std::uint8_t> frame;
    wire::encode_create_session(frame, 11, cfg);
    const wire::Header h = checked_header(frame);
    CHECK(h.type == wire::MsgType::kCreateSession && h.tag == 11);
    wire::Reader r = payload_reader(frame, h);
    SessionConfig got;
    CHECK(wire::decode_create_session(r, &got).ok());
    CHECK(got.processors == 1024 && got.policy == 3);
  }
  {
    std::vector<std::uint8_t> frame;
    wire::encode_destroy_session(frame, 12, SessionId{5, 9});
    const wire::Header h = checked_header(frame);
    wire::Reader r = payload_reader(frame, h);
    SessionId got;
    CHECK(wire::decode_destroy_session(r, &got).ok());
    CHECK(got.index == 5 && got.gen == 9);
  }

  // ---------- 1c. Status matrix: every code, with/without message ----------
  {
    const StatusCode codes[] = {
        StatusCode::kOk,           StatusCode::kInvalidArgument,
        StatusCode::kNotFound,     StatusCode::kFailedPrecondition,
        StatusCode::kResourceExhausted, StatusCode::kUnavailable,
        StatusCode::kCancelled,    StatusCode::kInternal,
        StatusCode::kDeadlineExceeded,  StatusCode::kAborted};
    // The matrix must span the enum: a code appended without wire coverage
    // would be rejected by the decoder's bounds check.
    CHECK(codes[sizeof(codes) / sizeof(codes[0]) - 1] ==
          core::kMaxStatusCode);
    // Every enumerator has a distinct printable name (to_string coverage).
    for (const StatusCode code : codes) {
      const std::string name = core::status_code_name(code);
      CHECK(!name.empty() && name != "UNKNOWN");
      for (const StatusCode other : codes) {
        if (other == code) break;
        CHECK(name != core::status_code_name(other));
      }
      if (code != StatusCode::kOk) {
        const Status st(code, "why");
        CHECK(st.to_string() == name + ": why");
      }
    }
    const std::string messages[] = {"", "x", "unknown session",
                                    std::string(1000, 'm')};
    for (const StatusCode code : codes) {
      for (const std::string& msg : messages) {
        const Status in = code == StatusCode::kOk ? Status::Ok()
                                                  : Status(code, msg);
        std::vector<std::uint8_t> frame;
        wire::encode_status_reply(frame, 99, in);
        const wire::Header h = checked_header(frame);
        CHECK(h.type == wire::MsgType::kStatusReply);
        wire::Reader r = payload_reader(frame, h);
        Status out;
        CHECK(wire::decode_status_reply(r, &out).ok());
        CHECK(out.code() == in.code());
        CHECK(out.message() == in.message());
      }
    }
  }
  {
    // Session replies carry their handle ONLY on OK.
    std::vector<std::uint8_t> frame;
    wire::encode_session_reply(frame, 1, Status::Ok(), SessionId{3, 4});
    wire::Header h = checked_header(frame);
    wire::Reader r = payload_reader(frame, h);
    Status st;
    SessionId sid;
    CHECK(wire::decode_session_reply(r, &st, &sid).ok());
    CHECK(st.ok() && sid.index == 3 && sid.gen == 4);

    frame.clear();
    wire::encode_session_reply(frame, 1,
                               Status(StatusCode::kResourceExhausted, "full"),
                               SessionId{});
    h = checked_header(frame);
    wire::Reader r2 = payload_reader(frame, h);
    CHECK(wire::decode_session_reply(r2, &st, &sid).ok());
    CHECK(st.code() == StatusCode::kResourceExhausted);
  }
  {
    // Completion reply: RunResult doubles round-trip BITWISE.
    Completion in;
    in.status = Status::Ok();
    in.latency_seconds = nasty[5];
    for (std::size_t k = 0; k < 3; ++k) {
      sim::RunResult run;
      run.jobs = 1000 + k;
      run.avg_bounded_slowdown = nasty[k % nasty.size()];
      run.avg_slowdown = nasty[(k + 1) % nasty.size()];
      run.avg_wait = nasty[(k + 2) % nasty.size()];
      run.avg_turnaround = nasty[(k + 3) % nasty.size()];
      run.utilization = nasty[(k + 4) % nasty.size()];
      run.makespan = nasty[(k + 5) % nasty.size()];
      run.max_user_bounded_slowdown = nasty[(k + 6) % nasty.size()];
      in.result.runs.push_back(run);
    }
    std::vector<std::uint8_t> frame;
    wire::encode_completion_reply(frame, 31, Status::Ok(), &in);
    const wire::Header h = checked_header(frame);
    CHECK(h.type == wire::MsgType::kCompletionReply);
    wire::Reader r = payload_reader(frame, h);
    Status st;
    Completion out;
    CHECK(wire::decode_completion_reply(r, &st, &out).ok());
    CHECK(st.ok());
    CHECK(out.status.ok());
    CHECK(double_bits_equal(out.latency_seconds, in.latency_seconds));
    CHECK(out.result.runs.size() == 3);
    for (std::size_t k = 0; k < 3; ++k) {
      CHECK(sim::bitwise_equal(out.result.runs[k], in.result.runs[k]));
    }
    // A schedule the daemon refused: no completion body on the wire.
    frame.clear();
    wire::encode_completion_reply(
        frame, 32, Status(StatusCode::kNotFound, "unknown session"), nullptr);
    const wire::Header h2 = checked_header(frame);
    wire::Reader r2 = payload_reader(frame, h2);
    Completion none;
    CHECK(wire::decode_completion_reply(r2, &st, &none).ok());
    CHECK(st.code() == StatusCode::kNotFound);
    CHECK(none.result.runs.empty());
  }

  // ---------- 2a. header rejection matrix ----------
  {
    std::vector<std::uint8_t> frame;
    wire::encode_destroy_session(frame, 5, SessionId{1, 23});
    wire::Header h;

    auto copy = frame;
    copy[4] = 3;  // future version byte
    CHECK(wire::decode_header(copy.data(), &h).code() ==
          StatusCode::kInvalidArgument);
    copy = frame;
    copy[4] = 1;  // retired version 1 (pre-deadline framing): rejected too
    CHECK(wire::decode_header(copy.data(), &h).code() ==
          StatusCode::kInvalidArgument);
    copy = frame;
    copy[4] = 0;
    CHECK(!wire::decode_header(copy.data(), &h).ok());

    copy = frame;
    copy[5] = 0;  // type 0 never assigned
    CHECK(!wire::decode_header(copy.data(), &h).ok());
    copy[5] = 200;  // unassigned high type
    CHECK(!wire::decode_header(copy.data(), &h).ok());
    // Retired types stay unknown: they are never reused.
    for (const int retired : {3, 5, 6, 66}) {
      copy[5] = static_cast<std::uint8_t>(retired);
      CHECK(wire::decode_header(copy.data(), &h).code() ==
            StatusCode::kInvalidArgument);
    }

    copy = frame;
    copy[6] = 1;  // reserved bytes must be zero
    CHECK(!wire::decode_header(copy.data(), &h).ok());

    copy = frame;
    const std::uint32_t huge = wire::kMaxPayloadBytes + 1;
    std::memcpy(copy.data(), &huge, 4);  // oversized declared length
    CHECK(!wire::decode_header(copy.data(), &h).ok());
    const std::uint32_t max_u32 = 0xFFFFFFFFu;
    std::memcpy(copy.data(), &max_u32, 4);
    CHECK(!wire::decode_header(copy.data(), &h).ok());

    // The cap itself is fine at the header layer.
    copy = frame;
    const std::uint32_t cap = wire::kMaxPayloadBytes;
    std::memcpy(copy.data(), &cap, 4);
    CHECK(wire::decode_header(copy.data(), &h).ok());
  }

  // ---------- 2b. truncation property: EVERY prefix fails cleanly ----------
  {
    std::vector<trace::Job> jobs(3);
    jobs[1].id = 9;
    std::vector<std::vector<trace::Job>> seqs = {jobs, {}, jobs};
    ScheduleRequest req;
    req.sequences = &seqs;
    // One frame of each of the six message types.
    std::vector<std::vector<std::uint8_t>> frames(6);
    CHECK(wire::encode_schedule(frames[0], 1, SessionId{1, 1}, req).ok());
    wire::encode_create_session(frames[1], 2, SessionConfig{8, 0});
    wire::encode_destroy_session(frames[2], 3, SessionId{4, 5});
    Completion c;
    c.result.runs.resize(2);
    wire::encode_completion_reply(frames[3], 4, Status::Ok(), &c);
    wire::encode_session_reply(frames[4], 5,
                               Status(StatusCode::kNotFound, "nope"),
                               SessionId{});
    wire::encode_status_reply(frames[5], 6,
                              Status(StatusCode::kCancelled, "gone"));
    for (const auto& frame : frames) {
      const wire::Header h = checked_header(frame);
      // Decode the payload at every truncated length: each must fail with
      // kInvalidArgument, and none may read past its buffer (ASan-checked
      // in CI because the Reader is handed EXACTLY the truncated size).
      for (std::size_t cut = 0; cut < h.payload_len; ++cut) {
        wire::Reader r(frame.data() + wire::kHeaderBytes, cut);
        Status st;
        SessionId sid;
        SessionConfig cfg;
        wire::DecodedRequest dreq;
        Completion comp;
        Status s;
        switch (h.type) {
          case wire::MsgType::kSchedule:
            s = wire::decode_schedule(r, &sid, &dreq);
            break;
          case wire::MsgType::kCreateSession:
            s = wire::decode_create_session(r, &cfg);
            break;
          case wire::MsgType::kDestroySession:
            s = wire::decode_destroy_session(r, &sid);
            break;
          case wire::MsgType::kCompletionReply:
            s = wire::decode_completion_reply(r, &st, &comp);
            break;
          case wire::MsgType::kSessionReply:
            s = wire::decode_session_reply(r, &st, &sid);
            break;
          case wire::MsgType::kStatusReply:
            s = wire::decode_status_reply(r, &st);
            break;
        }
        CHECK(s.code() == StatusCode::kInvalidArgument);
      }
    }
  }

  // ---------- 2c. hostile payload contents ----------
  {
    // Trailing garbage after a well-formed payload is malformed.
    std::vector<std::uint8_t> frame;
    wire::encode_destroy_session(frame, 5, SessionId{1, 1});
    frame.push_back(0xAB);
    wire::Reader r(frame.data() + wire::kHeaderBytes,
                   frame.size() - wire::kHeaderBytes);
    SessionId sid;
    CHECK(wire::decode_destroy_session(r, &sid).code() ==
          StatusCode::kInvalidArgument);
  }
  {
    // A declared job count far beyond the payload must be rejected BEFORE
    // any allocation sized by it (the 64 MiB header cap bounds the buffer,
    // this check bounds the vector).
    std::vector<std::uint8_t> p;
    wire::put_u32(p, 1);  // session index
    wire::put_u32(p, 1);  // gen
    wire::put_u8(p, 0);   // kind: single
    wire::put_i32(p, 0);
    wire::put_u8(p, 0);
    wire::put_u64(p, 4096);
    wire::put_f64(p, 0.0);         // deadline
    wire::put_u32(p, 1);           // nseq = 1
    wire::put_u32(p, 0xFFFFFFFF);  // njobs = 4 billion, payload has 0 bytes
    wire::Reader r(p.data(), p.size());
    SessionId sid;
    wire::DecodedRequest dreq;
    CHECK(wire::decode_schedule(r, &sid, &dreq).code() ==
          StatusCode::kInvalidArgument);
  }
  {
    // Hostile sequence count, same idea.
    std::vector<std::uint8_t> p;
    wire::put_u32(p, 1);
    wire::put_u32(p, 1);
    wire::put_u8(p, 1);  // kind: batch
    wire::put_i32(p, 0);
    wire::put_u8(p, 0);
    wire::put_u64(p, 4096);
    wire::put_f64(p, 0.0);         // deadline
    wire::put_u32(p, 0xFFFFFFFF);  // nseq = 4 billion
    wire::Reader r(p.data(), p.size());
    SessionId sid;
    wire::DecodedRequest dreq;
    CHECK(wire::decode_schedule(r, &sid, &dreq).code() ==
          StatusCode::kInvalidArgument);
  }
  {
    // Unknown request kind byte; non-boolean backfill; single-sequence
    // frame whose sequence count lies.
    for (int variant = 0; variant < 3; ++variant) {
      std::vector<std::uint8_t> p;
      wire::put_u32(p, 1);
      wire::put_u32(p, 1);
      wire::put_u8(p, variant == 0 ? 7 : 0);  // kind
      wire::put_i32(p, 0);
      wire::put_u8(p, variant == 1 ? 2 : 0);  // backfill
      wire::put_u64(p, 4096);
      wire::put_f64(p, 0.0);                   // deadline
      wire::put_u32(p, variant == 2 ? 2 : 1);  // nseq (kind 0 wants 1)
      wire::put_u32(p, 0);                     // one empty sequence
      if (variant == 2) wire::put_u32(p, 0);
      wire::Reader r(p.data(), p.size());
      SessionId sid;
      wire::DecodedRequest dreq;
      CHECK(wire::decode_schedule(r, &sid, &dreq).code() ==
            StatusCode::kInvalidArgument);
    }
  }
  {
    // Hostile deadline values: negative, infinite, NaN — each rejected at
    // decode (version 2 carries the deadline as raw IEEE-754 bits, so the
    // decoder, not the transport, is the validation boundary).
    const std::uint64_t bad_bits[] = {
        0xBFF0000000000000ULL,  // -1.0
        0x7FF0000000000000ULL,  // +inf
        0x7FF8000000000000ULL,  // quiet NaN
    };
    for (const std::uint64_t bits : bad_bits) {
      std::vector<std::uint8_t> p;
      wire::put_u32(p, 1);  // session index
      wire::put_u32(p, 1);  // gen
      wire::put_u8(p, 0);   // kind: single
      wire::put_i32(p, 0);
      wire::put_u8(p, 0);
      wire::put_u64(p, 4096);
      wire::put_u64(p, bits);  // deadline bit pattern
      wire::put_u32(p, 1);     // nseq = 1
      wire::put_u32(p, 0);     // one empty sequence
      wire::Reader r(p.data(), p.size());
      SessionId sid;
      wire::DecodedRequest dreq;
      CHECK(wire::decode_schedule(r, &sid, &dreq).code() ==
            StatusCode::kInvalidArgument);
    }
  }
  {
    // Status with an out-of-range code byte.
    std::vector<std::uint8_t> p;
    wire::put_i32(p, 99);
    wire::put_u32(p, 0);
    wire::Reader r(p.data(), p.size());
    Status st;
    CHECK(wire::decode_status_reply(r, &st).code() ==
          StatusCode::kInvalidArgument);
    // ...and a status message length that exceeds the payload.
    std::vector<std::uint8_t> p2;
    wire::put_i32(p2, 0);
    wire::put_u32(p2, 1000);
    wire::Reader r2(p2.data(), p2.size());
    CHECK(wire::decode_status_reply(r2, &st).code() ==
          StatusCode::kInvalidArgument);
  }

  // ---------- 3. fault-injected short-write matrix ----------
  // A frame pushed through fault_send/fault_recv with injected short
  // writes, EAGAIN storms, and delays must still arrive byte-identical,
  // provided the sender loops the way Client::send_all and the server's
  // write path do (retry EAGAIN/EINTR, advance by the returned count).
  // Same seed ⇒ same injected sequence ⇒ the test is deterministic.
  {
    std::vector<std::uint8_t> frame;
    {
      std::vector<trace::Job> jobs(64);
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        jobs[i].id = static_cast<std::int64_t>(i);
        jobs[i].requested_procs = 2;
        jobs[i].submit_time = nasty[i % nasty.size()];
      }
      ScheduleRequest req;
      req.jobs = &jobs;
      CHECK(wire::encode_schedule(frame, 7, SessionId{1, 1}, req).ok());
    }
    struct Case {
      const char* name;
      serve::FaultPlan plan;
    };
    std::vector<Case> cases;
    {
      serve::FaultPlan p;
      p.short_io = 1.0;  // EVERY op truncated to one byte
      cases.push_back({"short_io=1.0", p});
    }
    {
      serve::FaultPlan p;
      p.short_io = 0.5;
      p.eagain = 0.3;
      cases.push_back({"short+eagain", p});
    }
    {
      serve::FaultPlan p;
      p.eagain = 0.9;  // storm: 90% of ops spuriously fail
      p.seed = 42;
      cases.push_back({"eagain storm", p});
    }
    {
      serve::FaultPlan p;
      p.delay = 0.2;
      p.delay_us = 10;
      p.short_io = 0.4;
      cases.push_back({"delay+short", p});
    }
    for (const Case& c : cases) {
      serve::FaultInjector inject(c.plan);
      int fds[2];
      CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0);
      // Interleaved sender/receiver, single thread: one-byte sends carry
      // large per-skb kernel buffer overhead, so the receiver must drain as
      // the sender goes or the socketpair send buffer fills and blocks.
      // The send discipline is Client::send_all's: retry EAGAIN/EINTR,
      // advance by the returned count.
      std::vector<std::uint8_t> got(frame.size());
      std::size_t off = 0;
      std::size_t in = 0;
      std::size_t send_calls = 0;
      while (off < frame.size() || in < got.size()) {
        if (off < frame.size()) {
          const ssize_t n = serve::fault_send(
              &inject, serve::FaultInjector::Site::kClientSend, fds[0],
              frame.data() + off, frame.size() - off, 0);
          ++send_calls;
          if (n < 0) {
            CHECK(errno == EAGAIN || errno == EINTR);
          } else {
            off += static_cast<std::size_t>(n);
          }
        }
        if (in < got.size()) {
          const ssize_t n = serve::fault_recv(
              &inject, serve::FaultInjector::Site::kClientRecv, fds[1],
              got.data() + in, got.size() - in, MSG_DONTWAIT);
          if (n < 0) {
            CHECK(errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR);
          } else {
            CHECK(n > 0);  // EOF would mean lost bytes
            in += static_cast<std::size_t>(n);
          }
        }
      }
      // With short_io=1.0 every op moves exactly one byte.
      if (c.plan.short_io == 1.0) CHECK(send_calls == frame.size());
      CHECK(got == frame);
      ::close(fds[0]);
      ::close(fds[1]);
    }
    // Null injector is a true pass-through: one call moves the whole frame
    // over a socketpair (buffer permitting).
    {
      int fds[2];
      CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0);
      const ssize_t n =
          serve::fault_send(nullptr, serve::FaultInjector::Site::kClientSend,
                            fds[0], frame.data(), frame.size(), 0);
      CHECK(n == static_cast<ssize_t>(frame.size()));
      std::vector<std::uint8_t> got(frame.size());
      std::size_t in = 0;
      while (in < got.size()) {
        const ssize_t m = serve::fault_recv(
            nullptr, serve::FaultInjector::Site::kClientRecv, fds[1],
            got.data() + in, got.size() - in, 0);
        CHECK(m > 0);
        in += static_cast<std::size_t>(m);
      }
      CHECK(got == frame);
      ::close(fds[0]);
      ::close(fds[1]);
    }
    // Determinism: two injectors with the same plan+seed make the same
    // decisions at the same (site, op#) — replay the send side and compare
    // per-call byte counts (delay excluded from observability; counts
    // capture short_io/EAGAIN placement exactly).
    {
      serve::FaultPlan plan;
      plan.short_io = 0.5;
      plan.eagain = 0.25;
      plan.seed = 1337;
      std::vector<ssize_t> runs[2];
      for (int rep = 0; rep < 2; ++rep) {
        serve::FaultInjector inject(plan);
        int fds[2];
        CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0);
        std::size_t off = 0;
        while (off < frame.size()) {
          const ssize_t n = serve::fault_send(
              &inject, serve::FaultInjector::Site::kClientSend, fds[0],
              frame.data() + off, frame.size() - off, 0);
          runs[rep].push_back(n < 0 ? -1 : n);
          if (n > 0) off += static_cast<std::size_t>(n);
          // Drain the peer so the socketpair buffer never fills.
          std::uint8_t sink[4096];
          while (::recv(fds[1], sink, sizeof(sink), MSG_DONTWAIT) > 0) {
          }
        }
        ::close(fds[0]);
        ::close(fds[1]);
      }
      CHECK(runs[0] == runs[1]);
    }
  }

  std::puts("serve wire: OK");
  return 0;
}
