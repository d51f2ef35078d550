#pragma once
// Versioned length-prefixed binary framing of the serve:: contract —
// core::ScheduleRequest in, core::ScheduleResult/core::Status out — shared
// by serve::Server and serve::Client and nothing else: the daemon itself
// never sees bytes, only decoded structs.
//
// Frame layout (all integers little-endian):
//
//   offset 0   u32  payload_len   bytes after the header, <= kMaxPayloadBytes
//   offset 4   u8   version       kVersion (2; v1 lacked the request-body
//                                 deadline field and is rejected)
//   offset 5   u8   type          MsgType
//   offset 6   u16  reserved      must be 0
//   offset 8   u64  tag           client correlation id, echoed on the reply
//   offset 16  payload            type-specific, layouts below
//
// Doubles cross the wire as their raw IEEE-754 bit pattern (memcpy through
// a u64), NOT through any text or rounding path, so every latency, runtime,
// and metric round-trips BITWISE — the socket path is gated bitwise
// identical to the in-process Daemon path (tests/test_serve_server.cpp,
// bench_serve_load's wire_invariant).
//
// Decoding is defensive end to end: every read is bounds-checked against
// the declared payload, declared lengths are checked against what actually
// arrived, array counts are checked against the bytes that could hold
// them, and unknown enum values are rejected — a malformed frame produces a
// kInvalidArgument reply (then a close, since a corrupt length prefix
// cannot be resynchronized), never a crash or an over-allocation.
//
// Payload layouts (requests):
//   kCreateSession   i32 processors, u32 policy
//   kDestroySession  u32 index, u32 gen
//   kSubmit          u32 index, u32 gen, request body (below)
//   kSchedule        same as kSubmit; the reply is deferred until the
//                    request completes (kCompletionReply), so one
//                    round-trip = one scheduled request
//   kTryTake         u64 request_id
//   kWait            u64 request_id (reply deferred until completion)
//
// Request body:
//   u8  kind         0 = single sequence (ScheduleRequest.jobs),
//                    1 = sequence batch (ScheduleRequest.sequences);
//                    streams are not wire-encodable (the client rejects
//                    them locally — a JobSource lives in one process)
//   i32 processors, u8 backfill, u64 chunk_jobs
//   f64 deadline_seconds (0 = none; finite, >= 0 — new in version 2)
//   u32 nseq, then per sequence: u32 njobs, njobs * Job
//   Job = i64 id, f64 submit_time, f64 run_time, f64 requested_time,
//         i32 requested_procs, i32 user, f64 start_time   (48 bytes)
//
// Payload layouts (replies; every reply starts with an encoded Status =
// i32 code, u32 message_len, message bytes):
//   kStatusReply      Status
//   kSessionReply     Status, then on OK: u32 index, u32 gen
//   kSubmitReply      Status, then on OK: u64 request_id
//   kCompletionReply  Status (the take/wait op), then on OK:
//                     Status (the completion itself), f64 latency_seconds,
//                     u32 nruns, nruns * RunResult
//   RunResult = u64 jobs, then f64 avg_bounded_slowdown, avg_slowdown,
//               avg_wait, avg_turnaround, utilization, makespan,
//               max_user_bounded_slowdown                 (64 bytes)

#include <cstdint>
#include <cstring>
#include <vector>

#include "core/api.hpp"
#include "core/status.hpp"
#include "serve/daemon.hpp"

namespace rlsched::serve::wire {

inline constexpr std::uint8_t kVersion = 2;
inline constexpr std::size_t kHeaderBytes = 16;
/// A declared payload above this is rejected at the header, before any
/// allocation: a corrupt or hostile length prefix must not OOM the server.
inline constexpr std::uint32_t kMaxPayloadBytes = 64u << 20;

enum class MsgType : std::uint8_t {
  kCreateSession = 1,
  kDestroySession = 2,
  kSubmit = 3,
  kSchedule = 4,
  kTryTake = 5,
  kWait = 6,

  kStatusReply = 64,
  kSessionReply = 65,
  kSubmitReply = 66,
  kCompletionReply = 67,
};

struct Header {
  std::uint32_t payload_len = 0;
  std::uint8_t version = 0;
  MsgType type = MsgType::kStatusReply;
  std::uint64_t tag = 0;
};

/// Parse + validate a 16-byte header: version, reserved bytes, payload
/// ceiling. `buf` must hold kHeaderBytes bytes.
core::Status decode_header(const std::uint8_t* buf, Header* out);

/// Bounds-checked sequential reader over one frame's payload. Every getter
/// returns false (and poisons the reader) once the payload is exhausted —
/// a truncated frame fails cleanly at the first missing byte.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : p_(data), end_(data + size) {}

  bool u8(std::uint8_t* v) { return fixed(v); }
  bool u16(std::uint16_t* v) { return fixed(v); }
  bool u32(std::uint32_t* v) { return fixed(v); }
  bool u64(std::uint64_t* v) { return fixed(v); }
  bool i32(std::int32_t* v) { return fixed(v); }
  bool i64(std::int64_t* v) { return fixed(v); }
  bool f64(double* v) {
    std::uint64_t bits;
    if (!u64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));  // bit pattern, not a value convert
    return true;
  }
  bool bytes(std::size_t n, const std::uint8_t** out) {
    if (remaining() < n) return fail();
    *out = p_;
    p_ += n;
    return true;
  }

  std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }
  bool exhausted() const { return p_ == end_; }
  bool failed() const { return failed_; }

 private:
  template <typename T>
  bool fixed(T* v) {
    if (remaining() < sizeof(T)) return fail();
    std::memcpy(v, p_, sizeof(T));  // wire is little-endian, like every
    p_ += sizeof(T);                // target this project builds for
    return true;
  }
  bool fail() {
    failed_ = true;
    p_ = end_;
    return false;
  }

  const std::uint8_t* p_;
  const std::uint8_t* end_;
  bool failed_ = false;
};

// --- primitive append helpers (shared by Server/Client encoders) ---

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v);
void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v);
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v);
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v);
void put_i32(std::vector<std::uint8_t>& out, std::int32_t v);
void put_i64(std::vector<std::uint8_t>& out, std::int64_t v);
void put_f64(std::vector<std::uint8_t>& out, double v);

/// Append a complete frame: header (with payload_len = payload.size())
/// followed by the payload bytes. Aborts if payload exceeds
/// kMaxPayloadBytes — encoders produce bounded frames by construction.
void append_frame(std::vector<std::uint8_t>& out, MsgType type,
                  std::uint64_t tag, const std::uint8_t* payload,
                  std::size_t payload_len);

// --- request payload encode/decode ---

void encode_create_session(std::vector<std::uint8_t>& out, std::uint64_t tag,
                           const SessionConfig& cfg);
core::Status decode_create_session(Reader& r, SessionConfig* cfg);

void encode_destroy_session(std::vector<std::uint8_t>& out, std::uint64_t tag,
                            SessionId id);
core::Status decode_destroy_session(Reader& r, SessionId* id);

/// Encode a submit/schedule request. Streams are not wire-encodable:
/// returns kInvalidArgument without touching `out`. `type` must be kSubmit
/// or kSchedule.
core::Status encode_submit(std::vector<std::uint8_t>& out, MsgType type,
                           std::uint64_t tag, SessionId id,
                           const core::ScheduleRequest& request);

/// Owned storage behind a decoded ScheduleRequest (the request struct
/// borrows its job sequences by pointer).
struct DecodedRequest {
  std::vector<std::vector<trace::Job>> sequences;
  bool single = false;  ///< encoded from ScheduleRequest.jobs
  int processors = 0;
  bool backfill = false;
  std::size_t chunk_jobs = 4096;
  double deadline_seconds = 0.0;

  /// A ScheduleRequest view into this object; valid while *this lives.
  core::ScheduleRequest view() const {
    core::ScheduleRequest req;
    if (single) {
      req.jobs = &sequences.front();
    } else {
      req.sequences = &sequences;
    }
    req.processors = processors;
    req.backfill = backfill;
    req.chunk_jobs = chunk_jobs;
    req.deadline_seconds = deadline_seconds;
    return req;
  }
};

core::Status decode_submit(Reader& r, SessionId* id, DecodedRequest* out);

void encode_take(std::vector<std::uint8_t>& out, MsgType type,
                 std::uint64_t tag, std::uint64_t request_id);
core::Status decode_take(Reader& r, std::uint64_t* request_id);

// --- reply payload encode/decode ---

void encode_status_reply(std::vector<std::uint8_t>& out, std::uint64_t tag,
                         const core::Status& status);
core::Status decode_status_reply(Reader& r, core::Status* status);

void encode_session_reply(std::vector<std::uint8_t>& out, std::uint64_t tag,
                          const core::Status& status, SessionId id);
core::Status decode_session_reply(Reader& r, core::Status* status,
                                  SessionId* id);

void encode_submit_reply(std::vector<std::uint8_t>& out, std::uint64_t tag,
                         const core::Status& status, std::uint64_t request_id);
core::Status decode_submit_reply(Reader& r, core::Status* status,
                                 std::uint64_t* request_id);

/// `completion` may be null iff !status.ok() (nothing to deliver).
void encode_completion_reply(std::vector<std::uint8_t>& out, std::uint64_t tag,
                             const core::Status& status,
                             const Completion* completion);
core::Status decode_completion_reply(Reader& r, core::Status* status,
                                     Completion* completion);

}  // namespace rlsched::serve::wire
