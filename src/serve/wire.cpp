#include "serve/wire.hpp"

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

namespace rlsched::serve::wire {

using core::ScheduleRequest;
using core::Status;
using core::StatusCode;

namespace {

constexpr std::size_t kJobBytes = 48;
constexpr std::size_t kRunResultBytes = 64;

Status malformed(const char* what) {
  return Status(StatusCode::kInvalidArgument,
                std::string("malformed frame: ") + what);
}

bool known_type(MsgType t) {
  switch (t) {
    case MsgType::kCreateSession:
    case MsgType::kDestroySession:
    case MsgType::kSchedule:
    case MsgType::kStatusReply:
    case MsgType::kSessionReply:
    case MsgType::kCompletionReply:
      return true;
  }
  return false;
}

void put_status(std::vector<std::uint8_t>& out, const Status& status) {
  put_i32(out, static_cast<std::int32_t>(status.code()));
  put_u32(out, static_cast<std::uint32_t>(status.message().size()));
  const auto* bytes =
      reinterpret_cast<const std::uint8_t*>(status.message().data());
  out.insert(out.end(), bytes, bytes + status.message().size());
}

Status get_status(Reader& r, Status* out) {
  std::int32_t code;
  std::uint32_t len;
  if (!r.i32(&code) || !r.u32(&len)) return malformed("truncated status");
  if (code < 0 || code > static_cast<std::int32_t>(core::kMaxStatusCode)) {
    return malformed("unknown status code");
  }
  const std::uint8_t* msg;
  if (!r.bytes(len, &msg)) return malformed("truncated status message");
  *out = Status(static_cast<StatusCode>(code),
                std::string(reinterpret_cast<const char*>(msg), len));
  return Status::Ok();
}

void put_job(std::vector<std::uint8_t>& out, const trace::Job& j) {
  put_i64(out, j.id);
  put_f64(out, j.submit_time);
  put_f64(out, j.run_time);
  put_f64(out, j.requested_time);
  put_i32(out, j.requested_procs);
  put_i32(out, j.user);
  put_f64(out, j.start_time);
}

bool get_job(Reader& r, trace::Job* j) {
  return r.i64(&j->id) && r.f64(&j->submit_time) && r.f64(&j->run_time) &&
         r.f64(&j->requested_time) && r.i32(&j->requested_procs) &&
         r.i32(&j->user) && r.f64(&j->start_time);
}

void put_run(std::vector<std::uint8_t>& out, const sim::RunResult& run) {
  put_u64(out, static_cast<std::uint64_t>(run.jobs));
  put_f64(out, run.avg_bounded_slowdown);
  put_f64(out, run.avg_slowdown);
  put_f64(out, run.avg_wait);
  put_f64(out, run.avg_turnaround);
  put_f64(out, run.utilization);
  put_f64(out, run.makespan);
  put_f64(out, run.max_user_bounded_slowdown);
}

bool get_run(Reader& r, sim::RunResult* run) {
  std::uint64_t jobs;
  if (!r.u64(&jobs)) return false;
  run->jobs = static_cast<std::size_t>(jobs);
  return r.f64(&run->avg_bounded_slowdown) && r.f64(&run->avg_slowdown) &&
         r.f64(&run->avg_wait) && r.f64(&run->avg_turnaround) &&
         r.f64(&run->utilization) && r.f64(&run->makespan) &&
         r.f64(&run->max_user_bounded_slowdown);
}

/// Every decoder ends here: a well-formed payload is consumed EXACTLY —
/// trailing garbage is as malformed as a truncation (it means the sender's
/// framing disagrees with ours, and the stream cannot be trusted).
Status finish(const Reader& r) {
  if (!r.exhausted()) return malformed("trailing bytes after payload");
  return Status::Ok();
}

}  // namespace

Status decode_header(const std::uint8_t* buf, Header* out) {
  Reader r(buf, kHeaderBytes);
  std::uint8_t version;
  std::uint8_t type;
  std::uint16_t reserved;
  r.u32(&out->payload_len);
  r.u8(&version);
  r.u8(&type);
  r.u16(&reserved);
  r.u64(&out->tag);
  if (version != kVersion) return malformed("unsupported version byte");
  if (reserved != 0) return malformed("nonzero reserved bytes");
  if (!known_type(static_cast<MsgType>(type))) {
    return malformed("unknown message type");
  }
  if (out->payload_len > kMaxPayloadBytes) {
    return malformed("declared payload exceeds 64 MiB cap");
  }
  out->version = version;
  out->type = static_cast<MsgType>(type);
  return Status::Ok();
}

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}
void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  const std::size_t n = out.size();
  out.resize(n + sizeof(v));
  std::memcpy(out.data() + n, &v, sizeof(v));
}
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  const std::size_t n = out.size();
  out.resize(n + sizeof(v));
  std::memcpy(out.data() + n, &v, sizeof(v));
}
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  const std::size_t n = out.size();
  out.resize(n + sizeof(v));
  std::memcpy(out.data() + n, &v, sizeof(v));
}
void put_i32(std::vector<std::uint8_t>& out, std::int32_t v) {
  const std::size_t n = out.size();
  out.resize(n + sizeof(v));
  std::memcpy(out.data() + n, &v, sizeof(v));
}
void put_i64(std::vector<std::uint8_t>& out, std::int64_t v) {
  const std::size_t n = out.size();
  out.resize(n + sizeof(v));
  std::memcpy(out.data() + n, &v, sizeof(v));
}
void put_f64(std::vector<std::uint8_t>& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

void append_frame(std::vector<std::uint8_t>& out, MsgType type,
                  std::uint64_t tag, const std::uint8_t* payload,
                  std::size_t payload_len) {
  if (payload_len > kMaxPayloadBytes) {
    std::fprintf(stderr,
                 "rlsched: wire encoder produced a %zu-byte payload "
                 "(cap %u) — encoder bug\n",
                 payload_len, kMaxPayloadBytes);
    std::abort();
  }
  put_u32(out, static_cast<std::uint32_t>(payload_len));
  put_u8(out, kVersion);
  put_u8(out, static_cast<std::uint8_t>(type));
  put_u16(out, 0);
  put_u64(out, tag);
  out.insert(out.end(), payload, payload + payload_len);
}

void encode_create_session(std::vector<std::uint8_t>& out, std::uint64_t tag,
                           const SessionConfig& cfg) {
  std::vector<std::uint8_t> p;
  put_i32(p, cfg.processors);
  put_u32(p, cfg.policy);
  append_frame(out, MsgType::kCreateSession, tag, p.data(), p.size());
}

Status decode_create_session(Reader& r, SessionConfig* cfg) {
  std::int32_t procs;
  std::uint32_t policy;
  if (!r.i32(&procs) || !r.u32(&policy)) {
    return malformed("truncated create_session");
  }
  cfg->processors = procs;
  cfg->policy = policy;
  return finish(r);
}

void encode_destroy_session(std::vector<std::uint8_t>& out, std::uint64_t tag,
                            SessionId id) {
  std::vector<std::uint8_t> p;
  put_u32(p, id.index);
  put_u32(p, id.gen);
  append_frame(out, MsgType::kDestroySession, tag, p.data(), p.size());
}

Status decode_destroy_session(Reader& r, SessionId* id) {
  if (!r.u32(&id->index) || !r.u32(&id->gen)) {
    return malformed("truncated destroy_session");
  }
  return finish(r);
}

Status encode_schedule(std::vector<std::uint8_t>& out, std::uint64_t tag,
                       SessionId id, const ScheduleRequest& request) {
  if (request.stream != nullptr) {
    return Status(StatusCode::kInvalidArgument,
                  "stream requests are not wire-encodable: a "
                  "trace::JobSource lives in one process");
  }
  if (Status s = core::validate(request); !s.ok()) return s;
  std::vector<std::uint8_t> p;
  put_u32(p, id.index);
  put_u32(p, id.gen);
  const bool single = request.jobs != nullptr;
  put_u8(p, single ? 0 : 1);
  put_i32(p, request.processors);
  put_u8(p, request.backfill ? 1 : 0);
  put_u64(p, static_cast<std::uint64_t>(request.chunk_jobs));
  put_f64(p, request.deadline_seconds);
  if (single) {
    put_u32(p, 1);
    put_u32(p, static_cast<std::uint32_t>(request.jobs->size()));
    for (const trace::Job& j : *request.jobs) put_job(p, j);
  } else {
    put_u32(p, static_cast<std::uint32_t>(request.sequences->size()));
    for (const auto& seq : *request.sequences) {
      put_u32(p, static_cast<std::uint32_t>(seq.size()));
      for (const trace::Job& j : seq) put_job(p, j);
    }
  }
  append_frame(out, MsgType::kSchedule, tag, p.data(), p.size());
  return Status::Ok();
}

Status decode_schedule(Reader& r, SessionId* id, DecodedRequest* out) {
  std::uint8_t kind;
  std::uint8_t backfill;
  std::int32_t procs;
  std::uint64_t chunk;
  double deadline;
  std::uint32_t nseq;
  if (!r.u32(&id->index) || !r.u32(&id->gen) || !r.u8(&kind) ||
      !r.i32(&procs) || !r.u8(&backfill) || !r.u64(&chunk) ||
      !r.f64(&deadline) || !r.u32(&nseq)) {
    return malformed("truncated schedule");
  }
  if (kind > 1) return malformed("unknown request kind");
  if (backfill > 1) return malformed("non-boolean backfill byte");
  // NaN compares false on both sides, so this also rejects NaN deadlines.
  if (!(deadline >= 0.0 && deadline < std::numeric_limits<double>::infinity())) {
    return malformed("deadline must be finite and >= 0");
  }
  if (kind == 0 && nseq != 1) {
    return malformed("single-sequence request with sequence count != 1");
  }
  // Each sequence costs at least its 4-byte count: a declared sequence
  // count the payload cannot physically hold is rejected before reserve().
  if (nseq > r.remaining() / sizeof(std::uint32_t)) {
    return malformed("sequence count exceeds payload");
  }
  out->single = kind == 0;
  out->processors = procs;
  out->backfill = backfill != 0;
  out->chunk_jobs = static_cast<std::size_t>(chunk);
  out->deadline_seconds = deadline;
  out->sequences.clear();
  out->sequences.reserve(nseq);
  for (std::uint32_t s = 0; s < nseq; ++s) {
    std::uint32_t njobs;
    if (!r.u32(&njobs)) return malformed("truncated sequence count");
    if (njobs > r.remaining() / kJobBytes) {
      return malformed("job count exceeds payload");
    }
    out->sequences.emplace_back();
    out->sequences.back().resize(njobs);
    for (trace::Job& j : out->sequences.back()) {
      if (!get_job(r, &j)) return malformed("truncated job record");
    }
  }
  return finish(r);
}

void encode_status_reply(std::vector<std::uint8_t>& out, std::uint64_t tag,
                         const Status& status) {
  std::vector<std::uint8_t> p;
  put_status(p, status);
  append_frame(out, MsgType::kStatusReply, tag, p.data(), p.size());
}

Status decode_status_reply(Reader& r, Status* status) {
  if (Status s = get_status(r, status); !s.ok()) return s;
  return finish(r);
}

void encode_session_reply(std::vector<std::uint8_t>& out, std::uint64_t tag,
                          const Status& status, SessionId id) {
  std::vector<std::uint8_t> p;
  put_status(p, status);
  if (status.ok()) {
    put_u32(p, id.index);
    put_u32(p, id.gen);
  }
  append_frame(out, MsgType::kSessionReply, tag, p.data(), p.size());
}

Status decode_session_reply(Reader& r, Status* status, SessionId* id) {
  if (Status s = get_status(r, status); !s.ok()) return s;
  if (status->ok() && (!r.u32(&id->index) || !r.u32(&id->gen))) {
    return malformed("truncated session id");
  }
  return finish(r);
}

void encode_completion_reply(std::vector<std::uint8_t>& out, std::uint64_t tag,
                             const Status& status,
                             const Completion* completion) {
  std::vector<std::uint8_t> p;
  put_status(p, status);
  if (status.ok()) {
    put_status(p, completion->status);
    put_f64(p, completion->latency_seconds);
    put_u32(p, static_cast<std::uint32_t>(completion->result.runs.size()));
    for (const sim::RunResult& run : completion->result.runs) put_run(p, run);
  }
  append_frame(out, MsgType::kCompletionReply, tag, p.data(), p.size());
}

Status decode_completion_reply(Reader& r, Status* status,
                               Completion* completion) {
  if (Status s = get_status(r, status); !s.ok()) return s;
  if (!status->ok()) return finish(r);
  if (Status s = get_status(r, &completion->status); !s.ok()) return s;
  std::uint32_t nruns;
  if (!r.f64(&completion->latency_seconds) || !r.u32(&nruns)) {
    return malformed("truncated completion");
  }
  if (nruns > r.remaining() / kRunResultBytes) {
    return malformed("run count exceeds payload");
  }
  completion->result.runs.resize(nruns);
  for (sim::RunResult& run : completion->result.runs) {
    if (!get_run(r, &run)) return malformed("truncated run result");
  }
  return finish(r);
}

}  // namespace rlsched::serve::wire
