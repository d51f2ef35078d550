#include "serve/client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>

#include "util/rng.hpp"

namespace rlsched::serve {

using core::ScheduleRequest;
using core::ScheduleResult;
using core::Status;
using core::StatusCode;
using core::StatusOr;

namespace {

constexpr const char kLostPrefix[] = "connection lost";

Status lost(const char* what) {
  return Status(StatusCode::kUnavailable,
                std::string(kLostPrefix) + " (" + what + ")");
}

Status protocol(const char* what) {
  return Status(StatusCode::kInternal,
                std::string("protocol violation from server: ") + what);
}

/// A failure the retry layer may act on: the connection died (or timed
/// out) mid-verb. Both producers live in this file — lost() and the
/// connect path — and both speak kUnavailable; a kUnavailable the server
/// sent is decoded from a healthy reply and never carries the transport
/// prefix.
bool transport_error(const Status& s) {
  return s.code() == StatusCode::kUnavailable &&
         s.message().compare(0, sizeof(kLostPrefix) - 1, kLostPrefix) == 0;
}

void sleep_seconds(double seconds) {
  if (seconds <= 0.0) return;
  timespec ts;
  ts.tv_sec = static_cast<time_t>(seconds);
  ts.tv_nsec = static_cast<long>((seconds - static_cast<double>(ts.tv_sec)) *
                                 1e9);
  nanosleep(&ts, nullptr);
}

void set_io_timeout(int fd, double seconds) {
  if (seconds <= 0.0) return;
  timeval tv;
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>(
      (seconds - static_cast<double>(tv.tv_sec)) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

}  // namespace

Client::~Client() { close(); }

Status Client::connect(const std::string& host, std::uint16_t port) {
  return connect(std::vector<Endpoint>{{host, port}});
}

Status Client::connect(std::vector<Endpoint> endpoints) {
  if (fd_ >= 0) {
    return Status(StatusCode::kFailedPrecondition, "already connected");
  }
  if (endpoints.empty()) {
    return Status(StatusCode::kInvalidArgument, "empty endpoint list");
  }
  endpoints_ = std::move(endpoints);
  Status last = lost("no endpoint reachable");
  for (std::size_t i = 0; i < endpoints_.size(); ++i) {
    Status s = connect_fd(endpoints_[i].host, endpoints_[i].port);
    if (s.ok()) {
      current_endpoint_ = i;
      return s;
    }
    if (s.code() == StatusCode::kInvalidArgument) return s;  // bad host text
    last = std::move(s);
  }
  return last;
}

Status Client::connect_fd(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status(StatusCode::kInternal,
                  std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status(StatusCode::kInvalidArgument,
                  "unparseable server host: " + host);
  }
  if (cfg_.connect_timeout_seconds > 0.0) {
    // Bounded connect: nonblocking connect, poll for writability, read the
    // socket error, then restore blocking mode for the verb I/O.
    const int fl = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, fl | O_NONBLOCK);
    int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    if (rc != 0 && errno == EINPROGRESS) {
      pollfd pfd{fd, POLLOUT, 0};
      const int timeout_ms =
          static_cast<int>(cfg_.connect_timeout_seconds * 1000.0);
      rc = ::poll(&pfd, 1, timeout_ms > 0 ? timeout_ms : 1);
      if (rc <= 0) {
        ::close(fd);
        return lost("connect timeout");
      }
      int err = 0;
      socklen_t len = sizeof(err);
      ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
      if (err != 0) {
        ::close(fd);
        return Status(StatusCode::kUnavailable,
                      std::string(kLostPrefix) + " (connect: " +
                          std::strerror(err) + ")");
      }
    } else if (rc != 0) {
      const int e = errno;
      ::close(fd);
      return Status(StatusCode::kUnavailable,
                    std::string(kLostPrefix) + " (connect: " +
                        std::strerror(e) + ")");
    }
    ::fcntl(fd, F_SETFL, fl);
  } else if (::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                       sizeof(addr)) != 0) {
    const int e = errno;
    ::close(fd);
    // Same transport-error shape as the timeout path: the retry layer
    // must keep cycling endpoints while a peer is down.
    return Status(StatusCode::kUnavailable,
                  std::string(kLostPrefix) + " (connect: " +
                      std::strerror(e) + ")");
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  set_io_timeout(fd, cfg_.io_timeout_seconds);
  fd_ = fd;
  return Status::Ok();
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status Client::send_all(const std::uint8_t* data, std::size_t len) {
  if (fd_ < 0) return lost("not connected");
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n =
        fault_send(fault_, FaultInjector::Site::kClientSend, fd_, data + off,
                   len - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    // EAGAIN here is an io_timeout expiry (or an injected storm) on a
    // blocking socket: the frame boundary is unknown, so the connection is
    // unusable — surface a transport error and let the retry layer
    // reconnect.
    return lost("send");
  }
  return Status::Ok();
}

Status Client::send_raw(const std::uint8_t* data, std::size_t len) {
  std::lock_guard<std::mutex> l(send_mu_);
  return send_all(data, len);
}

Status Client::recv_frame(wire::Header* header,
                          std::vector<std::uint8_t>* payload) {
  if (fd_ < 0) return lost("not connected");
  std::uint8_t hdr[wire::kHeaderBytes];
  std::size_t off = 0;
  while (off < sizeof(hdr)) {
    const ssize_t n =
        fault_recv(fault_, FaultInjector::Site::kClientRecv, fd_, hdr + off,
                   sizeof(hdr) - off, 0);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return lost("recv header");
  }
  if (Status s = wire::decode_header(hdr, header); !s.ok()) return s;
  payload->resize(header->payload_len);
  off = 0;
  while (off < payload->size()) {
    const ssize_t n =
        fault_recv(fault_, FaultInjector::Site::kClientRecv, fd_,
                   payload->data() + off, payload->size() - off, 0);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return lost("recv payload");
  }
  return Status::Ok();
}

// --- resilience layer -------------------------------------------------

void Client::backoff_sleep(int attempt) {
  double base = cfg_.retry.initial_backoff_seconds;
  for (int i = 0; i < attempt; ++i) base *= cfg_.retry.multiplier;
  if (base > cfg_.retry.max_backoff_seconds) {
    base = cfg_.retry.max_backoff_seconds;
  }
  // Deterministic jitter in [base/2, base): substream (seed, n-th backoff
  // this client ever took) — replays exactly, decorrelates a retry herd.
  util::Rng rng = util::Rng::substream(cfg_.retry.seed, backoff_stream_++);
  sleep_seconds(base * (0.5 + 0.5 * rng.uniform()));
}

Status Client::reestablish_sessions() {
  for (auto& [local, tracked] : sessions_) {
    StatusOr<SessionId> r = create_session_once(tracked.cfg);
    if (!r.ok()) return r.status();
    tracked.remote = r.value();
  }
  return Status::Ok();
}

Status Client::reconnect() {
  close();
  const std::size_t n = endpoints_.size();
  if (n == 0) return lost("no endpoints to reconnect to");
  Status last = lost("no endpoint reachable");
  // Round-robin from the NEXT endpoint: a dead server is the most likely
  // reason we are here, so failover tries its peers before retrying it.
  for (std::size_t i = 1; i <= n; ++i) {
    const std::size_t e = (current_endpoint_ + i) % n;
    Status s = connect_fd(endpoints_[e].host, endpoints_[e].port);
    if (!s.ok()) {
      last = std::move(s);
      continue;
    }
    current_endpoint_ = e;
    // Session re-establishment: every virtualized session is re-created
    // on the new server before the verb retries, so its local handle
    // stays valid across the failover.
    s = reestablish_sessions();
    if (!s.ok()) {
      last = std::move(s);
      close();
      continue;
    }
    return Status::Ok();
  }
  return last;
}

template <typename Op>
Status Client::with_retry(const Op& op) {
  Status s = op();
  for (int attempt = 1;
       transport_error(s) && attempt < cfg_.retry.max_attempts; ++attempt) {
    backoff_sleep(attempt - 1);
    if (Status r = reconnect(); !r.ok()) {
      s = std::move(r);  // burn the attempt; maybe a peer comes up
      continue;
    }
    s = op();
  }
  if (transport_error(s)) {
    close();
    return Status(StatusCode::kAborted,
                  "retries exhausted: " + s.to_string());
  }
  return s;
}

Status Client::translate(SessionId local, SessionId* remote) const {
  auto it = sessions_.find(local.index);
  if (it == sessions_.end() || local.gen != 1) {
    return Status(StatusCode::kNotFound, "unknown or stale session");
  }
  *remote = it->second.remote;
  return Status::Ok();
}

// --- verbs ------------------------------------------------------------

StatusOr<SessionId> Client::create_session(const SessionConfig& cfg) {
  if (!resilient()) return create_session_once(cfg);
  SessionId remote;
  Status s = with_retry([&] {
    StatusOr<SessionId> r = create_session_once(cfg);
    if (!r.ok()) return r.status();
    remote = r.value();
    return Status::Ok();
  });
  if (!s.ok()) return s;
  // Virtualized handle: retry-after-failover safe because the local id
  // survives server-side recreation (create is made idempotent by
  // tracking, not by the server).
  const SessionId local{next_local_index_++, 1};
  sessions_[local.index] = Tracked{cfg, remote};
  return local;
}

Status Client::destroy_session(SessionId id) {
  if (!resilient()) return destroy_session_once(id);
  SessionId remote;
  if (Status s = translate(id, &remote); !s.ok()) return s;
  bool retried = false;
  Status s = with_retry([&] {
    // After a failover the tracked mapping is fresh; re-translate.
    SessionId r;
    if (Status t = translate(id, &r); !t.ok()) return t;
    Status once = destroy_session_once(r);
    if (retried && once.code() == StatusCode::kNotFound) {
      // The previous attempt (or the server's own connection teardown)
      // already destroyed it: destroy is idempotent up to kNotFound.
      return Status::Ok();
    }
    retried = true;
    return once;
  });
  if (s.ok() || s.code() == StatusCode::kNotFound) sessions_.erase(id.index);
  return s;
}

Status Client::schedule(SessionId id, const ScheduleRequest& request,
                        ScheduleResult* out) {
  if (!resilient()) return schedule_once(id, request, out);
  // Safe to re-execute: scheduling is deterministic, so a retry after a
  // lost reply recomputes bitwise the same result.
  return with_retry([&] { return schedule_once(id, request, out); });
}

StatusOr<SessionId> Client::create_session_once(const SessionConfig& cfg) {
  std::vector<std::uint8_t> f;
  const std::uint64_t tag = next_tag_++;
  wire::encode_create_session(f, tag, cfg);
  if (Status s = send_raw(f.data(), f.size()); !s.ok()) return s;
  wire::Header h;
  std::vector<std::uint8_t> p;
  if (Status s = recv_frame(&h, &p); !s.ok()) return s;
  if (h.type != wire::MsgType::kSessionReply || h.tag != tag) {
    return protocol("expected kSessionReply");
  }
  wire::Reader r(p.data(), p.size());
  Status st;
  SessionId id;
  if (Status s = wire::decode_session_reply(r, &st, &id); !s.ok()) return s;
  if (!st.ok()) return st;
  return id;
}

Status Client::destroy_session_once(SessionId id) {
  std::vector<std::uint8_t> f;
  const std::uint64_t tag = next_tag_++;
  wire::encode_destroy_session(f, tag, id);
  if (Status s = send_raw(f.data(), f.size()); !s.ok()) return s;
  wire::Header h;
  std::vector<std::uint8_t> p;
  if (Status s = recv_frame(&h, &p); !s.ok()) return s;
  if (h.type != wire::MsgType::kStatusReply || h.tag != tag) {
    return protocol("expected kStatusReply");
  }
  wire::Reader r(p.data(), p.size());
  Status st;
  if (Status s = wire::decode_status_reply(r, &st); !s.ok()) return s;
  return st;
}

Status Client::schedule_once(SessionId id, const ScheduleRequest& request,
                             ScheduleResult* out) {
  const std::uint64_t tag = next_tag_++;
  if (Status s = send_schedule(id, request, tag); !s.ok()) return s;
  std::uint64_t rtag = 0;
  Completion c;
  if (Status s = recv_completion(&rtag, &c); !s.ok()) return s;
  if (rtag != tag) return protocol("mismatched reply tag");
  if (!c.status.ok()) return c.status;
  *out = std::move(c.result);
  return Status::Ok();
}

Status Client::send_schedule(SessionId id, const ScheduleRequest& request,
                             std::uint64_t tag) {
  // A resilient client's handles are its own: the frame must carry the id
  // the current server issued, or it addresses another tenant's slot.
  if (resilient()) {
    if (Status t = translate(id, &id); !t.ok()) return t;
  }
  std::vector<std::uint8_t> f;
  if (Status s = wire::encode_schedule(f, tag, id, request); !s.ok()) {
    return s;
  }
  return send_raw(f.data(), f.size());
}

Status Client::recv_completion(std::uint64_t* tag, Completion* out) {
  wire::Header h;
  std::vector<std::uint8_t> p;
  if (Status s = recv_frame(&h, &p); !s.ok()) return s;
  if (h.type != wire::MsgType::kCompletionReply) {
    return protocol("expected kCompletionReply");
  }
  *tag = h.tag;
  wire::Reader r(p.data(), p.size());
  Status st;
  if (Status s = wire::decode_completion_reply(r, &st, out); !s.ok()) {
    return s;
  }
  return st;  // outer op status; completion payload only present when OK
}

Status Client::recv_reply(wire::Header* header, Status* status) {
  std::vector<std::uint8_t> p;
  if (Status s = recv_frame(header, &p); !s.ok()) return s;
  wire::Reader r(p.data(), p.size());
  std::int32_t code;
  std::uint32_t len;
  if (!r.i32(&code) || !r.u32(&len)) return protocol("truncated status");
  const std::uint8_t* msg;
  if (!r.bytes(len, &msg)) return protocol("truncated status message");
  if (code < 0 || code > static_cast<std::int32_t>(core::kMaxStatusCode)) {
    return protocol("unknown status code");
  }
  *status = Status(static_cast<StatusCode>(code),
                   std::string(reinterpret_cast<const char*>(msg), len));
  return Status::Ok();
}

}  // namespace rlsched::serve
