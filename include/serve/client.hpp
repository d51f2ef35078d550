#pragma once
// serve::Client — the Daemon's session and schedule verbs over a
// serve::Server socket: create_session, destroy_session and schedule with
// the same core::Status vocabulary as the in-process Daemon, so swapping
// the transport swaps nothing else (and the results are bitwise identical
// — the wire round-trips every double by bit pattern). schedule() is one
// kSchedule frame answered by one pushed kCompletionReply;
// send_schedule()/recv_completion() split that round trip for pipelining.
//
// Threading: the blocking verbs assume ONE outstanding operation at a
// time (each reads exactly its own reply frame). The pipelined pair
// supports the open-loop bench split: one submitter thread sending (sends
// are serialized internally), one collector thread receiving — never more
// than one reader.
//
// RESILIENCE (opt-in via ClientConfig): with retry.max_attempts > 0 the
// blocking verbs survive transport failures — jittered exponential-backoff
// retry keyed off a deterministic RNG substream (tests replay exactly per
// seed), reconnect/failover round-robin across the connect() endpoint
// list, and SESSION VIRTUALIZATION: the ids this client hands out are
// local, mapped to whatever the current server issued, and every tracked
// session is re-created on the new server after a failover, so a session
// handle stays valid across server deaths. Every verb is safe to retry
// (see docs/wire-protocol.md): schedule re-executes deterministically,
// create is made safe by virtualization, destroy is idempotent up to
// kNotFound. send_schedule() maps the handle like the blocking verbs but
// is never retried: a transport error returns as is. When retries
// exhaust, the verb returns kAborted and the connection is closed. The
// default config (max_attempts == 0) changes nothing.

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/api.hpp"
#include "core/status.hpp"
#include "serve/daemon.hpp"
#include "serve/fault.hpp"
#include "serve/wire.hpp"

namespace rlsched::serve {

struct Endpoint {
  std::string host;
  std::uint16_t port = 0;
};

/// Jittered exponential backoff; max_attempts == 0 disables resilience
/// entirely (single attempt, no virtualization — the pre-resilience
/// contract, and the default).
struct RetryPolicy {
  int max_attempts = 0;  ///< total tries per verb, incl. the first
  double initial_backoff_seconds = 0.001;
  double max_backoff_seconds = 0.1;
  double multiplier = 2.0;
  /// Substream key for the jitter: retries replay exactly per seed.
  std::uint64_t seed = 1;
};

struct ClientConfig {
  /// 0 = OS default blocking connect; else nonblocking connect + poll.
  double connect_timeout_seconds = 0.0;
  /// 0 = no timeout; else SO_RCVTIMEO/SO_SNDTIMEO on the socket — a stalled
  /// peer surfaces as a transport error (retried when resilient).
  double io_timeout_seconds = 0.0;
  RetryPolicy retry;
};

class Client {
 public:
  Client() = default;
  explicit Client(ClientConfig cfg) : cfg_(std::move(cfg)) {}
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  core::Status connect(const std::string& host, std::uint16_t port);
  /// Failover pool: connects to the first reachable endpoint; resilient
  /// retries rotate round-robin from the current one.
  core::Status connect(std::vector<Endpoint> endpoints);
  void close();
  bool connected() const { return fd_ >= 0; }

  /// Wire this client's I/O through a fault injector (tests). Null resets
  /// to the raw syscalls. Set before issuing verbs.
  void set_fault_injector(FaultInjector* fault) { fault_ = fault; }

  // --- blocking verbs (one outstanding op per client) ---
  core::StatusOr<SessionId> create_session(const SessionConfig& cfg);
  core::Status destroy_session(SessionId id);
  /// Streams are rejected locally (kInvalidArgument): a trace::JobSource
  /// cannot cross a process boundary.
  core::Status schedule(SessionId id, const core::ScheduleRequest& request,
                        core::ScheduleResult* out);

  // --- pipelined path (open-loop load generation) ---
  /// Fire a kSchedule frame tagged `tag` without waiting for the reply.
  /// A resilient client sends the server's id for its handle (kNotFound,
  /// nothing sent, for a handle it never issued).
  core::Status send_schedule(SessionId id,
                             const core::ScheduleRequest& request,
                             std::uint64_t tag);
  /// Block for the next kCompletionReply frame; `*tag` identifies which
  /// send_schedule it answers. A non-OK return is a transport/protocol
  /// failure, or the daemon refusing that request (e.g. kNotFound for a
  /// stale session; `*tag` is set). The outcome of an admitted request
  /// comes back in completion->status.
  core::Status recv_completion(std::uint64_t* tag, Completion* out);

  // --- raw escape hatch (malformed-frame tests) ---
  core::Status send_raw(const std::uint8_t* data, std::size_t len);
  /// Read one frame of any type; returns its header and decoded leading
  /// Status (every reply starts with one).
  core::Status recv_reply(wire::Header* header, core::Status* status);

 private:
  /// A tracked (virtualized) session: what to re-create after failover,
  /// and the id the CURRENT server knows it by.
  struct Tracked {
    SessionConfig cfg;
    SessionId remote;
  };

  bool resilient() const { return cfg_.retry.max_attempts > 0; }
  core::Status send_all(const std::uint8_t* data, std::size_t len);
  core::Status recv_frame(wire::Header* header,
                          std::vector<std::uint8_t>* payload);

  core::Status connect_fd(const std::string& host, std::uint16_t port);
  core::Status reconnect();
  core::Status reestablish_sessions();
  core::Status translate(SessionId local, SessionId* remote) const;
  void backoff_sleep(int attempt);
  template <typename Op>
  core::Status with_retry(const Op& op);

  // Single-attempt verb bodies (no retry). destroy_session_once takes the
  // server's id; schedule_once takes the caller's, which send_schedule
  // maps.
  core::StatusOr<SessionId> create_session_once(const SessionConfig& cfg);
  core::Status destroy_session_once(SessionId id);
  core::Status schedule_once(SessionId id,
                             const core::ScheduleRequest& request,
                             core::ScheduleResult* out);

  int fd_ = -1;
  std::mutex send_mu_;
  std::uint64_t next_tag_ = 1;
  ClientConfig cfg_;
  FaultInjector* fault_ = nullptr;
  std::vector<Endpoint> endpoints_;
  std::size_t current_endpoint_ = 0;
  std::unordered_map<std::uint32_t, Tracked> sessions_;  ///< resilient only
  std::uint32_t next_local_index_ = 0;
  std::uint64_t backoff_stream_ = 0;  ///< substream counter for jitter
};

}  // namespace rlsched::serve
