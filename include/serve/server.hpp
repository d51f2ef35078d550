#pragma once
// serve::Server — the network front end of the session daemon: a
// non-blocking epoll socket loop speaking the serve/wire.hpp framing of
// the core::ScheduleRequest contract over loopback (or any TCP) sockets.
//
// Thread model:
//
//   accept thread (1, blocking)      event threads (N, epoll_wait)
//   ---------------------------      -----------------------------------
//   accept4(SOCK_NONBLOCK)           edge-triggered + EPOLLONESHOT per
//   register conn in epoll             connection: exactly one thread
//                                      drains and dispatches a given
//                                      connection at a time (no per-frame
//                                      locking), rearmed after each drain;
//                                      SCHED_BATCH, so their wakeups never
//                                      preempt a busy dispatcher
//
// Requests dispatch straight into the shared serve::Daemon (which runs
// its own dispatcher shards); replies are written inline by the event
// thread, except kSchedule's. Its reply is deferred: the server submits
// the request, records a route from the request id to the connection,
// then asks Daemon::take_or_notify(): a finished request is answered at
// once, a pending one is marked and its completion later arrives through
// the daemon's completion hook. The hook — called under the daemon lock —
// only enqueues the completion and signals an eventfd, and the event
// thread that wakes on the eventfd writes each one to its route's
// connection. The daemon decides under its lock which side delivers, so
// exactly one does.
//
// Malformed input never crashes the server: payload decode errors get a
// kInvalidArgument reply and the connection closes (a corrupt length
// prefix cannot be resynchronized); a disconnected client's sessions are
// destroyed (queued requests cancel) and its pending deferred replies are
// dropped as they arrive.
//
// Results over this socket path are BITWISE IDENTICAL to in-process
// Daemon calls: the wire format round-trips doubles by bit pattern and
// the server adds no computation of its own
// (tests/test_serve_server.cpp and bench_serve_load's wire_invariant
// gate this).

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/status.hpp"
#include "serve/daemon.hpp"
#include "serve/fault.hpp"
#include "serve/wire.hpp"

namespace rlsched::serve {

struct ServerConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; Server::port() reports it
  std::size_t event_threads = 2;
  /// Chaos-test hook (borrowed; must outlive the server): every socket
  /// recv/send routes through it. Null — the default — is the raw-syscall
  /// fast path.
  FaultInjector* fault = nullptr;
};

class Server {
 public:
  /// Binds, installs the completion hook, start()s the daemon (idempotent)
  /// and spawns the socket threads. The daemon must outlive the server;
  /// one server per daemon (the server owns the daemon's completion hook).
  /// Check status() — a failed bind reports there, not by crashing.
  explicit Server(Daemon& daemon, ServerConfig cfg = {});
  ~Server();  ///< stop()s the socket loop; the daemon keeps running

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// OK once listening; the bind/listen/epoll failure otherwise.
  const core::Status& status() const { return init_status_; }
  /// The bound port (resolves an ephemeral request).
  std::uint16_t port() const { return port_; }

  /// Shut the socket loop down: stop accepting, join the threads, close
  /// every connection (destroying the sessions each owned). Idempotent;
  /// the destructor calls it.
  void stop();

 private:
  struct Conn {
    int fd = -1;
    std::atomic<bool> closed{false};
    /// Held for the whole of handle_readable, guarding rbuf. EPOLLONESHOT
    /// already serializes the handlers at the kernel level, so the lock is
    /// uncontended — it exists to make the rearm→epoll_wait handoff between
    /// event threads a real happens-before edge in the memory model (the
    /// syscall pair provides no language-level ordering), not to arbitrate.
    std::mutex read_mu;
    std::vector<std::uint8_t> rbuf;
    std::mutex mu;                 ///< write path + owned sessions
    std::vector<SessionId> owned;  ///< destroyed when the conn closes
  };
  struct Route {
    std::shared_ptr<Conn> conn;
    std::uint64_t tag = 0;
  };

  static void completion_hook(void* ctx, std::uint64_t request_id,
                              Completion&& completion);

  void accept_loop();
  void event_loop();
  void handle_readable(const std::shared_ptr<Conn>& conn);
  /// Returns false when the connection must close (malformed payload).
  bool dispatch(const std::shared_ptr<Conn>& conn, const wire::Header& h,
                wire::Reader& r);
  /// The deferred reply of a just-submitted kSchedule (header comment).
  void defer_completion(const std::shared_ptr<Conn>& conn, std::uint64_t tag,
                        std::uint64_t id);
  void deliver_completions();
  void write_frame(const std::shared_ptr<Conn>& conn,
                   const std::vector<std::uint8_t>& bytes);
  void rearm(const Conn& conn);
  void close_conn(const std::shared_ptr<Conn>& conn);

  Daemon& daemon_;
  ServerConfig cfg_;
  core::Status init_status_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int event_fd_ = -1;

  std::atomic<bool> stop_{false};
  std::atomic<bool> stopped_{false};
  std::thread accept_thread_;
  std::vector<std::thread> event_threads_;

  std::mutex conns_mu_;
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;

  /// Deferred-reply bookkeeping; never hold while calling the daemon.
  std::mutex route_mu_;
  std::unordered_map<std::uint64_t, Route> routes_;

  std::mutex completed_mu_;
  /// hook -> eventfd handler
  std::vector<std::pair<std::uint64_t, Completion>> completed_;
};

}  // namespace rlsched::serve
