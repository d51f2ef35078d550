#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace rlsched::serve {

using core::Status;
using core::StatusCode;

namespace {

Status errno_status(const char* what) {
  return Status(StatusCode::kInternal,
                std::string(what) + ": " + std::strerror(errno));
}

constexpr int kEpollWaitMs = 50;    ///< stop_ poll cadence
constexpr int kWriteStallMs = 1000; ///< one POLLOUT wait on a full buffer
constexpr int kWriteStallMax = 30;  ///< give up on a ~30s-stalled reader

}  // namespace

Server::Server(Daemon& daemon, ServerConfig cfg)
    : daemon_(daemon), cfg_(std::move(cfg)) {
  if (cfg_.event_threads == 0) cfg_.event_threads = 1;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    init_status_ = errno_status("socket");
    return;
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(cfg_.port);
  if (::inet_pton(AF_INET, cfg_.host.c_str(), &addr.sin_addr) != 1) {
    init_status_ = Status(StatusCode::kInvalidArgument,
                          "unparseable listen host: " + cfg_.host);
    return;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    init_status_ = errno_status("bind");
    return;
  }
  if (::listen(listen_fd_, 512) != 0) {
    init_status_ = errno_status("listen");
    return;
  }
  socklen_t alen = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &alen) !=
      0) {
    init_status_ = errno_status("getsockname");
    return;
  }
  port_ = ntohs(addr.sin_port);
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    init_status_ = errno_status("epoll_create1");
    return;
  }
  event_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (event_fd_ < 0) {
    init_status_ = errno_status("eventfd");
    return;
  }
  // EPOLLONESHOT on the eventfd too: exactly one event thread runs the
  // completion-delivery pass at a time, rearmed when it finishes.
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLONESHOT;
  ev.data.fd = event_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd_, &ev) != 0) {
    init_status_ = errno_status("epoll_ctl(eventfd)");
    return;
  }
  daemon_.set_completion_hook(&Server::completion_hook, this);
  daemon_.start();
  accept_thread_ = std::thread([this] { accept_loop(); });
  event_threads_.reserve(cfg_.event_threads);
  for (std::size_t i = 0; i < cfg_.event_threads; ++i) {
    event_threads_.emplace_back([this] { event_loop(); });
  }
}

Server::~Server() { stop(); }

void Server::stop() {
  if (stopped_.exchange(true)) return;
  stop_.store(true);
  // No new hook pushes after this: requests still marked for the hook are
  // stored by the daemon when they finish. Completions already pushed are
  // either delivered by an event thread before it exits or dropped with
  // the connections closed below.
  daemon_.set_completion_hook(nullptr, nullptr);
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);  // wakes accept4
  if (accept_thread_.joinable()) accept_thread_.join();
  for (auto& t : event_threads_) {  // they poll stop_ every kEpollWaitMs
    if (t.joinable()) t.join();
  }
  // Socket threads are gone: connection state is single-threaded now.
  for (auto& [fd, conn] : conns_) {
    for (SessionId sid : conn->owned) daemon_.destroy_session(sid);
    ::close(conn->fd);
  }
  conns_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (event_fd_ >= 0) ::close(event_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  listen_fd_ = epoll_fd_ = event_fd_ = -1;
}

void Server::completion_hook(void* ctx, std::uint64_t request_id,
                             Completion&& completion) {
  // Runs under the daemon lock: enqueue and signal, nothing else.
  auto* self = static_cast<Server*>(ctx);
  {
    std::lock_guard<std::mutex> l(self->completed_mu_);
    self->completed_.emplace_back(request_id, std::move(completion));
  }
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n =
      ::write(self->event_fd_, &one, sizeof(one));
}

void Server::accept_loop() {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // listen socket shut down (or unrecoverable): stop accepting
    }
    if (stop_.load()) {
      ::close(fd);
      return;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    {
      std::lock_guard<std::mutex> l(conns_mu_);
      conns_[fd] = conn;
    }
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLET | EPOLLONESHOT | EPOLLRDHUP;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      close_conn(conn);
    }
  }
}

void Server::event_loop() {
  epoll_event evs[64];
  for (;;) {
    const int n = ::epoll_wait(epoll_fd_, evs, 64, kEpollWaitMs);
    if (stop_.load()) return;
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = evs[i].data.fd;
      if (fd == event_fd_) {
        deliver_completions();
        epoll_event ev{};
        ev.events = EPOLLIN | EPOLLONESHOT;
        ev.data.fd = event_fd_;
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, event_fd_, &ev);
        continue;
      }
      std::shared_ptr<Conn> conn;
      {
        std::lock_guard<std::mutex> l(conns_mu_);
        auto it = conns_.find(fd);
        if (it != conns_.end()) conn = it->second;
      }
      // EPOLLHUP/EPOLLRDHUP still read first: the final frames of a
      // half-closed connection are valid requests.
      if (conn) handle_readable(conn);
    }
  }
}

void Server::handle_readable(const std::shared_ptr<Conn>& conn) {
  // Uncontended by EPOLLONESHOT; see Conn::read_mu for why it exists.
  std::lock_guard<std::mutex> read_lock(conn->read_mu);
  bool closing = false;
  for (;;) {  // edge-triggered: drain until EAGAIN or EOF
    std::uint8_t chunk[64 * 1024];
    const ssize_t n = fault_recv(cfg_.fault, FaultInjector::Site::kServerRecv,
                                 conn->fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      conn->rbuf.insert(conn->rbuf.end(), chunk, chunk + n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    closing = true;  // EOF or hard error
    break;
  }
  std::size_t pos = 0;
  while (conn->rbuf.size() - pos >= wire::kHeaderBytes) {
    wire::Header h;
    if (Status hs = wire::decode_header(conn->rbuf.data() + pos, &h);
        !hs.ok()) {
      // Tell the peer why, then hang up: once the length prefix is
      // untrusted there is no frame boundary to resume from.
      std::vector<std::uint8_t> out;
      wire::encode_status_reply(out, h.tag, hs);
      write_frame(conn, out);
      closing = true;
      break;
    }
    if (conn->rbuf.size() - pos < wire::kHeaderBytes + h.payload_len) break;
    wire::Reader r(conn->rbuf.data() + pos + wire::kHeaderBytes,
                   h.payload_len);
    pos += wire::kHeaderBytes + h.payload_len;
    if (!dispatch(conn, h, r)) {
      closing = true;
      break;
    }
  }
  conn->rbuf.erase(conn->rbuf.begin(),
                   conn->rbuf.begin() + static_cast<std::ptrdiff_t>(pos));
  if (closing) {
    close_conn(conn);
    return;
  }
  rearm(*conn);
}

bool Server::dispatch(const std::shared_ptr<Conn>& conn, const wire::Header& h,
                      wire::Reader& r) {
  std::vector<std::uint8_t> out;
  switch (h.type) {
    case wire::MsgType::kCreateSession: {
      SessionConfig cfg;
      if (Status s = wire::decode_create_session(r, &cfg); !s.ok()) {
        wire::encode_status_reply(out, h.tag, s);
        write_frame(conn, out);
        return false;
      }
      core::StatusOr<SessionId> sid = daemon_.create_session(cfg);
      if (sid.ok()) {
        std::lock_guard<std::mutex> l(conn->mu);
        conn->owned.push_back(sid.value());
      }
      wire::encode_session_reply(out, h.tag,
                                 sid.ok() ? Status::Ok() : sid.status(),
                                 sid.ok() ? sid.value() : SessionId{});
      write_frame(conn, out);
      return true;
    }
    case wire::MsgType::kDestroySession: {
      SessionId sid;
      if (Status s = wire::decode_destroy_session(r, &sid); !s.ok()) {
        wire::encode_status_reply(out, h.tag, s);
        write_frame(conn, out);
        return false;
      }
      {
        std::lock_guard<std::mutex> l(conn->mu);
        for (auto it = conn->owned.begin(); it != conn->owned.end(); ++it) {
          if (it->index == sid.index && it->gen == sid.gen) {
            conn->owned.erase(it);
            break;
          }
        }
      }
      wire::encode_status_reply(out, h.tag, daemon_.destroy_session(sid));
      write_frame(conn, out);
      return true;
    }
    case wire::MsgType::kSchedule: {
      SessionId sid;
      wire::DecodedRequest req;
      if (Status s = wire::decode_schedule(r, &sid, &req); !s.ok()) {
        wire::encode_status_reply(out, h.tag, s);
        write_frame(conn, out);
        return false;
      }
      core::StatusOr<RequestId> rid = daemon_.submit(sid, req.view());
      if (!rid.ok()) {
        wire::encode_completion_reply(out, h.tag, rid.status(), nullptr);
        write_frame(conn, out);
        return true;
      }
      defer_completion(conn, h.tag, rid.value().value);
      return true;
    }
    default: {
      // decode_header admits reply types a confused peer might send us.
      wire::encode_status_reply(
          out, h.tag,
          Status(StatusCode::kInvalidArgument,
                 "reply message type sent to the server"));
      write_frame(conn, out);
      return false;
    }
  }
}

void Server::defer_completion(const std::shared_ptr<Conn>& conn,
                              std::uint64_t tag, std::uint64_t id) {
  // The route goes in first: the hook may fire as soon as take_or_notify
  // returns kUnavailable.
  {
    std::lock_guard<std::mutex> l(route_mu_);
    routes_[id] = Route{conn, tag};
  }
  Completion c;
  const Status s = daemon_.take_or_notify(RequestId{id}, &c);
  if (s.code() == StatusCode::kUnavailable) return;  // the hook delivers
  {
    std::lock_guard<std::mutex> l(route_mu_);
    routes_.erase(id);
  }
  std::vector<std::uint8_t> out;
  wire::encode_completion_reply(out, tag, s, s.ok() ? &c : nullptr);
  write_frame(conn, out);
}

void Server::deliver_completions() {
  // Drain the counter BEFORE swapping the list: a hook push that lands
  // after the swap wrote the eventfd after its push, so either its
  // completion was in our swap or a fresh event is pending — no lost
  // wakeups.
  std::uint64_t counter;
  while (::read(event_fd_, &counter, sizeof(counter)) ==
         static_cast<ssize_t>(sizeof(counter))) {
  }
  std::vector<std::pair<std::uint64_t, Completion>> done;
  {
    std::lock_guard<std::mutex> l(completed_mu_);
    done.swap(completed_);
  }
  for (auto& [id, c] : done) {
    Route route;
    {
      std::lock_guard<std::mutex> l(route_mu_);
      auto it = routes_.find(id);
      if (it == routes_.end()) continue;
      route = std::move(it->second);
      routes_.erase(it);
    }
    // write_frame skips a closed connection: its reply is dropped here.
    std::vector<std::uint8_t> out;
    wire::encode_completion_reply(out, route.tag, Status::Ok(), &c);
    write_frame(route.conn, out);
  }
}

void Server::write_frame(const std::shared_ptr<Conn>& conn,
                         const std::vector<std::uint8_t>& bytes) {
  std::lock_guard<std::mutex> l(conn->mu);
  if (conn->closed.load()) return;
  std::size_t off = 0;
  int stalls = 0;
  while (off < bytes.size()) {
    const ssize_t n = fault_send(cfg_.fault, FaultInjector::Site::kServerSend,
                                 conn->fd, bytes.data() + off,
                                 bytes.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      stalls = 0;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Bounded backpressure: block THIS writer on the socket buffer; a
      // reader stalled for ~30s forfeits the rest of the reply (its next
      // read observes the truncation and closes).
      if (++stalls > kWriteStallMax) return;
      pollfd p{conn->fd, POLLOUT, 0};
      ::poll(&p, 1, kWriteStallMs);
      continue;
    }
    return;  // peer gone; the read path will close the conn
  }
}

void Server::rearm(const Conn& conn) {
  if (conn.closed.load()) return;
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLET | EPOLLONESHOT | EPOLLRDHUP;
  ev.data.fd = conn.fd;
  // MOD re-evaluates readiness, so bytes that arrived between our EAGAIN
  // and this rearm still produce an event.
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

void Server::close_conn(const std::shared_ptr<Conn>& conn) {
  if (conn->closed.exchange(true)) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  {
    std::lock_guard<std::mutex> l(conns_mu_);
    conns_.erase(conn->fd);
  }
  std::vector<SessionId> owned;
  {
    std::lock_guard<std::mutex> l(conn->mu);
    owned.swap(conn->owned);
  }
  for (SessionId sid : owned) daemon_.destroy_session(sid);
  ::close(conn->fd);
}

}  // namespace rlsched::serve
