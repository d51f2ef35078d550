#pragma once
// Scheduling-as-a-service: a long-lived multi-tenant session daemon that
// multiplexes thousands of concurrent scheduling sessions — independent
// simulated clusters, what-if queries, replay streams — onto batched
// inference engines.
//
// Architecture:
//
//   clients (any thread)                 dispatcher shards (1..N threads)
//   --------------------                 --------------------------------
//   create_session / destroy_session     admit: pop a session's next queued
//   submit(ScheduleRequest) -> id          request, attach a pooled env,
//   try_take / wait(id)                    reset it
//         |                              step:  group ACTIVE episodes by
//         v                                policy, pack up to B observation
//   session table (mutex-guarded):        windows per group into one
//     slot = { generation, config,        B x 128 batched policy forward
//              request queue,             (rl::batched_argmax), step each
//              env while active }         env with its own argmax
//                                       complete: store the Completion,
//                                         re-admit the session's next
//                                         request or return the env to the
//                                         pool (idle sessions hold NO env,
//                                         so a 100k-session table stays
//                                         slim)
//
// PER-POLICY SHARDING: policy id p executes on dispatcher shard
// p % dispatchers. Sessions of independent policies batch-forward in
// parallel on different shards; sessions of one policy always execute on
// one shard, so each registered policy's mutable forward scratch is still
// driven by exactly one thread and needs no locking. Because a session's
// episodes depend only on its own env and its policy's weights, N-shard
// execution is BITWISE IDENTICAL to single-dispatcher execution
// (tests/test_serve_daemon.cpp and bench_serve_load gate this). Corollary:
// with dispatchers > 1, registering the SAME rl::Policy object under two
// ids that map to different shards is a data race — give each id its own
// (identically-weighted, if desired) object.
//
// The daemon speaks the same core::ScheduleRequest / ScheduleResult /
// Status contract as the in-process façade; protocol failures (unknown
// session, table full, cancelled-by-destroy, ...) map onto the same
// core::StatusCode enum. serve::Server exposes exactly this contract over
// a socket (serve/wire.hpp).
//
// Cross-session batching is BITWISE INVISIBLE in every result: each
// batched logits row equals the unbatched forward of that window (the
// rl::batched_argmax contract), and sessions share nothing but the policy
// weights, so N sessions drained at batch width B produce exactly the
// results of N sessions served serially (tests/test_serve_daemon.cpp
// gates this, and bench_serve_load re-checks it before every timed run).
//
// Threading contract: the session table, request queues, and completion
// store are internally synchronized — any thread may create/destroy
// sessions, submit, and poll concurrently. Episode execution is serialized
// PER SHARD: either the background threads after start(), or the caller of
// drain() (which serves every shard on the calling thread). Registered
// policies are driven only by their shard's dispatcher; they must outlive
// the daemon.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/api.hpp"
#include "core/status.hpp"
#include "rl/observation.hpp"
#include "rl/policy.hpp"
#include "sim/env.hpp"
#include "trace/job.hpp"

namespace rlsched::serve {

/// Per-session immutable configuration: the simulated cluster the session
/// schedules on and the policy (by registry id) that makes its decisions.
/// Per-request knobs (backfill, processors override for what-if queries,
/// streaming chunk) ride on the core::ScheduleRequest itself.
struct SessionConfig {
  int processors = 0;        ///< cluster size; must be > 0
  std::uint32_t policy = 0;  ///< id from Daemon::register_policy()
};

/// Generation-tagged session handle: destroying a session bumps the slot
/// generation, so a stale handle is detected (kNotFound) instead of
/// silently addressing the slot's next tenant.
struct SessionId {
  std::uint32_t index = 0;
  std::uint32_t gen = 0;
};

struct RequestId {
  std::uint64_t value = 0;  ///< 0 = invalid
};

/// What submit() does when a shard's queue sits at max_queue_depth.
enum class ShedPolicy : std::uint8_t {
  kRejectNew,   ///< refuse the incoming submit with kResourceExhausted
  kShedOldest,  ///< complete the shard's oldest queued request as
                ///< kResourceExhausted, then accept the new one
};

struct DaemonConfig {
  /// runtime.batch = cross-session windows per batched policy forward
  /// (0 defers to RLSCHED_BATCH, then the built-in default — the same
  /// precedence chain as RLSchedulerConfig). runtime.workers is not used:
  /// per-shard execution is single-threaded by design (the batched forward
  /// is where the within-policy parallelism lives).
  core::RuntimeConfig runtime;
  std::size_t max_sessions = 1u << 20;
  /// Dispatcher shards (0 is treated as 1). Policy id p executes on shard
  /// p % dispatchers; see the sharding contract in the header comment.
  std::size_t dispatchers = 1;
  /// Per-shard bound on QUEUED (admissible, not yet executing) requests;
  /// 0 = unbounded. At the bound, submit() applies shed_policy — overload
  /// degrades to explicit kResourceExhausted answers instead of unbounded
  /// queue growth and unbounded tail latency.
  std::size_t max_queue_depth = 0;
  ShedPolicy shed_policy = ShedPolicy::kRejectNew;
};

struct DaemonStats {
  std::uint64_t sessions_created = 0;
  std::uint64_t sessions_destroyed = 0;
  std::uint64_t live_sessions = 0;
  std::uint64_t requests_submitted = 0;
  /// Invariant (gated by tests and the perf gate): requests_submitted ==
  /// requests_completed + requests_cancelled + requests_shed, at every
  /// quiescent point INCLUDING after shutdown()/destruction.
  std::uint64_t requests_completed = 0;  ///< incl. failed; not cancelled/shed
  std::uint64_t requests_failed = 0;     ///< completed with a non-OK status
  std::uint64_t requests_cancelled = 0;  ///< destroy_session or shutdown()
  std::uint64_t requests_shed = 0;       ///< kResourceExhausted under overload
  std::uint64_t requests_rejected = 0;   ///< refused at submit (reject-new;
                                         ///< never counted as submitted)
  std::uint64_t requests_expired = 0;    ///< completed as kDeadlineExceeded
  std::uint64_t episodes = 0;            ///< sequences scheduled
  std::uint64_t decisions = 0;           ///< env steps taken
  std::uint64_t forwards = 0;            ///< batched policy forwards
  std::uint64_t forward_windows = 0;     ///< sum of windows over forwards
};

/// A finished request: the daemon-side status (OK unless the engine
/// rejected the episode or the session was destroyed first), the runs, and
/// the submit-to-completion latency the load bench aggregates into
/// p50/p99.
struct Completion {
  core::Status status;
  core::ScheduleResult result;
  double latency_seconds = 0.0;
};

class Daemon {
 public:
  explicit Daemon(DaemonConfig cfg = {});
  /// shutdown(0.0): stops the dispatchers and delivers kCancelled for
  /// whatever is still queued — accounting balances across destruction.
  /// Callers who want a drain budget call shutdown() first.
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Register a policy for sessions to reference. The daemon borrows the
  /// policy (caller keeps ownership; it must outlive the daemon) and
  /// prewarms its batch scratch to the daemon's batch width. Only the
  /// owning shard's dispatcher ever runs forwards on it.
  std::uint32_t register_policy(const rl::Policy& policy);

  core::StatusOr<SessionId> create_session(const SessionConfig& cfg);

  /// Destroy a session. Queued requests complete as kCancelled; an episode
  /// already in flight on a dispatcher finishes and delivers its result
  /// (a replay you asked for is a replay you get), after which the
  /// session's env returns to the pool and the slot generation bumps.
  core::Status destroy_session(SessionId id);

  /// Enqueue a request on a session. jobs/sequences payloads are COPIED
  /// into the queue (the caller's buffers are free immediately); stream
  /// sources are borrowed until completion. request.processors == 0 uses
  /// the session's cluster size; nonzero overrides it for this request
  /// (what-if queries on a foreign cluster reuse the session's env).
  core::StatusOr<RequestId> submit(SessionId id,
                                   const core::ScheduleRequest& request);

  /// Non-blocking completion poll: kUnavailable while pending, kNotFound
  /// for ids never issued (or already taken). A completion is delivered
  /// exactly once.
  core::Status try_take(RequestId id, Completion* out);

  /// try_take() for a caller that wants a pending result pushed to it: a
  /// finished request is taken (OK), a pending one is marked so that its
  /// completion goes to the completion hook instead of the store
  /// (kUnavailable; marking twice is harmless), and an unknown or taken id
  /// answers kNotFound. The choice is made under the daemon lock, so
  /// exactly one of the caller and the hook receives the completion.
  core::Status take_or_notify(RequestId id, Completion* out);

  /// Block until `id` completes. Requires someone who can complete it: a
  /// running background dispatcher, an active drain()er on another thread,
  /// or an already-available completion — kFailedPrecondition otherwise (a
  /// wait that nothing can satisfy must not hang).
  core::Status wait(RequestId id, Completion* out);

  /// Submit + run to completion, for synchronous callers: drains on the
  /// calling thread when no dispatcher is running, waits otherwise. Racing
  /// start()/stop()/drain() transitions are retried a BOUNDED number of
  /// times; when every retry loses the race (adversarial lifecycle churn),
  /// the call returns a terminal kUnavailable and the submitted request
  /// remains pollable via try_take()/wait() — it never busy-spins.
  core::Status schedule(SessionId id, const core::ScheduleRequest& request,
                        core::ScheduleResult* out);

  /// Serve every queued request to completion on the CALLING thread,
  /// visiting each shard in turn. Returns the number of requests
  /// completed; kFailedPrecondition while a background dispatcher owns
  /// execution. Concurrent drain() calls are legal and serialize per
  /// shard.
  core::StatusOr<std::size_t> drain();

  /// Start / stop the background dispatcher threads (one per shard).
  /// stop() is clean PAUSE: in-flight batches finish, queued work stays
  /// queued (a later start()/drain() serves it).
  void start();
  void stop();

  /// Terminal shutdown with delivery guarantees: stop(), then serve queued
  /// work on the CALLING thread for up to drain_deadline_seconds, then
  /// complete every request still queued as kCancelled. Nothing is ever
  /// silently dropped: after shutdown(), submitted == completed +
  /// cancelled + shed. Sessions stay live (their handles remain valid);
  /// a budget of 0 cancels all queued work immediately and
  /// deterministically.
  void shutdown(double drain_deadline_seconds);

  /// Receives, moved out of the daemon, the completion of every request
  /// that take_or_notify() marked. It runs inside complete_locked with the
  /// daemon mutex HELD: the hook must not call back into the daemon —
  /// queue the completion and wake your own consumer (serve::Server uses
  /// an eventfd). Unmarked requests, and marked ones that finish while no
  /// hook is installed, are stored for try_take()/wait(). Set before
  /// start().
  using CompletionHook = void (*)(void* ctx, std::uint64_t request_id,
                                  Completion&& completion);
  void set_completion_hook(CompletionHook hook, void* ctx);

  std::size_t batch() const { return batch_; }
  std::size_t dispatchers() const { return shards_.size(); }
  std::size_t live_sessions() const;
  DaemonStats stats() const;

 private:
  struct PendingRequest {
    std::uint64_t id = 0;
    std::vector<std::vector<trace::Job>> seqs;  ///< owned copies
    trace::JobSource* stream = nullptr;
    int processors = 0;  ///< resolved against the session at submit
    bool backfill = false;
    std::size_t chunk_jobs = 4096;
    std::chrono::steady_clock::time_point submitted;
    /// Absolute completion deadline; time_point::max() = none. Enforced at
    /// admission (expired work never attaches an env) and between
    /// inference steps (an expired in-flight episode is abandoned).
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max();
  };

  struct Slot {
    std::uint32_t index = 0;
    std::uint32_t gen = 1;
    bool live = false;
    bool closing = false;  ///< destroy requested while an episode ran
    bool active = false;   ///< episode in flight (dispatcher-owned)
    bool ready = false;    ///< queued in its shard's ready deque
    SessionConfig cfg;
    /// Attached by the dispatcher at admit, returned to the pool when the
    /// session goes idle — an idle session costs its Slot, not an env.
    std::unique_ptr<sim::SchedulingEnv> env;
    /// A list, not a deque: an empty std::deque allocates a map and a
    /// node, which an idle session table would pay per session.
    std::list<PendingRequest> queue;

    // Episode state, touched only by the owning shard while `active`.
    PendingRequest current;
    const rl::Policy* policy = nullptr;
    std::size_t seq_index = 0;
    core::ScheduleResult partial;
  };

  /// One dispatcher shard: its slice of the ready queue, its wakeup
  /// channel, and all the scratch its executions need. `dispatch_mu`
  /// serializes episode execution on this shard (background thread or
  /// drain()er); everything below it is owned by whoever holds it.
  struct Shard {
    std::size_t id = 0;               ///< index into shards_
    std::deque<std::uint32_t> ready;  ///< mu_-guarded
    /// Set under mu_ whenever `ready` gains an entry; the dispatcher reads
    /// it without mu_ to skip the lock on a pass with nothing to admit.
    std::atomic<bool> has_ready{false};
    std::size_t queued = 0;           ///< mu_-guarded admissible requests
    /// mu_-guarded shard-wide submission order, maintained only under
    /// ShedPolicy::kShedOldest with a queue bound: (slot index, request
    /// id) pairs let shed_oldest_locked find the oldest queued request in
    /// amortized O(1). Entries whose request already left its queue are
    /// stale and skipped; periodic compaction bounds the memory.
    std::deque<std::pair<std::uint32_t, std::uint64_t>> fifo;
    std::condition_variable work_cv;  ///< paired with mu_
    std::thread thread;

    std::mutex dispatch_mu;
    std::vector<std::vector<Slot*>> active_by_policy;
    std::vector<Slot*> admit_scratch;
    /// Requests this shard finished since it last held mu_: completed in
    /// one batch under one lock (settle_locked) instead of one lock each.
    std::vector<std::pair<Slot*, core::Status>> finished;
    std::size_t run_completed = 0;
    rl::ObservationBuilder builder;
    std::vector<rl::Observation> obs;
    std::vector<const rl::Observation*> obs_ptr;
    std::vector<float> logits;
    std::vector<std::uint32_t> actions;
    std::vector<Slot*> lane;  ///< window slot -> episode, per chunk
  };

  std::size_t shard_of(std::uint32_t policy) const {
    return policy % shards_.size();
  }

  void dispatcher_loop(Shard& shard);

  // All of the following run on a shard (under its dispatch_mu).
  std::size_t run_until_idle(
      Shard& shard, std::chrono::steady_clock::time_point deadline =
                        std::chrono::steady_clock::time_point::max());
  void admit_ready_sessions(Shard& shard);
  bool shed_oldest_locked(Shard& shard);  ///< mu_ held
  bool activate(Shard& shard, Slot& slot);  ///< false = request finished
  void step_active_once(Shard& shard);
  static bool any_active(const Shard& shard);
  void finish_request(Shard& shard, Slot& slot, core::Status status);
  void settle_locked(Shard& shard);  ///< mu_ held
  void release_slot_locked(Slot& slot);  ///< mu_ held

  /// One entry per issued request, from submit() until its completion is
  /// taken or handed to the hook.
  struct RequestState {
    bool done = false;    ///< `completion` holds the result
    bool notify = false;  ///< marked by take_or_notify()
    Completion completion;
  };

  /// The one locked lookup behind try_take/wait/take_or_notify: takes a
  /// done request, else answers kUnavailable (marking it when `notify`)
  /// or kNotFound.
  core::Status take_locked(std::uint64_t id, Completion* out, bool notify);
  void complete_locked(std::uint64_t id,
                       std::chrono::steady_clock::time_point submitted,
                       core::Status status, core::ScheduleResult result);
  Slot* resolve_locked(SessionId id);

  const std::size_t batch_;
  const std::size_t max_sessions_;
  const std::size_t max_queue_depth_;
  const ShedPolicy shed_policy_;

  mutable std::mutex mu_;  ///< session table, queues, requests, stats
  std::condition_variable done_cv_;  ///< wait() wakeup
  std::vector<std::unique_ptr<Slot>> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::unique_ptr<sim::SchedulingEnv>> env_pool_;
  std::vector<const rl::Policy*> policies_;
  std::unordered_map<std::uint64_t, RequestState> requests_;
  std::uint64_t next_request_id_ = 1;
  DaemonStats stats_;
  bool started_ = false;
  bool stop_ = false;
  int active_drainers_ = 0;  ///< wait() liveness: drains count as dispatch
  CompletionHook completion_hook_ = nullptr;
  void* completion_hook_ctx_ = nullptr;

  std::vector<std::unique_ptr<Shard>> shards_;

  // Hot dispatcher counters, updated without mu_; stats() folds them in.
  std::atomic<std::uint64_t> episodes_{0};
  std::atomic<std::uint64_t> decisions_{0};
  std::atomic<std::uint64_t> forwards_{0};
  std::atomic<std::uint64_t> forward_windows_{0};
};

}  // namespace rlsched::serve
