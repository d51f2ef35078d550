#include "serve/daemon.hpp"

#include <algorithm>
#include <chrono>
#include <exception>

#include "rl/batch_eval.hpp"

namespace rlsched::serve {

using core::ScheduleRequest;
using core::ScheduleResult;
using core::Status;
using core::StatusCode;
using core::StatusOr;

namespace {
double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

constexpr std::chrono::steady_clock::time_point kNoDeadline =
    std::chrono::steady_clock::time_point::max();

std::chrono::steady_clock::time_point after_seconds(
    std::chrono::steady_clock::time_point t0, double seconds) {
  return t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(seconds));
}

/// Retry bound for schedule()'s submit-and-wait loop. Each retry requires
/// losing a race against a dispatcher lifecycle transition (start(),
/// stop(), or a concurrent drain()), so normal operation never takes more
/// than one; the bound exists so adversarial lifecycle churn resolves to a
/// terminal Status instead of a busy spin.
constexpr int kScheduleAttempts = 8;
}  // namespace

Daemon::Daemon(DaemonConfig cfg)
    : batch_(cfg.runtime.resolved().batch),
      max_sessions_(cfg.max_sessions),
      max_queue_depth_(cfg.max_queue_depth),
      shed_policy_(cfg.shed_policy) {
  const std::size_t n = cfg.dispatchers == 0 ? 1 : cfg.dispatchers;
  shards_.reserve(n);
  for (std::size_t s = 0; s < n; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->id = s;
    shard->obs.resize(batch_);
    shard->obs_ptr.resize(batch_);
    shard->logits.resize(batch_ * rl::kMaxObservable);
    shard->actions.resize(batch_);
    shard->lane.resize(batch_);
    shards_.push_back(std::move(shard));
  }
}

Daemon::~Daemon() { shutdown(0.0); }

std::uint32_t Daemon::register_policy(const rl::Policy& policy) {
  std::lock_guard<std::mutex> l(mu_);
  // Batch scratch grows once, up front, so dispatch never allocates it.
  policy.reserve_batch(batch_);
  policies_.push_back(&policy);
  return static_cast<std::uint32_t>(policies_.size() - 1);
}

void Daemon::set_completion_hook(CompletionHook hook, void* ctx) {
  std::lock_guard<std::mutex> l(mu_);
  completion_hook_ = hook;
  completion_hook_ctx_ = ctx;
}

StatusOr<SessionId> Daemon::create_session(const SessionConfig& cfg) {
  std::lock_guard<std::mutex> l(mu_);
  if (cfg.processors <= 0) {
    return Status(StatusCode::kInvalidArgument,
                  "session processors must be >= 1");
  }
  if (cfg.policy >= policies_.size()) {
    return Status(StatusCode::kNotFound, "unknown policy id");
  }
  if (stats_.live_sessions >= max_sessions_) {
    return Status(StatusCode::kResourceExhausted, "session table full");
  }
  std::uint32_t index;
  if (!free_slots_.empty()) {
    index = free_slots_.back();
    free_slots_.pop_back();
  } else {
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(std::make_unique<Slot>());
    slots_.back()->index = index;
  }
  Slot& slot = *slots_[index];
  slot.live = true;
  slot.closing = false;
  slot.active = false;
  slot.ready = false;
  slot.cfg = cfg;
  // No env yet: it attaches at admit and returns to the pool when the
  // session idles, so a table of 100k mostly-idle sessions costs slots,
  // not simulators.
  ++stats_.sessions_created;
  ++stats_.live_sessions;
  return SessionId{index, slot.gen};
}

Status Daemon::destroy_session(SessionId id) {
  std::lock_guard<std::mutex> l(mu_);
  Slot* slot = resolve_locked(id);
  if (slot == nullptr) {
    return Status(StatusCode::kNotFound, "unknown or stale session");
  }
  Shard& shard = *shards_[shard_of(slot->cfg.policy)];
  for (PendingRequest& r : slot->queue) {
    complete_locked(r.id, r.submitted,
                    Status(StatusCode::kCancelled, "session destroyed"),
                    ScheduleResult{});
    --shard.queued;
  }
  slot->queue.clear();
  if (slot->active) {
    // The owning shard has the episode in flight; it delivers the result
    // and releases the slot when the request finishes.
    slot->closing = true;
    return Status::Ok();
  }
  release_slot_locked(*slot);
  return Status::Ok();
}

StatusOr<RequestId> Daemon::submit(SessionId id,
                                   const ScheduleRequest& request) {
  if (Status s = core::validate(request); !s.ok()) return s;
  std::lock_guard<std::mutex> l(mu_);
  Slot* slot = resolve_locked(id);
  if (slot == nullptr) {
    return Status(StatusCode::kNotFound, "unknown or stale session");
  }
  Shard& shard = *shards_[shard_of(slot->cfg.policy)];
  if (max_queue_depth_ > 0 && shard.queued >= max_queue_depth_) {
    if (shed_policy_ == ShedPolicy::kRejectNew) {
      ++stats_.requests_rejected;  // never counted as submitted
      return Status(StatusCode::kResourceExhausted,
                    "shard queue full (reject-new admission policy)");
    }
    // Shed-oldest: the oldest queued request on this shard completes as
    // kResourceExhausted and the new one takes its place.
    shed_oldest_locked(shard);
  }
  PendingRequest pr;
  pr.id = next_request_id_++;
  if (request.jobs != nullptr) {
    pr.seqs.push_back(*request.jobs);
  } else if (request.sequences != nullptr) {
    pr.seqs = *request.sequences;
  } else {
    pr.stream = request.stream;
  }
  pr.processors =
      request.processors > 0 ? request.processors : slot->cfg.processors;
  pr.backfill = request.backfill;
  pr.chunk_jobs = request.chunk_jobs;
  pr.submitted = std::chrono::steady_clock::now();
  if (request.deadline_seconds > 0.0) {
    pr.deadline = after_seconds(pr.submitted, request.deadline_seconds);
  }
  const RequestId rid{pr.id};
  requests_.try_emplace(pr.id);
  slot->queue.push_back(std::move(pr));
  ++shard.queued;
  if (max_queue_depth_ > 0 && shed_policy_ == ShedPolicy::kShedOldest) {
    shard.fifo.emplace_back(slot->index, rid.value);
    // Stale entries (requests that left their queue through admission,
    // expiry, shed, or destroy) accumulate until shed pops them; compact
    // once they dominate so the fifo stays O(queued).
    if (shard.fifo.size() > 2 * shard.queued + 64) {
      std::deque<std::pair<std::uint32_t, std::uint64_t>> live;
      for (const auto& [idx, req] : shard.fifo) {
        const Slot& s = *slots_[idx];
        // Per slot the queue is a contiguous run of its submission ids
        // (every removal path pops the front), so a range check is exact.
        if (s.live && !s.queue.empty() && req >= s.queue.front().id &&
            req <= s.queue.back().id) {
          live.emplace_back(idx, req);
        }
      }
      shard.fifo.swap(live);
    }
  }
  ++stats_.requests_submitted;
  if (!slot->active && !slot->ready) {
    slot->ready = true;
    shard.ready.push_back(slot->index);
  }
  shard.work_cv.notify_one();
  return rid;
}

Status Daemon::take_locked(std::uint64_t id, Completion* out, bool notify) {
  auto it = requests_.find(id);
  if (it == requests_.end()) {
    return Status(StatusCode::kNotFound, "unknown request id");
  }
  if (!it->second.done) {
    it->second.notify = it->second.notify || notify;
    return Status(StatusCode::kUnavailable, "request pending");
  }
  *out = std::move(it->second.completion);
  requests_.erase(it);
  return Status::Ok();
}

Status Daemon::try_take(RequestId id, Completion* out) {
  std::lock_guard<std::mutex> l(mu_);
  return take_locked(id.value, out, false);
}

Status Daemon::take_or_notify(RequestId id, Completion* out) {
  std::lock_guard<std::mutex> l(mu_);
  return take_locked(id.value, out, true);
}

Status Daemon::wait(RequestId id, Completion* out) {
  std::unique_lock<std::mutex> l(mu_);
  for (;;) {
    Status s = take_locked(id.value, out, false);
    if (s.code() != StatusCode::kUnavailable) return s;
    if (!started_ && active_drainers_ == 0) {
      // Nothing will ever complete this request — refuse to hang.
      return Status(StatusCode::kFailedPrecondition,
                    "no dispatcher running; start() or drain() first");
    }
    done_cv_.wait(l);
  }
}

Status Daemon::schedule(SessionId id, const ScheduleRequest& request,
                        ScheduleResult* out) {
  StatusOr<RequestId> rid = submit(id, request);
  if (!rid.ok()) return rid.status();
  Completion c;
  Status s(StatusCode::kUnavailable, "");
  for (int attempt = 0; attempt < kScheduleAttempts; ++attempt) {
    // wait() blocks whenever a background dispatcher OR a concurrent
    // drain()er can complete the request; kFailedPrecondition means
    // nobody can, so this thread serves the queue itself.
    s = wait(rid.value(), &c);
    if (s.code() != StatusCode::kFailedPrecondition) break;
    if (StatusOr<std::size_t> d = drain(); !d.ok()) {
      continue;  // a background dispatcher start()ed mid-race; re-wait
    }
    s = try_take(rid.value(), &c);
    if (s.code() != StatusCode::kUnavailable) break;
    // A concurrent drainer admitted the request between our wait() and
    // drain(); the next wait() blocks on that drainer instead of spinning.
  }
  if (s.code() == StatusCode::kFailedPrecondition ||
      s.code() == StatusCode::kUnavailable) {
    // Terminal: every retry lost a lifecycle race. The request stays
    // submitted — the caller can poll try_take()/wait() once a dispatcher
    // settles.
    return Status(StatusCode::kUnavailable,
                  "dispatcher lifecycle raced submit-and-wait; result "
                  "still pending — poll try_take()/wait()");
  }
  if (!s.ok()) return s;
  if (!c.status.ok()) return c.status;
  *out = std::move(c.result);
  return Status::Ok();
}

StatusOr<std::size_t> Daemon::drain() {
  {
    std::lock_guard<std::mutex> l(mu_);
    if (started_) {
      return Status(StatusCode::kFailedPrecondition,
                    "background dispatcher owns execution; stop() first");
    }
    // While this drain runs, wait()ers may block on it instead of
    // refusing: it will complete anything admissible.
    ++active_drainers_;
  }
  std::size_t total = 0;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> dl(shard->dispatch_mu);
    total += run_until_idle(*shard);
  }
  {
    std::lock_guard<std::mutex> l(mu_);
    --active_drainers_;
  }
  // Waiters blocked on this drain must re-check (their request may have
  // been served — or not, if it raced admission; they then drain
  // themselves).
  done_cv_.notify_all();
  return total;
}

void Daemon::start() {
  std::lock_guard<std::mutex> l(mu_);
  if (started_) return;
  started_ = true;
  stop_ = false;
  for (auto& shard : shards_) {
    Shard* s = shard.get();
    s->thread = std::thread([this, s] { dispatcher_loop(*s); });
  }
}

void Daemon::stop() {
  {
    std::lock_guard<std::mutex> l(mu_);
    if (!started_) return;
    stop_ = true;
    for (auto& shard : shards_) shard->work_cv.notify_all();
  }
  for (auto& shard : shards_) shard->thread.join();
  {
    std::lock_guard<std::mutex> l(mu_);
    started_ = false;
    stop_ = false;
    // Waiters blocked on an in-flight id must re-check and bail out
    // instead of sleeping on a daemon that no longer dispatches.
    done_cv_.notify_all();
  }
}

bool Daemon::shed_oldest_locked(Shard& shard) {
  while (!shard.fifo.empty()) {
    const auto [idx, req] = shard.fifo.front();
    shard.fifo.pop_front();
    Slot* slot = slots_[idx].get();
    // A live entry's request is its slot's queue FRONT: within one slot
    // every removal path (admission, expiry, shed, destroy) consumes the
    // front, and the shard fifo holds this slot's older ids earlier — so
    // anything else is a stale entry for an already-removed request.
    if (!slot->live || slot->queue.empty() ||
        slot->queue.front().id != req) {
      continue;
    }
    PendingRequest& f = slot->queue.front();
    complete_locked(f.id, f.submitted,
                    Status(StatusCode::kResourceExhausted,
                           "shed under overload (oldest queued request)"),
                    ScheduleResult{});
    slot->queue.pop_front();
    --shard.queued;
    return true;
  }
  return false;
}

void Daemon::shutdown(double drain_deadline_seconds) {
  stop();
  if (drain_deadline_seconds > 0.0) {
    const auto deadline =
        after_seconds(std::chrono::steady_clock::now(), drain_deadline_seconds);
    {
      std::lock_guard<std::mutex> l(mu_);
      ++active_drainers_;  // wait()ers may block on this drain
    }
    for (auto& shard : shards_) {
      std::lock_guard<std::mutex> dl(shard->dispatch_mu);
      run_until_idle(*shard, deadline);
    }
    {
      std::lock_guard<std::mutex> l(mu_);
      --active_drainers_;
    }
    done_cv_.notify_all();
  }
  // Whatever is still queued will never run — deliver kCancelled for each
  // so nothing is silently dropped and the stats balance survives
  // destruction: submitted == completed + cancelled + shed.
  std::lock_guard<std::mutex> l(mu_);
  for (auto& owned : slots_) {
    Slot& slot = *owned;
    if (!slot.live || slot.queue.empty()) continue;
    Shard& shard = *shards_[shard_of(slot.cfg.policy)];
    for (PendingRequest& r : slot.queue) {
      complete_locked(r.id, r.submitted,
                      Status(StatusCode::kCancelled, "daemon shutdown"),
                      ScheduleResult{});
      --shard.queued;
    }
    slot.queue.clear();
    if (slot.env) env_pool_.push_back(std::move(slot.env));
  }
  for (auto& shard : shards_) shard->fifo.clear();
}

std::size_t Daemon::live_sessions() const {
  std::lock_guard<std::mutex> l(mu_);
  return stats_.live_sessions;
}

DaemonStats Daemon::stats() const {
  std::lock_guard<std::mutex> l(mu_);
  DaemonStats out = stats_;
  out.episodes = episodes_.load(std::memory_order_relaxed);
  out.decisions = decisions_.load(std::memory_order_relaxed);
  out.forwards = forwards_.load(std::memory_order_relaxed);
  out.forward_windows = forward_windows_.load(std::memory_order_relaxed);
  return out;
}

void Daemon::dispatcher_loop(Shard& shard) {
  for (;;) {
    {
      std::unique_lock<std::mutex> l(mu_);
      shard.work_cv.wait(l, [&] { return stop_ || shard.queued > 0; });
      if (stop_) return;
    }
    std::lock_guard<std::mutex> dl(shard.dispatch_mu);
    run_until_idle(shard);
  }
}

std::size_t Daemon::run_until_idle(
    Shard& shard, std::chrono::steady_clock::time_point deadline) {
  shard.run_completed = 0;
  const bool bounded = deadline != kNoDeadline;
  for (;;) {
    if (bounded && std::chrono::steady_clock::now() >= deadline) {
      // Drain budget exhausted mid-flight: an abandoned active slot would
      // wedge its session forever, so in-flight episodes cancel here and
      // shutdown() cancels whatever is still queued.
      for (auto& bucket : shard.active_by_policy) {
        for (Slot* slot : bucket) {
          finish_request(shard, *slot,
                         Status(StatusCode::kCancelled,
                                "shutdown drain deadline expired"));
        }
        bucket.clear();
      }
      break;
    }
    admit_ready_sessions(shard);
    if (!any_active(shard)) break;
    step_active_once(shard);
  }
  return shard.run_completed;
}

bool Daemon::any_active(const Shard& shard) {
  for (const auto& bucket : shard.active_by_policy) {
    if (!bucket.empty()) return true;
  }
  return false;
}

void Daemon::admit_ready_sessions(Shard& shard) {
  shard.admit_scratch.clear();
  {
    std::lock_guard<std::mutex> l(mu_);
    if (shard.active_by_policy.size() < policies_.size()) {
      shard.active_by_policy.resize(policies_.size());
    }
    std::chrono::steady_clock::time_point now{};
    bool have_now = false;
    while (!shard.ready.empty()) {
      Slot* slot = slots_[shard.ready.front()].get();
      shard.ready.pop_front();
      slot->ready = false;
      if (!slot->live || slot->closing || slot->active ||
          slot->queue.empty()) {
        continue;
      }
      // A recycled slot can leave a stale index in its OLD policy's shard
      // deque; admitting it here would drive the new tenant's policy from
      // the wrong thread. Its genuine entry lives in the right deque.
      if (shard_of(slot->cfg.policy) != shard.id) continue;
      // Admission-time deadline enforcement: work that expired while
      // queued completes kDeadlineExceeded here, before any env attaches.
      // The clock is read at most once per admit pass, and only when some
      // front actually carries a deadline.
      while (!slot->queue.empty() &&
             slot->queue.front().deadline != kNoDeadline) {
        if (!have_now) {
          now = std::chrono::steady_clock::now();
          have_now = true;
        }
        if (now < slot->queue.front().deadline) break;
        PendingRequest& f = slot->queue.front();
        complete_locked(f.id, f.submitted,
                        Status(StatusCode::kDeadlineExceeded,
                               "deadline expired before admission"),
                        ScheduleResult{});
        slot->queue.pop_front();
        --shard.queued;
      }
      if (slot->queue.empty()) {
        if (slot->env) env_pool_.push_back(std::move(slot->env));
        continue;
      }
      slot->current = std::move(slot->queue.front());
      slot->queue.pop_front();
      --shard.queued;
      slot->seq_index = 0;
      slot->partial.runs.clear();
      slot->policy = policies_[slot->cfg.policy];
      if (!slot->env) {
        // Lazy attach: envs live only on ACTIVE sessions; the pool bounds
        // the fleet by concurrent activity, not table size.
        if (!env_pool_.empty()) {
          // Pooled env: reconfigure-at-activate + reset give bitwise the
          // same episodes as a freshly constructed env (test_serve_daemon
          // gates this) — only reserved capacity survives reuse.
          slot->env = std::move(env_pool_.back());
          env_pool_.pop_back();
        } else {
          slot->env = std::make_unique<sim::SchedulingEnv>(
              slot->cfg.processors);
        }
      }
      slot->active = true;
      shard.admit_scratch.push_back(slot);
    }
  }
  for (Slot* slot : shard.admit_scratch) {
    if (activate(shard, *slot)) {
      shard.active_by_policy[slot->cfg.policy].push_back(slot);
    }
  }
}

bool Daemon::activate(Shard& shard, Slot& slot) {
  const std::size_t total =
      slot.current.stream != nullptr ? 1 : slot.current.seqs.size();
  while (slot.seq_index < total) {
    // Deadlined requests re-check between sequences: a multi-sequence
    // request abandons its remaining episodes once expired (the clock is
    // only read when a finite deadline is present).
    if (slot.current.deadline != kNoDeadline &&
        std::chrono::steady_clock::now() >= slot.current.deadline) {
      finish_request(shard, slot,
                     Status(StatusCode::kDeadlineExceeded,
                            "deadline expired at dispatch"));
      return false;
    }
    try {
      slot.env->reconfigure(
          slot.current.processors,
          sim::EnvConfig{slot.current.backfill, sim::kMaxObservable});
      if (slot.current.stream != nullptr) {
        slot.env->reset(*slot.current.stream, slot.current.chunk_jobs);
      } else {
        slot.env->reset(slot.current.seqs[slot.seq_index]);
      }
    } catch (const std::exception& e) {
      finish_request(shard, slot,
                     Status(StatusCode::kInvalidArgument, e.what()));
      return false;
    }
    episodes_.fetch_add(1, std::memory_order_relaxed);
    if (!slot.env->done()) return true;
    // Empty episode: nothing to decide, record and move on.
    slot.partial.runs.push_back(slot.env->result());
    ++slot.seq_index;
  }
  finish_request(shard, slot, Status::Ok());
  return false;
}

void Daemon::step_active_once(Shard& shard) {
  std::uint64_t stepped = 0;
  // Lazy per-call clock: read at most once, and only if some in-flight
  // episode actually carries a deadline — the no-deadline hot path costs
  // one pointer compare per step.
  std::chrono::steady_clock::time_point now{};
  bool have_now = false;
  for (auto& bucket : shard.active_by_policy) {
    if (bucket.empty()) continue;
    const rl::Policy& policy = *bucket.front()->policy;
    std::size_t write = 0;
    for (std::size_t g = 0; g < bucket.size(); g += batch_) {
      const std::size_t n = std::min(batch_, bucket.size() - g);
      for (std::size_t w = 0; w < n; ++w) {
        shard.lane[w] = bucket[g + w];
        shard.builder.build_into(*shard.lane[w]->env, shard.obs[w]);
        shard.obs_ptr[w] = &shard.obs[w];
      }
      rl::batched_argmax(policy, shard.obs_ptr.data(), n,
                         shard.logits.data(), shard.actions.data());
      forwards_.fetch_add(1, std::memory_order_relaxed);
      forward_windows_.fetch_add(n, std::memory_order_relaxed);
      for (std::size_t w = 0; w < n; ++w) {
        Slot* slot = shard.lane[w];
        bool done;
        try {
          slot->env->step(shard.actions[w]);
          done = slot->env->done();
        } catch (const std::exception& e) {
          // Streamed refill rejected mid-episode (e.g. out-of-order
          // submits): the request fails, the env resets on next use.
          finish_request(shard, *slot,
                         Status(StatusCode::kInvalidArgument, e.what()));
          continue;
        }
        ++stepped;
        if (!done) {
          if (slot->current.deadline != kNoDeadline) {
            if (!have_now) {
              now = std::chrono::steady_clock::now();
              have_now = true;
            }
            if (now >= slot->current.deadline) {
              // Abandon the expired episode between inference steps; the
              // env resets on its next use.
              finish_request(shard, *slot,
                             Status(StatusCode::kDeadlineExceeded,
                                    "deadline expired mid-dispatch"));
              continue;
            }
          }
          bucket[write++] = slot;
          continue;
        }
        slot->partial.runs.push_back(slot->env->result());
        ++slot->seq_index;
        if (activate(shard, *slot)) bucket[write++] = slot;
      }
    }
    bucket.resize(write);
  }
  decisions_.fetch_add(stepped, std::memory_order_relaxed);
}

void Daemon::finish_request(Shard& shard, Slot& slot, Status status) {
  std::lock_guard<std::mutex> l(mu_);
  complete_locked(slot.current.id, slot.current.submitted, std::move(status),
                  std::move(slot.partial));
  slot.partial = ScheduleResult{};
  slot.current = PendingRequest{};  // drop the owned job copies now
  slot.active = false;
  slot.policy = nullptr;
  ++shard.run_completed;
  if (slot.closing) {
    release_slot_locked(slot);
    return;
  }
  if (!slot.queue.empty()) {
    if (!slot.ready) {
      slot.ready = true;
      shard.ready.push_back(slot.index);
    }
  } else if (slot.env) {
    // Session idles: detach its env so the table scales past the pool.
    env_pool_.push_back(std::move(slot.env));
  }
}

void Daemon::release_slot_locked(Slot& slot) {
  if (slot.env) env_pool_.push_back(std::move(slot.env));
  slot.live = false;
  slot.closing = false;
  slot.active = false;
  slot.ready = false;
  ++slot.gen;
  free_slots_.push_back(slot.index);
  ++stats_.sessions_destroyed;
  --stats_.live_sessions;
}

void Daemon::complete_locked(std::uint64_t id,
                             std::chrono::steady_clock::time_point submitted,
                             Status status, ScheduleResult result) {
  const StatusCode code = status.code();
  const bool ok = status.ok();
  if (code == StatusCode::kCancelled) {
    ++stats_.requests_cancelled;
  } else if (code == StatusCode::kResourceExhausted) {
    // Load-shed under overload: its own bucket so the balance invariant
    // (submitted == completed + cancelled + shed) separates degraded
    // service from normal completion.
    ++stats_.requests_shed;
  } else {
    ++stats_.requests_completed;
    if (!ok) ++stats_.requests_failed;
    if (code == StatusCode::kDeadlineExceeded) ++stats_.requests_expired;
  }
  Completion c{std::move(status), std::move(result), seconds_since(submitted)};
  // Every issued id keeps its entry until its completion is taken, and a
  // take needs `done`, so the entry is still here.
  auto it = requests_.find(id);
  if (it->second.notify && completion_hook_ != nullptr) {
    requests_.erase(it);
    // With mu_ held: the hook must only queue-and-wake (see header).
    completion_hook_(completion_hook_ctx_, id, std::move(c));
  } else {
    it->second.done = true;
    it->second.completion = std::move(c);
  }
  // Wakes wait()ers on a pushed id too: they answer kNotFound.
  done_cv_.notify_all();
}

Daemon::Slot* Daemon::resolve_locked(SessionId id) {
  if (id.index >= slots_.size()) return nullptr;
  Slot* slot = slots_[id.index].get();
  if (!slot->live || slot->closing || slot->gen != id.gen) return nullptr;
  return slot;
}

}  // namespace rlsched::serve
