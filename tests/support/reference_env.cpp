// The frozen naive scheduling core. See reference_env.hpp for why this
// file must stay dumb: it is the differential oracle for the
// indexed core, not a place for performance work.
#include "reference_env.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace rlsched::sim {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

ReferenceEnv::ReferenceEnv(int processors, EnvConfig cfg)
    : processors_(processors), cfg_(cfg) {
  free_ = processors;
  if (cfg_.max_observable == 0 || cfg_.max_observable > kMaxObservable) {
    cfg_.max_observable = kMaxObservable;
  }
}

void ReferenceEnv::reset(const std::vector<trace::Job>& jobs) {
  jobs_ = jobs;
  prepare();
}

void ReferenceEnv::begin_episode() {
  free_ = processors_;
  next_arrival_ = 0;
  started_ = 0;
  dead_in_buffer_ = 0;
  sum_bsld_ = sum_sld_ = sum_wait_ = sum_turn_ = 0.0;
  busy_area_ = 0.0;
  now_ = jobs_.empty() ? 0.0 : jobs_.front().submit_time;
  min_submit_ = now_;
  max_end_ = now_;
  arrive_until_now();
  ensure_pending();
}

void ReferenceEnv::prepare() {
  source_ = nullptr;
  drained_ = true;
  const auto by_submit = [](const trace::Job& a, const trace::Job& b) {
    return a.submit_time < b.submit_time;
  };
  if (!std::is_sorted(jobs_.begin(), jobs_.end(), by_submit)) {
    std::stable_sort(jobs_.begin(), jobs_.end(), by_submit);
  }
  const std::size_t n = jobs_.size();
  total_jobs_ = n;
  pending_.clear();
  pending_.reserve(n);
  running_.clear();
  running_.reserve(n);
  shadow_.clear();
  shadow_.reserve(n);

  user_ids_.clear();
  user_ids_.reserve(n);
  for (trace::Job& j : jobs_) {
    j.reset_schedule_state();
    j.requested_procs = std::clamp(j.requested_procs, 1, processors_);
    if (j.requested_time < j.run_time) j.requested_time = j.run_time;
    user_ids_.push_back(j.user);
  }
  std::sort(user_ids_.begin(), user_ids_.end());
  user_ids_.erase(std::unique(user_ids_.begin(), user_ids_.end()),
                  user_ids_.end());
  user_bsld_sum_.reserve(n);
  user_count_.reserve(n);
  user_bsld_sum_.assign(user_ids_.size(), 0.0);
  user_count_.assign(user_ids_.size(), 0);

  begin_episode();
}

void ReferenceEnv::reset(trace::JobSource& source, std::size_t chunk_jobs) {
  source_ = &source;
  chunk_jobs_ = std::max<std::size_t>(1, chunk_jobs);
  drained_ = false;
  total_jobs_ = 0;
  last_ingested_submit_ = -std::numeric_limits<double>::infinity();
  source.rewind();

  jobs_.clear();
  pending_.clear();
  running_.clear();
  shadow_.clear();
  user_ids_.clear();
  user_bsld_sum_.clear();
  user_count_.clear();

  refill();
  begin_episode();
}

bool ReferenceEnv::refill() {
  if (drained_) return false;
  const std::size_t before = jobs_.size();
  const std::size_t got = source_->fetch(chunk_jobs_, jobs_);
  if (got == 0) {
    drained_ = true;
    return false;
  }
  total_jobs_ += got;
  for (std::size_t i = before; i < jobs_.size(); ++i) {
    trace::Job& j = jobs_[i];
    if (j.submit_time < last_ingested_submit_) {
      throw std::runtime_error(
          "JobSource delivered jobs out of submit order");
    }
    last_ingested_submit_ = j.submit_time;
    j.reset_schedule_state();
    j.requested_procs = std::clamp(j.requested_procs, 1, processors_);
    if (j.requested_time < j.run_time) j.requested_time = j.run_time;
  }
  return true;
}

void ReferenceEnv::maybe_compact() {
  if (source_ == nullptr) return;
  if (dead_in_buffer_ < chunk_jobs_ || dead_in_buffer_ * 2 < jobs_.size()) {
    return;
  }
  compact();
}

void ReferenceEnv::compact() {
  remap_.assign(jobs_.size(), 0);
  std::size_t w = 0;
  std::size_t new_next = jobs_.size();
  for (std::size_t r = 0; r < jobs_.size(); ++r) {
    if (r == next_arrival_) new_next = w;
    if (jobs_[r].scheduled()) continue;
    remap_[r] = static_cast<std::uint32_t>(w);
    if (w != r) jobs_[w] = jobs_[r];
    ++w;
  }
  if (next_arrival_ >= jobs_.size()) new_next = w;
  next_arrival_ = new_next;
  for (std::uint32_t& p : pending_) p = remap_[p];
  jobs_.resize(w);
  dead_in_buffer_ = 0;
}

void ReferenceEnv::arrive_until_now() {
  for (;;) {
    while (next_arrival_ < jobs_.size() &&
           jobs_[next_arrival_].submit_time <= now_) {
      pending_.push_back(static_cast<std::uint32_t>(next_arrival_));
      ++next_arrival_;
    }
    if (next_arrival_ < jobs_.size() || drained_) break;
    if (!refill()) break;
  }
}

void ReferenceEnv::advance_one_event() {
  if (next_arrival_ == jobs_.size() && !drained_) {
    refill();
  }
  double t = kInf;
  if (!running_.empty()) t = running_.front().end;
  if (next_arrival_ < jobs_.size()) {
    t = std::min(t, jobs_[next_arrival_].submit_time);
  }
  if (t == kInf) return;
  now_ = std::max(now_, t);
  while (!running_.empty() && running_.front().end <= now_) {
    free_ += running_.front().procs;
    std::pop_heap(running_.begin(), running_.end(), CompletionLater{});
    running_.pop_back();
  }
  arrive_until_now();
}

void ReferenceEnv::ensure_pending() {
  while (pending_.empty() && !done()) advance_one_event();
}

void ReferenceEnv::start_job(std::uint32_t idx) {
  trace::Job& j = jobs_[idx];
  j.start_time = now_;
  free_ -= j.requested_procs;
  running_.push_back({j.end_time(), j.requested_procs});
  std::push_heap(running_.begin(), running_.end(), CompletionLater{});
  ++started_;

  const double wait = j.wait_time();
  const double bsld = bounded_slowdown(wait, j.run_time);
  sum_bsld_ += bsld;
  sum_sld_ += (wait + j.run_time) / std::max(j.run_time, 1.0);
  sum_wait_ += wait;
  sum_turn_ += wait + j.run_time;
  busy_area_ += j.run_time * j.requested_procs;
  max_end_ = std::max(max_end_, j.end_time());

  const auto it =
      std::lower_bound(user_ids_.begin(), user_ids_.end(), j.user);
  const auto ui = static_cast<std::size_t>(it - user_ids_.begin());
  if (it == user_ids_.end() || *it != j.user) {
    user_ids_.insert(it, j.user);
    user_bsld_sum_.insert(user_bsld_sum_.begin() +
                              static_cast<std::ptrdiff_t>(ui), 0.0);
    user_count_.insert(user_count_.begin() +
                           static_cast<std::ptrdiff_t>(ui), 0u);
  }
  user_bsld_sum_[ui] += bsld;
  user_count_[ui] += 1;
  if (source_ != nullptr) ++dead_in_buffer_;
  if (start_hook_ != nullptr) start_hook_(start_hook_ctx_, j);
}

double ReferenceEnv::reservation(int needed, int* spare) {
  // Replay completions in end order over a scratch copy of the heap until
  // `needed` processors are free. Equal end times are accumulated as one
  // group before the crossing test so the result is independent of the
  // unstable sort's permutation of ties (see the header).
  shadow_.assign(running_.begin(), running_.end());
  std::sort(shadow_.begin(), shadow_.end(),
            [](const Completion& a, const Completion& b) {
              return a.end < b.end;
            });
  int f = free_;
  std::size_t i = 0;
  while (i < shadow_.size()) {
    const double e = shadow_[i].end;
    do {
      f += shadow_[i].procs;
      ++i;
    } while (i < shadow_.size() && shadow_[i].end == e);
    if (f >= needed) {
      if (spare != nullptr) *spare = f - needed;
      return e;
    }
  }
  if (spare != nullptr) *spare = std::max(0, f - needed);
  return now_;  // trace requests more than the machine has; start anyway
}

void ReferenceEnv::try_backfill(const trace::Job& head) {
  bool progress = true;
  while (progress && free_ > 0 && !pending_.empty()) {
    progress = false;
    int spare = 0;
    const double t_reserve = reservation(head.requested_procs, &spare);
    for (std::size_t p = 0; p < pending_.size(); ++p) {
      const trace::Job& c = jobs_[pending_[p]];
      if (c.requested_procs > free_) continue;
      const bool fits_window = now_ + c.requested_time <= t_reserve;
      const bool fits_spare = c.requested_procs <= spare;
      if (!fits_window && !fits_spare) continue;
      const std::uint32_t idx = pending_[p];
      pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(p));
      start_job(idx);
      progress = true;
      break;
    }
  }
}

void ReferenceEnv::start_with_wait(std::uint32_t idx) {
  while (free_ < jobs_[idx].requested_procs) {
    if (cfg_.backfill) try_backfill(jobs_[idx]);
    if (free_ >= jobs_[idx].requested_procs) break;
    advance_one_event();
  }
  start_job(idx);
}

bool ReferenceEnv::step(std::size_t action) {
  maybe_compact();
  ensure_pending();
  if (done()) return true;
  const std::size_t window = std::min(pending_.size(), cfg_.max_observable);
  if (action >= window) action = window - 1;
  const std::uint32_t idx = pending_[action];
  pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(action));
  start_with_wait(idx);
  ensure_pending();
  return done();
}

RunResult ReferenceEnv::run_priority(const PriorityFn& priority,
                                     PriorityKind /*kind*/) {
  while (!done()) {
    maybe_compact();
    ensure_pending();
    if (pending_.empty()) break;
    std::size_t best = 0;
    double best_score = priority(jobs_[pending_[0]], now_);
    for (std::size_t p = 1; p < pending_.size(); ++p) {
      const double s = priority(jobs_[pending_[p]], now_);
      if (s < best_score) {
        best_score = s;
        best = p;
      }
    }
    const std::uint32_t idx = pending_[best];
    pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(best));
    start_with_wait(idx);
  }
  return result();
}

std::span<const std::uint32_t> ReferenceEnv::observable() const {
  return {pending_.data(), std::min(pending_.size(), cfg_.max_observable)};
}

RunResult ReferenceEnv::result() const {
  RunResult r;
  r.jobs = started_;
  if (started_ == 0) return r;
  const double n = static_cast<double>(started_);
  r.avg_bounded_slowdown = sum_bsld_ / n;
  r.avg_slowdown = sum_sld_ / n;
  r.avg_wait = sum_wait_ / n;
  r.avg_turnaround = sum_turn_ / n;
  r.makespan = max_end_ - min_submit_;
  r.utilization = r.makespan > 0.0
                      ? busy_area_ / (static_cast<double>(processors_) *
                                      r.makespan)
                      : 0.0;
  double worst = 0.0;
  for (std::size_t u = 0; u < user_ids_.size(); ++u) {
    if (user_count_[u] == 0) continue;
    worst = std::max(worst,
                     user_bsld_sum_[u] / static_cast<double>(user_count_[u]));
  }
  r.max_user_bounded_slowdown = worst;
  return r;
}

}  // namespace rlsched::sim
