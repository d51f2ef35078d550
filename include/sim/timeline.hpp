#pragma once
// Incremental completion timeline — the running set of the simulator kept
// permanently ordered by completion time, with a cached free-capacity
// prefix, so an EASY reservation is an O(log R) lookup instead of the
// seed's copy-whole-heap-and-sort per backfill pass.
//
// Representation: a slab vector sorted by end time. Completions are
// consumed from the front as simulation time advances (`head_` marks the
// live region; the dead prefix is recycled by amortized compaction, the
// same discipline as SchedulingEnv::maybe_compact()). A job start is a
// binary-search insert — O(live) memmove worst case, but the live size R
// is bounded by the PROCESSOR count (every running job holds >= 1 proc),
// never by the backlog, so this is small and cache-linear where the heap
// it replaces was O(log R) with pointer-chasing pops.
//
// The prefix cache `prefix_[i]` holds the cumulative processor count of
// slab entries [0, i] measured from the slab origin, so popping the front
// invalidates NOTHING (popped procs are tracked in `popped_`); only an
// insert (job start) or a compaction invalidates, and only from the insert
// position on (`valid_` watermark). reservation() repairs the prefix
// lazily and then answers by binary search: O(log R) plus O(positions
// repaired), exactly the "O(log R) lookup plus O(positions advanced)"
// contract.
//
// Determinism: reservation() accumulates equal-end-time completions as one
// GROUP before testing the capacity crossing — order-free semantics shared
// bitwise with the naive seed core's reservation scan
// (tests/test_sched_core_equiv.cpp).
//
// Allocation contract: reset(expected) reserves for `expected` inserts;
// a materialized episode performs zero heap allocation afterwards (the
// slab length never exceeds the number of inserts). Streaming episodes may
// grow the slab amortized, matching the env's streaming contract.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace rlsched::sim {

class Timeline {
 public:
  struct Completion {
    double end;
    std::int32_t procs;
  };

  /// Drop all completions and reserve capacity for `expected` inserts.
  /// Capacity is retained across resets (warm envs stop allocating).
  void reset(std::size_t expected);

  bool empty() const { return head_ == items_.size(); }
  std::size_t size() const { return items_.size() - head_; }

  /// Earliest pending completion time. Precondition: !empty().
  double next_end() const { return items_[head_].end; }

  /// Record a started job completing at `end` and releasing `procs`.
  void insert(double end, std::int32_t procs);

  /// Retire every completion with end <= t; returns the processors freed.
  int pop_until(double t);

  /// Earliest completion time at which `free_now` plus retired processors
  /// reaches `needed`, with *spare = (total free at that time) - needed,
  /// equal-end completions accumulated as one group. Falls back to `now`
  /// (spare = max(0, total - needed)) if capacity never reaches `needed` —
  /// unreachable when requests are clamped to the machine size, kept for
  /// bitwise parity with the reference core.
  double reservation(int free_now, int needed, double now, int* spare);

  /// The live running set, sorted by end time (length == size(), bounded by
  /// the processor count). Read-only snapshot for window extraction — the
  /// exact solver builds its free-capacity staircase from it. Valid until
  /// the next insert/pop/reset.
  std::span<const Completion> live() const {
    return {items_.data() + head_, items_.size() - head_};
  }

 private:
  void maybe_compact();
  /// Extend the prefix cache through index `i` (slab coordinates).
  void repair_to(std::size_t i);

  std::vector<Completion> items_;     ///< [head_, size) live, sorted by end
  std::vector<std::int64_t> prefix_;  ///< cumulative procs from slab origin
  std::size_t head_ = 0;              ///< first live slab index
  std::size_t valid_ = 0;             ///< prefix_ valid for [0, valid_)
  std::int64_t popped_ = 0;           ///< total procs of retired entries
};

}  // namespace rlsched::sim
