#pragma once
// Validated environment-variable parsing. Every knob in bench_common.hpp
// flows through here; a typo like RLSCHED_BENCH_EPOCHS=1O must fall back to
// the default (with a warning on stderr), never feed garbage into a
// std::size_t cast.

#include <limits>
#include <string>

namespace rlsched::util {

/// Parse `name` as a long. Returns `fallback` when the variable is unset,
/// empty, not fully numeric, or out of `long` range; clamps the parsed value
/// into [min_value, max_value]. A rejected or clamped value is reported once
/// on stderr so silent misconfiguration cannot skew benchmark results.
long env_long(const char* name, long fallback,
              long min_value = std::numeric_limits<long>::min(),
              long max_value = std::numeric_limits<long>::max());

/// String variable; `fallback` when unset or empty.
std::string env_string(const char* name, const std::string& fallback);

/// Parse `name` as a worker/thread count (RLSCHED_WORKERS). Unset or empty
/// returns `fallback`; garbage, zero, or negative values are REJECTED back
/// to `fallback` with a warning (a thread count of 0 is never meaningful);
/// values above the host's hardware concurrency clamp down to it (when the
/// runtime can report it), so an over-eager RLSCHED_WORKERS=256 cannot
/// oversubscribe a laptop.
std::size_t env_workers(const char* name, std::size_t fallback = 1);

/// Documented ceiling for RLSCHED_BATCH: 256 stacked 128-job windows is
/// already a ~100 KB observation slab per forward — wider batches only add
/// cache pressure, and a runaway value (e.g. RLSCHED_BATCH=1e9 through a
/// scripting bug) must not OOM the bench host.
inline constexpr std::size_t kMaxBatchWindows = 256;

/// Parse `name` as an inference batch width (RLSCHED_BATCH): observation
/// windows scored per batched policy forward. Validated exactly like
/// env_workers: unset or empty returns `fallback`; garbage, zero, or
/// negative values are REJECTED back to `fallback` with a warning (a batch
/// of 0 windows is never meaningful); values above kMaxBatchWindows clamp
/// down to it. Batch width is bitwise-irrelevant to results — it only
/// moves throughput — so misconfiguration can never skew a benchmark, but
/// it is still reported.
std::size_t env_batch(const char* name, std::size_t fallback = 8);

// --- strict string parsers for CLI flags and config-file values ---
//
// Environment knobs above degrade to a default with a warning (an env var
// is ambient — a typo must not abort a bench sweep). A CLI flag or JSON
// config value was ASKED FOR explicitly, so these parsers FAIL instead:
// empty, trailing garbage ("1O", "10k"), out-of-range, zero/negative
// counts — all return false and leave *out untouched. Callers report the
// bad token and exit rather than silently running a different experiment.

/// Strict positive integer count (session counts, batch widths, job
/// counts, ...). The whole string must parse; the value must be >= 1 and,
/// when `max_value` > 0, <= max_value.
bool parse_count(const std::string& text, std::size_t* out,
                 std::size_t max_value = 0);

/// Strict finite double in [min_value, max_value].
bool parse_double(const std::string& text, double* out,
                  double min_value = -1e308, double max_value = 1e308);

}  // namespace rlsched::util
