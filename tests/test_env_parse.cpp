// Environment-variable parsing must be validated: garbage falls back to the
// default, out-of-range values clamp, and good values parse exactly.
#include <algorithm>
#include <cstdlib>
#include <thread>

#include "core/api.hpp"
#include "test_util.hpp"
#include "util/env.hpp"

namespace {
void put(const char* name, const char* value) { setenv(name, value, 1); }
}  // namespace

int main() {
  using rlsched::util::env_long;
  using rlsched::util::env_string;

  // Unset -> default.
  unsetenv("RLSCHED_TEST_VAR");
  CHECK(env_long("RLSCHED_TEST_VAR", 42) == 42);
  CHECK(env_string("RLSCHED_TEST_VAR", "dflt") == "dflt");

  // Clean parses.
  put("RLSCHED_TEST_VAR", "17");
  CHECK(env_long("RLSCHED_TEST_VAR", 42) == 17);
  put("RLSCHED_TEST_VAR", "-3");
  CHECK(env_long("RLSCHED_TEST_VAR", 42) == -3);

  // Garbage must fall back to the default, not be consumed partially
  // (the classic "1O" typo) or as UB.
  put("RLSCHED_TEST_VAR", "1O");
  CHECK(env_long("RLSCHED_TEST_VAR", 42) == 42);
  put("RLSCHED_TEST_VAR", "abc");
  CHECK(env_long("RLSCHED_TEST_VAR", 42) == 42);
  put("RLSCHED_TEST_VAR", "12.5");
  CHECK(env_long("RLSCHED_TEST_VAR", 42) == 42);
  put("RLSCHED_TEST_VAR", "");
  CHECK(env_long("RLSCHED_TEST_VAR", 42) == 42);
  put("RLSCHED_TEST_VAR", "99999999999999999999999999");
  CHECK(env_long("RLSCHED_TEST_VAR", 42) == 42);

  // Clamping: a size_t-destined knob must never go negative.
  put("RLSCHED_TEST_VAR", "-7");
  CHECK(env_long("RLSCHED_TEST_VAR", 42, 0) == 0);
  put("RLSCHED_TEST_VAR", "1000000");
  CHECK(env_long("RLSCHED_TEST_VAR", 42, 0, 100) == 100);

  // Strings pass through untouched.
  put("RLSCHED_TEST_VAR", "model_dir/x");
  CHECK(env_string("RLSCHED_TEST_VAR", "dflt") == "model_dir/x");

  // Worker counts (RLSCHED_WORKERS): unset -> fallback.
  using rlsched::util::env_workers;
  unsetenv("RLSCHED_TEST_VAR");
  CHECK(env_workers("RLSCHED_TEST_VAR", 3) == 3);

  // Garbage, zero, and negative are REJECTED back to the fallback — a
  // thread count of 0 must never be "clamped up" into silently running.
  put("RLSCHED_TEST_VAR", "0");
  CHECK(env_workers("RLSCHED_TEST_VAR", 3) == 3);
  put("RLSCHED_TEST_VAR", "-4");
  CHECK(env_workers("RLSCHED_TEST_VAR", 3) == 3);
  put("RLSCHED_TEST_VAR", "abc");
  CHECK(env_workers("RLSCHED_TEST_VAR", 3) == 3);
  put("RLSCHED_TEST_VAR", "4x");
  CHECK(env_workers("RLSCHED_TEST_VAR", 3) == 3);
  put("RLSCHED_TEST_VAR", "");
  CHECK(env_workers("RLSCHED_TEST_VAR", 3) == 3);

  // Valid counts parse, but never exceed the host's hardware concurrency
  // (when the runtime can report it).
  const std::size_t hw = std::thread::hardware_concurrency();
  put("RLSCHED_TEST_VAR", "2");
  CHECK(env_workers("RLSCHED_TEST_VAR", 1) ==
        (hw > 0 ? std::min<std::size_t>(2, hw) : 2));
  put("RLSCHED_TEST_VAR", "1000000");
  if (hw > 0) {
    CHECK(env_workers("RLSCHED_TEST_VAR", 1) == hw);
  }
  put("RLSCHED_TEST_VAR", "1");
  CHECK(env_workers("RLSCHED_TEST_VAR", 8) == 1);

  // Batch widths (RLSCHED_BATCH): same contract as worker counts — unset
  // -> fallback; garbage, zero, negative REJECTED; clamped to the
  // documented max instead of hardware concurrency.
  using rlsched::util::env_batch;
  using rlsched::util::kMaxBatchWindows;
  unsetenv("RLSCHED_TEST_VAR");
  CHECK(env_batch("RLSCHED_TEST_VAR", 8) == 8);
  put("RLSCHED_TEST_VAR", "0");
  CHECK(env_batch("RLSCHED_TEST_VAR", 8) == 8);
  put("RLSCHED_TEST_VAR", "-16");
  CHECK(env_batch("RLSCHED_TEST_VAR", 8) == 8);
  put("RLSCHED_TEST_VAR", "abc");
  CHECK(env_batch("RLSCHED_TEST_VAR", 8) == 8);
  put("RLSCHED_TEST_VAR", "8x");
  CHECK(env_batch("RLSCHED_TEST_VAR", 8) == 8);
  put("RLSCHED_TEST_VAR", "");
  CHECK(env_batch("RLSCHED_TEST_VAR", 8) == 8);
  put("RLSCHED_TEST_VAR", "32");
  CHECK(env_batch("RLSCHED_TEST_VAR", 8) == 32);
  put("RLSCHED_TEST_VAR", "1");
  CHECK(env_batch("RLSCHED_TEST_VAR", 8) == 1);
  put("RLSCHED_TEST_VAR", "999999999");
  CHECK(env_batch("RLSCHED_TEST_VAR", 8) == kMaxBatchWindows);

  // RuntimeConfig: the ONE place RLSCHED_WORKERS / RLSCHED_BATCH parsing
  // and the explicit > env > default precedence chain live, shared by
  // RLSchedulerConfig and the serve daemon.
  using rlsched::core::RuntimeConfig;

  // Unset env, unset fields -> built-in defaults.
  unsetenv("RLSCHED_WORKERS");
  unsetenv("RLSCHED_BATCH");
  RuntimeConfig rc;
  CHECK(rc.workers == 0 && rc.batch == 0);  // 0 = defer
  CHECK(rc.resolved().workers == RuntimeConfig::kDefaultWorkers);
  CHECK(rc.resolved().batch == RuntimeConfig::kDefaultBatch);

  // Env set, fields unset -> env wins (through the validated parsers).
  put("RLSCHED_WORKERS", "2");
  put("RLSCHED_BATCH", "32");
  CHECK(RuntimeConfig::from_env().workers ==
        (hw > 0 ? std::min<std::size_t>(2, hw) : 2));
  CHECK(RuntimeConfig::from_env().batch == 32);
  CHECK(rc.resolved().workers == RuntimeConfig::from_env().workers);
  CHECK(rc.resolved().batch == 32);

  // Explicit fields beat the env.
  RuntimeConfig explicit_rc;
  explicit_rc.workers = 1;
  explicit_rc.batch = 4;
  CHECK(explicit_rc.resolved().workers == 1);
  CHECK(explicit_rc.resolved().batch == 4);

  // Mixed: one explicit field, the other deferred.
  RuntimeConfig mixed;
  mixed.batch = 16;
  CHECK(mixed.resolved().workers == RuntimeConfig::from_env().workers);
  CHECK(mixed.resolved().batch == 16);

  // Garbage env falls back to the built-in default, not to garbage.
  put("RLSCHED_WORKERS", "abc");
  put("RLSCHED_BATCH", "-1");
  CHECK(RuntimeConfig::from_env().workers == RuntimeConfig::kDefaultWorkers);
  CHECK(RuntimeConfig::from_env().batch == RuntimeConfig::kDefaultBatch);

  unsetenv("RLSCHED_WORKERS");
  unsetenv("RLSCHED_BATCH");

  // Strict CLI/config parsers: unlike the env knobs, these FAIL on bad
  // input (return false, leave *out untouched) — an explicitly passed
  // flag must never be silently replaced by a default.
  using rlsched::util::parse_count;
  using rlsched::util::parse_double;
  {
    std::size_t n = 999;
    CHECK(parse_count("1", &n) && n == 1);
    CHECK(parse_count("100000", &n) && n == 100000);
    n = 999;
    CHECK(!parse_count("0", &n));      // zero count rejected
    CHECK(!parse_count("-5", &n));     // negative rejected
    CHECK(!parse_count("", &n));       // empty rejected
    CHECK(!parse_count("1O", &n));     // trailing garbage rejected
    CHECK(!parse_count("10k", &n));
    CHECK(!parse_count("abc", &n));
    CHECK(!parse_count("3.5", &n));    // not an integer
    CHECK(!parse_count(" 7 ", &n));    // embedded whitespace after digits
    CHECK(!parse_count("99999999999999999999", &n));  // out of range
    CHECK(n == 999);                   // failures never wrote through
    CHECK(parse_count("8", &n, 16) && n == 8);
    CHECK(!parse_count("17", &n, 16));  // ceiling REJECTS, never clamps
  }
  {
    double d = -1.0;
    CHECK(parse_double("2.5", &d) && d == 2.5);
    CHECK(parse_double("-0.75", &d) && d == -0.75);
    CHECK(parse_double("1e3", &d) && d == 1000.0);
    d = -1.0;
    CHECK(!parse_double("", &d));
    CHECK(!parse_double("x", &d));
    CHECK(!parse_double("2.5x", &d));
    CHECK(!parse_double("nan", &d));         // NaN fails the range check
    CHECK(!parse_double("inf", &d));         // outside any finite range
    CHECK(!parse_double("1e400", &d));       // overflow
    CHECK(d == -1.0);
    CHECK(parse_double("0.5", &d, 0.0, 1.0) && d == 0.5);
    CHECK(!parse_double("1.5", &d, 0.0, 1.0));  // above max fails
    CHECK(!parse_double("-0.1", &d, 0.0, 1.0));
  }

  std::puts("env parsing: OK");
  return 0;
}
