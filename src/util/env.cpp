#include "util/env.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <thread>

namespace rlsched::util {

namespace {

const char* raw(const char* name) {
  const char* v = std::getenv(name);
  return (v != nullptr && v[0] != '\0') ? v : nullptr;
}

void warn(const char* name, const char* value, const char* reason) {
  std::fprintf(stderr, "rlsched: ignoring %s=\"%s\" (%s)\n", name, value,
               reason);
}

}  // namespace

long env_long(const char* name, long fallback, long min_value,
              long max_value) {
  const char* v = raw(name);
  if (v == nullptr) return fallback;
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(v, &end, 10);
  if (end == v || *end != '\0') {
    warn(name, v, "not an integer, using default");
    return fallback;
  }
  if (errno == ERANGE) {
    warn(name, v, "out of range, using default");
    return fallback;
  }
  if (parsed < min_value) {
    warn(name, v, "below minimum, clamping");
    return min_value;
  }
  if (parsed > max_value) {
    warn(name, v, "above maximum, clamping");
    return max_value;
  }
  return parsed;
}

std::string env_string(const char* name, const std::string& fallback) {
  const char* v = raw(name);
  return v != nullptr ? std::string(v) : fallback;
}

namespace {

/// Shared contract of the count-shaped knobs (RLSCHED_WORKERS,
/// RLSCHED_BATCH): unset/empty -> fallback; garbage, zero, and negative
/// REJECTED back to fallback (a count of 0 is never meaningful — a
/// scripting bug must surface, not silently degrade); values above
/// `max_value` clamp down to it (0 = no ceiling). The reason strings keep
/// the warnings as specific as the hand-rolled versions were.
std::size_t positive_count(const char* name, std::size_t fallback,
                           std::size_t max_value, const char* parse_reason,
                           const char* zero_reason,
                           const char* clamp_reason) {
  const char* v = raw(name);
  if (v == nullptr) return fallback;
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(v, &end, 10);
  if (end == v || *end != '\0' || errno == ERANGE) {
    warn(name, v, parse_reason);
    return fallback;
  }
  if (parsed <= 0) {
    warn(name, v, zero_reason);
    return fallback;
  }
  if (max_value > 0 && static_cast<unsigned long>(parsed) > max_value) {
    warn(name, v, clamp_reason);
    return max_value;
  }
  return static_cast<std::size_t>(parsed);
}

}  // namespace

std::size_t env_workers(const char* name, std::size_t fallback) {
  const unsigned hw = std::thread::hardware_concurrency();
  return positive_count(name, fallback, hw,
                        "not a worker count, using default",
                        "worker count must be >= 1, using default",
                        "above hardware concurrency, clamping");
}

std::size_t env_batch(const char* name, std::size_t fallback) {
  return positive_count(name, fallback, kMaxBatchWindows,
                        "not a batch width, using default",
                        "batch width must be >= 1, using default",
                        "above max batch windows, clamping");
}

bool parse_count(const std::string& text, std::size_t* out,
                 std::size_t max_value) {
  if (text.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE) return false;
  if (parsed <= 0) return false;
  if (max_value > 0 && static_cast<unsigned long>(parsed) > max_value) {
    return false;
  }
  *out = static_cast<std::size_t>(parsed);
  return true;
}

bool parse_double(const std::string& text, double* out, double min_value,
                  double max_value) {
  if (text.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE) return false;
  if (!(parsed >= min_value && parsed <= max_value)) return false;  // NaN too
  *out = parsed;
  return true;
}

}  // namespace rlsched::util
