#pragma once
// Status-based error model for the public API (core::RLScheduler's request
// entry point and the serve:: daemon speak the same vocabulary). Entry
// points return a Status (or StatusOr<T>) instead of throwing from
// arbitrary depth, so in-process callers and the daemon's wire protocol
// share one enumerable error surface.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>

namespace rlsched::core {

enum class StatusCode : std::uint8_t {
  kOk = 0,
  kInvalidArgument,     ///< malformed request (bad source combination, ...)
  kNotFound,            ///< unknown session / policy / request id
  kFailedPrecondition,  ///< valid request in the wrong state (no dispatcher)
  kResourceExhausted,   ///< session table full
  kUnavailable,         ///< result not ready yet — poll again
  kCancelled,           ///< session destroyed while the request was queued
  kInternal,            ///< engine invariant violation (bug, not bad input)
  kDeadlineExceeded,    ///< request deadline expired before completion
  kAborted,             ///< gave up after retries (client-side terminal)
};

/// Largest defined StatusCode — the wire decoder's bounds check. Update in
/// lockstep when a new enumerator is appended.
inline constexpr StatusCode kMaxStatusCode = StatusCode::kAborted;

const char* status_code_name(StatusCode code);

class Status {
 public:
  Status() = default;  ///< OK
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string to_string() const {
    if (ok()) return "OK";
    std::string s = status_code_name(code_);
    if (!message_.empty()) {
      s += ": ";
      s += message_;
    }
    return s;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// Either a value or a non-OK Status — never both, never neither.
/// value() on an error aborts with the status text (same fatal-check
/// discipline as the tier-1 test macros); check ok() first on fallible
/// paths.
template <typename T>
class StatusOr {
 public:
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT(implicit)
    if (status_.ok()) {
      std::fprintf(stderr,
                   "rlsched: StatusOr constructed from OK status without a "
                   "value\n");
      std::abort();
    }
  }
  StatusOr(T value)  // NOLINT(implicit)
      : value_(std::move(value)) {}

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  T& value() & { return checked(); }
  const T& value() const& { return const_cast<StatusOr*>(this)->checked(); }
  T&& value() && { return std::move(checked()); }

  T* operator->() { return &checked(); }
  const T* operator->() const { return &const_cast<StatusOr*>(this)->checked(); }

 private:
  T& checked() {
    if (!value_.has_value()) {
      std::fprintf(stderr, "rlsched: StatusOr::value() on error status %s\n",
                   status_.to_string().c_str());
      std::abort();
    }
    return *value_;
  }

  Status status_;
  std::optional<T> value_;
};

}  // namespace rlsched::core
