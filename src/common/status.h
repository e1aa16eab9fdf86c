// Error propagation for user-facing input (SQL text, model files, API
// arguments). Internal invariants use QPP_CHECK instead (see check.h).
#pragma once

#include <optional>
#include <string>
#include <utility>

#include "common/check.h"

namespace qpp {

/// A success-or-message status. Cheap to copy on success.
class Status {
 public:
  Status() = default;

  static Status Ok() { return Status(); }
  static Status Error(std::string message) {
    Status s;
    s.error_ = true;
    s.message_ = std::move(message);
    return s;
  }

  bool ok() const { return !error_; }
  /// Empty on success.
  const std::string& message() const { return message_; }

 private:
  bool error_ = false;
  std::string message_;
};

/// A value-or-error result. `value()` asserts success.
template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}          // NOLINT(runtime/explicit)
  Result(Status status) : status_(std::move(status)) {   // NOLINT(runtime/explicit)
    QPP_CHECK_MSG(!status_.ok(), "Result constructed from OK status");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    QPP_CHECK_MSG(ok(), "value() on error Result: " << status_.message());
    return *value_;
  }
  T& value() & {
    QPP_CHECK_MSG(ok(), "value() on error Result: " << status_.message());
    return *value_;
  }
  T&& value() && {
    QPP_CHECK_MSG(ok(), "value() on error Result: " << status_.message());
    return std::move(*value_);
  }

 private:
  std::optional<T> value_;
  Status status_;
};

}  // namespace qpp
