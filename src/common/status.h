#ifndef MEDSYNC_COMMON_STATUS_H_
#define MEDSYNC_COMMON_STATUS_H_

#include <ostream>
#include <string>
#include <string_view>
#include <utility>

namespace medsync {

/// Canonical error codes used across the library. The set mirrors the codes
/// that the architecture actually produces: permission failures come from the
/// metadata contract, conflicts from the mempool ordering rule, corruption
/// from storage/chain integrity checks, and so on.
enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kAlreadyExists = 3,
  kPermissionDenied = 4,
  kFailedPrecondition = 5,
  kConflict = 6,
  kCorruption = 7,
  kUnavailable = 8,
  kTimeout = 9,
  kResourceExhausted = 10,
  kUnimplemented = 11,
  kInternal = 12,
};

/// Returns the canonical lower-case name of `code` (e.g. "permission denied").
std::string_view StatusCodeToString(StatusCode code);

/// A lightweight success-or-error value, following the RocksDB/Arrow idiom:
/// library functions never throw; fallible operations return Status (or
/// Result<T>, see result.h) and callers are expected to check it.
///
/// Status is cheap to copy in the OK case (no allocation) and carries a
/// message only on error.
///
/// The type is [[nodiscard]]: silently dropping an error is a compile error
/// (-Werror=unused-result). A caller that genuinely does not care must say
/// so by name via IgnoreStatusForTest() — grep-able, unlike a (void) cast.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status PermissionDenied(std::string msg) {
    return Status(StatusCode::kPermissionDenied, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Conflict(std::string msg) {
    return Status(StatusCode::kConflict, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status Timeout(std::string msg) {
    return Status(StatusCode::kTimeout, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  bool IsInvalidArgument() const {
    return code_ == StatusCode::kInvalidArgument;
  }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsAlreadyExists() const { return code_ == StatusCode::kAlreadyExists; }
  bool IsPermissionDenied() const {
    return code_ == StatusCode::kPermissionDenied;
  }
  bool IsFailedPrecondition() const {
    return code_ == StatusCode::kFailedPrecondition;
  }
  bool IsConflict() const { return code_ == StatusCode::kConflict; }
  bool IsCorruption() const { return code_ == StatusCode::kCorruption; }
  bool IsUnavailable() const { return code_ == StatusCode::kUnavailable; }
  bool IsTimeout() const { return code_ == StatusCode::kTimeout; }
  bool IsResourceExhausted() const {
    return code_ == StatusCode::kResourceExhausted;
  }
  bool IsUnimplemented() const { return code_ == StatusCode::kUnimplemented; }
  bool IsInternal() const { return code_ == StatusCode::kInternal; }

  /// "OK" or "<code name>: <message>".
  std::string ToString() const;

  /// Returns a copy of this status with `prefix + ": "` prepended to the
  /// message. No-op on OK statuses.
  Status WithPrefix(std::string_view prefix) const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

/// The ONLY sanctioned way to drop a Status or Result<T> on the floor.
/// Tests use it for calls whose outcome is irrelevant to the assertion
/// (e.g. re-adding a duplicate to provoke a later state); library code is
/// expected to handle or propagate instead. Named rather than a bare
/// `(void)` cast so every deliberate discard is grep-able and reviewable
/// (medsync-sca forbids `(void)` status casts for the same reason).
template <typename StatusLike>
inline void IgnoreStatusForTest(const StatusLike&) {}

}  // namespace medsync

/// Evaluates `expr` (a Status expression); returns it from the enclosing
/// function if it is not OK.
#define MEDSYNC_RETURN_IF_ERROR(expr)                    \
  do {                                                   \
    ::medsync::Status _medsync_status = (expr);          \
    if (!_medsync_status.ok()) return _medsync_status;   \
  } while (false)

#endif  // MEDSYNC_COMMON_STATUS_H_
