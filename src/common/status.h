#ifndef SCODED_COMMON_STATUS_H_
#define SCODED_COMMON_STATUS_H_

#include <ostream>
#include <string>
#include <string_view>
#include <utility>

namespace scoded {

/// Canonical error codes, modelled on the usual RPC code set but trimmed to
/// what a statistics/data-cleaning library needs.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kOutOfRange = 3,
  kFailedPrecondition = 4,
  kUnimplemented = 5,
  kInternal = 6,
  kAlreadyExists = 7,
  kDataLoss = 8,
  kDeadlineExceeded = 9,
  kResourceExhausted = 10,
  kUnavailable = 11,
};

/// Returns a stable, human-readable name for `code` (e.g. "InvalidArgument").
std::string_view StatusCodeToString(StatusCode code);

/// Reverse of StatusCodeToString for the error codes, used to rebuild a
/// peer's Status from a wire error envelope. Unknown names (a newer peer?)
/// and "OK" decode to kInternal, so an error envelope never reads as
/// success.
StatusCode StatusCodeFromString(std::string_view name);

/// A `Status` carries either success (`ok()`) or an error code plus a
/// human-readable message. The library does not throw exceptions; fallible
/// operations return `Status` or `Result<T>`.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  /// Constructs a status with the given code and message. A `kOk` code with
  /// a non-empty message is normalised to a plain OK status.
  Status(StatusCode code, std::string message)
      : code_(code), message_(code == StatusCode::kOk ? std::string() : std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Renders as "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

/// Thread-safe replacement for `strerror(errno)`: renders `errno_value`
/// via strerror_r (coping with both the XSI and the GNU variant), never
/// touching the shared static buffer that strerror(3) may hand out.
std::string ErrnoMessage(int errno_value);

/// Convenience factories mirroring the code enum.
Status OkStatus();
Status InvalidArgumentError(std::string message);
Status NotFoundError(std::string message);
Status OutOfRangeError(std::string message);
Status FailedPreconditionError(std::string message);
Status UnimplementedError(std::string message);
Status InternalError(std::string message);
Status AlreadyExistsError(std::string message);
Status DataLossError(std::string message);
Status DeadlineExceededError(std::string message);
Status ResourceExhaustedError(std::string message);
Status UnavailableError(std::string message);

}  // namespace scoded

/// Evaluates `expr` (a Status-returning expression) and returns it from the
/// enclosing function if it is not OK.
#define SCODED_RETURN_IF_ERROR(expr)                \
  do {                                              \
    ::scoded::Status scoded_status_tmp_ = (expr);   \
    if (!scoded_status_tmp_.ok()) {                 \
      return scoded_status_tmp_;                    \
    }                                               \
  } while (false)

#endif  // SCODED_COMMON_STATUS_H_
