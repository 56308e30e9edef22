#ifndef QDM_COMMON_STATUS_H_
#define QDM_COMMON_STATUS_H_

#include <ostream>
#include <string>
#include <utility>
#include <variant>

#include "qdm/common/check.h"

namespace qdm {

/// Canonical error space for the qdm library. Mirrors the subset of the
/// absl/Arrow status codes that the toolkit actually needs.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kOutOfRange,
  kNotFound,
  kAlreadyExists,
  kFailedPrecondition,
  kUnimplemented,
  kResourceExhausted,
  kInternal,
  /// The operation was cancelled, typically by the caller (async service
  /// jobs resolve with this code after SolverService::Cancel).
  kCancelled,
  /// The operation's deadline passed before it produced a usable result
  /// (async service jobs with a SubmitOptions deadline resolve with this
  /// code whether the deadline expired while queued or while running).
  kDeadlineExceeded,
};

/// Returns a stable human-readable name for a status code ("InvalidArgument").
const char* StatusCodeToString(StatusCode code);

/// Inverse of StatusCodeToString: resolves a stable code name back into the
/// enumerator (the wire protocol in qdm/net carries codes by name, so a
/// remote Status round-trips exactly). Returns false for unknown names and
/// leaves `code` untouched.
bool StatusCodeFromString(const std::string& name, StatusCode* code);

/// Canonical HTTP response code for each StatusCode — the one mapping every
/// network front end of the toolkit uses (qdm/net), kept next to the
/// taxonomy so the two cannot drift:
///
///   kOk                 -> 200    kUnimplemented      -> 501
///   kInvalidArgument    -> 400    kResourceExhausted  -> 429
///   kOutOfRange         -> 400    kInternal           -> 500
///   kNotFound           -> 404    kCancelled          -> 409
///   kAlreadyExists      -> 409    kDeadlineExceeded   -> 504
///   kFailedPrecondition -> 409
///
/// The HTTP code is presentation only: response bodies carry the exact
/// (code name, message) pair, which is the authoritative Status.
int StatusCodeToHttpStatus(StatusCode code);

/// Result of an operation that can fail. qdm does not use C++ exceptions
/// (per the project style guide); fallible operations return `Status` or
/// `Result<T>` instead. A default-constructed `Status` is OK.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

/// Either a value of type `T` or an error `Status`. Accessing the value of an
/// errored result is a programming error and aborts (QDM_CHECK).
template <typename T>
class Result {
 public:
  /// Implicit construction from a value or from an error status keeps call
  /// sites terse: `return value;` / `return Status::InvalidArgument(...)`.
  Result(T value) : data_(std::move(value)) {}        // NOLINT
  Result(Status status) : data_(std::move(status)) {  // NOLINT
    QDM_CHECK(!std::get<Status>(data_).ok())
        << "Result<T> constructed from OK status without a value";
  }

  bool ok() const { return std::holds_alternative<T>(data_); }

  const Status& status() const {
    static const Status kOk;
    return ok() ? kOk : std::get<Status>(data_);
  }

  const T& value() const& {
    QDM_CHECK(ok()) << "Result::value() on error: " << status().ToString();
    return std::get<T>(data_);
  }
  T& value() & {
    QDM_CHECK(ok()) << "Result::value() on error: " << status().ToString();
    return std::get<T>(data_);
  }
  T&& value() && {
    QDM_CHECK(ok()) << "Result::value() on error: " << status().ToString();
    return std::get<T>(std::move(data_));
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the contained value or `fallback` when errored.
  T value_or(T fallback) const {
    return ok() ? std::get<T>(data_) : std::move(fallback);
  }

 private:
  std::variant<T, Status> data_;
};

/// Evaluates `expr` (a Status expression) and returns it from the enclosing
/// function if it is not OK.
#define QDM_RETURN_IF_ERROR(expr)              \
  do {                                         \
    ::qdm::Status qdm_status_ = (expr);        \
    if (!qdm_status_.ok()) return qdm_status_; \
  } while (false)

/// Evaluates `rexpr` (a Result<T> expression); on error returns the status,
/// otherwise assigns the value to `lhs`.
#define QDM_ASSIGN_OR_RETURN(lhs, rexpr) \
  QDM_ASSIGN_OR_RETURN_IMPL_(QDM_CONCAT_(qdm_result_, __LINE__), lhs, rexpr)

#define QDM_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, rexpr) \
  auto tmp = (rexpr);                               \
  if (!tmp.ok()) return tmp.status();               \
  lhs = std::move(tmp).value()

#define QDM_CONCAT_INNER_(a, b) a##b
#define QDM_CONCAT_(a, b) QDM_CONCAT_INNER_(a, b)

}  // namespace qdm

#endif  // QDM_COMMON_STATUS_H_
