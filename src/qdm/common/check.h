#ifndef QDM_COMMON_CHECK_H_
#define QDM_COMMON_CHECK_H_

#include <cstdlib>
#include <iostream>
#include <sstream>

namespace qdm {
namespace internal_check {

/// Accumulates a failure message and aborts the process when destroyed.
/// Used only via the QDM_CHECK macros below; invariant violations are
/// programming errors, not recoverable conditions (see Status for those).
class CheckFailure {
 public:
  CheckFailure(const char* file, int line, const char* condition) {
    stream_ << "QDM_CHECK failed at " << file << ":" << line << ": "
            << condition;
  }
  [[noreturn]] ~CheckFailure() {
    std::cerr << stream_.str() << std::endl;
    std::abort();
  }

  template <typename T>
  CheckFailure& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  std::ostringstream stream_;
};

/// Swallows streamed operands of a disabled check at zero cost.
struct NullStream {
  template <typename T>
  NullStream& operator<<(const T&) {
    return *this;
  }
};

}  // namespace internal_check
}  // namespace qdm

/// Aborts with a diagnostic if `condition` is false. Additional context can
/// be streamed: `QDM_CHECK(i < n) << "i=" << i;`
#define QDM_CHECK(condition) \
  if (condition) {           \
  } else /* NOLINT */        \
    ::qdm::internal_check::CheckFailure(__FILE__, __LINE__, #condition)

#define QDM_CHECK_EQ(a, b) QDM_CHECK((a) == (b))
#define QDM_CHECK_NE(a, b) QDM_CHECK((a) != (b))
#define QDM_CHECK_LT(a, b) QDM_CHECK((a) < (b))
#define QDM_CHECK_LE(a, b) QDM_CHECK((a) <= (b))
#define QDM_CHECK_GT(a, b) QDM_CHECK((a) > (b))
#define QDM_CHECK_GE(a, b) QDM_CHECK((a) >= (b))

#ifdef NDEBUG
#define QDM_DCHECK(condition) \
  if (true) {                 \
  } else /* NOLINT */         \
    ::qdm::internal_check::NullStream()
#else
#define QDM_DCHECK(condition) QDM_CHECK(condition)
#endif

#endif  // QDM_COMMON_CHECK_H_
