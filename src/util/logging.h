// Lightweight leveled logging for the GraphBolt library.
//
// Logging is intentionally minimal: a process-wide level, a stream sink
// (stderr by default), and macros that compile to a short-circuited check
// when the level is disabled. Benchmarks raise the level to kWarning so the
// timed region is not polluted by formatting work.
#ifndef SRC_UTIL_LOGGING_H_
#define SRC_UTIL_LOGGING_H_

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

namespace graphbolt {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
  kFatal = 4,
};

// Returns the current process-wide log level.
LogLevel GetLogLevel();

// Sets the process-wide log level. Not thread-safe with concurrent logging;
// call during setup.
void SetLogLevel(LogLevel level);

// Converts a level to its display tag ("DEBUG", "INFO", ...).
const char* LogLevelName(LogLevel level);

// One log statement. Accumulates a message via operator<< and emits it on
// destruction. A kFatal message aborts the process after emitting.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace graphbolt

#define GB_LOG(level)                                                  \
  if (::graphbolt::LogLevel::level < ::graphbolt::GetLogLevel()) {    \
  } else                                                               \
    ::graphbolt::LogMessage(::graphbolt::LogLevel::level, __FILE__, __LINE__)

// Always-on assertion that logs the failed condition and aborts. Used for
// invariants that must hold in release builds (e.g. graph integrity).
#define GB_CHECK(cond)                                                      \
  if (cond) {                                                               \
  } else                                                                    \
    ::graphbolt::LogMessage(::graphbolt::LogLevel::kFatal, __FILE__,        \
                            __LINE__)                                       \
        << "Check failed: " #cond " "

// Debug-only assertion: compiles to GB_CHECK in debug builds and to nothing
// (condition not evaluated) when NDEBUG is set. Used for contract violations
// that are programming errors, not data errors — e.g. calling
// TaskArena::SetNumThreads from inside a parallel region.
#ifdef NDEBUG
#define GB_DCHECK(cond) \
  if (true) {           \
  } else                \
    ::graphbolt::LogMessage(::graphbolt::LogLevel::kFatal, __FILE__, __LINE__)
#else
#define GB_DCHECK(cond) GB_CHECK(cond)
#endif

#endif  // SRC_UTIL_LOGGING_H_
