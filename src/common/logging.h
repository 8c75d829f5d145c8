#ifndef MEDSYNC_COMMON_LOGGING_H_
#define MEDSYNC_COMMON_LOGGING_H_

#include <functional>
#include <sstream>
#include <string>
#include <string_view>

namespace medsync {

class Status;

enum class LogLevel : int {
  kTrace = 0,
  kDebug = 1,
  kInfo = 2,
  kWarning = 3,
  kError = 4,
  kOff = 5,
};

std::string_view LogLevelName(LogLevel level);

/// Process-wide logging configuration. Tests and the simulator set a sink to
/// capture protocol traces (the Fig. 5 step-by-step trace is emitted through
/// this); by default messages at >= kWarning go to stderr.
class Logging {
 public:
  using Sink = std::function<void(LogLevel, std::string_view component,
                                  std::string_view message)>;

  static LogLevel threshold();
  static void set_threshold(LogLevel level);

  /// Replaces the output sink. Passing nullptr restores the stderr sink.
  static void set_sink(Sink sink);

  static void Emit(LogLevel level, std::string_view component,
                   std::string_view message);
};

/// Logs a non-OK `status` at kDebug and drops it — the library idiom for
/// best-effort operations (gossip sends, stale-flag upkeep, fire-and-forget
/// responses) whose failure is recovered by a retry/timeout/catch-up layer
/// rather than the caller. Named so every deliberate drop in src/ stays
/// grep-able; tests use IgnoreStatusForTest (status.h) instead. Bare
/// `(void)` status casts are forbidden by medsync-sca.
void LogIfError(const Status& status, std::string_view component,
                std::string_view context);

namespace internal_logging {

/// One log statement; streams into itself and emits on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, std::string_view component)
      : level_(level), component_(component) {}
  ~LogMessage() { Logging::Emit(level_, component_, stream_.str()); }

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::string component_;
  std::ostringstream stream_;
};

struct Voidify {
  void operator&&(const LogMessage&) const {}
};

}  // namespace internal_logging
}  // namespace medsync

/// Usage: MEDSYNC_LOG(kInfo, "chain") << "sealed block " << height;
/// The message is only formatted when the level passes the threshold.
#define MEDSYNC_LOG(level, component)                                \
  (::medsync::LogLevel::level < ::medsync::Logging::threshold())     \
      ? (void)0                                                      \
      : ::medsync::internal_logging::Voidify{} &&                    \
            ::medsync::internal_logging::LogMessage(                 \
                ::medsync::LogLevel::level, (component))

#endif  // MEDSYNC_COMMON_LOGGING_H_
