#ifndef MEDSYNC_COMMON_CLOCK_H_
#define MEDSYNC_COMMON_CLOCK_H_

#include <cstdint>
#include <string>

namespace medsync {

/// Microseconds since the (simulated or real) epoch.
using Micros = int64_t;

constexpr Micros kMicrosPerMilli = 1000;
constexpr Micros kMicrosPerSecond = 1000 * 1000;

/// Formats a microsecond timestamp as "YYYY-MM-DD hh:mm:ss.mmm" (UTC),
/// matching the "Last Update Time" column of the paper's Fig. 3 metadata.
std::string FormatTimestamp(Micros micros);

/// Time source abstraction. Production-style code would use a wall clock;
/// the whole reproduction runs against SimClock so every experiment is
/// deterministic and block intervals/network latencies are simulated time,
/// not real time.
class Clock {
 public:
  virtual ~Clock() = default;
  virtual Micros Now() const = 0;
};

/// A manually advanced clock owned by the discrete-event simulator.
class SimClock : public Clock {
 public:
  /// `epoch` is the starting time; defaults to 2019-01-01T00:00:00Z to give
  /// human-looking timestamps in traces.
  explicit SimClock(Micros epoch = kDefaultEpoch) : now_(epoch) {}

  Micros Now() const override { return now_; }

  /// Moves time forward by `delta` (must be >= 0).
  void Advance(Micros delta);

  /// Jumps to an absolute time (must not go backwards).
  void AdvanceTo(Micros when);

  static constexpr Micros kDefaultEpoch =
      1546300800LL * kMicrosPerSecond;  // 2019-01-01T00:00:00Z

 private:
  Micros now_;
};

/// The real wall clock (CLOCK_REALTIME), for the deployment plane only:
/// the socket transport's EventLoop stamps timers and blocks with it.
/// Deterministic tests and benches must keep using SimClock — medsync-sca
/// MS002 confines the underlying syscall to this translation unit.
class WallClock : public Clock {
 public:
  Micros Now() const override;
};

}  // namespace medsync

#endif  // MEDSYNC_COMMON_CLOCK_H_
