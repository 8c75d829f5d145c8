#ifndef MEDSYNC_NET_SIMULATOR_H_
#define MEDSYNC_NET_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <utility>

#include "common/clock.h"
#include "net/scheduler.h"

namespace medsync::net {

/// A single-threaded discrete-event scheduler driving a SimClock.
///
/// Everything time-dependent in the reproduction — message delivery,
/// block-sealing intervals, peer timeouts — runs as events here, so a whole
/// multi-node experiment executes deterministically in one process and
/// "12-second Ethereum blocks" (Section IV-1 of the paper) cost simulated,
/// not real, seconds. The wall-clock counterpart is `EventLoop`
/// (net/event_loop.h); both serve protocol code through the `Scheduler`
/// interface.
///
/// Events wait in a `TimerQueue` (net/scheduler.h), the same queue the
/// event loop uses: equal timestamps fire in scheduling order, and
/// dispatch moves each callback out instead of copying it.
class Simulator : public Scheduler {
 public:
  explicit Simulator(Micros epoch = SimClock::kDefaultEpoch)
      : clock_(epoch) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Micros Now() const override { return clock_.Now(); }

  /// Schedules `fn` to run `delay` from now (delay < 0 is clamped to 0).
  void Schedule(Micros delay, std::function<void()> fn) override {
    queue_.Push(clock_.Now(), delay, std::move(fn));
  }

  /// Runs events until the queue drains. Returns the number executed.
  size_t Run();

  /// Runs events with timestamp <= `when`, then advances the clock to
  /// `when` even if idle. Returns the number executed.
  size_t RunUntil(Micros when);

  /// RunUntil(Now() + duration).
  size_t RunFor(Micros duration);

  /// Executes at most one pending event. Returns false if idle.
  bool Step();

  size_t pending() const { return queue_.size(); }
  bool idle() const { return queue_.empty(); }

  /// Total events executed since construction.
  uint64_t events_executed() const { return executed_; }

 private:
  SimClock clock_;
  TimerQueue queue_;
  uint64_t executed_ = 0;
};

}  // namespace medsync::net

#endif  // MEDSYNC_NET_SIMULATOR_H_
