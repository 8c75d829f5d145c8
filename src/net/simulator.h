#ifndef MEDSYNC_NET_SIMULATOR_H_
#define MEDSYNC_NET_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <vector>

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
/// Events at equal timestamps fire in scheduling order (FIFO tie-break).
/// Dispatch moves each event out of the queue, so a scheduled callable and
/// whatever it captured (a whole network message, say) is never copied.
class Simulator : public Scheduler {
 public:
  explicit Simulator(Micros epoch = SimClock::kDefaultEpoch)
      : clock_(epoch) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Micros Now() const override { return clock_.Now(); }
  const SimClock& clock() const { return clock_; }

  /// Schedules `fn` to run `delay` from now (delay < 0 is clamped to 0).
  void Schedule(Micros delay, std::function<void()> fn) override;

  /// Schedules `fn` at absolute time `when` (clamped to now).
  void ScheduleAt(Micros when, std::function<void()> fn);

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
  struct Event {
    Micros when;
    uint64_t seq;
    std::function<void()> fn;
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  SimClock clock_;
  /// A binary heap under EventLater (std::push_heap/std::pop_heap), so the
  /// earliest event can be moved out; std::priority_queue only exposes it
  /// as a const reference.
  std::vector<Event> queue_;
  uint64_t next_seq_ = 0;
  uint64_t executed_ = 0;
};

}  // namespace medsync::net

#endif  // MEDSYNC_NET_SIMULATOR_H_
