#ifndef MEDSYNC_NET_SCHEDULER_H_
#define MEDSYNC_NET_SCHEDULER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/clock.h"

namespace medsync::net {

/// Timer/clock seam between protocol code and its execution plane.
///
/// `ReliableChannel`, `Peer`, and `ChainNode` only ever need "what time is
/// it" and "run this closure after a delay". Expressing that as an
/// interface lets the same protocol objects run unmodified over the
/// discrete-event `Simulator` (deterministic tests, simulated time) or the
/// epoll/poll `EventLoop` (deployment, wall-clock time). Both planes are
/// single-threaded: callbacks never race each other.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Microseconds since the plane's epoch (simulated or wall clock).
  virtual Micros Now() const = 0;

  /// Runs `fn` once, `delay` from now (delay < 0 is clamped to 0).
  virtual void Schedule(Micros delay, std::function<void()> fn) = 0;
};

/// The pending callbacks of one plane, earliest deadline first. Both
/// `Simulator` and `EventLoop` keep their timers here, so both dispatch in
/// the same order: callbacks with equal deadlines run in the order they
/// were pushed (FIFO tie-break). Pop moves a callback out rather than
/// copying it, so neither the callable nor what it captured (a whole
/// network message, say) is copied on dispatch.
class TimerQueue {
 public:
  struct Due {
    Micros when;
    std::function<void()> fn;
  };

  /// Queues `fn` for `now + delay`; a negative delay is clamped to now.
  void Push(Micros now, Micros delay, std::function<void()> fn);

  /// Removes and returns the earliest callback. The queue must not be
  /// empty.
  Due Pop();

  /// The earliest deadline. The queue must not be empty.
  Micros next() const { return heap_.front().when; }

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

 private:
  struct Entry {
    Micros when;
    uint64_t seq;
    std::function<void()> fn;
  };
  /// Heap order for std::push_heap/std::pop_heap: (when, seq) ascending.
  /// A plain vector rather than std::priority_queue, whose top() is const
  /// and so cannot be moved out of.
  static bool Later(const Entry& a, const Entry& b) {
    if (a.when != b.when) return a.when > b.when;
    return a.seq > b.seq;
  }

  std::vector<Entry> heap_;
  uint64_t next_seq_ = 0;
};

}  // namespace medsync::net

#endif  // MEDSYNC_NET_SCHEDULER_H_
