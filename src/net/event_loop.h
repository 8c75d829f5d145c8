#ifndef MEDSYNC_NET_EVENT_LOOP_H_
#define MEDSYNC_NET_EVENT_LOOP_H_

#include <cstdint>
#include <functional>
#include <map>
#include <utility>

#include "common/clock.h"
#include "net/scheduler.h"

namespace medsync::net {

/// Single-threaded poll(2) event loop: the wall-clock counterpart of the
/// discrete-event Simulator. Protocol code (`ReliableChannel`, `Peer`,
/// `ChainNode`) sees it only through the `Scheduler` interface; the fd
/// watching below is for the socket transport.
///
/// Everything — fd callbacks and timers — runs on the thread inside Run(),
/// so callbacks never race, exactly like simulator events. Timers wait in
/// the same `TimerQueue` (net/scheduler.h) as simulator events, so equal
/// deadlines fire in scheduling order here too, though wall time itself is
/// not deterministic.
class EventLoop : public Scheduler {
 public:
  /// Bitmask handed to fd callbacks.
  enum : uint32_t {
    kReadable = 1u << 0,
    kWritable = 1u << 1,
    kError = 1u << 2,  // POLLERR/POLLHUP/POLLNVAL: read/write to collect errno
  };
  using FdCallback = std::function<void(uint32_t events)>;

  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Scheduler:
  Micros Now() const override { return clock_.Now(); }
  void Schedule(Micros delay, std::function<void()> fn) override {
    timers_.Push(Now(), delay, std::move(fn));
  }

  /// Registers `fd` (already non-blocking). `cb` fires with the readiness
  /// bitmask. Re-watching an fd replaces its registration.
  void WatchFd(int fd, bool want_read, bool want_write, FdCallback cb);

  /// Adjusts readiness interest for a watched fd; unknown fds are ignored.
  void UpdateFd(int fd, bool want_read, bool want_write);

  /// Unregisters `fd`. Safe to call from inside its own callback; the fd's
  /// pending events this iteration are discarded. Does not close the fd.
  void UnwatchFd(int fd);

  /// One poll iteration: wait up to `max_wait` (clamped by the next timer
  /// deadline), dispatch ready fds, run due timers. Returns the number of
  /// callbacks dispatched (0 = idle wait elapsed).
  size_t RunOnce(Micros max_wait);

  /// Runs until Stop(), or until there is nothing left to wait for (no
  /// watched fds and no pending timers).
  void Run();

  /// Makes Run() return after the current iteration. Callable only from
  /// within loop callbacks (the loop is single-threaded by design).
  void Stop() { stopped_ = true; }
  bool stopped() const { return stopped_; }

  size_t pending_timers() const { return timers_.size(); }
  size_t watched_fds() const { return fds_.size(); }

 private:
  struct Watch {
    bool want_read = false;
    bool want_write = false;
    FdCallback cb;
  };

  size_t RunDueTimers();

  WallClock clock_;
  std::map<int, Watch> fds_;
  TimerQueue timers_;
  bool stopped_ = false;
};

}  // namespace medsync::net

#endif  // MEDSYNC_NET_EVENT_LOOP_H_
