#include "net/event_loop.h"

#include <poll.h>

#include <algorithm>
#include <vector>

namespace medsync::net {

void EventLoop::WatchFd(int fd, bool want_read, bool want_write,
                        FdCallback cb) {
  fds_[fd] = Watch{want_read, want_write, std::move(cb)};
}

void EventLoop::UpdateFd(int fd, bool want_read, bool want_write) {
  auto it = fds_.find(fd);
  if (it == fds_.end()) return;
  it->second.want_read = want_read;
  it->second.want_write = want_write;
}

void EventLoop::UnwatchFd(int fd) { fds_.erase(fd); }

size_t EventLoop::RunDueTimers() {
  // Only timers due at entry run this pass; a timer that schedules another
  // zero-delay timer yields to poll() first, so fd events starve neither
  // (same fairness shape as the simulator's FIFO tie-break).
  const Micros now = Now();
  size_t ran = 0;
  while (!timers_.empty() && timers_.next() <= now) {
    // Pop before invoking: the callback may push new timers.
    timers_.Pop().fn();
    ++ran;
  }
  return ran;
}

size_t EventLoop::RunOnce(Micros max_wait) {
  Micros wait = std::max<Micros>(0, max_wait);
  if (!timers_.empty()) {
    const Micros until_timer = timers_.next() - Now();
    wait = std::min(wait, std::max<Micros>(0, until_timer));
  }

  std::vector<struct pollfd> pfds;
  pfds.reserve(fds_.size());
  for (const auto& [fd, watch] : fds_) {
    short events = 0;
    if (watch.want_read) events |= POLLIN;
    if (watch.want_write) events |= POLLOUT;
    pfds.push_back(pollfd{fd, events, 0});
  }

  // Round up so a sub-millisecond timer deadline sleeps ~1ms instead of
  // busy-spinning poll(timeout=0) until the deadline passes.
  const int timeout_ms = static_cast<int>(std::min<Micros>(
      (wait + kMicrosPerMilli - 1) / kMicrosPerMilli, 60 * 1000));
  const int ready = ::poll(pfds.empty() ? nullptr : pfds.data(),
                           static_cast<nfds_t>(pfds.size()), timeout_ms);

  size_t dispatched = 0;
  if (ready > 0) {
    for (const auto& pfd : pfds) {
      if (pfd.revents == 0) continue;
      // Re-resolve: an earlier callback this iteration may have unwatched
      // (and closed) this fd — or even reused the number for a new watch;
      // delivering stale revents to a new watch is harmless (callbacks
      // handle EAGAIN), delivering to a dead one is not.
      auto it = fds_.find(pfd.fd);
      if (it == fds_.end()) continue;
      uint32_t events = 0;
      if (pfd.revents & POLLIN) events |= kReadable;
      if (pfd.revents & POLLOUT) events |= kWritable;
      if (pfd.revents & (POLLERR | POLLHUP | POLLNVAL)) events |= kError;
      if (events == 0) continue;
      // Copy the callback: it may UnwatchFd(itself) mid-flight.
      FdCallback cb = it->second.cb;
      cb(events);
      ++dispatched;
    }
  }

  dispatched += RunDueTimers();
  return dispatched;
}

void EventLoop::Run() {
  stopped_ = false;
  while (!stopped_ && (!fds_.empty() || !timers_.empty())) {
    RunOnce(60 * kMicrosPerSecond);
  }
}

}  // namespace medsync::net
