#include "net/simulator.h"

namespace medsync::net {

bool Simulator::Step() {
  if (queue_.empty()) return false;
  TimerQueue::Due event = queue_.Pop();
  clock_.AdvanceTo(event.when);
  ++executed_;
  event.fn();
  return true;
}

size_t Simulator::Run() {
  size_t count = 0;
  while (Step()) ++count;
  return count;
}

size_t Simulator::RunUntil(Micros when) {
  size_t count = 0;
  while (!queue_.empty() && queue_.next() <= when) {
    Step();
    ++count;
  }
  clock_.AdvanceTo(when);
  return count;
}

size_t Simulator::RunFor(Micros duration) {
  return RunUntil(clock_.Now() + duration);
}

}  // namespace medsync::net
