#include "net/simulator.h"

#include <algorithm>
#include <utility>

namespace medsync::net {

void Simulator::Schedule(Micros delay, std::function<void()> fn) {
  if (delay < 0) delay = 0;
  ScheduleAt(clock_.Now() + delay, std::move(fn));
}

void Simulator::ScheduleAt(Micros when, std::function<void()> fn) {
  if (when < clock_.Now()) when = clock_.Now();
  queue_.push_back(Event{when, next_seq_++, std::move(fn)});
  std::push_heap(queue_.begin(), queue_.end(), EventLater());
}

bool Simulator::Step() {
  if (queue_.empty()) return false;
  std::pop_heap(queue_.begin(), queue_.end(), EventLater());
  Event event = std::move(queue_.back());
  queue_.pop_back();
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
  while (!queue_.empty() && queue_.front().when <= when) {
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
