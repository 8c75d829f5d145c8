#include "net/scheduler.h"

#include <algorithm>
#include <utility>

namespace medsync::net {

void TimerQueue::Push(Micros now, Micros delay, std::function<void()> fn) {
  heap_.push_back(Entry{now + std::max<Micros>(delay, 0), next_seq_++,
                        std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), Later);
}

TimerQueue::Due TimerQueue::Pop() {
  std::pop_heap(heap_.begin(), heap_.end(), Later);
  Due due{heap_.back().when, std::move(heap_.back().fn)};
  heap_.pop_back();
  return due;
}

}  // namespace medsync::net
