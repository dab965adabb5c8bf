// Reference event queue: a binary heap over a flat vector, popping in the
// total order by (time, sequence) with sequence numbers assigned at push.
//
// The simulator's calendar queue (sim::EventQueue) must pop in exactly this
// order, equal timestamps included; the EventQueueBackends tests replay the
// same pushes and pops into both and compare.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace hare::testing {

template <typename Payload>
class HeapEventQueue {
 public:
  struct Event {
    Time time = 0.0;
    std::uint64_t sequence = 0;
    Payload payload{};
  };

  void clear() {
    heap_.clear();
    next_sequence_ = 0;
  }

  void push(Time time, Payload payload) {
    heap_.push_back(Event{time, next_sequence_++, std::move(payload)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  Event pop() {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Event event = std::move(heap_.back());
    heap_.pop_back();
    return event;
  }

 private:
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.sequence > b.sequence;
    }
  };

  std::vector<Event> heap_;
  std::uint64_t next_sequence_ = 0;
};

}  // namespace hare::testing
