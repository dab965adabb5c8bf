// Deterministic discrete-event queue.
//
// Events at equal timestamps pop in insertion order (monotonic sequence
// numbers), so floating-point time never causes nondeterministic ordering
// and identical seeds replay identical simulations.
//
// The queue is a bucketed calendar/ladder queue tuned for the simulator's
// access pattern (time advances monotonically; every pop schedules a
// handful of near-future events). Events land in fixed-width buckets; only
// the *current* bucket is kept sorted (it doubles as a pop stack), so most
// pushes are an O(1) bucket append and pops are O(1) amortized. When the
// bucket window drains, the remaining events are redistributed over a
// fresh window sized from their actual span — the classic calendar-queue
// resize, amortized over the events it places.
//
// Pop order is the total order by (time, sequence), whatever the push
// order; pushes earlier than the last popped time sort into the current
// bucket, although the simulator never produces them. The tests hold the
// queue to a binary-heap oracle on simulator-shaped traffic.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/types.hpp"

namespace hare::sim {

template <typename Payload>
class EventQueue {
 public:
  struct Event {
    Time time = 0.0;
    std::uint64_t sequence = 0;
    Payload payload{};
  };

  /// Pre-size internal storage for a run with ~n simultaneously pending
  /// events (no rehash/regrow while the run is hot).
  void reserve(std::size_t n) {
    near_.reserve(std::min<std::size_t>(n, 256));
    overflow_.reserve(n);
  }

  /// Drop all events and reset sequence numbering; storage is retained so
  /// a reused queue (SimScratch) allocates nothing on the next run.
  void clear() {
    near_.clear();
    for (auto& bucket : buckets_) bucket.clear();
    overflow_.clear();
    size_ = 0;
    next_sequence_ = 0;
    window_valid_ = false;
    near_limit_ = -kTimeInfinity;
  }

  void push(Time time, Payload payload) {
    Event event{time, next_sequence_++, std::move(payload)};
    ++size_;
    if (time < near_limit_) {
      // Belongs to the bucket currently being drained (or earlier):
      // sorted-insert so the pop stack stays ordered. The comparator is a
      // strict total order, so ties on time resolve by sequence.
      const auto it =
          std::upper_bound(near_.begin(), near_.end(), event, Later{});
      near_.insert(it, std::move(event));
      return;
    }
    if (window_valid_) {
      const std::size_t index = bucket_index(time);
      if (index < buckets_.size()) {
        buckets_[index].push_back(std::move(event));
        return;
      }
    }
    overflow_.push_back(std::move(event));
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  [[nodiscard]] const Event& top() {
    settle();
    return near_.back();
  }

  Event pop() {
    --size_;
    settle();
    Event event = std::move(near_.back());
    near_.pop_back();
    return event;
  }

 private:
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.sequence > b.sequence;
    }
  };

  static constexpr std::size_t kBucketCount = 128;

  [[nodiscard]] std::size_t bucket_index(Time time) const {
    if (time < window_base_) return next_bucket_;  // late push, current bucket
    const double offset = (time - window_base_) / bucket_width_;
    if (offset >= static_cast<double>(buckets_.size())) return buckets_.size();
    const auto index = static_cast<std::size_t>(offset);
    // A push into an already-drained bucket (can only happen within
    // floating-point slop of the current bucket boundary) goes to the
    // current one; near_limit_ routing makes this unreachable in practice.
    return std::max(index, next_bucket_);
  }

  /// Ensure near_ is non-empty (callers guarantee size_ > 0): promote the
  /// next non-empty bucket into the sorted pop stack, rebuilding the
  /// bucket window from the overflow when the current window is spent.
  void settle() {
    while (near_.empty()) {
      if (window_valid_) {
        while (next_bucket_ < buckets_.size()) {
          auto& bucket = buckets_[next_bucket_];
          ++next_bucket_;
          near_limit_ =
              window_base_ +
              static_cast<double>(next_bucket_) * bucket_width_;
          if (bucket.empty()) continue;
          std::sort(bucket.begin(), bucket.end(), Later{});
          near_.swap(bucket);
          bucket.clear();
          break;
        }
        if (!near_.empty()) return;
        window_valid_ = false;
      }
      rebuild_window();
    }
  }

  /// Start a fresh bucket window spanning the pending overflow events.
  void rebuild_window() {
    Time lo = kTimeInfinity;
    Time hi = -kTimeInfinity;
    for (const Event& event : overflow_) {
      lo = std::min(lo, event.time);
      hi = std::max(hi, event.time);
    }
    if (buckets_.empty()) buckets_.resize(kBucketCount);
    window_base_ = lo;
    bucket_width_ =
        std::max((hi - lo) / static_cast<double>(kBucketCount - 1),
                 std::numeric_limits<double>::min());
    next_bucket_ = 0;
    near_limit_ = window_base_;
    std::vector<Event> pending;
    pending.swap(overflow_);
    for (Event& event : pending) {
      const std::size_t index = bucket_index(event.time);
      if (index < buckets_.size()) {
        buckets_[index].push_back(std::move(event));
      } else {
        overflow_.push_back(std::move(event));  // beyond this window
      }
    }
    window_valid_ = true;
  }

  std::uint64_t next_sequence_ = 0;
  std::size_t size_ = 0;

  // near_ is sorted descending by (time, sequence) so
  // the soonest event sits at the back (O(1) pop); it holds every pending
  // event with time < near_limit_.
  std::vector<Event> near_;
  std::vector<std::vector<Event>> buckets_;
  std::vector<Event> overflow_;
  Time near_limit_ = -kTimeInfinity;
  Time window_base_ = 0.0;
  double bucket_width_ = 1.0;
  std::size_t next_bucket_ = 0;
  bool window_valid_ = false;
};

}  // namespace hare::sim
