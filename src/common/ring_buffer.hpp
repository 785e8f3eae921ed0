// Fixed-capacity circular buffer.
//
// Backs the bounded ingest queue (core::IngestQueue), the telemetry
// subscriber queues (telemetry::EventBus) and the chaos injector's
// burst-replay history; a bounded ring keeps each from growing during
// long monitoring sessions. Both queues overflow by the one rule in
// push(value, match), so they cannot disagree on which element leaves.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

namespace tagbreathe::common {

/// What a push into a full ring removed to make room.
enum class Evicted : std::uint8_t {
  Nothing = 0,  // the ring had room
  Match = 1,    // the newest element the caller's predicate matched
  Oldest = 2,   // nothing matched: the oldest element
};

template <typename T>
class RingBuffer {
 public:
  /// Reserves the capacity up front but constructs slots only as the
  /// ring first fills them, so memory it never uses stays untouched.
  explicit RingBuffer(std::size_t capacity) : capacity_(capacity) {
    if (capacity == 0)
      throw std::invalid_argument("RingBuffer capacity must be positive");
    storage_.reserve(capacity);
  }

  /// Appends a value. When full, removes the newest element `match`
  /// accepts, or the oldest if none does; the elements behind a removed
  /// match close the gap, so the ring stays in insertion order and
  /// `value` is always the newest.
  template <typename Match>
  Evicted push(const T& value, Match&& match) {
    if (size_ < capacity_) {
      // Until every slot is built, the free slot is the next one to
      // build: the live range never wraps past storage_'s end.
      const std::size_t i = slot(size_++);
      if (i == storage_.size()) {
        storage_.push_back(value);
      } else {
        storage_[i] = value;
      }
      return Evicted::Nothing;
    }
    for (std::size_t i = size_; i-- > 0;) {
      if (!match(std::as_const(storage_[slot(i)]))) continue;
      for (; i + 1 < size_; ++i)
        storage_[slot(i)] = std::move(storage_[slot(i + 1)]);
      storage_[slot(i)] = value;
      return Evicted::Match;
    }
    storage_[head_] = value;  // the oldest slot becomes the newest
    head_ = slot(1);
    return Evicted::Oldest;
  }

  /// Appends a value, evicting the oldest if full.
  Evicted push(const T& value) {
    return push(value, [](const T&) { return false; });
  }

  /// Oldest-first access; index 0 is the oldest retained element.
  const T& operator[](std::size_t i) const {
    if (i >= size_) throw std::out_of_range("RingBuffer index");
    return storage_[slot(i)];
  }

  /// Removes and returns the oldest element.
  T pop_front() {
    if (size_ == 0) throw std::out_of_range("RingBuffer pop_front on empty");
    T out = std::move(storage_[head_]);
    head_ = slot(1);
    --size_;
    return out;
  }

  const T& front() const { return (*this)[0]; }
  const T& back() const { return (*this)[size_ - 1]; }

  std::size_t size() const noexcept { return size_; }
  std::size_t capacity() const noexcept { return capacity_; }
  bool empty() const noexcept { return size_ == 0; }
  bool full() const noexcept { return size_ == capacity_; }

  void clear() noexcept {
    head_ = 0;
    size_ = 0;
  }

 private:
  std::size_t slot(std::size_t i) const noexcept {
    return (head_ + i) % capacity_;
  }

  std::vector<T> storage_;
  std::size_t capacity_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace tagbreathe::common
