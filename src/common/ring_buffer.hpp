// Fixed-capacity circular buffer.
//
// Backs the bounded ingest queue (core::IngestQueue) and the chaos
// injector's burst-replay history; a bounded ring keeps both from growing
// during long monitoring sessions.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

namespace tagbreathe::common {

template <typename T>
class RingBuffer {
 public:
  explicit RingBuffer(std::size_t capacity)
      : storage_(capacity), capacity_(capacity) {
    if (capacity == 0)
      throw std::invalid_argument("RingBuffer capacity must be positive");
  }

  /// Appends a value, evicting the oldest if full.
  void push(const T& value) {
    storage_[(head_ + size_) % capacity_] = value;
    if (size_ < capacity_) {
      ++size_;
    } else {
      head_ = (head_ + 1) % capacity_;
    }
  }

  /// Oldest-first access; index 0 is the oldest retained element.
  const T& operator[](std::size_t i) const {
    if (i >= size_) throw std::out_of_range("RingBuffer index");
    return storage_[(head_ + i) % capacity_];
  }

  /// Mutable oldest-first access (the ingest queue coalesces in place).
  T& operator[](std::size_t i) {
    if (i >= size_) throw std::out_of_range("RingBuffer index");
    return storage_[(head_ + i) % capacity_];
  }

  /// Removes and returns the oldest element.
  T pop_front() {
    if (size_ == 0) throw std::out_of_range("RingBuffer pop_front on empty");
    T out = std::move(storage_[head_]);
    head_ = (head_ + 1) % capacity_;
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

  /// Copies the contents oldest-first into a vector.
  std::vector<T> to_vector() const {
    std::vector<T> out;
    out.reserve(size_);
    for (std::size_t i = 0; i < size_; ++i) out.push_back((*this)[i]);
    return out;
  }

 private:
  std::vector<T> storage_;
  std::size_t capacity_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace tagbreathe::common
