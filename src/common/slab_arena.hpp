// Per-shard slab arena for user state (ISSUE 10).
//
// At the 100k–1M-user target, per-object heap allocation of user state
// (demux stream buffers, latest analyses, parked sections) fragments
// the heap and scatters each shard's working set across it. SlabArena
// carves fixed-size slabs (256 slots each) and hands out
// generation-tagged handles:
//
// - Slabs never move or shrink, so raw pointers into a slot stay valid
//   for the slot's lifetime (the demux hands stream-buffer pointers to
//   the analysis fan-out every tick).
// - Released slots go on a free list and are reused before any new
//   slab is mapped — admission/eviction churn at the census cap stops
//   costing allocations in steady state.
// - Every release bumps the slot's generation; a stale handle (use
//   after eviction) is detected, not dereferenced: get() returns null,
//   at() throws. Under AddressSanitizer, freed slots are additionally
//   poisoned so even a raw interior pointer kept across a release
//   traps (test_capacity gates this).
//
// Single-threaded by design, like the registries it backs: one arena
// belongs to one pipeline shard, and shards never share state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <stdexcept>
#include <utility>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define TAGBREATHE_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define TAGBREATHE_ASAN 1
#endif
#endif
#if defined(TAGBREATHE_ASAN)
#include <sanitizer/asan_interface.h>
#endif

namespace tagbreathe::common {

/// Generation-tagged reference to one arena slot. Trivially copyable —
/// registries store these (8 bytes) instead of the payload, so flat-map
/// displacement never moves the payload itself.
struct SlabHandle {
  std::uint32_t index = 0xFFFFFFFFu;
  std::uint32_t generation = 0;

  bool null() const noexcept { return index == 0xFFFFFFFFu; }
  friend bool operator==(const SlabHandle&, const SlabHandle&) = default;
};

template <typename T>
class SlabArena {
 public:
  static constexpr std::size_t kSlotsPerSlab = 256;
#if defined(TAGBREATHE_ASAN)
  // ASan tracks addressability per 8-byte granule and cannot poison
  // part of a granule whose other bytes stay addressable, so a slot
  // smaller than a granule, or one starting inside it, would read as
  // live after release. ASan builds give every slot whole granules.
  static constexpr std::size_t kAsanGranule = 8;
  static constexpr std::size_t kSlotStride =
      (sizeof(T) + kAsanGranule - 1) / kAsanGranule * kAsanGranule;
  static constexpr std::size_t kSlabAlign =
      alignof(T) > kAsanGranule ? alignof(T) : kAsanGranule;
#else
  static constexpr std::size_t kSlotStride = sizeof(T);
  static constexpr std::size_t kSlabAlign = alignof(T);
#endif

  SlabArena() = default;
  ~SlabArena() {
    clear();
    // Hand the slabs back to the allocator unpoisoned: ASan treats a
    // free() of user-poisoned bytes as suspicious, and the next owner
    // of the pages deserves clean shadow state.
    for (auto& slab : slabs_) unpoison_region(slab->bytes, sizeof(slab->bytes));
  }

  SlabArena(const SlabArena&) = delete;
  SlabArena& operator=(const SlabArena&) = delete;

  /// Constructs a T in a slot (free-list first, then a fresh slab) and
  /// returns its handle.
  template <typename... Args>
  SlabHandle emplace(Args&&... args) {
    std::uint32_t index;
    if (!free_.empty()) {
      index = free_.back();
      free_.pop_back();
      ++reuses_;
    } else {
      if (slot_count_ == slabs_.size() * kSlotsPerSlab) {
        slabs_.push_back(std::make_unique<Slab>());
        generations_.resize(slabs_.size() * kSlotsPerSlab, 1);
        live_.resize(slabs_.size() * kSlotsPerSlab, 0);
      }
      index = static_cast<std::uint32_t>(slot_count_++);
    }
    void* slot = slot_address(index);
    unpoison(slot);
    try {
      new (slot) T(std::forward<Args>(args)...);
    } catch (...) {
      poison(slot);
      free_.push_back(index);
      throw;
    }
    live_[index] = 1;
    ++live_count_;
    return SlabHandle{index, generations_[index]};
  }

  /// Destroys the slot behind a live handle, bumps its generation (so
  /// every outstanding handle to it goes stale) and recycles the slot.
  /// Returns false for a stale or null handle — a double release is a
  /// bug surfaced, not corruption.
  bool release(SlabHandle handle) noexcept {
    T* value = get(handle);
    if (value == nullptr) return false;
    value->~T();
    ++generations_[handle.index];
    live_[handle.index] = 0;
    --live_count_;
    poison(slot_address(handle.index));
    free_.push_back(handle.index);
    return true;
  }

  /// Live payload behind a handle; null when the handle is stale (the
  /// slot was released or re-allocated since it was issued).
  T* get(SlabHandle handle) noexcept {
    if (handle.index >= slot_count_ || live_[handle.index] == 0 ||
        generations_[handle.index] != handle.generation)
      return nullptr;
    return std::launder(reinterpret_cast<T*>(slot_address(handle.index)));
  }
  const T* get(SlabHandle handle) const noexcept {
    return const_cast<SlabArena*>(this)->get(handle);
  }

  /// Checked access: throws on a stale handle instead of returning
  /// null (call sites that treat staleness as a logic error).
  T& at(SlabHandle handle) {
    T* value = get(handle);
    if (value == nullptr)
      throw std::logic_error("SlabArena: stale or null handle");
    return *value;
  }
  const T& at(SlabHandle handle) const {
    return const_cast<SlabArena*>(this)->at(handle);
  }

  /// Destroys every live slot and resets the free list. Slabs are kept
  /// mapped (capacity is retained for the next population).
  void clear() noexcept {
    for (std::uint32_t i = 0; i < slot_count_; ++i) {
      if (live_[i] == 0) continue;
      void* slot = slot_address(i);
      std::launder(reinterpret_cast<T*>(slot))->~T();
      ++generations_[i];
      live_[i] = 0;
      poison(slot);
    }
    live_count_ = 0;
    free_.clear();
    for (std::uint32_t i = slot_count_; i-- > 0;) free_.push_back(i);
  }

  std::size_t live() const noexcept { return live_count_; }
  /// Slots ever carved out of slabs (live + free-listed).
  std::size_t slots() const noexcept { return slot_count_; }
  std::size_t slab_count() const noexcept { return slabs_.size(); }
  /// Allocations served off the free list instead of a fresh slot.
  std::size_t reuses() const noexcept { return reuses_; }
  /// live / reserved — the capacity_arena_occupancy gauge.
  double occupancy() const noexcept {
    const std::size_t reserved = slabs_.size() * kSlotsPerSlab;
    return reserved == 0
               ? 0.0
               : static_cast<double>(live_count_) / static_cast<double>(reserved);
  }
  /// Resident bytes of slab storage + bookkeeping (payload-owned heap,
  /// e.g. vectors inside T, is accounted by the payload's owner).
  std::size_t bytes_reserved() const noexcept {
    return slabs_.size() * sizeof(Slab) +
           generations_.capacity() * sizeof(std::uint32_t) +
           live_.capacity() * sizeof(std::uint8_t) +
           free_.capacity() * sizeof(std::uint32_t);
  }

  /// Raw slot storage address — test hook for the ASan poison gate.
  const void* slot_address_for_testing(std::uint32_t index) const noexcept {
    return const_cast<SlabArena*>(this)->slot_address(index);
  }
  static constexpr bool poisons_freed_slots() noexcept {
#if defined(TAGBREATHE_ASAN)
    return true;
#else
    return false;
#endif
  }

 private:
  struct Slab {
    alignas(kSlabAlign) std::byte bytes[kSlotsPerSlab * kSlotStride];
  };

  void* slot_address(std::uint32_t index) noexcept {
    return slabs_[index / kSlotsPerSlab]->bytes +
           static_cast<std::size_t>(index % kSlotsPerSlab) * kSlotStride;
  }

  static void poison(void* slot) noexcept {
#if defined(TAGBREATHE_ASAN)
    ASAN_POISON_MEMORY_REGION(slot, kSlotStride);
#else
    (void)slot;
#endif
  }
  static void unpoison(void* slot) noexcept {
    unpoison_region(slot, sizeof(T));
  }
  static void unpoison_region(void* at, std::size_t bytes) noexcept {
#if defined(TAGBREATHE_ASAN)
    ASAN_UNPOISON_MEMORY_REGION(at, bytes);
#else
    (void)at;
    (void)bytes;
#endif
  }

  std::vector<std::unique_ptr<Slab>> slabs_;
  std::vector<std::uint32_t> generations_;
  std::vector<std::uint8_t> live_;
  std::vector<std::uint32_t> free_;
  std::uint32_t slot_count_ = 0;  // slots ever carved (high-water)
  std::size_t live_count_ = 0;
  std::size_t reuses_ = 0;
};

}  // namespace tagbreathe::common
