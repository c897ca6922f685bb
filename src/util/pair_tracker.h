// Per-pair probe streams for the stateful probe-path layers.
//
// NoisySpace jitter, FaultySpace loss and PartitionedSpace grey loss
// all draw the k-th probe of the unordered pair {a, b} from
// Mix64(Mix64(seed ^ PairKey(a, b)) ^ k): a pure function of (seed,
// pair, per-pair probe count), so reordering probes across pairs
// cannot move a draw while re-probing a pair sees fresh randomness.
// PairTracker owns that keying and the per-pair counts behind it.
//
// Generations: the tracker holds at most kMaxTrackedPairs distinct
// pairs. The first draw made while it is full clears every count and
// re-mixes the seed (seed' = Mix64(seed)) — still a pure function of
// the draw sequence — so order-robustness holds within a generation.
//
// Storage is one flat open-addressing table with linear probing. A slot
// is 12 bytes: the pair's hash Mix64(seed ^ PairKey(a, b)) and a 32-bit
// count (0 marks an empty slot). Mix64 is a bijection, so within a
// generation the hash identifies the pair, and it is the only thing the
// stream and the table index need; a growth step rehashes without
// mixing anything. The table is at most 80% full, grows by 1.5x and is
// freed at each generation flush. Counting what the allocator hands
// out, the old + new tables of a growth step take at most about 38
// bytes per tracked pair, while a node-based std::unordered_map<uint64,
// uint64> holding the same pairs takes at least 40 (a 32-byte chunk per
// node plus 8 bytes per bucket, at least one bucket per node);
// tests/util/pair_tracker_test.cc checks the footprint at every size up
// to and across a flush.
//
// Tables of kMappedTableBytes or more are page-mapped directly (mmap)
// rather than taken from the heap, and unmapped when a growth step or a
// flush drops them. A long-lived tracker walks through tables of
// ever-larger sizes; freed back to malloc, each one would raise glibc's
// dynamic mmap threshold and leave the next tables to be carved out of
// whichever thread's heap asked, so how much memory the process kept
// would depend on thread interleaving. Mapped tables cost exactly their
// pages while they live and nothing after. MappedBytes() and
// PeakMappedBytes() count them process-wide.
//
// A pair drawn 2^32 times within one generation throws rather than
// wrap its 32-bit count. Not thread-safe: Next() mutates. Copies are
// independent and continue from the same counts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>

#include "util/rng.h"

namespace np::util {

class PairTracker {
 public:
  /// Distinct pairs one generation holds before it is flushed.
  static constexpr std::size_t kMaxTrackedPairs = std::size_t{1} << 20;
  /// Tables at least this large are page-mapped instead of heap-allocated
  /// (glibc's default M_MMAP_THRESHOLD).
  static constexpr std::size_t kMappedTableBytes = std::size_t{128} << 10;

  /// Bytes of page-mapped tables alive now, over every tracker in the
  /// process (whole pages).
  static std::size_t MappedBytes();
  /// The most MappedBytes() has been since the last ResetPeakMappedBytes().
  static std::size_t PeakMappedBytes();
  static void ResetPeakMappedBytes();

  explicit PairTracker(std::uint64_t seed) : seed_(seed) {}

  /// Stream value of the next probe of the unordered pair {a, b}:
  /// Mix64(Mix64(seed ^ PairKey(a, b)) ^ k), where k counts the pair's
  /// earlier draws in this generation.
  std::uint64_t Next(std::int64_t a, std::int64_t b) {
    if (size_ >= kMaxTrackedPairs) {
      Flush();
    }
    const std::uint64_t hashed = Mix64(seed_ ^ PairKey(a, b));
    return Mix64(hashed ^ PostIncrement(hashed));
  }

  /// Hints the CPU to fetch the home slot of {a, b} ahead of its Next().
  /// Changes no state; a growth or flush before that Next() only makes
  /// the hint useless.
  void Prefetch(std::int64_t a, std::int64_t b) const {
    const std::size_t capacity = slots_.size();
    if (capacity != 0) {
      __builtin_prefetch(
          slots_.begin() + Home(Mix64(seed_ ^ PairKey(a, b)), capacity), 1);
    }
  }

  /// Distinct pairs tracked in the current generation.
  std::size_t size() const { return size_; }
  /// New pairs the current generation takes before it is full: a run
  /// of draws over fewer than this many new pairs cannot flush.
  std::size_t headroom() const { return kMaxTrackedPairs - size_; }
  /// Slots allocated (0 before the first draw of a generation).
  std::size_t capacity() const { return slots_.size(); }
  /// Seed of the current generation.
  std::uint64_t seed() const { return seed_; }

 private:
  struct Slot {
    /// The pair's hash; 4-byte words keep the slot at 12 bytes.
    std::uint32_t hash[2];
    /// Draws of the pair so far; 0 = empty slot.
    std::uint32_t count;
  };
  static_assert(sizeof(Slot) == 12, "PairTracker slots must stay 12 bytes");

  static constexpr std::uint32_t kMaxCount = 0xffffffffU;
  static constexpr std::size_t kMinCapacity = 8;

  /// Zero-filled slot array: heap-allocated, or page-mapped from
  /// kMappedTableBytes up. Copies are deep.
  class Table {
   public:
    Table() = default;
    explicit Table(std::size_t capacity);
    Table(const Table& other);
    Table(Table&& other) noexcept { swap(other); }
    Table& operator=(Table other) noexcept {
      swap(other);
      return *this;
    }
    ~Table() { Release(); }

    std::size_t size() const { return capacity_; }
    bool mapped() const {
      return capacity_ * sizeof(Slot) >= kMappedTableBytes;
    }
    Slot& operator[](std::size_t i) { return data_[i]; }
    const Slot* begin() const { return data_; }
    const Slot* end() const { return data_ + capacity_; }
    void swap(Table& other) noexcept {
      std::swap(data_, other.data_);
      std::swap(capacity_, other.capacity_);
    }

   private:
    void Release() noexcept;

    Slot* data_ = nullptr;
    std::size_t capacity_ = 0;
  };

  static std::uint64_t HashOf(const Slot& slot) {
    std::uint64_t hashed = 0;
    std::memcpy(&hashed, slot.hash, sizeof(hashed));
    return hashed;
  }

  /// Maps a hash onto [0, capacity) without a modulo.
  static std::size_t Home(std::uint64_t hashed, std::size_t capacity) {
    return static_cast<std::size_t>(
        (static_cast<unsigned __int128>(hashed) * capacity) >> 64);
  }

  /// Returns the pair's count before this draw and bumps it.
  std::uint64_t PostIncrement(std::uint64_t hashed) {
    const std::size_t capacity = slots_.size();
    if (capacity != 0) {
      std::size_t i = Home(hashed, capacity);
      for (;;) {
        Slot& slot = slots_[i];
        if (slot.count == 0) {
          if (size_ >= grow_at_) {
            break;
          }
          std::memcpy(slot.hash, &hashed, sizeof(hashed));
          slot.count = 1;
          ++size_;
          return 0;
        }
        if (HashOf(slot) == hashed) {
          if (slot.count == kMaxCount) {
            CountOverflow();
          }
          return slot.count++;
        }
        if (++i == capacity) {
          i = 0;
        }
      }
    }
    GrowAndInsert(hashed);
    return 0;
  }

  /// Inserts a new pair into a table 1.5x larger (the first table of a
  /// generation has kMinCapacity slots).
  void GrowAndInsert(std::uint64_t hashed);
  /// Starts a new generation: frees the table and re-mixes the seed.
  void Flush();
  [[noreturn]] static void CountOverflow();

  Table slots_;
  std::size_t size_ = 0;
  /// Pairs the current table takes before the next insert grows it.
  std::size_t grow_at_ = 0;
  std::uint64_t seed_;
};

}  // namespace np::util
