#include "util/pair_tracker.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <new>

#include "util/error.h"

namespace np::util {
namespace {

/// Page-mapped table bytes alive now, and the most since the last reset.
std::atomic<std::size_t> g_mapped_bytes{0};
std::atomic<std::size_t> g_peak_mapped_bytes{0};

/// `bytes` rounded up to whole pages.
std::size_t PageBytes(std::size_t bytes) {
  static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return (bytes + page - 1) / page * page;
}

/// First free slot at or after `home` (wrapping); the table has room.
template <typename Table>
auto& FreeSlot(Table& slots, std::size_t home) {
  std::size_t i = home;
  while (slots[i].count != 0) {
    if (++i == slots.size()) {
      i = 0;
    }
  }
  return slots[i];
}

}  // namespace

std::size_t PairTracker::MappedBytes() {
  return g_mapped_bytes.load(std::memory_order_relaxed);
}

std::size_t PairTracker::PeakMappedBytes() {
  return g_peak_mapped_bytes.load(std::memory_order_relaxed);
}

void PairTracker::ResetPeakMappedBytes() {
  g_peak_mapped_bytes.store(MappedBytes(), std::memory_order_relaxed);
}

PairTracker::Table::Table(std::size_t capacity) : capacity_(capacity) {
  if (!mapped()) {
    data_ = new Slot[capacity]();
    return;
  }
  // Fresh anonymous pages read as zero: no fill needed.
  const std::size_t bytes = PageBytes(capacity * sizeof(Slot));
  void* pages = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (pages == MAP_FAILED) {
    capacity_ = 0;
    throw std::bad_alloc();
  }
  data_ = static_cast<Slot*>(pages);
  const std::size_t live =
      g_mapped_bytes.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  std::size_t peak = g_peak_mapped_bytes.load(std::memory_order_relaxed);
  while (peak < live && !g_peak_mapped_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
}

PairTracker::Table::Table(const Table& other) : Table(other.capacity_) {
  std::copy(other.begin(), other.end(), data_);
}

void PairTracker::Table::Release() noexcept {
  if (data_ == nullptr) {
    return;
  }
  if (mapped()) {
    const std::size_t bytes = PageBytes(capacity_ * sizeof(Slot));
    munmap(data_, bytes);
    g_mapped_bytes.fetch_sub(bytes, std::memory_order_relaxed);
  } else {
    delete[] data_;
  }
  data_ = nullptr;
  capacity_ = 0;
}

void PairTracker::GrowAndInsert(std::uint64_t hashed) {
  const std::size_t old_capacity = slots_.size();
  const std::size_t capacity = old_capacity == 0
                                   ? kMinCapacity
                                   : old_capacity + (old_capacity + 1) / 2;
  Table old(capacity);
  old.swap(slots_);
  grow_at_ = capacity * 4 / 5;
  for (const Slot& slot : old) {
    if (slot.count != 0) {
      FreeSlot(slots_, Home(HashOf(slot), capacity)) = slot;
    }
  }
  Slot& slot = FreeSlot(slots_, Home(hashed, capacity));
  std::memcpy(slot.hash, &hashed, sizeof(hashed));
  slot.count = 1;
  ++size_;
}

void PairTracker::Flush() {
  Table().swap(slots_);
  size_ = 0;
  grow_at_ = 0;
  seed_ = Mix64(seed_);
}

void PairTracker::CountOverflow() {
  throw Error("PairTracker: one pair drawn 2^32 times in a generation");
}

}  // namespace np::util
