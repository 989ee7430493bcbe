// Backing storage for bucket-group hash tables.
//
// The group tables are the largest allocations the join makes (32 B per
// stationary tuple at the build load factor) and they are rebuilt from
// scratch every setup, so how their pages come into existence is a real
// kernel cost, not an allocator detail: a fresh 4 KB-paged allocation
// charges one minor fault per 4 KB to the *build loop* that first touches
// it, and afterwards a table far larger than the TLB reach charges the
// *probe loop* a 4 KB-TLB miss per random group access. Both costs scale
// with exactly the footprint the fingerprint layout added over the chained
// one, which is how a faster table algorithm measured slower end to end.
//
// TableSlab owns one contiguous storage range for one or many tables. On
// Linux it is backed by an anonymous mapping aligned to the 2 MB huge-page
// boundary and advised MADV_HUGEPAGE, so under transparent-huge-page
// "madvise" policy (the common server default) the kernel backs it with
// 2 MB pages: ~500x fewer build-time faults and a TLB entry per 2 MB
// instead of per 4 KB on the probe side. HashJoinStationary carves every
// partition's table out of a single slab, so even 512 KB per-partition
// tables (individually below huge-page granularity) share huge pages.
// Elsewhere (non-Linux, tiny tables, mmap failure) it degrades to a
// 64 B-aligned operator new block — correctness never depends on the fast
// path.
//
// A slab does not recycle its mapping by itself: destroying one unmaps it.
// Steady-state reuse is explicit ownership instead — a caller that keeps
// the owning HashJoinStationary and calls rebuild() every setup builds into
// the same, already-faulted slab (the cyclo runners keep one per host and
// query across runs of a CycloJoin). That is shaped for the roundabout:
// every revolution rebuilds stationary tables of the same sizes, and a
// rebuild into a fresh slab re-faults its whole footprint (faulting plus
// kernel page-zeroing costs ~0.45 ns/B, ~14 ns per stationary tuple at 32
// table-B/tuple).
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace cj::join {

class TableSlab {
 public:
  /// Huge-page granularity the mmap path aligns to. Allocations below it
  /// take the plain heap path (a lone sub-2 MB table cannot be backed by a
  /// huge page anyway).
  static constexpr std::size_t kHugePageBytes = 2U << 20;

  TableSlab() = default;

  explicit TableSlab(std::size_t bytes) : bytes_(bytes) {
    if (bytes_ == 0) return;
#if defined(__linux__)
    if (bytes_ >= kHugePageBytes) {
      const std::size_t ceil = (bytes_ + kPageBytes - 1) & ~(kPageBytes - 1);
      // Over-map by one huge page, then trim to a 2 MB-aligned range: an
      // unaligned VMA may contain no aligned 2 MB chunk at all, and THP
      // can only back aligned chunks.
      const std::size_t total = ceil + kHugePageBytes;
      void* raw = ::mmap(nullptr, total, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (raw != MAP_FAILED) {
        const auto base = reinterpret_cast<std::uintptr_t>(raw);
        const std::uintptr_t aligned =
            (base + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
        if (aligned != base) {
          ::munmap(raw, aligned - base);
        }
        const std::size_t tail = total - (aligned - base) - ceil;
        if (tail != 0) {
          ::munmap(reinterpret_cast<void*>(aligned + ceil), tail);
        }
        p_ = reinterpret_cast<void*>(aligned);
        mapped_bytes_ = ceil;
        ::madvise(p_, mapped_bytes_, MADV_HUGEPAGE);
        return;
      }
    }
#endif
    p_ = ::operator new(bytes_, std::align_val_t{64});
  }

  ~TableSlab() { release(); }

  TableSlab(TableSlab&& other) noexcept { swap(other); }
  TableSlab& operator=(TableSlab&& other) noexcept {
    if (this != &other) {
      release();
      swap(other);
    }
    return *this;
  }
  TableSlab(const TableSlab&) = delete;
  TableSlab& operator=(const TableSlab&) = delete;

  std::byte* data() { return static_cast<std::byte*>(p_); }
  const std::byte* data() const { return static_cast<const std::byte*>(p_); }
  std::size_t bytes() const { return bytes_; }
  explicit operator bool() const { return p_ != nullptr; }

 private:
  static constexpr std::size_t kPageBytes = 4096;

  void release() {
    if (p_ == nullptr) return;
#if defined(__linux__)
    if (mapped_bytes_ != 0) {
      ::munmap(p_, mapped_bytes_);
    } else {
      ::operator delete(p_, std::align_val_t{64});
    }
#else
    ::operator delete(p_, std::align_val_t{64});
#endif
    p_ = nullptr;
    bytes_ = 0;
    mapped_bytes_ = 0;
  }

  void swap(TableSlab& other) noexcept {
    std::swap(p_, other.p_);
    std::swap(bytes_, other.bytes_);
    std::swap(mapped_bytes_, other.mapped_bytes_);
  }

  void* p_ = nullptr;
  std::size_t bytes_ = 0;
  std::size_t mapped_bytes_ = 0;  ///< nonzero iff mmap-backed
};

}  // namespace cj::join
