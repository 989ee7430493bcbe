// Chunk format: the unit of rotation in cyclo-join.
//
// The roundabout transfers whole ring-buffer elements (paper Sec. III-D),
// so a rotating fragment R_j is cut into *chunks*, each at most one buffer
// element in size and each independently joinable against any stationary
// S_i. Chunks carry the fragment's *prepared* form (paper Sec. IV-D: the
// reorganized — partitioned or sorted — data is what rotates, spending
// network bandwidth to save CPU):
//
//   kPartitioned  radix-clustered tuples with a run directory
//                 {partition id, count}*, for the hash join,
//   kSorted       a sorted key range, for the sort-merge join,
//   kRaw          arbitrary tuples, for the nested-loops fallback.
//
// Joins read tuples directly out of the ring buffer (zero-copy; decode
// returns views, not copies). A chunk retires after visiting every host:
// the origin id in the header tells a host whether its successor is the
// chunk's birthplace.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "join/radix.h"
#include "rel/relation.h"

namespace cj::cyclo {

enum class ChunkKind : std::uint8_t { kRaw = 0, kPartitioned = 1, kSorted = 2 };

#pragma pack(push, 1)
struct ChunkHeader {
  std::uint32_t magic;
  std::uint16_t origin_host;
  std::uint8_t kind;
  std::uint8_t radix_bits;
  std::uint32_t num_runs;
  std::uint32_t num_tuples;
};

/// A maximal run of tuples from one radix partition within a chunk. A
/// partition larger than a chunk is split into runs across chunks.
struct PartitionRun {
  std::uint32_t partition_id;
  std::uint32_t count;
};
#pragma pack(pop)

static_assert(sizeof(ChunkHeader) == 16);
static_assert(sizeof(PartitionRun) == 8);

constexpr std::uint32_t kChunkMagic = 0xC1C707A1;  // "cyclo" chunk marker

/// Decoded, zero-copy view of one chunk. Spans alias the source buffer.
struct ChunkView {
  ChunkKind kind = ChunkKind::kRaw;
  int origin_host = 0;
  int radix_bits = 0;
  std::span<const PartitionRun> runs;   // kPartitioned only
  std::span<const rel::Tuple> tuples;
};

/// All chunks of one host's share of the rotating relation, laid out in one
/// contiguous slab (registered once with the RNIC; chunks are sent straight
/// from here).
class ChunkSlab {
 public:
  struct Entry {
    std::size_t offset;
    std::size_t size;
  };

  ChunkSlab() = default;
  ChunkSlab(std::vector<std::byte> bytes, std::vector<Entry> entries,
            std::uint64_t total_tuples)
      : bytes_(std::move(bytes)),
        entries_(std::move(entries)),
        total_tuples_(total_tuples) {}

  std::size_t num_chunks() const { return entries_.size(); }

  std::span<const std::byte> chunk(std::size_t i) const {
    const Entry& e = entries_[i];
    return std::span<const std::byte>(bytes_).subspan(e.offset, e.size);
  }

  /// The whole backing storage, for memory registration.
  std::span<std::byte> slab() { return bytes_; }

  std::uint64_t total_bytes() const { return bytes_.size(); }
  std::uint64_t total_tuples() const { return total_tuples_; }

  /// Moves the backing storage out (contents unspecified) so ChunkWriter
  /// can build the next slab into it; this becomes empty.
  std::pair<std::vector<std::byte>, std::vector<Entry>> release() {
    total_tuples_ = 0;
    return {std::exchange(bytes_, {}), std::exchange(entries_, {})};
  }

 private:
  std::vector<std::byte> bytes_;
  std::vector<Entry> entries_;
  std::uint64_t total_tuples_ = 0;
};

/// Builds ChunkSlabs. max_payload_bytes caps each chunk (ring buffer size).
class ChunkWriter {
 public:
  explicit ChunkWriter(std::size_t max_payload_bytes)
      : max_payload_(max_payload_bytes) {}

  // A builder that takes `reuse` writes into its storage when it is large
  // enough (a caller that chunks every run keeps its last slab and passes
  // it back).

  /// Chunks a radix-clustered fragment, splitting oversized partitions
  /// into runs as needed.
  ChunkSlab from_partitioned(const join::PartitionedData& data,
                             int origin_host) const;

  /// from_partitioned(radix_cluster(tuples, radix_bits, ...)) without the
  /// clustered copy: clusters straight into the slab's storage, then
  /// writes each chunk's header in front of its tuples and moves them into
  /// place. `scratch` holds the clustering's transient arrays.
  ChunkSlab cluster_in_place(std::span<const rel::Tuple> tuples, int radix_bits,
                             int bits_per_pass, const join::KernelConfig& kernel,
                             int origin_host, join::RadixScratch& scratch,
                             ChunkSlab reuse = {}) const;

  /// Chunks a sorted fragment into contiguous sorted ranges.
  ChunkSlab from_sorted(std::span<const rel::Tuple> sorted, int origin_host) const;

  /// from_sorted of a sorted copy of `tuples`, sorted in the slab's
  /// storage instead of a separate copy (as cluster_in_place).
  ChunkSlab sort_in_place(std::span<const rel::Tuple> tuples, int origin_host,
                          ChunkSlab reuse = {}) const;

  /// Chunks arbitrary tuples (nested-loops fallback).
  ChunkSlab from_raw(std::span<const rel::Tuple> tuples, int origin_host,
                     ChunkSlab reuse = {}) const;

  /// Largest tuple count that fits one chunk with `runs` directory entries.
  std::size_t tuples_per_chunk(std::size_t runs) const;

 private:
  std::size_t max_payload_;
};

/// Parses and validates a chunk from a received buffer.
ChunkView decode_chunk(std::span<const std::byte> payload);

}  // namespace cj::cyclo
