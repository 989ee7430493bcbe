#include "cyclo/chunk.h"

#include <algorithm>
#include <cstring>
#include <tuple>

#include "join/sort_merge.h"
#include "obs/prof.h"

namespace cj::cyclo {

namespace {

constexpr std::size_t kHeaderBytes = sizeof(ChunkHeader);
constexpr std::size_t kAlign = 8;  // chunk starts 8-aligned within the slab

std::size_t aligned(std::size_t n) { return (n + kAlign - 1) & ~(kAlign - 1); }

}  // namespace

std::size_t ChunkWriter::tuples_per_chunk(std::size_t runs) const {
  const std::size_t overhead = kHeaderBytes + runs * sizeof(PartitionRun);
  CJ_CHECK_MSG(max_payload_ > overhead + sizeof(rel::Tuple),
               "ring buffer too small for even one tuple per chunk");
  return (max_payload_ - overhead) / sizeof(rel::Tuple);
}

namespace {

// Low-level emit shared by the builders. Chunks are appended to the slab
// back-to-back (8-byte aligned).
//
// A copying build (reserve, emit) copies each chunk's tuples in from the
// prepared fragment. An in-place build has no prepared fragment: the
// caller prepares the tuples, already in chunk order, straight into the
// slab's tail (open_tail), and every chunk is then emitted from there
// (emit_from_tail), its header and run directory written in front of its
// tuples, which move down into place. The tail starts after an upper bound
// on the slab's total header overhead, so a chunk never reaches the tuples
// still to be moved.
class SlabBuilder {
 public:
  /// Builds into `reuse`'s storage (its capacity survives).
  explicit SlabBuilder(ChunkSlab&& reuse) {
    std::tie(bytes_, entries_) = reuse.release();
    entries_.clear();
  }

  /// Starts a copying build and pre-sizes the backing slab (an upper bound
  /// is fine) so emitting chunks appends without geometric reallocation —
  /// this code runs inside the measured setup closures, where every copy is
  /// billed as virtual time.
  void reserve(std::size_t bytes, std::size_t chunks) {
    bytes_.clear();
    bytes_.reserve(bytes);
    entries_.reserve(chunks);
  }

  /// Appends a chunk whose tuples are copied from `tuples`.
  void emit(ChunkKind kind, int origin, int radix_bits,
            std::span<const PartitionRun> runs, std::span<const rel::Tuple> tuples) {
    std::byte* data = open_chunk(kind, origin, radix_bits, runs, tuples.size());
    if (!tuples.empty()) std::memcpy(data, tuples.data(), tuples.size_bytes());
  }

  /// Starts an in-place build of `n` tuples and returns the tail they go
  /// to, `overhead` bytes (at least the chunks' total header overhead) from
  /// the start. Reused storage is not cleared: every byte of the finished
  /// slab is written.
  std::span<rel::Tuple> open_tail(std::size_t n, std::size_t overhead) {
    tail_ = aligned(overhead);
    bytes_.resize(tail_ + n * sizeof(rel::Tuple));
    return {reinterpret_cast<rel::Tuple*>(bytes_.data() + tail_), n};
  }

  /// Appends a chunk of the tail's tuples [first, first + count).
  void emit_from_tail(ChunkKind kind, int origin, int radix_bits,
                      std::span<const PartitionRun> runs, std::size_t first,
                      std::size_t count) {
    std::byte* data = open_chunk(kind, origin, radix_bits, runs, count);
    const std::byte* src = bytes_.data() + tail_ + first * sizeof(rel::Tuple);
    CJ_CHECK_MSG(data <= src, "in-place chunk overran its unmoved tuples");
    if (count != 0) std::memmove(data, src, count * sizeof(rel::Tuple));
  }

  ChunkSlab finish() {
    bytes_.resize(end_);
    return ChunkSlab(std::move(bytes_), std::move(entries_), total_tuples_);
  }

 private:
  /// Writes the next chunk's header and run directory (zeroing the
  /// alignment padding before it) and returns where its tuples go.
  std::byte* open_chunk(ChunkKind kind, int origin, int radix_bits,
                        std::span<const PartitionRun> runs,
                        std::size_t num_tuples) {
    const std::size_t offset = aligned(end_);
    const std::size_t payload =
        kHeaderBytes + runs.size_bytes() + num_tuples * sizeof(rel::Tuple);
    if (bytes_.size() < offset + payload) bytes_.resize(offset + payload);
    if (offset > end_) std::memset(bytes_.data() + end_, 0, offset - end_);

    ChunkHeader header{};
    header.magic = kChunkMagic;
    header.origin_host = static_cast<std::uint16_t>(origin);
    header.kind = static_cast<std::uint8_t>(kind);
    header.radix_bits = static_cast<std::uint8_t>(radix_bits);
    header.num_runs = static_cast<std::uint32_t>(runs.size());
    header.num_tuples = static_cast<std::uint32_t>(num_tuples);

    std::byte* out = bytes_.data() + offset;
    std::memcpy(out, &header, kHeaderBytes);
    if (!runs.empty()) {
      std::memcpy(out + kHeaderBytes, runs.data(), runs.size_bytes());
    }
    entries_.push_back({offset, payload});
    total_tuples_ += num_tuples;
    end_ = offset + payload;
    return out + kHeaderBytes + runs.size_bytes();
  }

  std::vector<std::byte> bytes_;
  std::vector<ChunkSlab::Entry> entries_;
  std::uint64_t total_tuples_ = 0;
  std::size_t end_ = 0;   // end of the last emitted chunk
  std::size_t tail_ = 0;  // in-place build: where the tuples sit
};

/// Greedy packing of a clustered fragment into chunks: walks the
/// partitions of `offsets` (a PartitionedData directory) in order — they
/// are contiguous in the clustered layout — and splits a partition into
/// several runs when it does not fit the remaining space. Calls
/// emit(runs, first tuple, tuple count) once per chunk.
template <typename Emit>
void pack_partitions(const ChunkWriter& writer,
                     std::span<const std::uint32_t> offsets, Emit&& emit) {
  std::vector<PartitionRun> runs;
  std::size_t chunk_tuples = 0;
  std::size_t chunk_begin = 0;
  auto flush = [&] {
    if (chunk_tuples == 0) return;
    emit(std::span<const PartitionRun>(runs), chunk_begin, chunk_tuples);
    chunk_begin += chunk_tuples;
    chunk_tuples = 0;
    runs.clear();
  };
  for (std::uint32_t p = 0; p + 1 < offsets.size(); ++p) {
    std::size_t remaining = offsets[p + 1] - offsets[p];
    while (remaining > 0) {
      // +1 run for the piece we are about to add.
      std::size_t capacity = writer.tuples_per_chunk(runs.size() + 1);
      if (chunk_tuples >= capacity) {
        flush();
        capacity = writer.tuples_per_chunk(1);
      }
      const std::size_t take = std::min(remaining, capacity - chunk_tuples);
      runs.push_back(PartitionRun{p, static_cast<std::uint32_t>(take)});
      chunk_tuples += take;
      remaining -= take;
    }
  }
  flush();
}

/// Cuts `n` tuples into contiguous chunks of `per_chunk` (sorted and raw
/// chunks carry no run directory).
template <typename Emit>
void pack_ranges(std::size_t n, std::size_t per_chunk, Emit&& emit) {
  for (std::size_t first = 0; first < n; first += per_chunk) {
    emit(std::span<const PartitionRun>(), first, std::min(per_chunk, n - first));
  }
}

/// Upper bound on the header overhead of a partitioned slab: every chunk
/// full, plus one run-directory entry per chunk boundary and per partition.
std::size_t partitioned_overhead(const ChunkWriter& writer, std::size_t n,
                                 std::size_t partitions) {
  const std::size_t max_chunks =
      n / std::max<std::size_t>(1, writer.tuples_per_chunk(1)) + 1;
  return (max_chunks + partitions) *
         (kHeaderBytes + sizeof(PartitionRun) + kAlign);
}

/// Upper bound on the header overhead of a sorted or raw slab.
std::size_t ranges_overhead(std::size_t n, std::size_t per_chunk) {
  return (n / per_chunk + 1) * (kHeaderBytes + kAlign);
}

/// Copying build of sorted or raw chunks: contiguous ranges of `tuples`.
ChunkSlab copy_ranges(const ChunkWriter& writer, ChunkKind kind,
                      std::span<const rel::Tuple> tuples, int origin_host,
                      ChunkSlab reuse) {
  obs::prof::ScopedProfile prof(obs::prof::current(), "chunk_memcpy",
                                tuples.size());
  SlabBuilder builder(std::move(reuse));
  const std::size_t per_chunk = writer.tuples_per_chunk(0);
  builder.reserve(tuples.size_bytes() + ranges_overhead(tuples.size(), per_chunk),
                  tuples.size() / per_chunk + 1);
  pack_ranges(tuples.size(), per_chunk,
              [&](std::span<const PartitionRun> runs, std::size_t first,
                  std::size_t count) {
                builder.emit(kind, origin_host, 0, runs,
                             tuples.subspan(first, count));
              });
  return builder.finish();
}

}  // namespace

ChunkSlab ChunkWriter::from_partitioned(const join::PartitionedData& data,
                                        int origin_host) const {
  obs::prof::ScopedProfile prof(obs::prof::current(), "chunk_memcpy",
                                data.all_tuples().size());
  SlabBuilder builder(ChunkSlab{});
  const auto tuples = data.all_tuples();
  builder.reserve(tuples.size_bytes() + partitioned_overhead(*this, tuples.size(),
                                                             data.num_partitions()),
                  tuples.size() / std::max<std::size_t>(1, tuples_per_chunk(1)) + 1);
  pack_partitions(*this, data.offsets(),
                  [&](std::span<const PartitionRun> runs, std::size_t first,
                      std::size_t count) {
                    builder.emit(ChunkKind::kPartitioned, origin_host,
                                 data.bits(), runs, tuples.subspan(first, count));
                  });
  return builder.finish();
}

ChunkSlab ChunkWriter::cluster_in_place(std::span<const rel::Tuple> tuples,
                                        int radix_bits, int bits_per_pass,
                                        const join::KernelConfig& kernel,
                                        int origin_host,
                                        join::RadixScratch& scratch,
                                        ChunkSlab reuse) const {
  SlabBuilder builder(std::move(reuse));
  const std::size_t n = tuples.size();
  std::vector<std::uint32_t> offsets;
  join::radix_cluster_to(
      tuples, radix_bits, bits_per_pass, kernel,
      builder.open_tail(n, partitioned_overhead(*this, n, std::size_t{1} << radix_bits)),
      offsets, scratch);
  obs::prof::ScopedProfile prof(obs::prof::current(), "chunk_memcpy", n);
  pack_partitions(*this, offsets,
                  [&](std::span<const PartitionRun> runs, std::size_t first,
                      std::size_t count) {
                    builder.emit_from_tail(ChunkKind::kPartitioned, origin_host,
                                           radix_bits, runs, first, count);
                  });
  return builder.finish();
}

ChunkSlab ChunkWriter::from_sorted(std::span<const rel::Tuple> sorted,
                                   int origin_host) const {
  return copy_ranges(*this, ChunkKind::kSorted, sorted, origin_host, {});
}

ChunkSlab ChunkWriter::sort_in_place(std::span<const rel::Tuple> tuples,
                                     int origin_host, ChunkSlab reuse) const {
  SlabBuilder builder(std::move(reuse));
  const std::size_t n = tuples.size();
  const std::size_t per_chunk = tuples_per_chunk(0);
  const std::span<rel::Tuple> tail =
      builder.open_tail(n, ranges_overhead(n, per_chunk));
  std::copy(tuples.begin(), tuples.end(), tail.begin());
  join::sort_fragment(tail);
  obs::prof::ScopedProfile prof(obs::prof::current(), "chunk_memcpy", n);
  pack_ranges(n, per_chunk,
              [&](std::span<const PartitionRun> runs, std::size_t first,
                  std::size_t count) {
                builder.emit_from_tail(ChunkKind::kSorted, origin_host, 0, runs,
                                       first, count);
              });
  return builder.finish();
}

ChunkSlab ChunkWriter::from_raw(std::span<const rel::Tuple> tuples,
                                int origin_host, ChunkSlab reuse) const {
  return copy_ranges(*this, ChunkKind::kRaw, tuples, origin_host,
                     std::move(reuse));
}

ChunkView decode_chunk(std::span<const std::byte> payload) {
  CJ_CHECK_MSG(payload.size() >= kHeaderBytes, "truncated chunk header");
  ChunkHeader header;
  std::memcpy(&header, payload.data(), kHeaderBytes);
  CJ_CHECK_MSG(header.magic == kChunkMagic, "bad chunk magic");

  const std::size_t runs_bytes = header.num_runs * sizeof(PartitionRun);
  const std::size_t tuples_bytes = header.num_tuples * sizeof(rel::Tuple);
  CJ_CHECK_MSG(payload.size() == kHeaderBytes + runs_bytes + tuples_bytes,
               "chunk length mismatch");

  ChunkView view;
  view.kind = static_cast<ChunkKind>(header.kind);
  view.origin_host = header.origin_host;
  view.radix_bits = header.radix_bits;
  view.runs = std::span<const PartitionRun>(
      reinterpret_cast<const PartitionRun*>(payload.data() + kHeaderBytes),
      header.num_runs);
  view.tuples = std::span<const rel::Tuple>(
      reinterpret_cast<const rel::Tuple*>(payload.data() + kHeaderBytes + runs_bytes),
      header.num_tuples);

  if (view.kind == ChunkKind::kPartitioned) {
    std::uint64_t run_total = 0;
    for (const auto& run : view.runs) run_total += run.count;
    CJ_CHECK_MSG(run_total == header.num_tuples, "chunk run directory mismatch");
  }
  return view;
}

}  // namespace cj::cyclo
