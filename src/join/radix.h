// Radix clustering — the setup phase of the partitioned hash join.
//
// Follows the MonetDB radix join of Manegold, Boncz & Kersten (TKDE 2002),
// which the paper ported to cyclo-join: inputs are clustered on the low
// bits of a hash of the join key in multiple passes of bounded fan-out
// (cache/TLB friendly), until each partition of the stationary relation
// plus its hash table fits the CPU cache budget.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "join/kernel_config.h"
#include "rel/relation.h"

namespace cj::join {

struct RadixConfig {
  /// Target: an S partition + hash table fits the L2 cache. The paper's
  /// Xeons had 4 MB of L2; this default assumes a ~2 MB L2 (common today)
  /// and leaves headroom — what matters for the paper's Equation (*) is
  /// that probes stay cache-resident at *every* ring size.
  std::size_t cache_budget_bytes = 1ULL << 20;
  /// Max fan-out per pass is 2^bits_per_pass (TLB-friendly).
  int bits_per_pass = 8;
  /// Hard cap on total radix bits (2^16 partitions is plenty).
  int max_bits = 16;
  /// Cache-consciousness knobs of the kernels themselves (docs/KERNELS.md).
  KernelConfig kernel;
};

/// 32-bit finalizer-style hash of a join key (murmur3 avalanche). Both
/// sides of the join and the per-partition hash tables share it.
inline std::uint32_t hash_key(std::uint32_t key) {
  std::uint32_t h = key;
  h ^= h >> 16;
  h *= 0x85EBCA6BU;
  h ^= h >> 13;
  h *= 0xC2B2AE35U;
  h ^= h >> 16;
  return h;
}

/// Partition of a key under `bits` total radix bits (low bits of the hash).
inline std::uint32_t partition_of(std::uint32_t key, int bits) {
  return bits == 0 ? 0 : (hash_key(key) & ((1U << bits) - 1));
}

/// Picks the number of radix bits so an even share of `s_rows` per
/// partition (plus hash-table overhead, whose per-tuple footprint depends
/// on config.kernel's table layout) fits the cache budget.
int choose_radix_bits(std::size_t s_rows, const RadixConfig& config);

namespace detail {
/// Clustering work item of the multi-pass single-hash path: the tuple with
/// its hash carried alongside, so no pass ever rehashes. 16 bytes — four
/// per cache line, and unlike the bare 12-byte tuple no entry straddles a
/// line.
struct HashedTuple {
  rel::Tuple t;
  std::uint32_t h;
};
static_assert(sizeof(HashedTuple) == 16);
}  // namespace detail

/// Transient buffers of a clustering: the hash side array and the
/// multi-pass intermediates. A caller that clusters repeatedly keeps one
/// and hands it to every clustering call, so each clustering
/// writes into the previous one's resident pages instead of faulting in
/// fresh ones.
struct RadixScratch {
  std::vector<std::uint32_t> hashes;
  std::vector<detail::HashedTuple> wide;
  std::vector<detail::HashedTuple> wide_next;
};

/// Tuples clustered into 2^bits partitions, with a partition directory.
/// Partition p occupies [offsets[p], offsets[p+1]).
class PartitionedData {
 public:
  PartitionedData() = default;
  PartitionedData(std::vector<rel::Tuple> tuples, std::vector<std::uint32_t> offsets,
                  int bits)
      : tuples_(std::move(tuples)), offsets_(std::move(offsets)), bits_(bits) {
    CJ_CHECK(offsets_.size() == (1ULL << bits_) + 1);
    CJ_CHECK(offsets_.back() == tuples_.size());
  }

  int bits() const { return bits_; }
  std::uint32_t num_partitions() const { return 1U << bits_; }
  std::size_t rows() const { return tuples_.size(); }

  std::span<const rel::Tuple> partition(std::uint32_t p) const {
    CJ_DCHECK(p < num_partitions());
    return std::span<const rel::Tuple>(tuples_).subspan(offsets_[p],
                                                        offsets_[p + 1] - offsets_[p]);
  }

  std::span<const rel::Tuple> all_tuples() const { return tuples_; }
  std::span<const std::uint32_t> offsets() const { return offsets_; }

  /// Moves the tuple and directory storage out (contents unspecified) so
  /// the next clustering can be written into it; this becomes empty.
  std::pair<std::vector<rel::Tuple>, std::vector<std::uint32_t>> release() {
    bits_ = 0;
    return {std::exchange(tuples_, {}), std::exchange(offsets_, {})};
  }

 private:
  std::vector<rel::Tuple> tuples_;
  std::vector<std::uint32_t> offsets_;
  int bits_ = 0;
};

/// Multi-pass radix clustering of `input` into 2^total_bits partitions.
/// Each pass has fan-out at most 2^bits_per_pass. O(passes * n) time,
/// 2n tuples of transient memory. `kernel` selects between the legacy
/// kernels (rehash per loop, direct scatter) and the cache-conscious ones
/// (hash side array, software-buffered scatter) — identical output
/// partition directory either way; tuple order *within* a partition may
/// differ between kernel configurations, like it does between pass shapes.
PartitionedData radix_cluster(std::span<const rel::Tuple> input, int total_bits,
                              int bits_per_pass, const KernelConfig& kernel = {});

/// radix_cluster that writes into `out`, reusing its storage and
/// `scratch`'s wherever they are large enough (same output as
/// radix_cluster). Buffers only ever grow, so a caller clustering inputs
/// of similar size over and over allocates nothing in steady state.
void radix_cluster_into(std::span<const rel::Tuple> input, int total_bits,
                        int bits_per_pass, const KernelConfig& kernel,
                        PartitionedData& out, RadixScratch& scratch);

/// The clustering itself, into caller-provided storage: writes the
/// clustered tuples to `out` (exactly input.size() slots, not overlapping
/// `input`) and the partition directory to `offsets` (2^total_bits + 1
/// entries). Lets a caller cluster straight into memory it lays out itself
/// (ChunkWriter::cluster_in_place clusters into the chunk slab).
void radix_cluster_to(std::span<const rel::Tuple> input, int total_bits,
                      int bits_per_pass, const KernelConfig& kernel,
                      std::span<rel::Tuple> out,
                      std::vector<std::uint32_t>& offsets,
                      RadixScratch& scratch);

}  // namespace cj::join
