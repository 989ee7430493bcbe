// Unit tests for the chunk wire format: encode/decode round trips, size
// limits, run directories, oversized-partition splitting.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "cyclo/chunk.h"
#include "join/radix.h"
#include "join/sort_merge.h"
#include "rel/generator.h"

namespace cj::cyclo {
namespace {

rel::Relation gen(std::uint64_t rows, std::uint64_t domain, std::uint64_t seed,
                  double zipf = 0.0) {
  return rel::generate(
      {.rows = rows, .key_domain = domain, .zipf_z = zipf, .seed = seed}, "t",
      seed);
}

TEST(ChunkWriter, TuplesPerChunkAccountsForDirectory) {
  ChunkWriter writer(1024);
  // 1024 - 16 header = 1008 / 12 = 84 tuples with no runs.
  EXPECT_EQ(writer.tuples_per_chunk(0), 84u);
  // Each run steals 8 bytes.
  EXPECT_EQ(writer.tuples_per_chunk(3), (1024u - 16 - 24) / 12);
}

TEST(ChunkWriter, SortedRoundTrip) {
  auto r = gen(5'000, 1'000, 1);
  std::vector<rel::Tuple> sorted(r.tuples().begin(), r.tuples().end());
  join::sort_fragment(sorted);

  ChunkWriter writer(4096);
  ChunkSlab slab = writer.from_sorted(sorted, 3);
  EXPECT_GT(slab.num_chunks(), 1u);
  EXPECT_EQ(slab.total_tuples(), sorted.size());

  std::vector<rel::Tuple> reassembled;
  for (std::size_t c = 0; c < slab.num_chunks(); ++c) {
    const ChunkView view = decode_chunk(slab.chunk(c));
    EXPECT_EQ(view.kind, ChunkKind::kSorted);
    EXPECT_EQ(view.origin_host, 3);
    EXPECT_TRUE(view.runs.empty());
    reassembled.insert(reassembled.end(), view.tuples.begin(), view.tuples.end());
  }
  EXPECT_EQ(reassembled, sorted);
}

TEST(ChunkWriter, RawRoundTripPreservesOrder) {
  auto r = gen(1'000, 500, 2);
  ChunkWriter writer(2048);
  ChunkSlab slab = writer.from_raw(r.tuples(), 1);
  std::vector<rel::Tuple> reassembled;
  for (std::size_t c = 0; c < slab.num_chunks(); ++c) {
    const ChunkView view = decode_chunk(slab.chunk(c));
    EXPECT_EQ(view.kind, ChunkKind::kRaw);
    reassembled.insert(reassembled.end(), view.tuples.begin(), view.tuples.end());
  }
  ASSERT_EQ(reassembled.size(), r.rows());
  EXPECT_TRUE(std::equal(r.tuples().begin(), r.tuples().end(), reassembled.begin()));
}

TEST(ChunkWriter, PartitionedRoundTripKeepsRunConsistency) {
  auto r = gen(20'000, 4'000, 3);
  auto parts = join::radix_cluster(r.tuples(), 6, 8);
  ChunkWriter writer(8192);
  ChunkSlab slab = writer.from_partitioned(parts, 2);
  EXPECT_EQ(slab.total_tuples(), r.rows());

  std::multiset<std::uint64_t> in, out;
  // uint64_t{...}: packed Tuple — a const& straight to the offset-4 payload
  // member would be a misaligned reference (UB).
  for (const auto& t : r.tuples()) in.insert(std::uint64_t{t.payload});

  std::uint32_t last_partition = 0;
  for (std::size_t c = 0; c < slab.num_chunks(); ++c) {
    const ChunkView view = decode_chunk(slab.chunk(c));
    EXPECT_EQ(view.kind, ChunkKind::kPartitioned);
    EXPECT_EQ(view.radix_bits, 6);
    std::size_t offset = 0;
    for (const auto& run : view.runs) {
      // Runs appear in nondecreasing partition order across the slab.
      EXPECT_GE(run.partition_id, last_partition);
      last_partition = run.partition_id;
      for (std::size_t i = 0; i < run.count; ++i) {
        const rel::Tuple& t = view.tuples[offset + i];
        EXPECT_EQ(join::partition_of(t.key, 6), run.partition_id);
        out.insert(std::uint64_t{t.payload});
      }
      offset += run.count;
    }
    EXPECT_EQ(offset, view.tuples.size());
  }
  EXPECT_EQ(in, out);
}

TEST(ChunkWriter, OversizedPartitionSplitsAcrossChunks) {
  // All tuples share one key -> a single giant partition (heavy skew).
  rel::Relation r("skew");
  for (std::uint64_t i = 0; i < 10'000; ++i) {
    r.push_back({42, i});
  }
  auto parts = join::radix_cluster(r.tuples(), 4, 8);
  ChunkWriter writer(4096);
  ChunkSlab slab = writer.from_partitioned(parts, 0);
  EXPECT_GT(slab.num_chunks(), 20u);

  const std::uint32_t p42 = join::partition_of(42, 4);
  std::uint64_t total = 0;
  for (std::size_t c = 0; c < slab.num_chunks(); ++c) {
    const ChunkView view = decode_chunk(slab.chunk(c));
    ASSERT_EQ(view.runs.size(), 1u);
    EXPECT_EQ(view.runs[0].partition_id, p42);
    total += view.runs[0].count;
  }
  EXPECT_EQ(total, 10'000u);
}

TEST(ChunkWriter, ChunksRespectBufferSize) {
  auto r = gen(50'000, 10'000, 4);
  auto parts = join::radix_cluster(r.tuples(), 8, 8);
  for (const std::size_t buffer : {1024UL, 4096UL, 65536UL}) {
    ChunkWriter writer(buffer);
    ChunkSlab slab = writer.from_partitioned(parts, 0);
    for (std::size_t c = 0; c < slab.num_chunks(); ++c) {
      EXPECT_LE(slab.chunk(c).size(), buffer);
    }
  }
}

void expect_same_slab(ChunkSlab& got, ChunkSlab& want) {
  ASSERT_EQ(got.num_chunks(), want.num_chunks());
  EXPECT_EQ(got.total_tuples(), want.total_tuples());
  for (std::size_t c = 0; c < want.num_chunks(); ++c) {
    ASSERT_EQ(got.chunk(c).data() - got.slab().data(),
              want.chunk(c).data() - want.slab().data());
  }
  // Whole slabs, alignment padding included.
  const auto a = got.slab();
  const auto b = want.slab();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
}

TEST(ChunkWriter, ReusedSlabEncodesLikeAFreshOne) {
  // A slab handed back as `reuse` (larger, then smaller than the next
  // encoding needs) yields exactly the bytes of a freshly built slab.
  ChunkWriter writer(4096);
  ChunkSlab reused;
  for (const std::uint64_t rows : {20'000UL, 3'000UL, 45'000UL}) {
    auto r = gen(rows, rows / 4, rows);
    reused = writer.from_raw(r.tuples(), 2, std::move(reused));
    ChunkSlab fresh = writer.from_raw(r.tuples(), 2);
    expect_same_slab(reused, fresh);
  }
}

TEST(ChunkWriter, InPlaceBuildsEqualCopyingBuilds) {
  // cluster_in_place and sort_in_place prepare the tuples inside the slab
  // and must yield exactly the bytes of chunking a separately prepared
  // copy: into reused storage larger or smaller than needed, with one to
  // three clustering passes, both kernels, and many-run and split chunks.
  join::RadixScratch scratch;
  ChunkSlab clustered;
  ChunkSlab sorted;
  for (const std::size_t buffer : {256UL, 4096UL}) {
    const ChunkWriter writer(buffer);
    for (const std::uint64_t rows : {20'000UL, 3'000UL, 45'000UL}) {
      for (const double zipf : {0.0, 1.2}) {
        const auto r = gen(rows, rows / 4 + 1, rows + 7, zipf);
        for (const join::KernelConfig& kernel :
             {join::KernelConfig{}, join::KernelConfig::legacy()}) {
          for (const int bits : {0, 6, 11}) {
            clustered = writer.cluster_in_place(r.tuples(), bits, 4, kernel, 2,
                                                scratch, std::move(clustered));
            ChunkSlab want = writer.from_partitioned(
                join::radix_cluster(r.tuples(), bits, 4, kernel), 2);
            expect_same_slab(clustered, want);
          }
        }
        std::vector<rel::Tuple> copy(r.tuples().begin(), r.tuples().end());
        join::sort_fragment(copy);
        sorted = writer.sort_in_place(r.tuples(), 1, std::move(sorted));
        ChunkSlab want = writer.from_sorted(copy, 1);
        expect_same_slab(sorted, want);
      }
    }
  }
}

TEST(ChunkWriter, EmptyInputYieldsNoChunks) {
  ChunkWriter writer(4096);
  EXPECT_EQ(writer.from_raw({}, 0).num_chunks(), 0u);
  EXPECT_EQ(writer.from_sorted({}, 0).num_chunks(), 0u);
  auto parts = join::radix_cluster({}, 4, 8);
  EXPECT_EQ(writer.from_partitioned(parts, 0).num_chunks(), 0u);
  join::RadixScratch scratch;
  EXPECT_EQ(writer.cluster_in_place({}, 4, 8, {}, 0, scratch).total_bytes(), 0u);
  EXPECT_EQ(writer.sort_in_place({}, 0).total_bytes(), 0u);
}

TEST(DecodeChunk, RejectsCorruptedMagic) {
  auto r = gen(100, 50, 5);
  ChunkWriter writer(4096);
  ChunkSlab slab = writer.from_raw(r.tuples(), 0);
  std::vector<std::byte> copy(slab.chunk(0).begin(), slab.chunk(0).end());
  copy[0] = std::byte{0x00};
  EXPECT_DEATH((void)decode_chunk(copy), "magic");
}

TEST(DecodeChunk, RejectsTruncatedPayload) {
  auto r = gen(100, 50, 6);
  ChunkWriter writer(4096);
  ChunkSlab slab = writer.from_raw(r.tuples(), 0);
  auto full = slab.chunk(0);
  EXPECT_DEATH((void)decode_chunk(full.subspan(0, full.size() - 1)), "length");
  EXPECT_DEATH((void)decode_chunk(full.subspan(0, 4)), "header");
}

}  // namespace
}  // namespace cj::cyclo
