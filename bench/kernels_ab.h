// The kernel A/B cases shared by bench/micro_kernels (baseline producer)
// and bench/regress (regression gate): one measurable closure per
// kernel x variant x size, over identical inputs (same generator seeds),
// so a BENCH_kernels.json written by one binary is comparable with a
// re-measurement taken by the other.
//
// Cases cross-validate: both variants of a probe case compute an
// order-independent checksum, and checksum() lets callers assert the
// variants agree before trusting the timings.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "join/hash_join.h"
#include "join/radix.h"
#include "join/simd.h"
#include "rel/generator.h"

namespace cj::bench {

/// One measurable kernel configuration. `run` executes exactly one rep of
/// the kernel and returns a checksum when the kernel produces join output
/// (0 otherwise). Clustering reps allocate their output; build reps
/// rebuild one kept table in place, as the cyclo runners do on every run
/// of a CycloJoin. Inputs are owned by the closure (shared with the other
/// cases of the same size).
struct KernelCase {
  std::string kernel;   ///< "radix_cluster", "hash_build", "hash_build_staged",
                        ///< "probe_partition", "probe_cached", "probe_simd"
  std::string variant;  ///< "legacy" | "optimized"
  std::int64_t rows = 0;
  int radix_bits = 0;
  /// Resolved SIMD dispatch tier this case's kernels execute under
  /// ("scalar" | "neon" | "avx2"). Stamped into the BENCH row; the
  /// regression gate refuses to compare a baseline taken at one tier with
  /// a measurement taken at another — kernel times across tiers are
  /// different code paths, not noise.
  std::string tier;
  /// True when run()'s return value is an order-independent join checksum
  /// that must agree across this kernel's variants (probe cases). False
  /// where the variants legitimately return different values (e.g.
  /// hash_build returns table bytes, and the layouts differ by design).
  bool cross_validate = false;
  std::function<std::uint64_t()> run;

  std::string label() const { return kernel + "/" + variant; }
};

namespace internal {

/// Inputs shared by every case of one size (kept alive via shared_ptr
/// captures in the case closures).
struct AbInputs {
  rel::Relation r;
  rel::Relation s;
  // Pre-built probe state: the probe cases measure the table walk, not the
  // build that precedes it.
  join::HashJoinStationary legacy_single, opt_single;    // radix_bits = 0
  join::PartitionedData legacy_single_r, opt_single_r;
  join::HashJoinStationary legacy_cached, opt_cached;    // cache-budget bits
  join::PartitionedData legacy_cached_r, opt_cached_r;
  join::HashJoinStationary scalar_cached;  // simd forced off, same layout
};

}  // namespace internal

/// Builds the full A/B case list for one input size. Seeds match the
/// historical micro_kernels sweep (41/42) so fresh measurements are
/// comparable with checked-in baselines.
inline std::vector<KernelCase> make_kernel_cases(std::int64_t rows) {
  const join::KernelConfig legacy_kernel = join::KernelConfig::legacy();
  const join::KernelConfig opt_kernel{};
  join::RadixConfig legacy_cfg;
  legacy_cfg.kernel = legacy_kernel;
  join::RadixConfig opt_cfg;
  opt_cfg.kernel = opt_kernel;

  auto in = std::make_shared<internal::AbInputs>();
  const auto n = static_cast<std::uint64_t>(rows);
  in->r = rel::generate({.rows = n, .key_domain = n, .seed = 41}, "bench", 1);
  in->s = rel::generate({.rows = n, .key_domain = n, .seed = 42}, "bench", 2);

  // One bit choice for both variants (the optimized layout's slightly
  // coarser pick) so items/sec compares like for like.
  const int bits = join::choose_radix_bits(static_cast<std::size_t>(rows), opt_cfg);

  const std::string legacy_tier =
      join::simd_tier_name(join::resolve_simd(legacy_kernel.simd));
  const std::string opt_tier =
      join::simd_tier_name(join::resolve_simd(opt_kernel.simd));

  std::vector<KernelCase> cases;
  const auto add = [&](const char* kernel, const char* variant, int case_bits,
                       std::function<std::uint64_t()> run,
                       bool cross_validate = false) {
    const bool legacy = std::string_view(variant) == "legacy";
    cases.push_back(KernelCase{kernel, variant, rows, case_bits,
                               legacy ? legacy_tier : opt_tier, cross_validate,
                               std::move(run)});
  };

  add("radix_cluster", "legacy", bits, [in, bits, legacy_kernel] {
    auto parts = join::radix_cluster(in->r.tuples(), bits, 8, legacy_kernel);
    return static_cast<std::uint64_t>(parts.rows());
  });
  add("radix_cluster", "optimized", bits, [in, bits, opt_kernel] {
    auto parts = join::radix_cluster(in->r.tuples(), bits, 8, opt_kernel);
    return static_cast<std::uint64_t>(parts.rows());
  });

  // Each build case rebuilds its own kept table (steady state: no page of
  // it is faulted in again after the first rep).
  const auto rebuild = [in, bits](join::RadixConfig cfg) {
    auto table = std::make_shared<join::HashJoinStationary>();
    return [in, bits, cfg, table] {
      table->rebuild(in->s.tuples(), bits, cfg);
      return static_cast<std::uint64_t>(table->bytes());
    };
  };
  add("hash_build", "legacy", bits, rebuild(legacy_cfg));
  add("hash_build", "optimized", bits, rebuild(opt_cfg));

  // Staged-build A/B: same bucket-group layout on both sides, but the
  // "legacy" variant switches the write-combining machinery off
  // (buffered_scatter = false disables both the staged scatter of the radix
  // pass and the fused region-staged table build), so this pair isolates
  // what the software write-combining path buys over random direct stores.
  // Below the staged-build size gate both variants run the direct build and
  // the ratio is ~1 by construction.
  join::RadixConfig unstaged_cfg = opt_cfg;
  unstaged_cfg.kernel.buffered_scatter = false;
  add("hash_build_staged", "legacy", bits, rebuild(unstaged_cfg));
  add("hash_build_staged", "optimized", bits, rebuild(opt_cfg));

  // Probe A/B, two shapes (docs/KERNELS.md): `probe_partition` at
  // radix_bits = 0 — one table far larger than L2, isolating the table
  // walk the fingerprint layout and prefetch pipeline redesign —
  // and `probe_cached` at the cache-budget bits the system would pick.
  in->legacy_single = join::HashJoinStationary::build(in->s.tuples(), 0, legacy_cfg);
  in->opt_single = join::HashJoinStationary::build(in->s.tuples(), 0, opt_cfg);
  in->legacy_single_r = join::radix_cluster(in->r.tuples(), 0, 8, legacy_kernel);
  in->opt_single_r = join::radix_cluster(in->r.tuples(), 0, 8, opt_kernel);
  in->legacy_cached =
      join::HashJoinStationary::build(in->s.tuples(), bits, legacy_cfg);
  in->opt_cached = join::HashJoinStationary::build(in->s.tuples(), bits, opt_cfg);
  in->legacy_cached_r = join::radix_cluster(in->r.tuples(), bits, 8, legacy_kernel);
  in->opt_cached_r = join::radix_cluster(in->r.tuples(), bits, 8, opt_kernel);

  const auto probe_all = [](const join::HashJoinStationary& built,
                            const join::PartitionedData& parts) {
    join::JoinResult result;
    for (std::uint32_t p = 0; p < parts.num_partitions(); ++p) {
      built.probe_partition(p, parts.partition(p), result);
    }
    return result.checksum();
  };
  add("probe_partition", "legacy", 0,
      [in, probe_all] { return probe_all(in->legacy_single, in->legacy_single_r); },
      /*cross_validate=*/true);
  add("probe_partition", "optimized", 0,
      [in, probe_all] { return probe_all(in->opt_single, in->opt_single_r); },
      /*cross_validate=*/true);
  add("probe_cached", "legacy", bits,
      [in, probe_all] { return probe_all(in->legacy_cached, in->legacy_cached_r); },
      /*cross_validate=*/true);
  add("probe_cached", "optimized", bits,
      [in, probe_all] { return probe_all(in->opt_cached, in->opt_cached_r); },
      /*cross_validate=*/true);

  // SIMD-tier A/B over identical bucket-group tables: the layout does not
  // depend on KernelConfig::simd, so forcing the scalar tier ("legacy")
  // against the resolved best tier ("optimized") isolates the vector
  // fingerprint compare itself. On a machine whose best tier IS scalar the
  // pair degenerates to a self-compare at ratio ~1 — which is what makes
  // the scalar-fallback CI job's numbers comparable.
  join::RadixConfig scalar_cfg = opt_cfg;
  scalar_cfg.kernel.simd = join::Simd::kScalar;
  in->scalar_cached =
      join::HashJoinStationary::build(in->s.tuples(), bits, scalar_cfg);
  add("probe_simd", "legacy", bits,
      [in, probe_all] { return probe_all(in->scalar_cached, in->opt_cached_r); },
      /*cross_validate=*/true);
  add("probe_simd", "optimized", bits,
      [in, probe_all] { return probe_all(in->opt_cached, in->opt_cached_r); },
      /*cross_validate=*/true);
  return cases;
}

}  // namespace cj::bench
