// Micro-benchmarks of the join kernels and workload generators
// (google-benchmark). These are the raw building blocks whose measured CPU
// costs drive the simulation's virtual time.
//
// The cache-sensitive kernels (radix clustering, hash build, hash probe)
// come in legacy/optimized pairs driven by join::KernelConfig — the A/B
// that docs/KERNELS.md describes. Besides the google-benchmark suite, the
// binary runs a self-contained A/B sweep and writes its trajectory to
// BENCH_kernels.json (BenchJson): one row per kernel x variant x size,
// cross-validated by checksum. Flags, on top of the --benchmark_* ones:
//
//   --ab_only          skip google-benchmark, run just the A/B sweep (CI)
//   --ab_rows=a,b,c    A/B input sizes          (default 2^16,2^20,2^22)
//   --ab_reps=N        best-of-N repetitions    (default 5)
//   --json_out=PATH    trajectory dump          (default BENCH_kernels.json)
//   --net_cost_check=BOOL         assert optimized build+probe nets out (on)
//   --net_cost_revolutions=N      probes per revolution in that check (6)
//   --net_cost_slack=F            allowed net-cost headroom (1.1)
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <vector>

#include <map>
#include <string>

#include "common/assert.h"
#include "common/cputime.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "cyclo/chunk.h"
#include "harness.h"
#include "join/hash_join.h"
#include "join/radix.h"
#include "join/sort_merge.h"
#include "kernels_ab.h"
#include "obs/prof.h"
#include "rel/generator.h"

namespace {

using namespace cj;

rel::Relation make_rel(std::int64_t rows, double zipf = 0.0,
                       std::uint64_t seed = 99) {
  return rel::generate({.rows = static_cast<std::uint64_t>(rows),
                        .key_domain = static_cast<std::uint64_t>(rows),
                        .zipf_z = zipf,
                        .seed = seed},
                       "bench", 1);
}

join::RadixConfig config_for(const join::KernelConfig& kernel) {
  join::RadixConfig config;
  config.kernel = kernel;
  return config;
}

// ------------------------------------------------ legacy/optimized pairs

void BM_RadixCluster(benchmark::State& state, join::KernelConfig kernel) {
  const auto rows = state.range(0);
  auto r = make_rel(rows);
  const int bits =
      join::choose_radix_bits(static_cast<std::size_t>(rows), config_for(kernel));
  for (auto _ : state) {
    auto parts = join::radix_cluster(r.tuples(), bits, 8, kernel);
    benchmark::DoNotOptimize(parts.rows());
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK_CAPTURE(BM_RadixCluster, legacy, join::KernelConfig::legacy())
    ->Arg(1 << 16)->Arg(1 << 20)->Arg(1 << 22);
BENCHMARK_CAPTURE(BM_RadixCluster, optimized, join::KernelConfig{})
    ->Arg(1 << 16)->Arg(1 << 20)->Arg(1 << 22);

void BM_HashBuild(benchmark::State& state, join::KernelConfig kernel) {
  const auto rows = state.range(0);
  auto s = make_rel(rows);
  const auto config = config_for(kernel);
  const int bits =
      join::choose_radix_bits(static_cast<std::size_t>(rows), config);
  join::HashJoinStationary stationary;  // rebuilt in place, like a run's
  for (auto _ : state) {
    stationary.rebuild(s.tuples(), bits, config);
    benchmark::DoNotOptimize(stationary.bytes());
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK_CAPTURE(BM_HashBuild, legacy, join::KernelConfig::legacy())
    ->Arg(1 << 16)->Arg(1 << 20);
BENCHMARK_CAPTURE(BM_HashBuild, optimized, join::KernelConfig{})
    ->Arg(1 << 16)->Arg(1 << 20);

void BM_HashProbe(benchmark::State& state, join::KernelConfig kernel) {
  const auto rows = state.range(0);
  auto r = make_rel(rows, 0.0, 99);
  auto s = make_rel(rows, 0.0, 98);
  const auto config = config_for(kernel);
  const int bits =
      join::choose_radix_bits(static_cast<std::size_t>(rows), config);
  auto stationary = join::HashJoinStationary::build(s.tuples(), bits, config);
  auto r_parts = join::radix_cluster(r.tuples(), bits, 8, kernel);
  for (auto _ : state) {
    join::JoinResult result;
    for (std::uint32_t p = 0; p < r_parts.num_partitions(); ++p) {
      stationary.probe_partition(p, r_parts.partition(p), result);
    }
    benchmark::DoNotOptimize(result.checksum());
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK_CAPTURE(BM_HashProbe, legacy, join::KernelConfig::legacy())
    ->Arg(1 << 16)->Arg(1 << 20)->Arg(1 << 22);
BENCHMARK_CAPTURE(BM_HashProbe, optimized, join::KernelConfig{})
    ->Arg(1 << 16)->Arg(1 << 20)->Arg(1 << 22);

// ------------------------------------------------------- other kernels

void BM_Sort(benchmark::State& state) {
  const auto rows = state.range(0);
  auto r = make_rel(rows);
  for (auto _ : state) {
    std::vector<rel::Tuple> copy(r.tuples().begin(), r.tuples().end());
    join::sort_fragment(copy);
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_Sort)->Arg(1 << 16)->Arg(1 << 20);

void BM_MergeJoin(benchmark::State& state) {
  const auto rows = state.range(0);
  auto r = make_rel(rows);
  auto s = make_rel(rows);
  std::vector<rel::Tuple> r_sorted(r.tuples().begin(), r.tuples().end());
  std::vector<rel::Tuple> s_sorted(s.tuples().begin(), s.tuples().end());
  join::sort_fragment(r_sorted);
  join::sort_fragment(s_sorted);
  for (auto _ : state) {
    join::JoinResult result;
    join::merge_join(r_sorted, s_sorted, result);
    benchmark::DoNotOptimize(result.checksum());
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_MergeJoin)->Arg(1 << 16)->Arg(1 << 20)->Arg(1 << 22);

void BM_BandMergeJoin(benchmark::State& state) {
  const auto rows = state.range(0);
  auto r = make_rel(rows);
  auto s = make_rel(rows);
  std::vector<rel::Tuple> r_sorted(r.tuples().begin(), r.tuples().end());
  std::vector<rel::Tuple> s_sorted(s.tuples().begin(), s.tuples().end());
  join::sort_fragment(r_sorted);
  join::sort_fragment(s_sorted);
  for (auto _ : state) {
    join::JoinResult result;
    join::band_merge_join(r_sorted, s_sorted, 2, result);
    benchmark::DoNotOptimize(result.checksum());
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_BandMergeJoin)->Arg(1 << 16)->Arg(1 << 20);

void BM_ZipfGenerate(benchmark::State& state) {
  const double z = static_cast<double>(state.range(0)) / 100.0;
  ZipfGenerator zipf(1 << 22, z);
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfGenerate)->Arg(0)->Arg(50)->Arg(90);

void BM_ChunkEncodeDecode(benchmark::State& state) {
  const auto rows = state.range(0);
  auto r = make_rel(rows);
  const int bits = join::choose_radix_bits(static_cast<std::size_t>(rows), {});
  auto parts = join::radix_cluster(r.tuples(), bits, 8);
  const cyclo::ChunkWriter writer(256 * 1024);
  for (auto _ : state) {
    cyclo::ChunkSlab slab = writer.from_partitioned(parts, 0);
    std::uint64_t tuples = 0;
    for (std::size_t c = 0; c < slab.num_chunks(); ++c) {
      tuples += cyclo::decode_chunk(slab.chunk(c)).tuples.size();
    }
    benchmark::DoNotOptimize(tuples);
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_ChunkEncodeDecode)->Arg(1 << 18);

// ------------------------------------------------------ A/B trajectory
//
// Best-of-N CPU time per kernel and variant over the shared case list
// (bench/kernels_ab.h), cross-validated: both variants of a probe must
// produce the identical order-independent checksum. This is the
// machine-readable perf baseline the CI regression gate (bench/regress)
// compares against. One extra untimed rep per case runs under the kernel
// profiler, so the JSON also carries per-phase counters ("profile" key).

double best_of(int reps, const std::function<void()>& fn) {
  std::int64_t best = std::numeric_limits<std::int64_t>::max();
  for (int i = 0; i < reps; ++i) best = std::min<std::int64_t>(best, measure_cpu(fn));
  return static_cast<double>(best);
}

struct VariantTimes {
  double legacy_ns = 0;
  double optimized_ns = 0;
  std::string legacy_tier;
  std::string optimized_tier;
};

void emit(bench::BenchJson& json, const char* kernel, std::int64_t rows,
          int radix_bits, const VariantTimes& t) {
  const double rows_d = static_cast<double>(rows);
  json.row({{"kernel", kernel},
            {"variant", "legacy"},
            {"tier", t.legacy_tier.c_str()}},
           {{"rows", rows_d},
            {"radix_bits", static_cast<double>(radix_bits)},
            {"cpu_ns", t.legacy_ns},
            {"items_per_sec", rows_d / (t.legacy_ns * 1e-9)}});
  json.row({{"kernel", kernel},
            {"variant", "optimized"},
            {"tier", t.optimized_tier.c_str()}},
           {{"rows", rows_d},
            {"radix_bits", static_cast<double>(radix_bits)},
            {"cpu_ns", t.optimized_ns},
            {"items_per_sec", rows_d / (t.optimized_ns * 1e-9)}});
  std::printf("%-16s %9" PRId64 " rows  bits %2d  legacy %7.1f Mit/s"
              "   optimized %7.1f Mit/s   speedup %.2fx\n",
              kernel, rows, radix_bits, rows_d / (t.legacy_ns * 1e-3),
              rows_d / (t.optimized_ns * 1e-3), t.legacy_ns / t.optimized_ns);
}

/// The build-cost tradeoff guard (docs/KERNELS.md): the fingerprint table
/// build is deliberately slower than the legacy chained build, paid back by
/// faster probes over every revolution of the ring. This asserts the trade
/// nets out — build + `revolutions` probes must not be more than `slack`
/// above legacy — so a future "optimization" of the build that wrecks the
/// probe side (or vice versa) fails the bench even when each kernel's own
/// A/B row still looks plausible.
void check_net_cost(std::int64_t rows, const VariantTimes& build,
                    const VariantTimes& probe, int revolutions, double slack) {
  const double legacy = build.legacy_ns + revolutions * probe.legacy_ns;
  const double optimized = build.optimized_ns + revolutions * probe.optimized_ns;
  std::printf("net cost @%d revolutions: legacy %.2f ms, optimized %.2f ms "
              "(%.2fx)\n",
              revolutions, legacy * 1e-6, optimized * 1e-6, legacy / optimized);
  CJ_CHECK_MSG(optimized <= legacy * slack,
               "optimized build+probe net cost regressed past the legacy "
               "kernels — the fingerprint build's cost is no longer paid "
               "back by its probes (docs/KERNELS.md)");
  (void)rows;
}

void run_kernel_ab(bench::BenchJson& json, const std::vector<std::int64_t>& sizes,
                   int reps, int revolutions, double slack, bool net_cost) {
  std::printf("\n== kernel A/B (best of %d, thread CPU time) ==\n", reps);
  obs::prof::KernelProfiler profiler;
  for (const std::int64_t rows : sizes) {
    auto cases = bench::make_kernel_cases(rows);
    std::map<std::string, std::uint64_t> checksums;
    std::map<std::string, VariantTimes> times;  // kernel -> pair
    std::map<std::string, int> bits_of;
    std::vector<std::string> order;
    for (const bench::KernelCase& c : cases) {
      // One profiled (untimed) rep first — it warms the freshly generated
      // inputs and the arena, and its per-phase counters (attributed under
      // entity = "kernel/variant") end up in the JSON's "profile" key.
      {
        const std::string entity = c.label();
        obs::prof::ScopedContext ctx(&profiler, /*host=*/0, entity);
        c.run();
      }
      std::uint64_t checksum = 0;
      const double ns = best_of(reps, [&] {
        checksum = c.run();
        benchmark::DoNotOptimize(checksum);
      });
      if (c.cross_validate) {
        auto [it, inserted] = checksums.emplace(c.kernel, checksum);
        CJ_CHECK_MSG(inserted || it->second == checksum,
                     "kernel A/B checksum mismatch: the variants disagree");
      }
      if (times.find(c.kernel) == times.end()) order.push_back(c.kernel);
      auto& t = times[c.kernel];
      if (c.variant == "legacy") {
        t.legacy_ns = ns;
        t.legacy_tier = c.tier;
      } else {
        t.optimized_ns = ns;
        t.optimized_tier = c.tier;
      }
      bits_of[c.kernel] = c.radix_bits;
    }
    for (const std::string& kernel : order) {
      emit(json, kernel.c_str(), rows, bits_of[kernel], times[kernel]);
    }
    if (net_cost) {
      check_net_cost(rows, times["hash_build"], times["probe_partition"],
                     revolutions, slack);
    }
  }
  std::printf("profile counters: %s\n", profiler.hardware() ? "hw" : "fallback");
  json.set_profile(profiler.snapshot().to_json());
}

}  // namespace

int main(int argc, char** argv) {
  cj::bench::pin_allocator_for_measurement();
  benchmark::Initialize(&argc, argv);  // strips --benchmark_* from argv
  auto flags = bench::parse_flags_or_die(argc, argv);
  const bool ab_only = flags.get_bool("ab_only", false);
  const auto ab_rows =
      flags.get_int_list("ab_rows", {1 << 16, 1 << 20, 1 << 22});
  const int ab_reps = static_cast<int>(flags.get_int("ab_reps", 5));
  // Net-cost guard: a ring revolution probes each resident table about
  // num_hosts times per full rotation of R (paper testbed: 6 hosts).
  const bool net_cost = flags.get_bool("net_cost_check", true);
  const int revolutions = static_cast<int>(flags.get_int("net_cost_revolutions", 6));
  const double slack = flags.get_double("net_cost_slack", 1.1);
  bench::BenchJson json(flags, "kernels");
  bench::check_unused_flags(flags);

  if (!ab_only) benchmark::RunSpecifiedBenchmarks();
  run_kernel_ab(json, ab_rows, ab_reps, revolutions, slack, net_cost);
  json.write();
  return 0;
}
