// Working memory kept across runs (cyclo_join.h): one CycloJoin rebuilds
// its per-host stationary tables, clustering scratch and chunk slab in
// place on every run. These suites drive one object through runs
// whose inputs grow, shrink and grow again — each run's inputs destroyed
// before the next run starts, so a fragment view or a buffer that outlives
// its run is a use-after-free under ASan — mixing run, run_shared and
// run_fragments, and check every result against the nested-loops oracle.
// CI also runs this binary under TSan: the kept memory moves from the
// caller's thread to the rt engine and worker threads and back.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cyclo/cyclo_join.h"
#include "join/nested_loops.h"
#include "rel/generator.h"

namespace cj::cyclo {
namespace {

constexpr std::uint32_t kBand = 2;

JoinSpec spec_for(Algorithm algorithm) {
  JoinSpec spec;
  spec.algorithm = algorithm;
  if (algorithm == Algorithm::kSortMergeJoin) spec.band = kBand;
  return spec;
}

SharedQuery query_on(const rel::Relation* stationary, std::uint32_t band) {
  SharedQuery query;
  query.stationary = stationary;
  query.band = band;
  return query;
}

ClusterConfig reuse_cluster(Backend backend, int hosts) {
  ClusterConfig cfg;
  cfg.backend = backend;
  cfg.num_hosts = hosts;
  cfg.cores_per_host = 2;
  cfg.node.buffer_bytes = 16 * 1024;  // small buffers → many chunks rotate
  cfg.node.num_buffers = 4;
  return cfg;
}

QueryResult oracle(const rel::Relation& r, const rel::Relation& s,
                   Algorithm algorithm) {
  join::JoinResult result;
  if (algorithm == Algorithm::kSortMergeJoin) {
    join::nested_loops_band_join(r.tuples(), s.tuples(), kBand, result);
  } else {
    join::nested_loops_equi_join(r.tuples(), s.tuples(), result);
  }
  return QueryResult{result.matches(), result.checksum()};
}

struct Inputs {
  std::unique_ptr<rel::Relation> r, s, s2;
};

Inputs make_inputs(std::size_t rows, std::uint64_t seed) {
  const std::size_t domain = rows / 2 + 1;
  Inputs in;
  in.r = std::make_unique<rel::Relation>(rel::generate(
      {.rows = rows, .key_domain = domain, .seed = seed}, "R", 1));
  in.s = std::make_unique<rel::Relation>(rel::generate(
      {.rows = rows * 3 / 4, .key_domain = domain, .seed = seed + 1}, "S", 2));
  in.s2 = std::make_unique<rel::Relation>(rel::generate(
      {.rows = rows / 3, .key_domain = domain, .seed = seed + 2}, "S2", 3));
  return in;
}

struct ReuseCase {
  Backend backend;
  Algorithm algorithm;
};

class WorkingMemoryReuse : public ::testing::TestWithParam<ReuseCase> {};

TEST_P(WorkingMemoryReuse, GrowShrinkGrowMatchesOracle) {
  const ReuseCase param = GetParam();
  constexpr int kHosts = 3;
  const JoinSpec spec = spec_for(param.algorithm);
  CycloJoin cyclo(reuse_cluster(param.backend, kHosts), spec);

  // Grow, shrink, grow again: buffers are reused when large enough, kept
  // oversized after the shrink, and outgrown by the last step.
  const std::vector<std::size_t> rows = {2'000, 4'500, 700, 6'000};
  Inputs previous;
  for (std::size_t step = 0; step < rows.size(); ++step) {
    SCOPED_TRACE(testing::Message() << "step " << step << ", " << rows[step]
                                    << " rows");
    Inputs in = make_inputs(rows[step], 100 + 10 * step);
    previous = Inputs();  // the last step's inputs die before this run
    const QueryResult want = oracle(*in.r, *in.s, param.algorithm);
    const QueryResult want2 = oracle(*in.r, *in.s2, param.algorithm);
    ASSERT_GT(want.matches, 0u);

    const RunReport solo = cyclo.run(*in.r, *in.s);
    EXPECT_EQ(solo.matches, want.matches);
    EXPECT_EQ(solo.checksum, want.checksum);

    // Two queries on one rotation: more stationary slots than the solo run.
    const SharedRunReport shared = cyclo.run_shared(
        *in.r, {query_on(in.s.get(), spec.band), query_on(in.s2.get(), spec.band)});
    ASSERT_EQ(shared.queries.size(), 2u);
    EXPECT_EQ(shared.queries[0].matches, want.matches);
    EXPECT_EQ(shared.queries[0].checksum, want.checksum);
    EXPECT_EQ(shared.queries[1].matches, want2.matches);
    EXPECT_EQ(shared.queries[1].checksum, want2.checksum);

    // Owned, moved-in fragments with S rotating this time.
    FragmentInputs frags;
    frags.rotating = rel::split_even(*in.s, kHosts);
    frags.stationary = rel::split_even(*in.r, kHosts);
    const RunReport flipped = cyclo.run_fragments(std::move(frags));
    const QueryResult want_flipped = oracle(*in.s, *in.r, param.algorithm);
    EXPECT_EQ(flipped.matches, want_flipped.matches);
    EXPECT_EQ(flipped.checksum, want_flipped.checksum);

    previous = std::move(in);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, WorkingMemoryReuse,
    ::testing::Values(ReuseCase{Backend::kSim, Algorithm::kHashJoin},
                      ReuseCase{Backend::kRt, Algorithm::kHashJoin},
                      ReuseCase{Backend::kSim, Algorithm::kSortMergeJoin},
                      ReuseCase{Backend::kRt, Algorithm::kSortMergeJoin}),
    [](const testing::TestParamInfo<ReuseCase>& info) {
      return std::string(info.param.backend == Backend::kRt ? "Rt" : "Sim") +
             (info.param.algorithm == Algorithm::kHashJoin ? "Hash"
                                                           : "SortMerge");
    });

TEST(WorkingMemoryReuse, OverlappingRunsOnOneObjectAgree) {
  // A run that starts while another holds the kept memory builds in fresh
  // memory; both results stay exact and the object stays reusable.
  CycloJoin cyclo(reuse_cluster(Backend::kRt, 2),
                  spec_for(Algorithm::kHashJoin));
  const Inputs in = make_inputs(3'000, 7);
  const QueryResult want = oracle(*in.r, *in.s, Algorithm::kHashJoin);
  RunReport a, b;
  std::thread other([&] { a = cyclo.run(*in.r, *in.s); });
  b = cyclo.run(*in.r, *in.s);
  other.join();
  const RunReport c = cyclo.run(*in.r, *in.s);
  for (const RunReport* rep : std::vector<const RunReport*>{&a, &b, &c}) {
    EXPECT_EQ(rep->matches, want.matches);
    EXPECT_EQ(rep->checksum, want.checksum);
  }
}

long minor_faults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

TEST(WorkingMemoryReuse, SecondIdenticalRtRunFaultsAQuarterAtMost) {
  // The first run faults in the hosts' working memory; an identical second
  // run rebuilds in it and should fault in almost nothing.
  CycloJoin cyclo(reuse_cluster(Backend::kRt, 1),
                  spec_for(Algorithm::kHashJoin));
  constexpr std::size_t kRows = 1'000'000;
  const auto r = rel::generate({.rows = kRows, .key_domain = kRows, .seed = 41},
                               "R", 1);
  const auto s = rel::generate({.rows = kRows, .key_domain = kRows, .seed = 42},
                               "S", 2);
  const long before_first = minor_faults();
  const RunReport first = cyclo.run(r, s);
  const long first_faults = minor_faults() - before_first;
  const long before_second = minor_faults();
  const RunReport second = cyclo.run(r, s);
  const long second_faults = minor_faults() - before_second;

  EXPECT_GT(first.matches, 0u);
  EXPECT_EQ(second.matches, first.matches);
  EXPECT_EQ(second.checksum, first.checksum);
#if defined(__SANITIZE_ADDRESS__)
  // ASan quarantines every freed block and serves each allocation from
  // fresh memory, so a run's many small transient allocations fault in
  // new pages on every run: the count measures the sanitizer here.
  GTEST_SKIP() << "minor faults are not comparable under ASan (first run "
               << first_faults << ", second " << second_faults << ")";
#endif
  EXPECT_LE(second_faults * 4, first_faults)
      << "first run " << first_faults << " minor faults, second "
      << second_faults;
}

}  // namespace
}  // namespace cj::cyclo
