// Backend-independent pieces of the cyclo-join runners.
//
// The sim runner (cyclo_join.cpp) and the rt runner (runner_rt.cpp) execute
// the same logical plan — distribute fragments over hosts, build per-query
// stationary state, chunk the rotating side, join every passing chunk
// against every query — and differ only in *where* the work runs: virtual
// cores on one deterministic DES engine versus real worker threads behind
// per-host wall-clock engines. Everything in cj::cyclo::detail is the
// shared plan/work layer: plain data plus std::function closures with no
// engine affinity. Keeping a single implementation of the validation, the
// data distribution and the kernel closures is what makes the two backends
// result-identical (the rt parity tests in tests/rt_test.cpp rely on it).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "cyclo/chunk.h"
#include "cyclo/config.h"
#include "cyclo/cyclo_join.h"
#include "join/hash_join.h"
#include "join/join_result.h"
#include "join/nested_loops.h"
#include "join/sort_merge.h"
#include "rel/relation.h"
#include "ring/frame.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace cj::cyclo::detail {

/// One query's state on one host: its stationary fragment (prepared) and
/// its partial result. With a single query this is classic cyclo-join;
/// with several, one rotation feeds them all (Data Cyclotron mode).
struct QueryState {
  /// This host's share of the query's stationary relation: a view of the
  /// caller's relation, or of `s_owned` when run_fragments moved the
  /// fragment in (or, adopted, of the replica). Released after setup
  /// except under nested loops.
  std::span<const rel::Tuple> s_frag;
  rel::Relation s_owned;

  // The prepared stationary side: the tables (hash join) or the sorted
  // copy (sort-merge); nested loops joins straight from s_frag.
  std::optional<join::HashJoinStationary> hash;
  std::vector<rel::Tuple> s_sorted;

  std::uint32_t band = 0;
  const std::function<bool(const rel::Tuple&, const rel::Tuple&)>* predicate =
      nullptr;
  /// Core-busy billing tag (SharedQuery::tag; empty = the shared "join"
  /// tag). Chunk work items keep pointers into this string — HostPlan's
  /// query vector is sized once at plan time and never reallocates.
  std::string tag;

  join::JoinResult result{false};
  /// Resilient mode only: partial results keyed by the rotating chunk's
  /// origin host. A crash retracts R_dead by dropping its bucket — the
  /// reported result is exactly (R \ R_dead) ⋈ (S \ S_dead).
  std::vector<join::JoinResult> per_origin;
};

/// One host's working memory, kept by its CycloJoin across runs: every
/// large buffer a run's setup builds into. plan_run hands it to the run
/// and reclaim_memory takes it back at the end, so the next run on the
/// same object rebuilds in place — like the paper's hosts, which reuse one
/// statically allocated, pre-registered buffer ring on every revolution —
/// instead of faulting in fresh pages. Buffers only grow: the memory
/// stays sized for the largest run so far.
struct HostMemory {
  /// Per query slot: the stationary tables (hash join) or the sorted copy
  /// of S_i (sort-merge); handed to QueryState::hash / s_sorted for a run.
  std::vector<join::HashJoinStationary> stationary;
  std::vector<std::vector<rel::Tuple>> s_sorted;
  /// Rotating side: the clustering scratch of R_i (hash join), used in
  /// place by the setup closure, and the encoded chunk slab, which R_i is
  /// clustered or sorted straight into; handed to HostPlan::slab for a run.
  join::RadixScratch r_scratch;
  ChunkSlab slab;
};

}  // namespace cj::cyclo::detail

namespace cj::cyclo {

/// A run takes the memory at its start and gives it back at its end, so no
/// lock is held across a run; a run that starts while another holds the
/// memory finds none and builds in fresh memory. Of two memories given
/// back, the first is kept.
class WorkingMemory {
 public:
  using HostMemory = detail::HostMemory;

  std::vector<HostMemory> take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(hosts_, {});
  }

  void give(std::vector<HostMemory> hosts) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (hosts_.empty()) hosts_.swap(hosts);
    }
    // A memory that lost the race is freed here, outside the lock.
  }

 private:
  std::mutex mu_;
  std::vector<HostMemory> hosts_;
};

}  // namespace cj::cyclo

namespace cj::cyclo::detail {

/// One host's share of the plan: its rotating fragment, its per-query
/// stationary fragments, and (after setup) its wire-ready chunk slab.
struct HostPlan {
  /// A view of the caller's rotating relation, or of `r_owned` when
  /// run_fragments moved the fragment in. Released after setup.
  std::span<const rel::Tuple> r_frag;
  rel::Relation r_owned;
  std::vector<QueryState> queries;
  ChunkSlab slab;  // filled by the rotating-side setup closure
  HostMemory memory;
};

/// The validated, distributed run: what every backend executes.
struct RunPlan {
  bool resilient = false;
  /// Ring-neighbor replication (exact-result crash recovery) is active:
  /// resilient mode plus the resilience.replicate knob.
  bool replicate = false;
  int radix_bits = 0;
  std::vector<HostPlan> hosts;
  /// Row counts per host at distribution time (degraded-loss accounting;
  /// the fragments themselves are released after setup).
  std::vector<std::uint64_t> r_rows;
  std::vector<std::uint64_t> s_rows;

  std::uint64_t global_chunks() const {
    std::uint64_t global = 0;
    for (const HostPlan& host : hosts) global += host.slab.num_chunks();
    return global;
  }
};

/// Validates the (cluster, spec, queries) combination and distributes the
/// rotating and stationary relations evenly over the hosts, as views: the
/// relations and `queries` must outlive the plan (QueryState also keeps
/// pointers to the predicates).
///
/// When `frags` is non-null the distribute step is skipped entirely: host
/// i's inputs are moved out of frags->rotating[i] / frags->stationary[i]
/// (pre-placed fragments of a multi-round plan, see CycloJoin::
/// run_fragments), `r` is ignored, and the single query's `stationary`
/// pointer may be null. Everything downstream — setup closures, chunking,
/// replication, the resilient protocol — is identical.
///
/// `memory` (may be null or empty) is the CycloJoin's kept working memory:
/// one entry per host is moved into the plan; see reclaim_memory.
inline RunPlan plan_run(const ClusterConfig& cluster, const JoinSpec& spec,
                        const rel::Relation& r,
                        const std::vector<SharedQuery>& queries,
                        FragmentInputs* frags = nullptr,
                        std::vector<HostMemory>* memory = nullptr) {
  const int n = cluster.num_hosts;
  CJ_CHECK_MSG(!queries.empty(), "a run needs at least one query");
  if (frags != nullptr) {
    CJ_CHECK_MSG(queries.size() == 1,
                 "fragment-input runs are single-query rounds");
    CJ_CHECK_MSG(frags->rotating.size() == static_cast<std::size_t>(n) &&
                     frags->stationary.size() == static_cast<std::size_t>(n),
                 "fragment inputs need exactly one fragment per host");
  }
  if (spec.algorithm == Algorithm::kNestedLoops) {
    for (const auto& q : queries) {
      CJ_CHECK_MSG(static_cast<bool>(q.predicate),
                   "nested-loops cyclo-join needs a predicate");
    }
  }
  CJ_CHECK_MSG(!spec.materialize || queries.size() == 1,
               "materialization is only supported for single-query runs");

  RunPlan plan;
  plan.resilient = !cluster.fault.empty() && n > 1;
  plan.replicate = plan.resilient && cluster.node.resilience.replicate;
  // Materialization is safe in resilient mode: every add_match happens on
  // the deduplicated join path (re-injected copies carry the duplicate
  // flag and adopted joins consult the per-origin seen-sets), so the
  // materialized multiset equals exactly what the count/checksum cover —
  // exact under crash+replication, survivors-only in degraded runs. The
  // multi-round plan executor (src/plan) relies on this to keep a crashed
  // round's distributed output partitions usable downstream.
  if (!cluster.fault.crashes.empty()) {
    CJ_CHECK_MSG(cluster.fault.crashes.size() == 1,
                 "the fault framework supports at most one host crash");
    const sim::HostCrashSpec& crash = cluster.fault.crashes.front();
    CJ_CHECK_MSG(crash.host >= 0 && crash.host < n, "crash host out of range");
    CJ_CHECK_MSG(n >= 3, "surviving a crash needs at least three hosts");
  }

  const bool reuse =
      memory != nullptr && memory->size() == static_cast<std::size_t>(n);
  plan.hosts.resize(static_cast<std::size_t>(n));
  plan.s_rows.assign(static_cast<std::size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    const auto h = static_cast<std::size_t>(i);
    HostPlan& host = plan.hosts[h];
    if (frags != nullptr) {
      host.r_owned = std::move(frags->rotating[h]);
      host.r_frag = host.r_owned.tuples();
    } else {
      host.r_frag = rel::even_share(r, i, n);
    }
    plan.r_rows.push_back(host.r_frag.size());
    host.queries.resize(queries.size());
    if (reuse) host.memory = std::move((*memory)[h]);
    HostMemory& mem = host.memory;
    if (mem.stationary.size() < queries.size()) {
      mem.stationary.resize(queries.size());
      mem.s_sorted.resize(queries.size());
    }
    host.slab = std::move(mem.slab);
  }
  if (memory != nullptr) memory->clear();
  std::size_t max_s_rows = 0;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    CJ_CHECK(frags != nullptr || queries[q].stationary != nullptr);
    for (int i = 0; i < n; ++i) {
      const auto h = static_cast<std::size_t>(i);
      HostPlan& host = plan.hosts[h];
      QueryState& state = host.queries[q];
      if (frags != nullptr) {
        state.s_owned = std::move(frags->stationary[h]);
        state.s_frag = state.s_owned.tuples();
      } else {
        state.s_frag = rel::even_share(*queries[q].stationary, i, n);
      }
      if (spec.algorithm == Algorithm::kHashJoin) {
        state.hash.emplace(std::move(host.memory.stationary[q]));
      }
      state.s_sorted = std::move(host.memory.s_sorted[q]);
      state.band = queries[q].band;
      state.predicate = &queries[q].predicate;
      state.tag = queries[q].tag;
      state.result = join::JoinResult(spec.materialize);
      if (plan.resilient) {
        state.per_origin.reserve(static_cast<std::size_t>(n));
        for (int o = 0; o < n; ++o) {
          state.per_origin.emplace_back(spec.materialize);
        }
      }
      plan.s_rows[h] += state.s_frag.size();
      max_s_rows = std::max(max_s_rows, state.s_frag.size());
    }
  }
  // Radix bits are a global agreement (every R chunk must be partitioned
  // exactly like every host's — and every query's — S_i).
  plan.radix_bits = join::choose_radix_bits(max_s_rows, spec.radix);
  return plan;
}

/// Drops a host's inputs once setup has consumed them (and, with
/// replication, once its replica records are serialized): the views, and
/// the fragments run_fragments moved in. Nested loops keeps S_i, which it
/// joins against.
inline void release_inputs(HostPlan& host, Algorithm algorithm) {
  host.r_frag = {};
  host.r_owned = rel::Relation();
  if (algorithm == Algorithm::kNestedLoops) return;
  for (QueryState& query : host.queries) {
    query.s_frag = {};
    query.s_owned = rel::Relation();
  }
}

/// Takes every host's working memory back out of a finished run's plan
/// into `memory` (no-op when null), for the next run on the same
/// CycloJoin. Call only after every engine and worker thread of the run
/// has finished with the plan.
inline void reclaim_memory(RunPlan& plan, std::vector<HostMemory>* memory) {
  if (memory == nullptr) return;
  memory->clear();
  for (HostPlan& host : plan.hosts) {
    HostMemory& mem = host.memory;
    for (std::size_t q = 0; q < host.queries.size(); ++q) {
      QueryState& query = host.queries[q];
      if (query.hash) mem.stationary[q] = std::move(*query.hash);
      mem.s_sorted[q] = std::move(query.s_sorted);
    }
    mem.slab = std::move(host.slab);
    memory->push_back(std::move(mem));
  }
}

// ----- ring-neighbor replication (exact-result crash recovery) ------------
//
// With resilience.replicate on, every host streams its crash-relevant state
// to its ring successor during a dedicated replication phase (between
// transport bring-up and the join phase, so a scheduled crash can never
// interrupt it): the stationary fragment S_i of every query, in pieces, and
// a byte-exact copy of every encoded chunk of its rotating slab. Each
// record rides one kReplica frame (checksummed, acked, re-sent on timeout)
// and is prefixed by this header.

enum class ReplicaKind : std::uint32_t { kStationary = 0, kRotating = 1 };

struct ReplicaHeader {
  std::uint32_t kind = 0;   ///< ReplicaKind
  std::uint32_t query = 0;  ///< kStationary: query index (0 otherwise)
  /// kStationary: piece index; kRotating: the chunk's slab index, which is
  /// also its ring sequence number (the injector assigns seqs in slab
  /// order) — the key the adopter uses to match the retire board and the
  /// seen-set against the replica log.
  std::uint32_t seq = 0;
  std::uint32_t count = 0;  ///< kStationary: tuples in this piece
};
static_assert(sizeof(ReplicaHeader) == 16);

/// One host's durable copy of its predecessor's crash-relevant state.
/// Filled by the node's on_replica callback (one-hop kReplica frames,
/// deduplicated at the ring layer); promoted to a live join partition by
/// the adoption step after the predecessor crashes.
struct ReplicaStore {
  int origin = -1;  ///< predecessor that streamed this state
  /// Per query: the predecessor's stationary fragment (piece order is
  /// irrelevant — the adopter re-hashes / re-sorts during promotion).
  std::vector<std::vector<rel::Tuple>> s_tuples;
  /// Byte-exact encoded chunks of the predecessor's rotating slab, keyed
  /// by slab index == ring sequence number.
  std::map<std::uint32_t, std::vector<std::byte>> r_chunks;
  std::uint64_t bytes = 0;

  void absorb(int from, std::span<const std::byte> record) {
    CJ_CHECK_MSG(record.size() >= sizeof(ReplicaHeader),
                 "truncated replica record");
    CJ_CHECK_MSG(origin == -1 || origin == from,
                 "replica records from two different predecessors");
    origin = from;
    ReplicaHeader header;
    std::memcpy(&header, record.data(), sizeof(ReplicaHeader));
    const auto body = record.subspan(sizeof(ReplicaHeader));
    bytes += record.size();
    if (header.kind == static_cast<std::uint32_t>(ReplicaKind::kStationary)) {
      if (s_tuples.size() <= header.query) s_tuples.resize(header.query + 1);
      CJ_CHECK_MSG(body.size() == header.count * sizeof(rel::Tuple),
                   "stationary replica piece size mismatch");
      auto& dst = s_tuples[header.query];
      const std::size_t old = dst.size();
      dst.resize(old + header.count);
      std::memcpy(dst.data() + old, body.data(), body.size());
    } else {
      CJ_CHECK_MSG(
          header.kind == static_cast<std::uint32_t>(ReplicaKind::kRotating),
          "unknown replica record kind");
      r_chunks[header.seq].assign(body.begin(), body.end());
    }
  }
};

/// Serializes one replica record (header + body) into owned storage — the
/// ring node sends replica payloads by reference, so records must outlive
/// replicas_drained().
inline std::vector<std::byte> make_replica_record(
    ReplicaKind kind, std::uint32_t query, std::uint32_t seq,
    std::uint32_t count, std::span<const std::byte> body) {
  std::vector<std::byte> record(sizeof(ReplicaHeader) + body.size());
  ReplicaHeader header;
  header.kind = static_cast<std::uint32_t>(kind);
  header.query = query;
  header.seq = seq;
  header.count = count;
  std::memcpy(record.data(), &header, sizeof(ReplicaHeader));
  std::memcpy(record.data() + sizeof(ReplicaHeader), body.data(), body.size());
  return record;
}

/// Builds every replica record host `host` streams to its successor: the
/// stationary fragments split into `max_record_bytes`-sized pieces, then
/// the rotating slab chunk by chunk. Call after setup (the slab must be
/// written and origin-patched) and before the stationary fragments are
/// released; the records copy everything they need.
inline std::vector<std::vector<std::byte>> build_replica_records(
    const HostPlan& host, std::size_t max_record_bytes) {
  CJ_CHECK(max_record_bytes > sizeof(ReplicaHeader) + sizeof(rel::Tuple));
  const std::size_t body_budget = max_record_bytes - sizeof(ReplicaHeader);
  const std::size_t tuples_per_piece = body_budget / sizeof(rel::Tuple);
  std::vector<std::vector<std::byte>> records;
  for (std::size_t q = 0; q < host.queries.size(); ++q) {
    const auto tuples = host.queries[q].s_frag;
    std::uint32_t piece = 0;
    for (std::size_t off = 0; off < tuples.size(); off += tuples_per_piece) {
      const std::size_t n = std::min(tuples_per_piece, tuples.size() - off);
      records.push_back(make_replica_record(
          ReplicaKind::kStationary, static_cast<std::uint32_t>(q), piece++,
          static_cast<std::uint32_t>(n),
          std::span<const std::byte>(
              reinterpret_cast<const std::byte*>(tuples.data() + off),
              n * sizeof(rel::Tuple))));
    }
  }
  for (std::size_t c = 0; c < host.slab.num_chunks(); ++c) {
    const auto chunk = host.slab.chunk(c);
    CJ_CHECK_MSG(chunk.size() <= body_budget,
                 "slab chunk exceeds the replica record budget");
    records.push_back(make_replica_record(ReplicaKind::kRotating, 0,
                                          static_cast<std::uint32_t>(c), 0,
                                          chunk));
  }
  return records;
}

/// Prepares the adopted join partition: one QueryState per query built from
/// the replica copy of the dead host's stationary fragments. The caller
/// pre-sizes `states` (band/predicate/result set) and schedules the
/// returned closures on the adopter's cores; `s_tuples` must stay at a
/// stable address until they ran — under nested loops until the adopted
/// joins finished (the ReplicaStore owns it for the whole run).
inline std::vector<std::function<void()>> adopted_setup_closures(
    const JoinSpec& spec, int radix_bits,
    const std::vector<std::vector<rel::Tuple>>& s_tuples,
    std::vector<QueryState>* states) {
  std::vector<std::function<void()>> out;
  const join::RadixConfig radix = spec.radix;
  static const std::vector<rel::Tuple> kNoTuples;
  for (std::size_t q = 0; q < states->size(); ++q) {
    QueryState* state = &(*states)[q];
    // A query the dead host had no S rows for simply yields an empty
    // partition (replication sends no pieces for it).
    const std::vector<rel::Tuple>* tuples =
        q < s_tuples.size() ? &s_tuples[q] : &kNoTuples;
    switch (spec.algorithm) {
      case Algorithm::kHashJoin:
        out.push_back([state, tuples, radix_bits, radix] {
          state->hash = join::HashJoinStationary::build(
              std::span<const rel::Tuple>(*tuples), radix_bits, radix);
        });
        break;
      case Algorithm::kSortMergeJoin:
        out.push_back([state, tuples] {
          state->s_sorted = *tuples;
          join::sort_fragment(state->s_sorted);
        });
        break;
      case Algorithm::kNestedLoops:
        out.push_back([state, tuples] { state->s_frag = *tuples; });
        break;
    }
  }
  return out;
}

/// Splits [0, n) into `parts` near-even contiguous ranges.
inline std::vector<std::pair<std::size_t, std::size_t>> split_ranges(
    std::size_t n, int parts) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  const auto p = static_cast<std::size_t>(std::max(1, parts));
  for (std::size_t i = 0; i < p; ++i) {
    const std::size_t begin = n * i / p;
    const std::size_t end = n * (i + 1) / p;
    if (begin != end) out.emplace_back(begin, end);
  }
  return out;
}

/// A contiguous range of one partition's tuples within a chunk: the unit of
/// probe work handed to one join thread. Probes are per-tuple, so a run may
/// be split at any point — this is what keeps all join threads busy even
/// when a chunk holds fewer partitions than the host has cores.
struct ProbeSlice {
  std::uint32_t partition_id;
  std::size_t tuple_offset;  // offset into the chunk's tuple array
  std::size_t count;
};

inline std::vector<std::vector<ProbeSlice>> split_probe_work(
    std::span<const PartitionRun> runs, int parts) {
  std::uint64_t total = 0;
  for (const auto& run : runs) total += run.count;
  std::vector<std::vector<ProbeSlice>> groups;
  if (total == 0) return groups;

  const std::uint64_t per_group = (total + static_cast<std::uint64_t>(parts) - 1) /
                                  static_cast<std::uint64_t>(parts);
  groups.emplace_back();
  std::uint64_t group_fill = 0;
  std::size_t offset = 0;
  for (const auto& run : runs) {
    std::size_t run_offset = 0;
    while (run_offset < run.count) {
      if (group_fill >= per_group) {
        groups.emplace_back();
        group_fill = 0;
      }
      const std::size_t take = std::min<std::size_t>(
          run.count - run_offset, static_cast<std::size_t>(per_group - group_fill));
      groups.back().push_back(
          ProbeSlice{run.partition_id, offset + run_offset, take});
      group_fill += take;
      run_offset += take;
    }
    offset += run.count;
  }
  return groups;
}

/// Join work is over-decomposed (kTasksPerThread work items per join
/// thread) so that one slow item — e.g. the item that first pulls an S
/// partition into cache — does not idle the other join threads at the
/// per-chunk barrier.
inline constexpr int kTasksPerThread = 4;

/// Builds host i's setup-phase closures: one per query's stationary
/// fragment (none under nested loops) plus one for the rotating slab. The
/// caller schedules each on a core (tag "setup") and stamps the slab with
/// patch_origin() afterwards.
/// `host` must stay at a stable address until every closure has run.
inline std::vector<std::function<void()>> setup_closures(
    const JoinSpec& spec, int radix_bits, ChunkWriter writer, HostPlan* host) {
  std::vector<std::function<void()>> out;
  const join::RadixConfig radix = spec.radix;
  for (auto& query : host->queries) {
    QueryState* state = &query;
    switch (spec.algorithm) {
      case Algorithm::kHashJoin:
        out.push_back([state, radix_bits, radix] {
          state->hash->rebuild(state->s_frag, radix_bits, radix);
        });
        break;
      case Algorithm::kSortMergeJoin:
        out.push_back([state] {
          state->s_sorted.assign(state->s_frag.begin(), state->s_frag.end());
          join::sort_fragment(state->s_sorted);
        });
        break;
      case Algorithm::kNestedLoops:
        break;  // joins straight from s_frag
    }
  }

  // The rotating side is clustered or sorted straight into the host's
  // slab (reused across runs): no separate prepared copy of R_i.
  switch (spec.algorithm) {
    case Algorithm::kHashJoin:
      out.push_back([host, writer, radix_bits, radix] {
        host->slab = writer.cluster_in_place(
            host->r_frag, radix_bits, radix.bits_per_pass, radix.kernel,
            /*origin_host=*/0, host->memory.r_scratch, std::move(host->slab));
      });
      break;
    case Algorithm::kSortMergeJoin:
      out.push_back([host, writer] {
        host->slab = writer.sort_in_place(host->r_frag, /*origin_host=*/0,
                                          std::move(host->slab));
      });
      break;
    case Algorithm::kNestedLoops:
      out.push_back([host, writer] {
        host->slab = writer.from_raw(host->r_frag, 0, std::move(host->slab));
      });
      break;
  }
  return out;
}

/// The ChunkWriter runs inside measured closures that do not know their
/// host id; stamp it afterwards (directly in the encoded headers).
inline void patch_origin(ChunkSlab& slab, int origin) {
  for (std::size_t c = 0; c < slab.num_chunks(); ++c) {
    auto bytes = slab.chunk(c);
    auto* header =
        reinterpret_cast<ChunkHeader*>(const_cast<std::byte*>(bytes.data()));
    header->origin_host = static_cast<std::uint16_t>(origin);
  }
}

/// One chunk's join work against every query on one host: per-item
/// closures writing into per-item partial results, merged into the
/// per-query sinks after all items ran. The struct must stay at a stable
/// address while the items run (closures point into `partials`).
struct ChunkJoinWork {
  // deque: references to elements stay valid while later queries append.
  std::deque<join::JoinResult> partials;
  std::vector<join::JoinResult*> sinks;  ///< parallel to partials
  std::vector<std::function<void()>> items;
  /// Parallel to items: the owning query's billing tag (QueryState::tag;
  /// empty = the shared "join" tag).
  std::vector<const std::string*> tags;

  /// Call after every item completed (single-threaded with respect to the
  /// sinks — each host merges only into its own QueryStates).
  void merge_into_sinks() {
    for (std::size_t p = 0; p < partials.size(); ++p) {
      sinks[p]->merge(partials[p]);
    }
  }
};

/// One chunk's join work against a single query's stationary state, written
/// into `sink`. Shared by the regular per-host path (build_chunk_work) and
/// the adopter's promoted-replica partition.
inline void build_query_chunk_work(const JoinSpec& spec, int radix_bits,
                                   QueryState& query, join::JoinResult* sink,
                                   const ChunkView& view, ChunkJoinWork& out) {
  const int parts = spec.join_threads * kTasksPerThread;
  {
    QueryState* state = &query;
    const std::size_t first_partial = out.partials.size();

    switch (spec.algorithm) {
      case Algorithm::kHashJoin: {
        CJ_CHECK_MSG(view.kind == ChunkKind::kPartitioned,
                     "hash cyclo-join received a non-partitioned chunk");
        CJ_CHECK_MSG(view.radix_bits == radix_bits,
                     "chunk partitioned with different radix bits");
        auto groups = split_probe_work(view.runs, parts);
        for (std::size_t g = 0; g < groups.size(); ++g) {
          out.partials.emplace_back(spec.materialize);
          out.sinks.push_back(sink);
        }
        for (std::size_t g = 0; g < groups.size(); ++g) {
          std::vector<ProbeSlice> slices = std::move(groups[g]);
          join::JoinResult* partial = &out.partials[first_partial + g];
          out.items.push_back(
              [state, view, slices = std::move(slices), partial] {
                for (const ProbeSlice& slice : slices) {
                  state->hash->probe_partition(
                      slice.partition_id,
                      view.tuples.subspan(slice.tuple_offset, slice.count),
                      *partial);
                }
              });
        }
        break;
      }
      case Algorithm::kSortMergeJoin: {
        CJ_CHECK_MSG(view.kind == ChunkKind::kSorted,
                     "sort-merge cyclo-join received an unsorted chunk");
        const auto ranges = split_ranges(view.tuples.size(), parts);
        for (std::size_t ri = 0; ri < ranges.size(); ++ri) {
          out.partials.emplace_back(spec.materialize);
          out.sinks.push_back(sink);
        }
        for (std::size_t ri = 0; ri < ranges.size(); ++ri) {
          const auto [begin, end] = ranges[ri];
          join::JoinResult* partial = &out.partials[first_partial + ri];
          const std::uint32_t band = state->band;
          const join::KernelConfig kernel = spec.radix.kernel;
          out.items.push_back([state, view, begin, end, band, kernel, partial] {
            auto r_range = view.tuples.subspan(begin, end - begin);
            auto window = join::matching_window(
                state->s_sorted, r_range.front().key, r_range.back().key, band);
            join::band_merge_join(r_range, window, band, *partial, kernel);
          });
        }
        break;
      }
      case Algorithm::kNestedLoops: {
        const auto ranges = split_ranges(view.tuples.size(), parts);
        for (std::size_t ri = 0; ri < ranges.size(); ++ri) {
          out.partials.emplace_back(spec.materialize);
          out.sinks.push_back(sink);
        }
        for (std::size_t ri = 0; ri < ranges.size(); ++ri) {
          const auto [begin, end] = ranges[ri];
          join::JoinResult* partial = &out.partials[first_partial + ri];
          out.items.push_back([state, view, begin, end, partial] {
            join::nested_loops_join(view.tuples.subspan(begin, end - begin),
                                    state->s_frag,
                                    *state->predicate, *partial);
          });
        }
        break;
      }
    }
    while (out.tags.size() < out.items.size()) out.tags.push_back(&state->tag);
  }
}

inline void build_chunk_work(const JoinSpec& spec, int radix_bits,
                             bool resilient, HostPlan& host,
                             const ChunkView& view, ChunkJoinWork& out) {
  for (auto& query : host.queries) {
    // Resilient mode tallies per origin so a crash can retract R_dead.
    join::JoinResult* sink =
        resilient
            ? &query.per_origin[static_cast<std::size_t>(view.origin_host)]
            : &query.result;
    build_query_chunk_work(spec, radix_bits, query, sink, view, out);
  }
}

/// Runs one join work item under the host's join-thread limit.
inline sim::Task<void> guarded(sim::Semaphore& slots, sim::Task<void> inner) {
  co_await slots.acquire();
  co_await std::move(inner);
  slots.release();
}

}  // namespace cj::cyclo::detail
