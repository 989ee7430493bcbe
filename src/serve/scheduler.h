// QueryScheduler: admission control + weighted fair-share dispatch of many
// independently arriving joins over one Data Roundabout.
//
// Design (docs/SERVING.md). Queries are submitted open-loop with explicit
// arrival times and queue per tenant. The scheduler serves them in waves:
// each wave admits up to max_inflight queued queries — chosen by stride
// scheduling across tenants, FIFO within a tenant — and runs them as one
// CycloJoin::run_shared rotation, so an N-query wave pays the rotating
// relation's network cost once instead of N times (the Data Cyclotron
// sharing argument, paper Sec. VII). Each wave stamps a distinct query
// group on its wire frames (ring::ResilienceConfig::query_group): a node
// that somehow receives a chunk from another wave discards it as stale
// instead of joining, acking or forwarding it.
//
// Time. The serve clock is virtual on both backends: it advances to the
// earliest queued arrival, then by each wave's measured service time
// (RunReport::total_wall — virtual seconds on the sim backend, wall
// seconds on rt). Per-query latency = wave end − arrival; queue wait =
// wave start − arrival. Both land in serve.* histograms.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/units.h"
#include "cyclo/config.h"
#include "cyclo/cyclo_join.h"
#include "obs/metrics.h"
#include "serve/query.h"

namespace cj::serve {

struct ServeConfig {
  cyclo::ClusterConfig cluster;
  cyclo::JoinSpec spec;
  /// Wave width: max queries multiplexed onto one shared rotation.
  int max_inflight = 4;
  /// Admission control: submit() rejects once this many queries queue.
  int max_queue_depth = 64;
  /// Latency SLO (0 = no SLO accounting): retired queries whose latency
  /// exceeds it are flagged and counted in serve.slo_violations.
  SimDuration slo_target = 0;
  /// When non-empty, the first wave containing an SLO violation writes a
  /// CJT1 black-box dump of that wave's flight-recorder window here
  /// (reason "slo-breach"); later breaches do not overwrite it.
  std::string blackbox_path;
};

/// What drain() returns: every query's record plus run-level accounting.
struct ServeReport {
  /// Indexed by QueryId (submission order).
  std::vector<QueryRecord> queries;
  int waves = 0;
  std::uint64_t bytes_on_wire = 0;
  /// Serve-clock time the last wave finished.
  SimTime end_time = 0;
  /// serve.* counters/gauges/histograms plus per-query busy.q<id> counters.
  obs::MetricsSnapshot metrics;
  /// Join core-busy time summed per tenant, and each tenant's fraction.
  std::map<std::string, SimDuration> busy_by_tenant;
  std::map<std::string, double> share_by_tenant;

  const QueryRecord& query(QueryId id) const { return queries.at(id); }
};

class QueryScheduler {
 public:
  explicit QueryScheduler(ServeConfig config);

  /// Registers a query arriving at `arrival` (serve-clock ns; must be
  /// non-decreasing across calls — open-loop submission order). Applies
  /// admission control: returns the query's id either way, with phase
  /// kRejected when the queue is full.
  QueryId submit(QuerySpec spec, SimTime arrival);

  /// Cancels a still-queued query. Returns false when the query already
  /// dispatched, finished, or was rejected.
  bool cancel(QueryId id);

  QueryPhase phase(QueryId id) const;
  std::size_t queue_depth() const { return queued_; }

  /// Serves every queued query to completion against `rotating` and
  /// returns the full accounting. Callable repeatedly: the serve clock
  /// carries over, so a later submit()+drain() cycle continues the
  /// timeline.
  ServeReport drain(const rel::Relation& rotating);

 private:
  struct Tenant {
    /// Stride-scheduling pass value: the tenant with the smallest pass
    /// owns the next wave slot; picking adds kStrideScale / weight.
    std::uint64_t pass = 0;
    std::deque<QueryId> fifo;
  };

  /// Picks up to max_inflight eligible queries for the wave forming at
  /// `now` (stride across tenants, FIFO within).
  std::vector<QueryId> form_wave(SimTime now);
  void expire_deadlines(SimTime now);

  ServeConfig config_;
  std::vector<QuerySpec> specs_;
  std::vector<QueryRecord> records_;
  std::map<std::string, Tenant> tenants_;
  /// Pass value of the most recently picked tenant (pre-increment): new
  /// tenants start here so a latecomer neither monopolizes nor starves.
  std::uint64_t pass_floor_ = 0;
  std::size_t queued_ = 0;
  SimTime clock_ = 0;
  SimTime last_arrival_ = 0;
  int waves_ = 0;
  std::uint64_t bytes_on_wire_ = 0;
  bool blackbox_written_ = false;
  obs::MetricsRegistry metrics_;
  /// Shared by every wave's CycloJoin: each wave rebuilds in the previous
  /// wave's working memory.
  std::shared_ptr<cyclo::WorkingMemory> memory_ = cyclo::make_working_memory();
};

}  // namespace cj::serve
