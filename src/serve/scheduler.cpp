#include "serve/scheduler.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/assert.h"

namespace cj::serve {

namespace {

/// Stride-scheduling scale: a tenant's pass advances by kStrideScale /
/// weight per wave slot it wins, so slot counts converge to the weight
/// ratio while every tenant is backlogged.
constexpr std::uint64_t kStrideScale = 1ULL << 20;

std::uint64_t stride_for(double weight) {
  return std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(static_cast<double>(kStrideScale) / weight));
}

}  // namespace

QueryScheduler::QueryScheduler(ServeConfig config) : config_(std::move(config)) {
  CJ_CHECK_MSG(config_.max_inflight > 0, "max_inflight must be positive");
  CJ_CHECK_MSG(config_.max_queue_depth > 0, "max_queue_depth must be positive");
}

QueryId QueryScheduler::submit(QuerySpec spec, SimTime arrival) {
  CJ_CHECK_MSG(spec.stationary != nullptr, "a query needs a stationary side");
  CJ_CHECK_MSG(spec.weight > 0.0, "query weight must be positive");
  CJ_CHECK_MSG(arrival >= 0, "arrival time must be non-negative");
  CJ_CHECK_MSG(arrival >= last_arrival_,
               "submissions must arrive in non-decreasing time order");
  last_arrival_ = arrival;

  const QueryId id = records_.size();
  QueryRecord record;
  record.id = id;
  record.tenant = spec.tenant;
  record.weight = spec.weight;
  record.arrival = arrival;
  metrics_.add_counter("serve.submitted", 1);

  if (queued_ >= static_cast<std::size_t>(config_.max_queue_depth)) {
    record.phase = QueryPhase::kRejected;
    metrics_.add_counter("serve.rejected", 1);
    records_.push_back(std::move(record));
    specs_.push_back(std::move(spec));
    return id;
  }

  record.phase = QueryPhase::kQueued;
  auto [it, inserted] = tenants_.try_emplace(spec.tenant);
  if (inserted) it->second.pass = pass_floor_;
  it->second.fifo.push_back(id);
  ++queued_;
  records_.push_back(std::move(record));
  specs_.push_back(std::move(spec));
  return id;
}

bool QueryScheduler::cancel(QueryId id) {
  CJ_CHECK_MSG(id < records_.size(), "unknown query id");
  QueryRecord& record = records_[id];
  if (record.phase != QueryPhase::kQueued) return false;
  record.phase = QueryPhase::kCancelled;
  --queued_;  // fifo entry is skipped lazily at the next wave formation
  metrics_.add_counter("serve.cancelled", 1);
  return true;
}

QueryPhase QueryScheduler::phase(QueryId id) const {
  CJ_CHECK_MSG(id < records_.size(), "unknown query id");
  return records_[id].phase;
}

void QueryScheduler::expire_deadlines(SimTime now) {
  for (QueryRecord& record : records_) {
    if (record.phase != QueryPhase::kQueued) continue;
    const SimTime deadline = specs_[record.id].cancel_at;
    if (deadline >= 0 && deadline <= now) {
      record.phase = QueryPhase::kCancelled;
      --queued_;
      metrics_.add_counter("serve.cancelled", 1);
    }
  }
}

std::vector<QueryId> QueryScheduler::form_wave(SimTime now) {
  std::vector<QueryId> wave;
  while (wave.size() < static_cast<std::size_t>(config_.max_inflight)) {
    Tenant* best = nullptr;
    QueryId best_id = 0;
    for (auto& [name, tenant] : tenants_) {
      // Drop cancelled heads; the head is the tenant's earliest arrival
      // (submissions are time-ordered), so an un-arrived head means the
      // whole tenant waits.
      while (!tenant.fifo.empty() &&
             records_[tenant.fifo.front()].phase != QueryPhase::kQueued) {
        tenant.fifo.pop_front();
      }
      if (tenant.fifo.empty()) continue;
      const QueryId head = tenant.fifo.front();
      if (records_[head].arrival > now) continue;
      // Min pass wins; ties resolve by tenant-name map order, keeping
      // wave composition deterministic.
      if (best == nullptr || tenant.pass < best->pass) {
        best = &tenant;
        best_id = head;
      }
    }
    if (best == nullptr) break;
    pass_floor_ = best->pass;
    best->pass += stride_for(records_[best_id].weight);
    best->fifo.pop_front();
    --queued_;
    wave.push_back(best_id);
  }
  return wave;
}

ServeReport QueryScheduler::drain(const rel::Relation& rotating) {
  while (queued_ > 0) {
    // Advance the serve clock to the first queued arrival (an idle server
    // waits for work), then sweep deadlines at the wave-formation instant.
    SimTime earliest = std::numeric_limits<SimTime>::max();
    for (const QueryRecord& record : records_) {
      if (record.phase == QueryPhase::kQueued) {
        earliest = std::min(earliest, record.arrival);
      }
    }
    clock_ = std::max(clock_, earliest);
    expire_deadlines(clock_);
    if (queued_ == 0) break;

    std::vector<QueryId> wave_ids = form_wave(clock_);
    if (wave_ids.empty()) continue;  // survivors arrive later; re-advance

    // One wave = one shared rotation, stamped with its own wire query
    // group so chunks can never leak across waves.
    cyclo::ClusterConfig cluster = config_.cluster;
    cluster.node.resilience.query_group =
        static_cast<std::uint16_t>((waves_ % 0xFFFF) + 1);
    std::vector<cyclo::SharedQuery> shared;
    shared.reserve(wave_ids.size());
    for (const QueryId id : wave_ids) {
      const QuerySpec& spec = specs_[id];
      shared.push_back(cyclo::SharedQuery{
          .stationary = spec.stationary,
          .band = spec.band,
          .predicate = spec.predicate,
          .tag = "q" + std::to_string(id),
      });
      QueryRecord& record = records_[id];
      record.phase = QueryPhase::kJoining;
      record.admitted_at = clock_;
      record.started_at = clock_;
      record.wave = waves_;
      metrics_.add_counter("serve.admitted", 1);
    }

    cyclo::CycloJoin join(cluster, config_.spec, memory_);
    const cyclo::SharedRunReport report = join.run_shared(rotating, shared);
    const SimTime wave_end = clock_ + report.total_wall;
    bytes_on_wire_ += report.bytes_on_wire;
    metrics_.add_counter("serve.waves", 1);

    bool wave_breached = false;
    for (std::size_t q = 0; q < wave_ids.size(); ++q) {
      QueryRecord& record = records_[wave_ids[q]];
      record.phase = QueryPhase::kRetired;
      record.finished_at = wave_end;
      record.result = report.queries[q];
      const auto busy =
          report.metrics.counters.find("busy.q" + std::to_string(record.id));
      record.busy = busy != report.metrics.counters.end() ? busy->second : 0;
      metrics_.add_counter("busy.q" + std::to_string(record.id), record.busy);
      metrics_.record("serve.latency_ns", record.latency());
      metrics_.record("serve.queue_wait_ns", record.queue_wait());
      metrics_.record("serve.service_ns", report.total_wall);
      metrics_.add_counter("serve.retired", 1);
      if (config_.slo_target > 0 && record.latency() > config_.slo_target) {
        record.slo_violated = true;
        wave_breached = true;
        metrics_.add_counter("serve.slo_violations", 1);
      }
    }
    // Black box: on the first SLO breach, persist the breaching wave's
    // flight-recorder window (per-chunk hop records) for post-mortems.
    if (wave_breached && !blackbox_written_ && !config_.blackbox_path.empty() &&
        report.flight != nullptr) {
      blackbox_written_ = obs::write_blackbox(
          *report.flight, config_.blackbox_path, "slo-breach");
    }
    clock_ = wave_end;
    ++waves_;
  }

  ServeReport report;
  report.queries = records_;
  report.waves = waves_;
  report.bytes_on_wire = bytes_on_wire_;
  report.end_time = clock_;
  SimDuration total_busy = 0;
  for (const QueryRecord& record : records_) {
    if (record.phase != QueryPhase::kRetired) continue;
    report.busy_by_tenant[record.tenant] += record.busy;
    total_busy += record.busy;
  }
  for (const auto& [tenant, busy] : report.busy_by_tenant) {
    const double share =
        total_busy > 0 ? static_cast<double>(busy) / static_cast<double>(total_busy)
                       : 0.0;
    report.share_by_tenant[tenant] = share;
    metrics_.set_gauge("serve.share." + tenant, share);
  }
  report.metrics = metrics_.snapshot();
  return report;
}

}  // namespace cj::serve
