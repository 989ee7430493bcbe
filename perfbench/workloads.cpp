#include "workloads.h"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "cyclo/cyclo_join.h"
#include "join/local_join.h"
#include "plan/plan_exec.h"
#include "plan/plan_gen.h"
#include "plan/query_graph.h"
#include "reference.h"
#include "rel/generator.h"
#include "rel/partitioned.h"
#include "serve/scheduler.h"
#include "spans.h"

namespace perfbench {

namespace {

using namespace cj;

// Thread budget: one core and one join thread per host, and at most 4
// hosts, so hosts × cores_per_host compute threads never exceed the 4
// cores of the reference machine. The rt workload runs one host: on a
// shared 4-vCPU VM an rt ring that keeps several cores busy loses them to
// the hypervisor and its wall time doubles (README.md, "Why one rt host").
constexpr int kCoresPerHost = 1;

double seconds_of(SimDuration d) { return to_seconds(d); }

/// Backend and ring size of a workload.
struct Ring {
  cyclo::Backend backend;
  int hosts;

  cyclo::ClusterConfig cluster() const {
    cyclo::ClusterConfig c;
    c.backend = backend;
    c.num_hosts = hosts;
    c.cores_per_host = kCoresPerHost;
    return c;
  }
};

cyclo::JoinSpec hash_spec() {
  cyclo::JoinSpec spec;
  spec.algorithm = cyclo::Algorithm::kHashJoin;
  spec.join_threads = kCoresPerHost;
  return spec;
}

/// Seed of the i-th generated relation of a run.
std::uint64_t rel_seed(std::uint64_t seed, int i) {
  return seed * 1'000'003ULL + static_cast<std::uint64_t>(i) + 1;
}

rel::Relation generate(const rel::GenSpec& spec, const std::string& name,
                       std::uint64_t tag) {
  Span span("rel.generate");
  return rel::generate(spec, name, tag);
}

struct Usage {
  double user_s = 0;
  double sys_s = 0;
  double minflt = 0;
  double nvcsw = 0;
  double nivcsw = 0;
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return {secs(ru.ru_utime), secs(ru.ru_stime), static_cast<double>(ru.ru_minflt),
          static_cast<double>(ru.ru_nvcsw), static_cast<double>(ru.ru_nivcsw)};
}

/// Records getrusage deltas per query into the rt.* layer samples.
void record_usage(LayerSamples& layers, const Usage& before, double queries) {
  const Usage after = usage_now();
  layers["rt.user_cpu_s"].push_back((after.user_s - before.user_s) / queries);
  layers["rt.sys_cpu_s"].push_back((after.sys_s - before.sys_s) / queries);
  layers["rt.minor_faults"].push_back((after.minflt - before.minflt) / queries);
  layers["rt.vol_csw"].push_back((after.nvcsw - before.nvcsw) / queries);
  layers["rt.invol_csw"].push_back((after.nivcsw - before.nivcsw) / queries);
}

/// Counts one checked query: it failed when it did not run to its end
/// (rejected, cancelled, not retired) or when its result is wrong.
void tally(Outcome& out, bool ran, bool right) {
  ++out.attempted;
  if (!ran) {
    ++out.failed;
  } else if (!right) {
    ++out.failed;
    ++out.mismatched;
  }
}

/// Times local_hash_join of `r` against one host's fragment of `s`: the
/// kernel work one host does per revolution, without the ring.
void measure_kernel(LayerSamples& layers, const rel::Relation& r,
                    const rel::Relation& s, int hosts) {
  const std::vector<rel::Relation> frags = rel::split_even(s, hosts);
  for (int rep = 0; rep < 3; ++rep) {
    join::LocalJoinTiming timing;
    {
      Span span("join.local_hash_join");
      join::local_hash_join(r.tuples(), frags[0].tuples(), {}, &timing);
    }
    layers["join.build_s"].push_back(static_cast<double>(timing.setup_ns) / 1e9);
    layers["join.probe_s"].push_back(static_cast<double>(timing.join_ns) / 1e9);
    layers["join.kernel_s"].push_back(
        static_cast<double>(timing.setup_ns + timing.join_ns) / 1e9);
  }
}

/// Result of a set-up's warm-up query.
struct WarmUp {
  bool ran = false;  ///< false when the query was not retired
  Expected result;
};

/// One workload: set-up, reference, and timed rounds.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates inputs, builds the program objects and runs the warm-up
  /// query, keeping its result in warmup(). Every worker of a run gets
  /// the same inputs; `worker` only varies the serve workload's arrival
  /// stream, so the run's arrivals are not one stream repeated.
  virtual void prepare(std::uint64_t seed, int worker) = 0;
  const WarmUp& warmup() const { return warmup_; }
  /// Computes the reference results from the generated inputs.
  virtual void compute_reference() = 0;
  /// The reference result of the warm-up query.
  virtual Expected warmup_want() const = 0;
  /// Runs one round of timed queries.
  virtual void round(Outcome& out, bool traced) = 0;
  /// Traced run, after the timed phase: one-off layer measurements.
  virtual void measure_layers(Outcome& out) = 0;
  virtual double tail_percentile() const = 0;

 protected:
  WarmUp warmup_;
};

// ---------------------------------------------------------------------------
// join_uniform_rt / join_skew_sim: one CycloJoin, queries back to back.

class JoinWorkload : public Workload {
 public:
  JoinWorkload(Ring ring, std::uint64_t rows, double zipf, double tail)
      : ring_(ring), rows_(rows), zipf_(zipf), tail_(tail) {}

  void prepare(std::uint64_t seed, int /*worker*/) override {
    r_ = generate({.rows = rows_, .key_domain = rows_, .zipf_z = zipf_,
                   .seed = rel_seed(seed, 0)}, "R", 1);
    s_ = generate({.rows = rows_, .key_domain = rows_, .zipf_z = zipf_,
                   .seed = rel_seed(seed, 1)}, "S", 2);
    join_ = std::make_unique<cyclo::CycloJoin>(ring_.cluster(), hash_spec());
    Span span("cyclo.run");
    const cyclo::RunReport rep = join_->run(r_, s_);
    warmup_ = {true, {rep.matches, rep.checksum}};
  }

  void compute_reference() override {
    want_ = expected_join(r_.tuples(), s_.tuples());
    if (expected_count(r_.tuples(), s_.tuples()) != want_.matches) {
      throw std::runtime_error("reference count disagrees with enumeration");
    }
  }

  Expected warmup_want() const override { return want_; }

  void round(Outcome& out, bool traced) override {
    const Usage before = traced ? usage_now() : Usage{};
    const double t0 = now_s();
    cyclo::RunReport rep;
    {
      Span span("cyclo.run", static_cast<std::int64_t>(out.queries));
      rep = join_->run(r_, s_);
    }
    const double wall = now_s() - t0;
    ++out.queries;
    tally(out, true, matches(want_, rep.matches, rep.checksum));
    out.rows_read += static_cast<double>(r_.rows() + s_.rows());
    if (!traced) {
      out.latency_s.push_back(wall);
      return;
    }
    out.traced_latency_s.push_back(wall);
    LayerSamples& l = out.layers;
    record_usage(l, before, 1);
    const double total = seconds_of(rep.total_wall);
    l["cyclo.setup_phase_s"].push_back(seconds_of(rep.setup_wall));
    l["cyclo.join_phase_s"].push_back(seconds_of(rep.join_wall));
    l["cyclo.teardown_s"].push_back(
        seconds_of(rep.total_wall - rep.setup_wall - rep.join_wall));
    l["cyclo.outside_phases_s"].push_back(wall - total);
    l["cyclo.cpu_load_join"].push_back(rep.cpu_load_join);
    l["ring.rotation_mb"].push_back(static_cast<double>(rep.bytes_on_wire) / 1e6);
    SimDuration sync = 0;
    for (const cyclo::HostStats& h : rep.hosts) sync += h.sync;
    l["ring.sync_s"].push_back(seconds_of(sync));
    if (ring_.backend == cyclo::Backend::kSim) {
      l["sim.virtual_makespan_s"].push_back(total);
      l["sim.wall_per_virtual"].push_back(total > 0 ? wall / total : 0);
    }
  }

  void measure_layers(Outcome& out) override {
    measure_kernel(out.layers, r_, s_, ring_.hosts);
  }

  double tail_percentile() const override { return tail_; }

 private:
  Ring ring_;
  std::uint64_t rows_;
  double zipf_;
  double tail_;
  rel::Relation r_;
  rel::Relation s_;
  std::unique_ptr<cyclo::CycloJoin> join_;
  Expected want_;
};

// ---------------------------------------------------------------------------
// plan_chain_sim: lineitems(4N) – orders(N) – shipments(2N), planned once,
// executed per query from freshly split inputs.

class ChainWorkload : public Workload {
 public:
  static constexpr std::uint64_t kOrders = 250'000;

  explicit ChainWorkload(Ring ring) : ring_(ring) {}

  void prepare(std::uint64_t seed, int /*worker*/) override {
    rels_.push_back(generate({.rows = 4 * kOrders, .key_domain = kOrders,
                              .seed = rel_seed(seed, 0)}, "lineitems", 1));
    rels_.push_back(generate({.rows = kOrders, .key_domain = kOrders,
                              .seed = rel_seed(seed, 1)}, "orders", 2));
    rels_.push_back(generate({.rows = 2 * kOrders, .key_domain = kOrders,
                              .seed = rel_seed(seed, 2)}, "shipments", 3));
    graph_ = std::make_unique<plan::QueryGraph>();
    std::vector<int> ids;
    for (const rel::Relation& r : rels_) {
      Span span("rel.collect_stats");
      ids.push_back(graph_->add_relation(r.name(), rel::collect_stats(r)));
    }
    graph_->add_join(ids[0], ids[1]);
    graph_->add_join(ids[1], ids[2]);
    {
      Span span("plan.best");
      model::PlanCostParams params;
      params.num_hosts = ring_.hosts;
      plan_ = plan::PlanGen(*graph_, params).best();
    }
    plan::ExecConfig cfg;
    cfg.cluster = ring_.cluster();
    cfg.join_threads = kCoresPerHost;
    cfg.materialize_final = false;
    exec_ = std::make_unique<plan::PlanExecutor>(std::move(cfg));
    warmup_ = {true, {execute(-1).report.matches, 0}};
  }

  void compute_reference() override {
    want_ = expected_chain_count(rels_[0].tuples(), rels_[1].tuples(),
                                 rels_[2].tuples());
  }

  Expected warmup_want() const override { return {want_, 0}; }

  void round(Outcome& out, bool traced) override {
    const Usage before = traced ? usage_now() : Usage{};
    const double t0 = now_s();
    const Query q = execute(static_cast<std::int64_t>(out.queries));
    const double wall = now_s() - t0;
    const plan::PlanRunReport& rep = q.report;
    ++out.queries;
    tally(out, true, rep.matches == want_);
    for (const rel::Relation& r : rels_) out.rows_read += static_cast<double>(r.rows());
    if (!traced) {
      out.latency_s.push_back(wall);
      return;
    }
    out.traced_latency_s.push_back(wall);
    LayerSamples& l = out.layers;
    record_usage(l, before, 1);
    double setup = 0;
    double join = 0;
    double rotation = 0;
    double redistribute = 0;
    double est_error = 0;
    for (std::size_t k = 0; k < rep.rounds.size(); ++k) {
      const plan::RoundReport& round = rep.rounds[k];
      setup += seconds_of(round.setup_wall);
      join += seconds_of(round.join_wall);
      rotation += static_cast<double>(round.rotation_bytes);
      redistribute += static_cast<double>(round.redistribute_bytes);
      const double est = plan_.rounds[k].est_out_rows;
      const double actual = static_cast<double>(round.matches);
      if (est > 0 && actual > 0) {
        est_error = std::max(est_error, std::fabs(std::log(est / actual)));
      }
    }
    l["cyclo.setup_phase_s"].push_back(setup);
    l["cyclo.join_phase_s"].push_back(join);
    l["ring.rotation_mb"].push_back(rotation / 1e6);
    l["ring.redistribute_mb"].push_back(redistribute / 1e6);
    l["plan.between_rounds_s"].push_back(q.execute_s - setup - join);
    l["plan.row_estimate_error"].push_back(est_error);
    l["rel.split_s"].push_back(q.split_s);
  }

  void measure_layers(Outcome& out) override {
    const plan::PlannedRound& first = plan_.rounds.front();
    const rel::Relation& seed_rel = rels_[static_cast<std::size_t>(plan_.order[0])];
    const rel::Relation& joined = rels_[static_cast<std::size_t>(first.relation)];
    if (first.intermediate_rotates) {
      measure_kernel(out.layers, seed_rel, joined, ring_.hosts);
    } else {
      measure_kernel(out.layers, joined, seed_rel, ring_.hosts);
    }
  }

  // About 65 queries per run: p75 keeps 10+ samples beyond it.
  double tail_percentile() const override { return 0.75; }

 private:
  struct Query {
    plan::PlanRunReport report;
    double split_s = 0;
    double execute_s = 0;
  };

  Query execute(std::int64_t query) {
    Query q;
    std::vector<rel::PartitionedRelation> inputs;
    const double t0 = now_s();
    for (const rel::Relation& r : rels_) {
      Span span("rel.split", query);
      inputs.push_back(rel::PartitionedRelation::split(r, ring_.hosts));
    }
    const double t1 = now_s();
    {
      Span span("plan.execute", query);
      q.report = exec_->execute(plan_, *graph_, std::move(inputs));
    }
    q.split_s = t1 - t0;
    q.execute_s = now_s() - t1;
    return q;
  }

  Ring ring_;
  std::vector<rel::Relation> rels_;
  std::unique_ptr<plan::QueryGraph> graph_;
  plan::Plan plan_;
  std::unique_ptr<plan::PlanExecutor> exec_;
  std::uint64_t want_ = 0;
};

// ---------------------------------------------------------------------------
// serve_rate_sim: open-loop Poisson arrivals into a QueryScheduler; each
// round submits a batch of arrivals and drains it. Latencies are on the
// scheduler's serve clock, which carries over from one drain to the next.

class ServeWorkload : public Workload {
 public:
  static constexpr std::uint64_t kRotatingRows = 250'000;
  static constexpr std::uint64_t kStationaryRows = 62'500;
  static constexpr int kTables = 8;
  static constexpr int kBatch = 25;
  /// Fixed arrival rate on the serve clock, in queries per second: 40% of
  /// the 191 q/s that back-to-back full waves of 4 (0.021 s of virtual
  /// service each) sustain on the reference machine (README.md). A
  /// constant: never derived from a measurement at run time.
  static constexpr double kRate = 76.0;

  explicit ServeWorkload(Ring ring) : ring_(ring) {}

  void prepare(std::uint64_t seed, int worker) override {
    r_ = generate({.rows = kRotatingRows, .key_domain = kRotatingRows,
                   .seed = rel_seed(seed, 0)}, "R", 1);
    for (int t = 0; t < kTables; ++t) {
      tables_.push_back(generate({.rows = kStationaryRows,
                                  .key_domain = kRotatingRows,
                                  .seed = rel_seed(seed, t + 1)},
                                 std::string(1, 'S').append(std::to_string(t)),
                                 static_cast<std::uint64_t>(t) + 2));
    }
    serve::ServeConfig cfg;
    cfg.cluster = ring_.cluster();
    cfg.spec = hash_spec();
    cfg.max_inflight = 4;
    sched_ = std::make_unique<serve::QueryScheduler>(std::move(cfg));
    serve::QuerySpec warmup;
    warmup.stationary = &tables_[0];
    const serve::QueryId id = sched_->submit(std::move(warmup), 0);
    serve::ServeReport rep;
    {
      Span span("serve.drain");
      rep = sched_->drain(r_);
    }
    const serve::QueryRecord& rec = rep.query(id);
    warmup_ = {rec.phase == serve::QueryPhase::kRetired,
               {rec.result.matches, rec.result.checksum}};
    next_id_ = id + 1;
    arrival_ = rep.end_time;
    waves_ = rep.waves;
    wire_ = rep.bytes_on_wire;
    rng_.seed(rel_seed(seed, 1000 + worker));
  }

  void compute_reference() override {
    want_.clear();
    for (const rel::Relation& s : tables_) {
      want_.push_back(expected_join(r_.tuples(), s.tuples()));
    }
  }

  Expected warmup_want() const override { return want_[0]; }

  void round(Outcome& out, bool traced) override {
    std::exponential_distribution<double> gap(kRate);
    std::vector<int> table_of(kBatch);
    for (int q = 0; q < kBatch; ++q) {
      arrival_ += from_seconds(gap(rng_));
      table_of[static_cast<std::size_t>(q)] = static_cast<int>(rng_() % kTables);
      const bool gold = rng_() % 4 != 0;  // 3:1 gold-to-bronze mix
      serve::QuerySpec spec;
      spec.stationary = &tables_[static_cast<std::size_t>(table_of[static_cast<std::size_t>(q)])];
      spec.tenant = gold ? "gold" : "bronze";
      spec.weight = gold ? 3.0 : 1.0;
      Span span("serve.submit", static_cast<std::int64_t>(next_id_) + q);
      sched_->submit(std::move(spec), arrival_);
    }
    const Usage before = traced ? usage_now() : Usage{};
    const double t0 = now_s();
    serve::ServeReport rep;
    {
      Span span("serve.drain");
      rep = sched_->drain(r_);
    }
    const double wall = now_s() - t0;

    std::vector<double> queue_wait;
    std::map<int, double> wave_service;
    for (int q = 0; q < kBatch; ++q) {
      const serve::QueryRecord& rec = rep.query(next_id_ + static_cast<serve::QueryId>(q));
      const Expected& want = want_[static_cast<std::size_t>(table_of[static_cast<std::size_t>(q)])];
      ++out.queries;
      const bool retired = rec.phase == serve::QueryPhase::kRetired;
      tally(out, retired, matches(want, rec.result.matches, rec.result.checksum));
      out.rows_read += static_cast<double>(kRotatingRows + kStationaryRows);
      if (!retired) continue;
      const double latency = seconds_of(rec.latency());
      (traced ? out.traced_latency_s : out.latency_s).push_back(latency);
      queue_wait.push_back(seconds_of(rec.queue_wait()));
      wave_service[rec.wave] = seconds_of(rec.finished_at - rec.started_at);
    }
    const double wire = static_cast<double>(rep.bytes_on_wire - wire_);
    const int waves = rep.waves - waves_;
    next_id_ += kBatch;
    waves_ = rep.waves;
    wire_ = rep.bytes_on_wire;
    if (!traced) return;
    LayerSamples& l = out.layers;
    record_usage(l, before, kBatch);
    double service_sum = 0;
    for (const auto& [wave, service] : wave_service) service_sum += service;
    // Mean, not median: at this load most queries find the ring idle.
    double wait_sum = 0;
    for (const double w : queue_wait) wait_sum += w;
    if (!queue_wait.empty()) {
      l["serve.queue_wait_mean_s"].push_back(wait_sum / static_cast<double>(queue_wait.size()));
    }
    for (const auto& [wave, service] : wave_service) {
      l["serve.service_p50_s"].push_back(service);
    }
    if (waves > 0) {
      l["serve.queries_per_wave"].push_back(static_cast<double>(kBatch) / waves);
      l["serve.unaccounted_s"].push_back((wall - service_sum) / waves);
    }
    l["ring.rotation_mb"].push_back(wire / 1e6 / kBatch);
  }

  void measure_layers(Outcome& out) override {
    measure_kernel(out.layers, r_, tables_[0], ring_.hosts);
  }

  // About 900 queries per run. p90, not the p99 that count allows: the
  // few arrival bursts of a run decide p95 and p99, which spread 14% and
  // 22% across seeds on the reference machine; p90 spread 6%.
  double tail_percentile() const override { return 0.9; }

 private:
  Ring ring_;
  rel::Relation r_;
  std::vector<rel::Relation> tables_;
  std::unique_ptr<serve::QueryScheduler> sched_;
  std::vector<Expected> want_;
  serve::QueryId next_id_ = 0;
  SimTime arrival_ = 0;
  int waves_ = 0;
  std::uint64_t wire_ = 0;
  std::mt19937_64 rng_;
};

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "join_uniform_rt") {
    return std::make_unique<JoinWorkload>(Ring{cyclo::Backend::kRt, 1},
                                          2'000'000, 0.0, 0.75);
  }
  if (name == "join_skew_sim") {
    return std::make_unique<JoinWorkload>(Ring{cyclo::Backend::kSim, 4},
                                          300'000, 0.8, 0.75);
  }
  if (name == "plan_chain_sim") {
    return std::make_unique<ChainWorkload>(Ring{cyclo::Backend::kSim, 4});
  }
  if (name == "serve_rate_sim") {
    return std::make_unique<ServeWorkload>(Ring{cyclo::Backend::kSim, 4});
  }
  return nullptr;
}

/// Peak of the process's `Threads:` line in /proc/self/status, polled
/// every millisecond by one extra thread (not counted). It runs only in
/// the thread census after the timed phase, so its own CPU time and
/// context switches stay out of the rt.* getrusage deltas.
class ThreadPeak {
 public:
  ThreadPeak() : poller_([this] { poll(); }) {}
  ~ThreadPeak() {
    stop_ = true;
    poller_.join();
  }
  ThreadPeak(const ThreadPeak&) = delete;
  ThreadPeak& operator=(const ThreadPeak&) = delete;

  int peak() const { return peak_.load() - 1; }

 private:
  void poll() {
    while (!stop_) {
      std::ifstream status("/proc/self/status");
      std::string line;
      while (std::getline(status, line)) {
        if (line.rfind("Threads:", 0) == 0) {
          const int n = std::stoi(line.substr(8));
          if (n > peak_.load()) peak_ = n;
          break;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  std::atomic<bool> stop_{false};
  std::atomic<int> peak_{0};
  std::thread poller_;
};

/// Rounds of the traced run's thread census.
constexpr int kCensusRounds = 2;

/// Sets `w` up and returns the wall time the set-up took.
double timed_setup(Workload& w, const Options& opts) {
  const double t0 = now_s();
  w.prepare(opts.seed, opts.worker);
  return now_s() - t0;
}

/// Times one set-up in a forked child of this process, which sends back
/// its wall time and warm-up result and exits. The set-up starts from the
/// same process state as this process's own, and leaves nothing behind
/// here: no heap, no mappings, no raised allocator thresholds that would
/// change how the timed queries allocate.
std::pair<double, WarmUp> setup_in_child(const Options& opts) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(fds[0]);
    int code = 1;
    try {
      const std::unique_ptr<Workload> w = make_workload(opts.workload);
      const double secs = timed_setup(*w, opts);
      const WarmUp& warmup = w->warmup();
      char buf[128];
      const int n = std::snprintf(buf, sizeof buf, "%.17g %d %llu %llu", secs,
                                  warmup.ran ? 1 : 0,
                                  static_cast<unsigned long long>(warmup.result.matches),
                                  static_cast<unsigned long long>(warmup.result.checksum));
      if (write(fds[1], buf, static_cast<std::size_t>(n)) == n) code = 0;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n", e.what());
    }
    _exit(code);
  }
  close(fds[1]);
  std::string text;
  char buf[256];
  for (ssize_t n; (n = read(fds[0], buf, sizeof buf)) > 0;) {
    text.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  const bool exited = waitpid(pid, &status, 0) == pid && WIFEXITED(status) &&
                      WEXITSTATUS(status) == 0;
  double secs = 0;
  int ran = 0;
  WarmUp warmup;
  std::istringstream in(text);
  if (!exited || !(in >> secs >> ran >> warmup.result.matches >> warmup.result.checksum)) {
    throw std::runtime_error("set-up process failed");
  }
  warmup.ran = ran != 0;
  return {secs, warmup};
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "join_uniform_rt", "join_skew_sim", "plan_chain_sim", "serve_rate_sim"};
  return names;
}

Outcome run_workload(const Options& opts) {
  std::unique_ptr<Workload> w = make_workload(opts.workload);
  if (w == nullptr) throw std::invalid_argument("unknown workload " + opts.workload);
  Outcome out;
  out.tail_percentile = w->tail_percentile();
  recorder().enable(opts.trace);

  // kSetups − 1 set-ups run in forked children and the last one here; the
  // timed queries run on this one. All generate the same inputs, so one
  // reference checks every warm-up query.
  std::vector<WarmUp> warmups;
  for (int i = 1; i < kSetups; ++i) {
    const auto [secs, warmup] = setup_in_child(opts);
    out.setup_s.push_back(secs);
    warmups.push_back(warmup);
  }
  out.setup_s.push_back(timed_setup(*w, opts));
  warmups.push_back(w->warmup());
  {
    Span span("bench.reference");
    w->compute_reference();
  }
  const Expected want = w->warmup_want();
  for (const WarmUp& warmup : warmups) {
    tally(out, warmup.ran, matches(want, warmup.result.matches, warmup.result.checksum));
  }

  // The traced run alternates traced and untraced rounds, so the tracing
  // overhead is measured within one process.
  const Usage before = usage_now();
  const double t0 = now_s();
  for (int round = 0; now_s() - t0 < opts.seconds; ++round) {
    const bool traced = opts.trace && round % 2 == 0;
    recorder().enable(traced);
    w->round(out, traced);
  }
  out.timed_wall_s = now_s() - t0;
  const Usage after = usage_now();
  out.cpu_s = (after.user_s - before.user_s) + (after.sys_s - before.sys_s);
  if (opts.trace) {
    // Thread census: more checked queries with the poller on. Their
    // latencies and usage are not samples of any metric.
    recorder().enable(false);
    Outcome census;
    {
      ThreadPeak threads;
      for (int i = 0; i < kCensusRounds; ++i) w->round(census, false);
      out.layers["rt.threads_peak"].push_back(threads.peak());
    }
    out.attempted += census.attempted;
    out.failed += census.failed;
    out.mismatched += census.mismatched;
    recorder().enable(true);
    w->measure_layers(out);
    // Set-up calls of this process's set-up, from their spans.
    const SpanRecorder& spans = recorder();
    out.layers["rel.generate_s"].push_back(spans.total("rel.generate"));
    if (spans.total("rel.collect_stats") > 0) {
      out.layers["rel.collect_stats_s"].push_back(spans.total("rel.collect_stats"));
      out.layers["plan.plan_s"].push_back(spans.total("plan.best"));
    }
  }
  return out;
}

}  // namespace perfbench
