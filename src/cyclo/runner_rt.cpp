// The rt backend: the cyclo-join cluster as real concurrency.
//
// Topology. Every host gets its own wall-clock sim::Engine (one shared
// epoch, so timestamps are comparable) driven by a dedicated OS thread; the
// host's protocol entities — the RoundaboutNode's receiver/transmitter/
// credit coroutines and the join loop — run single-threaded on that engine,
// exactly as they do on the DES engine. Join kernels leave the engine
// thread: CorePool::set_executor routes measured closures to a per-host
// rt::Executor worker pool. Ring neighbors are connected by shared-memory
// wires (rt/ShmLink) that keep RDMA's pre-posted-buffer + credit contract,
// so ring/node.cpp runs unmodified.
//
// Cross-thread protocol. A wall-clock engine's only thread-safe entry point
// is post(); everything here funnels through it: wire producers wake parked
// consumers, WallBarrier releases waiters, workers complete kernels, and
// the crash-watcher thread marshals die()/splice calls onto the victims'
// engines. Shared runner state (retire board, crash set, termination
// flags) lives behind one mutex; per-host state (plan, stats, node) is
// touched only by its host's engine thread, with barriers providing the
// happens-before edges at phase boundaries.
//
// Termination (resilient mode). The sim detector reads any node's
// outstanding_unacked() at ack time; across threads that would race, so the
// rt detector keeps a per-host "all local chunks acked" flag that is
// updated only on that host's engine thread (where the count is private)
// and combines it with the shared retire board under the runner mutex.
#include "cyclo/runner_rt.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "cyclo/chunk.h"
#include "cyclo/runner_common.h"
#include "obs/analysis.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "ring/frame.h"
#include "ring/node.h"
#include "rt/barrier.h"
#include "rt/executor.h"
#include "rt/wire.h"
#include "sim/core_pool.h"
#include "sim/engine.h"
#include "sim/sync.h"
#include "sim/when_all.h"

namespace cj::cyclo {

namespace {

/// Default core-busy tag for untagged join work.
const std::string kJoinTag = "join";

/// Nanosecond duration -> saturating microseconds for flight-record args.
std::uint32_t duration_us(SimDuration ns) {
  if (ns <= 0) return 0;
  const SimDuration us = ns / kMicrosecond;
  return us > 0xFFFFFFFF ? 0xFFFFFFFFu : static_cast<std::uint32_t>(us);
}

/// A parked run (no events, no posts) this long is a protocol deadlock.
constexpr SimDuration kIdleAbort = 120 * kSecond;

/// ack_timeout is *wall* time on this backend; the sim default (5 virtual
/// milliseconds) is shorter than ordinary scheduler jitter and would cause
/// spurious re-injections. The runner turns on the adaptive ack-timeout
/// policy with this floor: until enough RTT samples arrive the effective
/// timeout is max(floor, configured), afterwards a multiple of the observed
/// p99 — machines faster than the floor converge down to their real RTT,
/// loaded ones move up instead of re-injecting spuriously.
constexpr SimDuration kMinAckTimeout = 200 * kMillisecond;

class RtRunner {
 public:
  RtRunner(const ClusterConfig& cfg, const JoinSpec& spec,
           const rel::Relation& r, const std::vector<SharedQuery>& queries,
           FragmentInputs* frags, std::vector<detail::HostMemory>* memory)
      : cfg_(cfg),
        spec_(spec),
        n_(cfg.num_hosts),
        queries_(queries),  // owned copy: QueryState keeps pointers into it
        num_queries_(queries.size()),
        epoch_(sim::Engine::WallClock::now()),
        setup_barrier_(n_),
        start_barrier_(n_),
        replicate_barrier_(n_),
        join_barrier_(n_) {
    // The rt backend has no fault-injecting transport: messages cross a
    // mutex, not a lossy link. Crashes (fail-stop + ring repair) are the
    // supported — and the interesting — fault class.
    CJ_CHECK_MSG(
        cfg_.fault.link.drop_prob == 0.0 && cfg_.fault.link.corrupt_prob == 0.0,
        "the rt backend supports crash faults only (no link faults)");
    CJ_CHECK_MSG(cfg_.fault.slowdowns.empty(),
                 "the rt backend supports crash faults only (no slowdowns)");
    plan_ = detail::plan_run(cfg_, spec_, r, queries_, frags, memory);
  }

  /// Hands the hosts' working memory back after execute() (every engine
  /// and worker thread has been joined by then).
  void reclaim(std::vector<detail::HostMemory>* memory) {
    detail::reclaim_memory(plan_, memory);
  }

  SharedRunReport execute() {
    // Always-on flight recorder: one lane per host, written concurrently
    // from every engine thread (lock-free emits; obs/flight.h).
    flight_ = std::make_shared<obs::FlightRecorder>(n_, cfg_.flight);
    if (cfg_.trace.enabled) tracer_ = std::make_shared<obs::Tracer>();
    if (cfg_.profile.enabled) {
      profiler_ = std::make_unique<obs::prof::KernelProfiler>();
    }
    if (plan_.replicate) {
      replicas_.resize(static_cast<std::size_t>(n_));
      replica_records_.resize(static_cast<std::size_t>(n_));
    }
    build_hosts();
    if (plan_.resilient) {
      retired_board_.resize(static_cast<std::size_t>(n_));
      acked_clear_.assign(static_cast<std::size_t>(n_), false);
      injector_done_.assign(static_cast<std::size_t>(n_), false);
    }
    inject_times_.resize(static_cast<std::size_t>(n_));

    // Roots are spawned before the engine threads start (an engine is
    // single-threaded; pre-start spawns are published by thread creation).
    for (int i = 0; i < n_; ++i) {
      host(i).engine->spawn(host_process(i), "host" + std::to_string(i));
    }

    std::vector<std::thread> watchers;
    for (const sim::HostCrashSpec& crash : cfg_.fault.crashes) {
      watchers.emplace_back([this, crash] { crash_watcher_main(crash); });
    }
    // Live telemetry: a background sampler thread snapshots the metrics
    // registry and runs the straggler detector over fresh recorder records
    // while the ring spins (engines share an epoch, so any host's now()
    // yields coherent sample timestamps).
    if (cfg_.sampler.enabled) {
      sampler_ = std::make_unique<obs::LiveSampler>(
          cfg_.sampler, &metrics_, flight_.get(), tracer_.get(), n_,
          [this] { return host(0).engine->now(); });
      sampler_->start();
    }
    for (int i = 0; i < n_; ++i) {
      HostRt& h = host(i);
      h.thread = std::thread([&h] {
        h.engine->run();
        h.engine->check_all_complete();
      });
    }
    for (int i = 0; i < n_; ++i) host(i).thread.join();
    {
      // Release a watcher whose crash time never arrived.
      std::lock_guard<std::mutex> lk(mu_);
      finished_ = true;
      crash_cv_.notify_all();
    }
    for (std::thread& w : watchers) w.join();
    // Final sample + lane drain happen inside stop(); the detector's
    // verdicts are read (single-threaded again) in fill_metrics.
    if (sampler_ != nullptr) sampler_->stop();
    return build_report();
  }

 private:
  struct HostRt {
    std::unique_ptr<sim::Engine> engine;
    std::unique_ptr<rt::Executor> executor;
    std::unique_ptr<sim::CorePool> cores;
    std::unique_ptr<ring::RoundaboutNode> node;
    std::unique_ptr<sim::Semaphore> join_slots;
    std::thread thread;
    detail::HostPlan* plan = nullptr;
    HostStats stats;
    SimDuration busy_at_join_start = 0;
    SimTime join_started_at = 0;
    SimTime done_at = 0;

    // ----- adoption state (resilience.replicate) -----------------------
    // All of it engine-thread private: the install closure that writes it
    // runs on this host's engine, as do the join loop and adoption task
    // that read it.
    int adopted_origin = -1;
    std::vector<detail::QueryState> adopted;
    std::vector<std::set<std::uint32_t>> adopted_seen;
    std::unique_ptr<sim::Event> adoption_ready;
    /// Set on this host's engine once its injector sent the last first
    /// copy; the replay task awaits it so replay seqs extend the slab
    /// numbering instead of colliding with it.
    std::unique_ptr<sim::Event> injector_done_ev;
  };

  HostRt& host(int i) { return *hosts_[static_cast<std::size_t>(i)]; }

  int successor(int i) const { return (i + 1) % n_; }
  int predecessor(int i) const { return (i + n_ - 1) % n_; }

  void build_hosts() {
    hosts_.reserve(static_cast<std::size_t>(n_));
    for (int i = 0; i < n_; ++i) {
      auto h = std::make_unique<HostRt>();
      h->engine = std::make_unique<sim::Engine>(sim::ClockMode::kWall, epoch_);
      h->engine->set_idle_abort(kIdleAbort);
      h->engine->set_flight(flight_.get());
      if (tracer_ != nullptr) h->engine->set_tracer(tracer_.get());
      h->executor = std::make_unique<rt::Executor>(cfg_.cores_per_host);
      // cpu_scale / context-switch billing do not apply: wall time already
      // is real time (CorePool::set_executor docs). per_host_cpu_scale > 1
      // IS honored — see stretch_probe.
      h->cores = std::make_unique<sim::CorePool>(*h->engine, cfg_.cores_per_host);
      h->cores->set_trace_host(i);
      h->cores->set_executor(h->executor.get());
      h->join_slots =
          std::make_unique<sim::Semaphore>(*h->engine, spec_.join_threads);
      h->plan = &plan_.hosts[static_cast<std::size_t>(i)];
      hosts_.push_back(std::move(h));
    }

    if (n_ > 1) {
      for (int i = 0; i < n_; ++i) {
        links_.push_back(std::make_unique<rt::ShmLink>());
        // links_[i] is the edge i -> succ(i): endpoint a is host i's out
        // wire, endpoint b the successor's in wire. Each endpoint's engine
        // is the one running its consumer coroutines.
        links_.back()->a().attach_engine(host(i).engine.get());
        links_.back()->b().attach_engine(host(successor(i)).engine.get());
      }
    }

    ring::NodeConfig node_cfg = cfg_.node;
    // Shared-memory wires keep the posted-buffer contract, so credits are
    // as mandatory as over RDMA regardless of the configured transport.
    node_cfg.use_credits = true;
    node_cfg.resilience.enabled = plan_.resilient;
    node_cfg.resilience.num_hosts = n_;
    node_cfg.resilience.adaptive.enabled = true;
    if (node_cfg.resilience.adaptive.floor == 0) {
      node_cfg.resilience.adaptive.floor = kMinAckTimeout;
    }
    for (int i = 0; i < n_; ++i) {
      HostRt& h = host(i);
      node_cfg.resilience.host_id = i;
      node_cfg.trace_host = i;
      ring::Wire* in =
          n_ > 1 ? &links_[static_cast<std::size_t>(predecessor(i))]->b()
                 : nullptr;
      ring::Wire* out =
          n_ > 1 ? &links_[static_cast<std::size_t>(i)]->a() : nullptr;
      h.node = std::make_unique<ring::RoundaboutNode>(*h.engine, *h.cores, in,
                                                      out, node_cfg);
      if (plan_.resilient) {
        // Runs on host i's engine thread each time one of i's local chunks
        // is acknowledged (must be installed before start()).
        h.node->set_on_ack([this, i] { on_ack(i); });
        h.injector_done_ev =
            std::make_unique<sim::Event>(*h.engine, "injector-done");
      }
      if (plan_.replicate) {
        // Runs on host i's engine thread (the receiver consumes kReplica
        // frames inline), so the store needs no lock.
        h.node->set_on_replica(
            [this, i](int origin, std::span<const std::byte> record) {
              replicas_[static_cast<std::size_t>(i)].absorb(origin, record);
            });
      }
    }
  }

  sim::Task<void> host_process(int i) {
    HostRt& host = this->host(i);
    sim::Engine& engine = *host.engine;
    sim::CorePool& cores = *host.cores;
    ring::RoundaboutNode& node = *host.node;

    // ---- setup phase -------------------------------------------------
    const SimTime setup_start = engine.now();
    if (obs::Tracer* t = engine.tracer()) t->begin(setup_start, i, "phase", "setup");
    co_await run_setup(i);
    flush_profile(engine);
    if (obs::Tracer* t = engine.tracer()) t->end(engine.now(), i, "phase");
    host.stats.setup = engine.now() - setup_start;
    if (plan_.replicate && n_ > 1) {
      // Serialize this host's crash-relevant state (S_i pieces + the slab's
      // encoded chunks) while the fragments are still resident.
      replica_records_[static_cast<std::size_t>(i)] =
          detail::build_replica_records(
              *host.plan, cfg_.node.buffer_bytes - ring::kFrameBytes);
    }
    detail::release_inputs(*host.plan, spec_.algorithm);

    co_await setup_barrier_.arrive_and_wait(engine);

    // ---- transport bring-up -------------------------------------------
    // Counts are known only now (chunking is data-dependent); the barrier
    // above also publishes every host's slab for counts_for().
    {
      std::vector<std::span<std::byte>> slabs;
      ring::NodeCounts counts;
      if (n_ > 1) {
        slabs.push_back(host.plan->slab.slab());
        // Replica records are sent from where they were serialized; register
        // them up front like the slab (a no-op on shared-memory wires).
        if (plan_.replicate) {
          for (auto& record : replica_records_[static_cast<std::size_t>(i)]) {
            slabs.push_back(record);
          }
        }
        counts = counts_for();
      }
      const Status started = co_await node.start(counts, std::move(slabs));
      CJ_CHECK_MSG(started.is_ok(), started.to_string().c_str());
    }
    co_await start_barrier_.arrive_and_wait(engine);
    if (plan_.replicate && n_ > 1) {
      // ---- replication phase -------------------------------------------
      // Stream the replica one hop ahead and wait for the successor's
      // acks. The barrier (and the crash gate opening only after it)
      // guarantees a crash never interrupts replication.
      if (obs::Tracer* t = engine.tracer()) {
        t->begin(engine.now(), i, "phase", "replicate");
      }
      for (const auto& record : replica_records_[static_cast<std::size_t>(i)]) {
        co_await node.send_replica(record);
      }
      co_await node.replicas_drained();
      co_await replicate_barrier_.arrive_and_wait(engine);
      // The records stay resident (registered memory; freeing would leave
      // stale regions behind on wires that do register).
      if (obs::Tracer* t = engine.tracer()) t->end(engine.now(), i, "phase");
    }
    if (plan_.resilient) {
      std::lock_guard<std::mutex> lk(mu_);
      join_started_ = true;
      crash_cv_.notify_all();
    }

    // ---- join phase ----------------------------------------------------
    host.join_started_at = engine.now();
    host.busy_at_join_start = cores.busy_total();
    if (obs::Tracer* t = engine.tracer()) {
      t->begin(host.join_started_at, i, "phase", "join");
    }

    if (n_ > 1 && host.plan->slab.num_chunks() > 0) {
      engine.spawn(injector(i), "injector" + std::to_string(i));
    } else if (plan_.resilient) {
      mark_injector_done(i);  // nothing to inject, nothing to await acks for
    }

    // Local chunks first (they are resident), then arrivals in ring order.
    // Slab order is injection order, so chunk index == wire seq.
    for (std::size_t c = 0; c < host.plan->slab.num_chunks(); ++c) {
      if (plan_.resilient && node.stopped()) break;  // this host died mid-run
      co_await join_chunk(i, decode_chunk(host.plan->slab.chunk(c)),
                          plan_.resilient ? i : -1,
                          static_cast<std::uint32_t>(c));
    }
    if (plan_.resilient) {
      maybe_finish();  // an all-empty run produces no acks or retires
      while (true) {
        ring::InboundChunk inbound = co_await node.next_chunk();
        if (inbound.stop) break;
        if (host.adopted_origin >= 0 && !host.adoption_ready->is_set()) {
          // Adopter with the partition still being promoted: park until
          // the build finishes so no arrival misses its adopted join (the
          // ring backs up behind this host briefly — recovery's latency
          // cost, not a deadlock: promotion runs on workers).
          co_await host.adoption_ready->wait();
        }
        const ChunkView view = decode_chunk(inbound.payload);
        const int origin = inbound.origin;
        const std::uint32_t seq = inbound.seq;
        const bool origin_dead = is_crashed(origin);
        if (inbound.replay) {
          // Recovery replay copy: joined only at the adopter (against the
          // adopted partition), forwarded by everyone else; never on the
          // retire board — the original already accounted there.
          if (host.adopted_origin >= 0 &&
              host.adopted_seen[static_cast<std::size_t>(origin)]
                  .insert(seq)
                  .second) {
            co_await join_adopted_chunk(i, view, origin, seq);
          }
          if (surviving_successor(i) == origin) {
            node.retire(inbound);  // ack the replaying origin
          } else {
            node.forward(inbound);
          }
          continue;
        }
        if (origin_dead && !is_recovering()) {
          // Degraded mode: a dead origin can neither take an ack nor
          // re-inject; retire its chunk quietly at the first surviving
          // host that notices.
          node.retire(inbound, /*send_ack=*/false);
          continue;
        }
        if (!inbound.duplicate) co_await join_chunk(i, view, origin, seq);
        if (host.adopted_origin >= 0 && origin != host.adopted_origin &&
            host.adopted_seen[static_cast<std::size_t>(origin)]
                .insert(seq)
                .second) {
          // Post-adoption arrival not covered by the replay snapshot: this
          // is its only pass by the adopter.
          co_await join_adopted_chunk(i, view, origin, seq);
        }
        // Under recovery a dead origin's chunks stay first-class: joined
        // everywhere, retiring one hop before the adopter, which consumes
        // their acks on the dead host's behalf.
        const int home = origin_dead ? dead_home() : origin;
        if (surviving_successor(i) == home) {
          node.retire(inbound);  // full revolution completed
          note_retired(origin, seq);
        } else {
          node.forward(inbound);
        }
      }
    } else {
      const std::uint64_t arrivals =
          n_ > 1 ? plan_.global_chunks() - host.plan->slab.num_chunks() : 0;
      for (std::uint64_t k = 0; k < arrivals; ++k) {
        ring::InboundChunk inbound = co_await node.next_chunk();
        const ChunkView view = decode_chunk(inbound.payload);
        co_await join_chunk(i, view);
        if (successor(i) == view.origin_host) {
          record_revolution(view.origin_host, engine.now());
          node.retire(inbound);  // full revolution completed
        } else {
          node.forward(inbound);
        }
      }
    }

    const SimTime join_end = engine.now();
    if (obs::Tracer* t = engine.tracer()) t->end(join_end, i, "phase");
    host.stats.join_phase = join_end - host.join_started_at;
    host.stats.sync = node.sync_time();
    host.stats.cpu_load_join =
        cores.utilization(host.busy_at_join_start, host.stats.join_phase);

    co_await join_barrier_.arrive_and_wait(engine);
    co_await node.drain();

    if (plan_.resilient) {
      // A crashed host contributes nothing. Without recovery the surviving
      // hosts count only the surviving origins' buckets (dead R fragments
      // are retracted); under exact recovery every origin's bucket counts
      // and the adopter adds the partition it recomputed.
      if (!is_crashed(i)) {
        const bool recovering = is_recovering();
        for (const auto& query : host.plan->queries) {
          for (int o = 0; o < n_; ++o) {
            if (is_crashed(o) && !recovering) continue;
            const auto& partial = query.per_origin[static_cast<std::size_t>(o)];
            host.stats.matches += partial.matches();
            host.stats.checksum += partial.checksum();
          }
        }
        for (const auto& adopted : host.adopted) {
          host.stats.matches += adopted.result.matches();
          host.stats.checksum += adopted.result.checksum();
        }
      }
    } else {
      for (const auto& query : host.plan->queries) {
        host.stats.matches += query.result.matches();
        host.stats.checksum += query.result.checksum();
      }
    }
    host.stats.bytes_sent = node.bytes_sent();
    host.stats.busy_by_tag = cores.busy_by_tag();
    host.stats.chunks_reinjected = node.chunks_reinjected();
    host.stats.chunks_recovered = node.chunks_recovered();
    host.stats.corrupt_discards = node.chunks_discarded_corrupt();
    host.stats.stale_query_discards = node.stale_query_discards();
    host.stats.duplicates_skipped = node.duplicates_skipped();
    host.stats.send_failures = node.send_failures();
    host.done_at = engine.now();
  }

  sim::Task<void> injector(int i) {
    HostRt& host = this->host(i);
    ring::RoundaboutNode& node = *host.node;
    for (std::size_t c = 0; c < host.plan->slab.num_chunks(); ++c) {
      if (plan_.resilient && node.stopped()) break;  // this host died
      co_await node.send_local(host.plan->slab.chunk(c));
      if (!plan_.resilient) {
        std::lock_guard<std::mutex> lk(mu_);
        inject_times_[static_cast<std::size_t>(i)].push_back(
            host.engine->now());
      }
    }
    if (plan_.resilient) mark_injector_done(i);
  }

  /// Coarse revolution-makespan sample (retire order across threads is not
  /// exactly injection order, unlike the deterministic sim pairing).
  void record_revolution(int origin, SimTime now) {
    std::lock_guard<std::mutex> lk(mu_);
    auto& pending = inject_times_[static_cast<std::size_t>(origin)];
    if (pending.empty()) return;
    metrics_.record("revolution_ns", now - pending.front());
    pending.pop_front();
  }

  template <typename Fn>
  auto profiled(int i, Fn fn, const char* phase = "core") {
    return [this, i, phase, fn = std::move(fn)] {
      // Installed on the *worker* thread the kernel runs on; the profiler
      // accumulates from all workers under its own lock.
      obs::prof::ScopedContext ctx(profiler_.get(), i, phase);
      fn();
    };
  }

  void flush_profile(sim::Engine& engine) {
    if (profiler_ != nullptr && tracer_ != nullptr) {
      profiler_->flush_to_tracer(*tracer_, engine.now());
    }
  }

  sim::Task<void> run_setup(int i) {
    HostRt& host = this->host(i);
    // Resilient frames travel in-buffer ahead of the payload; chunks must
    // leave them headroom or a full chunk would overflow the ring buffer.
    // With replication on, chunks additionally ride inside replica records,
    // so they leave room for the record header too.
    const ChunkWriter writer(
        cfg_.node.buffer_bytes - (plan_.resilient ? ring::kFrameBytes : 0) -
        (plan_.replicate ? sizeof(detail::ReplicaHeader) : 0));
    std::vector<sim::Task<void>> tasks;
    for (auto& fn :
         detail::setup_closures(spec_, plan_.radix_bits, writer, host.plan)) {
      tasks.push_back(host.cores->run(profiled(i, std::move(fn)), "setup"));
    }
    co_await sim::when_all(*host.engine, std::move(tasks));
    detail::patch_origin(host.plan->slab, i);
  }

  double cpu_scale(int i) const {
    const auto& v = cfg_.per_host_cpu_scale;
    return static_cast<std::size_t>(i) < v.size()
               ? v[static_cast<std::size_t>(i)]
               : 1.0;
  }

  // Honors per_host_cpu_scale on real hardware: a scale s > 1 stretches
  // each probe to s x its measured wall time by spinning on one of the
  // host's join cores, so a "slow host" exists on the rt backend too
  // (abl_straggler runs the same config on both backends). The spin is a
  // plain core task — it occupies a real core and bills to join busy time,
  // exactly like genuinely slower compute — and stays outside profiled()
  // so kernel profiles are unperturbed.
  sim::Task<void> stretch_probe(int i, SimTime probe_start) {
    const double scale = cpu_scale(i);
    if (scale <= 1.0) co_return;
    HostRt& host = this->host(i);
    const SimTime elapsed = host.engine->now() - probe_start;
    const SimTime extra =
        static_cast<SimTime>((scale - 1.0) * static_cast<double>(elapsed));
    if (extra <= 0) co_return;
    co_await host.cores->run(
        [extra] {
          const auto until = std::chrono::steady_clock::now() +
                             std::chrono::nanoseconds(extra);
          while (std::chrono::steady_clock::now() < until) {
          }
        },
        kJoinTag);
  }

  // One probe record from the join loop (host i's engine thread; never
  // inside a measured closure, so kernels stay unperturbed).
  void flight_probe(int i, int origin, std::uint32_t seq, SimTime start) {
    obs::FlightRecord r;
    r.ts = host(i).engine->now();
    r.seq = seq;
    r.origin =
        origin < 0 ? obs::kNoOrigin : static_cast<std::uint16_t>(origin);
    r.query = cfg_.node.resilience.query_group;
    r.host = static_cast<std::int16_t>(i);
    r.kind = obs::HopKind::kProbe;
    r.arg_us = duration_us(r.ts - start);
    flight_->emit(i, r);
  }

  sim::Task<void> join_chunk(int i, ChunkView view, int origin = -1,
                             std::uint32_t seq = 0) {
    HostRt& host = this->host(i);
    ++host.stats.chunks_processed;
    probe_tuples_ += view.tuples.size() * host.plan->queries.size();
    const SimTime probe_start = host.engine->now();

    detail::ChunkJoinWork work;
    detail::build_chunk_work(spec_, plan_.radix_bits, plan_.resilient,
                             *host.plan, view, work);
    std::vector<sim::Task<void>> tasks;
    for (std::size_t k = 0; k < work.items.size(); ++k) {
      // Busy time bills to the owning query's tag so the serving layer can
      // attribute core time per query; untagged queries share "join".
      const std::string& tag =
          work.tags[k]->empty() ? kJoinTag : *work.tags[k];
      tasks.push_back(detail::guarded(
          *host.join_slots,
          host.cores->run(profiled(i, std::move(work.items[k])), tag)));
    }
    co_await sim::when_all(*host.engine, std::move(tasks));
    co_await stretch_probe(i, probe_start);
    flush_profile(*host.engine);
    work.merge_into_sinks();
    flight_probe(i, origin, seq, probe_start);
  }

  // Joins one chunk against the adopter's promoted replica partition
  // (recovery only); the adopted QueryStates' own results keep recovered
  // matches separately attributable.
  sim::Task<void> join_adopted_chunk(int i, ChunkView view, int origin = -1,
                                     std::uint32_t seq = 0) {
    HostRt& host = this->host(i);
    probe_tuples_ += view.tuples.size() * host.adopted.size();
    const SimTime probe_start = host.engine->now();

    detail::ChunkJoinWork work;
    for (auto& query : host.adopted) {
      detail::build_query_chunk_work(spec_, plan_.radix_bits, query,
                                     &query.result, view, work);
    }
    std::vector<sim::Task<void>> tasks;
    for (auto& item : work.items) {
      tasks.push_back(detail::guarded(
          *host.join_slots,
          host.cores->run(profiled(i, std::move(item), "adopt"), "adopt")));
    }
    co_await sim::when_all(*host.engine, std::move(tasks));
    co_await stretch_probe(i, probe_start);
    flush_profile(*host.engine);
    work.merge_into_sinks();
    flight_probe(i, origin, seq, probe_start);
  }

  ring::NodeCounts counts_for() const {
    const std::uint64_t g = plan_.global_chunks();
    return ring::NodeCounts{g, g};
  }

  // ----- resilient-mode termination detection --------------------------

  bool is_crashed(int h) {
    std::lock_guard<std::mutex> lk(mu_);
    return crashed_.count(h) != 0;
  }

  bool is_recovering() {
    std::lock_guard<std::mutex> lk(mu_);
    return recovering_;
  }

  /// Where a recovered dead origin's chunks retire: at the predecessor of
  /// the adopter, which consumes their acks. Only meaningful once
  /// recovering_ is set (it is published together with crashed_).
  int dead_home() {
    std::lock_guard<std::mutex> lk(mu_);
    return adopter_;
  }

  /// The next alive host downstream of i on the (possibly spliced) ring.
  int surviving_successor(int i) {
    std::lock_guard<std::mutex> lk(mu_);
    int s = successor(i);
    while (crashed_.count(s) != 0) s = successor(s);
    return s;
  }

  /// Host i's engine thread: one of i's local chunks was acknowledged.
  /// outstanding_unacked() is engine-thread private, so this is the only
  /// place (besides mark_injector_done) allowed to read it.
  void on_ack(int i) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      acked_clear_[static_cast<std::size_t>(i)] =
          injector_done_[static_cast<std::size_t>(i)] &&
          host(i).node->outstanding_unacked() == 0;
    }
    maybe_finish();
  }

  /// Host i's engine thread: the injector sent its last local chunk (or had
  /// none). Until this, acked_clear_ stays pinned false — a transient
  /// outstanding == 0 between two injections must not look like completion.
  void mark_injector_done(int i) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      injector_done_[static_cast<std::size_t>(i)] = true;
      acked_clear_[static_cast<std::size_t>(i)] =
          host(i).node->outstanding_unacked() == 0;
    }
    host(i).injector_done_ev->set();  // on i's engine thread
    maybe_finish();
  }

  void note_retired(int origin, std::uint32_t seq) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      retired_board_[static_cast<std::size_t>(origin)].insert(seq);
    }
    maybe_finish();
  }

  /// Caller holds mu_. Slab chunk counts are safe to read: they are written
  /// before the setup barrier, which happens-before every join-phase event.
  /// Under exact recovery the dead origin's board must fill too (the
  /// adopter's re-injections retire on the dead host's behalf) and every
  /// recovery task must have finished.
  bool all_work_done_locked() {
    if (recovering_ && recovery_pending_ > 0) return false;
    for (int o = 0; o < n_; ++o) {
      const bool dead = crashed_.count(o) != 0;
      if (dead && !recovering_) continue;
      if (retired_board_[static_cast<std::size_t>(o)].size() <
          host(o).plan->slab.num_chunks()) {
        return false;
      }
      if (!dead && !acked_clear_[static_cast<std::size_t>(o)]) return false;
    }
    return true;
  }

  void maybe_finish() {
    std::vector<int> survivors;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (!plan_.resilient || finished_ || repairing_ || !all_work_done_locked()) {
        return;
      }
      finished_ = true;
      crash_cv_.notify_all();  // a pending watcher stands down
      for (int i = 0; i < n_; ++i) {
        if (crashed_.count(i) == 0) survivors.push_back(i);
      }
    }
    for (const int i : survivors) {
      host(i).engine->post([this, i] { host(i).node->request_stop(); });
    }
  }

  // ----- crash control (watcher thread) -------------------------------

  /// Blocks the watcher thread until `fn` has run on `h`'s engine thread.
  void post_and_wait(int h, std::function<void()> fn) {
    auto done = std::make_shared<std::promise<void>>();
    auto ran = done->get_future();
    host(h).engine->post([fn = std::move(fn), done] {
      fn();
      done->set_value();
    });
    ran.get();
  }

  static sim::Task<void> notify_when_done(
      sim::Task<void> inner, std::shared_ptr<std::promise<void>> done) {
    co_await std::move(inner);
    done->set_value();
  }

  static sim::Task<void> splice_in_task(RtRunner* self, int succ,
                                        rt::ShmLink* link,
                                        std::shared_ptr<int> credits) {
    *credits = co_await self->host(succ).node->splice_in(&link->b());
  }

  static sim::Task<void> splice_out_task(RtRunner* self, int pred,
                                         rt::ShmLink* link,
                                         std::shared_ptr<int> credits) {
    co_await self->host(pred).node->splice_out(&link->a(), *credits);
  }

  /// Spawns the coroutine `make()` produces on `h`'s engine and blocks the
  /// watcher thread until it completes.
  void run_coro_on(int h, std::function<sim::Task<void>()> make) {
    auto done = std::make_shared<std::promise<void>>();
    auto ran = done->get_future();
    host(h).engine->post([this, h, make = std::move(make), done] {
      host(h).engine->spawn(notify_when_done(make(), done), "repair");
    });
    ran.get();
  }

  void crash_watcher_main(sim::HostCrashSpec spec) {
    {
      std::unique_lock<std::mutex> lk(mu_);
      // spec.at is wall time since the run's epoch on this backend.
      crash_cv_.wait_until(lk, epoch_ + std::chrono::nanoseconds(spec.at),
                           [this] { return finished_; });
      if (finished_) return;
      // A crash during setup degenerates to a shorter ring from the start;
      // the interesting (and supported) case is a crash of a live ring.
      crash_cv_.wait(lk, [this] { return join_started_ || finished_; });
      if (finished_) return;  // the run beat the crash to the finish line
      repairing_ = true;
      crashed_.insert(spec.host);
      if (plan_.replicate) {
        // Published together with the crash: any host observing the origin
        // as dead also sees recovery mode and the retire home, so no chunk
        // is ever quiet-retired in the window before adoption installs.
        CJ_CHECK_MSG(!recovering_,
                     "replicated recovery supports a single crash");
        recovering_ = true;
        int s = successor(spec.host);
        while (crashed_.count(s) != 0) s = successor(s);
        adopter_ = s;
        crash_at_ = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        sim::Engine::WallClock::now() - epoch_)
                        .count();
      }
    }
    // Black box: snapshot the recorder's window as it stood at the crash
    // (watcher thread; the recorder is safe to read under concurrent emits).
    if (!cfg_.flight.blackbox_path.empty() &&
        !blackbox_written_.exchange(true)) {
      obs::write_blackbox(*flight_, cfg_.flight.blackbox_path, "crash");
    }
    // Fail-stop on the victim's own engine thread: wires break, entities
    // unwind, the victim's join loop sees a stop chunk.
    post_and_wait(spec.host, [this, spec] { host(spec.host).node->die(); });
    splice_around(spec.host);
    if (plan_.replicate) install_recovery(spec.host);
    {
      std::lock_guard<std::mutex> lk(mu_);
      repairing_ = false;
    }
    // Without recovery the crash may itself complete the run (the dead
    // host's unfinished work no longer counts).
    maybe_finish();
  }

  /// Watcher thread: flips the run into exact-recovery mode. The install
  /// closure runs on the adopter's engine (its node and seen-sets are
  /// engine-thread private); the recovery tasks are registered under mu_
  /// before repairing_ clears, so the termination detector never observes
  /// a half-installed recovery.
  void install_recovery(int dead) {
    int a;
    {
      std::lock_guard<std::mutex> lk(mu_);
      a = adopter_;
    }
    auto replay_sets =
        std::make_shared<std::vector<std::set<std::uint32_t>>>();
    post_and_wait(a, [this, a, dead, replay_sets] {
      HostRt& h = host(a);
      h.node->adopt(dead);
      h.adopted_origin = dead;
      h.adoption_ready =
          std::make_unique<sim::Event>(*h.engine, "adoption-ready");
      h.adopted_seen.assign(static_cast<std::size_t>(n_), {});
      replay_sets->assign(static_cast<std::size_t>(n_), {});
      for (int o = 0; o < n_; ++o) {
        if (o == a || is_crashed(o)) continue;
        // Snapshot: chunks the adopter already consumed from o get their
        // adopted join from a replay copy, so pre-mark them — a stale
        // original duplicate must not double-join.
        h.adopted_seen[static_cast<std::size_t>(o)] = h.node->seen(o);
        (*replay_sets)[static_cast<std::size_t>(o)] =
            h.adopted_seen[static_cast<std::size_t>(o)];
      }
    });
    std::vector<int> replayers;
    {
      std::lock_guard<std::mutex> lk(mu_);
      recovery_pending_ = 1;  // the adoption task
      // The tasks register fresh outstanding work; pin the flags false
      // until each task's tail recomputes them on its own engine.
      acked_clear_[static_cast<std::size_t>(a)] = false;
      for (int o = 0; o < n_; ++o) {
        if (o == a || crashed_.count(o) != 0) continue;
        ++recovery_pending_;
        acked_clear_[static_cast<std::size_t>(o)] = false;
        replayers.push_back(o);
      }
    }
    host(a).engine->post([this, a, dead] {
      host(a).engine->spawn(adoption_task(this, a, dead), "adopt");
    });
    for (const int o : replayers) {
      std::set<std::uint32_t> seqs =
          std::move((*replay_sets)[static_cast<std::size_t>(o)]);
      host(o).engine->post([this, o, seqs = std::move(seqs)]() mutable {
        host(o).engine->spawn(replay_task(this, o, std::move(seqs)),
                              "replay");
      });
    }
    if (tracer_ != nullptr) {
      tracer_->instant(host(a).engine->now(), obs::kGlobalHost, "fault",
                       "adopt-install", a);
    }
  }

  /// Tail of every recovery task, on the owning host's engine thread:
  /// refresh the host's acked-clear flag (the task may have registered no
  /// new work, in which case no ack would ever recompute it) and release
  /// the termination detector.
  void recovery_task_done(int i) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      --recovery_pending_;
      acked_clear_[static_cast<std::size_t>(i)] =
          injector_done_[static_cast<std::size_t>(i)] &&
          host(i).node->outstanding_unacked() == 0;
    }
    maybe_finish();
  }

  /// The adopter's recovery work (function coroutine: frame-owned copies
  /// survive the posted spawn closure). Promote the replica S_dead, then
  /// re-inject the dead origin's unretired chunks from the replica log,
  /// then run the local joins the dead host can no longer perform.
  static sim::Task<void> adoption_task(RtRunner* self, int a, int dead) {
    HostRt& host = self->host(a);
    detail::ReplicaStore& store = self->replicas_[static_cast<std::size_t>(a)];
    ring::RoundaboutNode& node = *host.node;
    sim::Engine& engine = *host.engine;
    CJ_CHECK_MSG(store.origin == dead, "replica store holds the wrong host");
    obs::Tracer* const t = engine.tracer();
    if (t != nullptr) t->begin(engine.now(), a, "adopt", "promote-replica");
    host.adopted.resize(self->num_queries_);
    for (std::size_t q = 0; q < self->num_queries_; ++q) {
      host.adopted[q].band = self->queries_[q].band;
      host.adopted[q].predicate = &self->queries_[q].predicate;
    }
    {
      std::vector<sim::Task<void>> tasks;
      for (auto& fn : detail::adopted_setup_closures(
               self->spec_, self->plan_.radix_bits, store.s_tuples,
               &host.adopted)) {
        tasks.push_back(host.cores->run(
            self->profiled(a, std::move(fn), "adopt"), "adopt"));
      }
      co_await sim::when_all(engine, std::move(tasks));
      self->flush_profile(engine);
    }
    host.adoption_ready->set();
    if (t != nullptr) t->end(engine.now(), a, "adopt");
    // Re-inject unretired chunks under their original seqs. A chunk this
    // host saw before the crash is still circulating: register it for
    // ack/timeout tracking without pushing — the live copy completes the
    // revolution by itself and the scanner re-injects only if needed. The
    // replica log becomes send-worthy only now; register it with the wire
    // first (no-op on shared memory).
    for (auto& [seq, bytes] : store.r_chunks) {
      co_await node.prepare_memory(bytes);
    }
    const std::size_t c_dead =
        self->plan_.hosts[static_cast<std::size_t>(dead)].slab.num_chunks();
    for (std::uint32_t seq = 0; seq < static_cast<std::uint32_t>(c_dead);
         ++seq) {
      bool retired;
      {
        std::lock_guard<std::mutex> lk(self->mu_);
        retired =
            self->retired_board_[static_cast<std::size_t>(dead)].count(seq) !=
            0;
      }
      if (retired) continue;
      const auto it = store.r_chunks.find(seq);
      CJ_CHECK_MSG(it != store.r_chunks.end(),
                   "replica log is missing an unretired chunk");
      const bool circulating = node.seen(dead).count(seq) != 0;
      co_await node.send_adopted(seq, it->second, /*send_now=*/!circulating);
    }
    // Local joins the dead host can no longer perform: the whole replica
    // log against the adopted partition (R_dead ⋈ S_dead), the dead chunks
    // this host never saw against its own queries (post-splice they retire
    // one hop upstream and never pass here), and this host's own slab
    // against the adopted partition (R_a ⋈ S_dead).
    for (const auto& [seq, bytes] : store.r_chunks) {
      const ChunkView view = decode_chunk(bytes);
      co_await self->join_adopted_chunk(a, view, dead, seq);
      if (node.seen(dead).count(seq) == 0) {
        co_await self->join_chunk(a, view, dead, seq);
      }
    }
    for (std::size_t c = 0; c < host.plan->slab.num_chunks(); ++c) {
      co_await self->join_adopted_chunk(
          a, decode_chunk(host.plan->slab.chunk(c)), a,
          static_cast<std::uint32_t>(c));
    }
    self->adoption_done_at_ = engine.now();
    self->recovery_task_done(a);
  }

  /// A surviving origin's recovery work: re-send every chunk the adopter
  /// had consumed by install time as a flagged replay copy, after the
  /// origin's own injector finished (replay seqs extend the slab
  /// numbering). Function coroutine: `seqs` lives in the frame.
  static sim::Task<void> replay_task(RtRunner* self, int o,
                                     std::set<std::uint32_t> seqs) {
    co_await self->host(o).injector_done_ev->wait();
    HostRt& host = self->host(o);
    ring::RoundaboutNode& node = *host.node;
    for (const std::uint32_t seq : seqs) {
      if (node.stopped()) break;
      co_await node.send_local(host.plan->slab.chunk(seq), /*replay=*/true);
    }
    self->recovery_task_done(o);
  }

  /// Ring repair after `dead` fail-stopped: a fresh shared-memory link
  /// between the dead host's neighbors, spliced in the same order as
  /// Cluster::splice_around — inbound side first, because the successor
  /// reports how many receive buffers it re-posted, which is exactly the
  /// predecessor's opening credit balance.
  void splice_around(int dead) {
    const int pred = predecessor(dead);
    const int succ = successor(dead);
    auto link = std::make_unique<rt::ShmLink>();
    link->a().attach_engine(host(pred).engine.get());
    link->b().attach_engine(host(succ).engine.get());
    rt::ShmLink* raw = link.get();
    repair_links_.push_back(std::move(link));

    if (tracer_ != nullptr) {
      tracer_->instant(host(pred).engine->now(), obs::kGlobalHost, "fault",
                       "fault.splice", dead);
    }

    auto credits = std::make_shared<int>(0);
    // The factories below must stay ordinary lambdas returning a task built
    // from a *function* coroutine: a capturing-lambda coroutine keeps its
    // captures in the lambda object, which dies with the posted closure
    // while the splice is still suspended. Function parameters are copied
    // into the coroutine frame and survive.
    run_coro_on(succ, [this, succ, raw, credits] {
      return splice_in_task(this, succ, raw, credits);
    });
    run_coro_on(pred, [this, pred, raw, credits] {
      return splice_out_task(this, pred, raw, credits);
    });
  }

  // ----- reporting ------------------------------------------------------

  SharedRunReport build_report() {
    // All engine and watcher threads are joined: every host's state is
    // published to this thread and the run is single-threaded again.
    SharedRunReport report;
    report.queries.resize(num_queries_);
    for (int i = 0; i < n_; ++i) {
      HostRt& host = this->host(i);
      report.setup_wall = std::max(report.setup_wall, host.stats.setup);
      report.join_wall = std::max(report.join_wall, host.stats.join_phase);
      report.total_wall = std::max(report.total_wall, host.done_at);
      report.cpu_load_join += host.stats.cpu_load_join;
      for (std::size_t q = 0; q < num_queries_; ++q) {
        if (plan_.resilient) {
          if (crashed_.count(i) != 0) continue;
          for (int o = 0; o < n_; ++o) {
            if (crashed_.count(o) != 0 && !recovering_) continue;
            const auto& partial =
                host.plan->queries[q].per_origin[static_cast<std::size_t>(o)];
            report.queries[q].matches += partial.matches();
            report.queries[q].checksum += partial.checksum();
          }
          if (q < host.adopted.size()) {
            report.queries[q].matches += host.adopted[q].result.matches();
            report.queries[q].checksum += host.adopted[q].result.checksum();
          }
        } else {
          report.queries[q].matches += host.plan->queries[q].result.matches();
          report.queries[q].checksum += host.plan->queries[q].result.checksum();
        }
      }
      report.hosts.push_back(host.stats);
      if (spec_.materialize) {
        report.host_results.push_back(std::move(host.plan->queries[0].result));
      }
    }
    for (const auto& query : report.queries) {
      report.matches += query.matches;
      report.checksum += query.checksum;
    }
    report.cpu_load_join /= n_;
    for (const auto& link : links_) report.bytes_on_wire += link->bytes_sent(0);
    for (const auto& link : repair_links_) {
      report.bytes_on_wire += link->bytes_sent(0);
    }
    if (n_ > 1 && report.join_wall > 0) {
      report.link_throughput_bps =
          static_cast<double>(links_[0]->bytes_sent(0)) /
          to_seconds(report.join_wall);
    }
    if (!cfg_.fault.empty()) {
      FaultReport& fault = report.fault;
      fault.recovered = recovering_;
      fault.degraded = !crashed_.empty() && !recovering_;
      fault.crashed_hosts.assign(crashed_.begin(), crashed_.end());
      if (!recovering_) {
        // Exact recovery loses nothing; degraded mode accounts the gap.
        for (const int dead : crashed_) {
          fault.lost_r_rows += plan_.r_rows[static_cast<std::size_t>(dead)];
          fault.lost_s_rows += plan_.s_rows[static_cast<std::size_t>(dead)];
        }
      }
      if (plan_.replicate) {
        for (int i = 0; i < n_; ++i) {
          fault.replica_bytes += host(i).node->replica_bytes();
          fault.replicas_resent += host(i).node->replicas_resent();
        }
      }
      if (recovering_) {
        fault.adopter = adopter_;
        fault.chunks_adopted = host(adopter_).node->chunks_adopted();
        fault.recovery_time = adoption_done_at_ - crash_at_;
      }
      // No lossy transport, no simulated RNIC: drop/corrupt/retransmit
      // counters are structurally zero on this backend.
      for (const HostStats& stats : report.hosts) {
        fault.chunks_reinjected += stats.chunks_reinjected;
        fault.chunks_recovered += stats.chunks_recovered;
        fault.corrupt_discards += stats.corrupt_discards;
        fault.duplicates_skipped += stats.duplicates_skipped;
      }
    }
    fill_metrics(report);
    return report;
  }

  void fill_metrics(SharedRunReport& report) {
    metrics_.add_counter("bytes_on_wire",
                         static_cast<std::int64_t>(report.bytes_on_wire));
    metrics_.add_counter("chunks_injected",
                         static_cast<std::int64_t>(plan_.global_chunks()));
    metrics_.add_counter("probe_tuples",
                         static_cast<std::int64_t>(probe_tuples_.load()));
    std::uint64_t rotated = 0;
    for (int i = 0; i < n_; ++i) {
      rotated += host(i).stats.chunks_processed;
      for (const auto& [tag, busy] : host(i).stats.busy_by_tag) {
        metrics_.add_counter("busy." + tag, busy);
      }
    }
    metrics_.add_counter("chunks_rotated", static_cast<std::int64_t>(rotated));
    metrics_.add_counter("context_switches", 0);  // real cores: not modeled
    metrics_.set_gauge("cpu_load_join", report.cpu_load_join);
    metrics_.set_gauge("link_throughput_bps", report.link_throughput_bps);
    if (plan_.resilient) {
      // Summed from the per-host stats, not report.fault: the counters are
      // live even when no fault plan is configured (e.g. spurious-timeout
      // re-injections under the adaptive policy's warm-up).
      std::int64_t reinjected = 0;
      std::int64_t recovered = 0;
      std::int64_t dups = 0;
      std::int64_t corrupt = 0;
      std::int64_t stale = 0;
      for (const HostStats& stats : report.hosts) {
        reinjected += static_cast<std::int64_t>(stats.chunks_reinjected);
        recovered += static_cast<std::int64_t>(stats.chunks_recovered);
        dups += static_cast<std::int64_t>(stats.duplicates_skipped);
        corrupt += static_cast<std::int64_t>(stats.corrupt_discards);
        stale += static_cast<std::int64_t>(stats.stale_query_discards);
      }
      metrics_.add_counter("chunks_reinjected", reinjected);
      metrics_.add_counter("chunks_recovered", recovered);
      metrics_.add_counter("duplicates_skipped", dups);
      metrics_.add_counter("chunks_discarded_corrupt", corrupt);
      metrics_.add_counter("stale_query_discards", stale);
      if (plan_.replicate) {
        std::int64_t replica_bytes = 0;
        std::int64_t resent = 0;
        std::int64_t adopted = 0;
        for (int i = 0; i < n_; ++i) {
          replica_bytes +=
              static_cast<std::int64_t>(host(i).node->replica_bytes());
          resent += static_cast<std::int64_t>(host(i).node->replicas_resent());
          adopted += static_cast<std::int64_t>(host(i).node->chunks_adopted());
        }
        metrics_.add_counter("replica_bytes", replica_bytes);
        metrics_.add_counter("replicas_resent", resent);
        metrics_.add_counter("chunks_adopted", adopted);
      }
      for (int i = 0; i < n_; ++i) {
        const ring::RoundaboutNode& node = *host(i).node;
        for (const SimDuration rtt : node.ack_rtts()) {
          metrics_.record("ack_rtt_ns", rtt);
        }
        metrics_.set_gauge("host" + std::to_string(i) + ".ack_timeout_ns",
                           static_cast<double>(node.current_ack_timeout()));
        if (tracer_ != nullptr) {
          tracer_->counter(host(i).done_at, i, "chunks_recovered",
                           static_cast<std::int64_t>(node.chunks_recovered()));
          tracer_->counter(host(i).done_at, i, "chunks_reinjected",
                           static_cast<std::int64_t>(node.chunks_reinjected()));
          tracer_->counter(host(i).done_at, i, "duplicates_skipped",
                           static_cast<std::int64_t>(node.duplicates_skipped()));
          tracer_->counter(
              host(i).done_at, i, "chunks_discarded_corrupt",
              static_cast<std::int64_t>(node.chunks_discarded_corrupt()));
        }
      }
    }
    // ----- flight-recorder / journey plane (always on) -------------------
    std::uint64_t revolutions = 0;
    int max_hops = 0;
    std::int64_t flight_dropped = 0;
    for (int i = 0; i < n_; ++i) {
      const ring::RoundaboutNode& node = *host(i).node;
      revolutions += node.revolutions_observed();
      max_hops = std::max(max_hops, node.max_hops_observed());
      flight_dropped += static_cast<std::int64_t>(flight_->dropped(i));
    }
    metrics_.add_counter("revolutions_observed",
                         static_cast<std::int64_t>(revolutions));
    metrics_.set_gauge("max_hops", static_cast<double>(max_hops));
    metrics_.add_counter("obs.flight_records",
                         static_cast<std::int64_t>(flight_->total_emitted()));
    metrics_.add_counter("obs.flight_dropped", flight_dropped);
    if (sampler_ != nullptr) {
      // The live detector already bumped obs.straggler_flags as flags were
      // raised; surface its final per-host verdicts and sampling volume.
      metrics_.add_counter(
          "obs.sampler_samples",
          static_cast<std::int64_t>(sampler_->samples_taken()));
      for (int i = 0; i < n_; ++i) {
        metrics_.set_gauge("host" + std::to_string(i) + ".straggler_z",
                           sampler_->detector().last_z(i));
      }
    } else {
      // Sampler off: fall back to the sim backend's post-run replay so the
      // straggler columns exist either way.
      obs::StragglerDetector detector(n_, cfg_.sampler);
      obs::replay_stragglers(*flight_, detector, &metrics_, tracer_.get());
      for (int i = 0; i < n_; ++i) {
        metrics_.set_gauge("host" + std::to_string(i) + ".straggler_z",
                           detector.last_z(i));
      }
    }
    maybe_dump_retry_storm();
    report.flight = flight_;
    if (tracer_ != nullptr) {
      for (const obs::HostOverlap& o : obs::overlap_by_host(*tracer_)) {
        metrics_.set_gauge("host" + std::to_string(o.host) + ".overlap_ratio",
                           o.ratio);
      }
      report.trace = tracer_;
    }
    if (profiler_ != nullptr) report.profile = profiler_->snapshot();
    report.metrics = metrics_.snapshot();
  }

  void maybe_dump_retry_storm() {
    const obs::FlightConfig& fcfg = cfg_.flight;
    if (fcfg.retry_storm_threshold == 0 || fcfg.blackbox_path.empty()) return;
    std::uint64_t reinjected = 0;
    for (int i = 0; i < n_; ++i) {
      reinjected += host(i).node->chunks_reinjected();
    }
    if (reinjected >= fcfg.retry_storm_threshold &&
        !blackbox_written_.exchange(true)) {
      obs::write_blackbox(*flight_, fcfg.blackbox_path, "retry-storm");
    }
  }

  ClusterConfig cfg_;
  JoinSpec spec_;
  int n_;
  std::vector<SharedQuery> queries_;
  std::size_t num_queries_;
  sim::Engine::WallClock::time_point epoch_;
  detail::RunPlan plan_;
  rt::WallBarrier setup_barrier_;
  rt::WallBarrier start_barrier_;
  rt::WallBarrier replicate_barrier_;
  rt::WallBarrier join_barrier_;
  std::vector<std::unique_ptr<HostRt>> hosts_;
  std::vector<std::unique_ptr<rt::ShmLink>> links_;
  std::vector<std::unique_ptr<rt::ShmLink>> repair_links_;

  // ----- replication / exact-recovery state ----------------------------
  /// Per host: the successor-held copy of its predecessor's state. Written
  /// by host i's receiver (on i's engine), read by i's adoption task.
  std::vector<detail::ReplicaStore> replicas_;
  /// Per host: serialized records for the replication phase (engine-thread
  /// private; must outlive replicas_drained — sends are by reference).
  std::vector<std::vector<std::vector<std::byte>>> replica_records_;
  SimTime crash_at_ = 0;          ///< watcher thread; read after join
  SimTime adoption_done_at_ = 0;  ///< adopter engine; read after join

  // ----- shared runner state, guarded by mu_ ---------------------------
  std::mutex mu_;
  std::condition_variable crash_cv_;
  bool join_started_ = false;
  bool finished_ = false;
  bool repairing_ = false;
  bool recovering_ = false;  ///< a crash is being exactly recovered
  int adopter_ = -1;
  /// Recovery tasks (adoption + per-survivor replays) still running;
  /// termination is held off until all of them finished.
  int recovery_pending_ = 0;
  std::set<int> crashed_;
  /// Per origin: sequence numbers of its chunks that completed a revolution.
  std::vector<std::set<std::uint32_t>> retired_board_;
  /// Per host: injector finished, and (strictly after that) all of the
  /// host's local chunks acked. Written only from that host's engine
  /// thread; read by the detector under mu_.
  std::vector<bool> acked_clear_;
  std::vector<bool> injector_done_;
  std::vector<std::deque<SimTime>> inject_times_;

  // ----- observability --------------------------------------------------
  /// Always installed on every host engine (ring/node.cpp emits per hop).
  std::shared_ptr<obs::FlightRecorder> flight_;
  /// Live telemetry thread (cfg_.sampler.enabled); stopped before reports.
  std::unique_ptr<obs::LiveSampler> sampler_;
  /// First black-box trigger wins (crash watcher threads race the end-of-
  /// run retry-storm check).
  std::atomic<bool> blackbox_written_{false};
  std::shared_ptr<obs::Tracer> tracer_;
  std::unique_ptr<obs::prof::KernelProfiler> profiler_;
  obs::MetricsRegistry metrics_;
  std::atomic<std::uint64_t> probe_tuples_{0};
};

}  // namespace

SharedRunReport run_rt(const ClusterConfig& cluster, const JoinSpec& spec,
                       const rel::Relation& rotating,
                       const std::vector<SharedQuery>& queries,
                       FragmentInputs* frags,
                       std::vector<detail::HostMemory>* memory) {
  RtRunner runner(cluster, spec, rotating, queries, frags, memory);
  SharedRunReport report = runner.execute();
  runner.reclaim(memory);
  return report;
}

}  // namespace cj::cyclo
