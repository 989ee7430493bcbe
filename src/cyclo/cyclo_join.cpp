#include "cyclo/cyclo_join.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <set>
#include <utility>

#include "cyclo/chunk.h"
#include "cyclo/cluster.h"
#include "cyclo/runner_common.h"
#include "cyclo/runner_rt.h"
#include "obs/analysis.h"
#include "obs/flight.h"
#include "obs/sampler.h"
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

/// Reusable all-hosts rendezvous.
class Barrier {
 public:
  Barrier(sim::Engine& engine, int parties) : remaining_(parties), event_(engine) {}

  sim::Task<void> arrive_and_wait() {
    if (--remaining_ == 0) event_.set();
    co_await event_.wait();
  }

 private:
  int remaining_;
  sim::Event event_;
};

/// Everything one simulated host owns during a run beyond its share of the
/// plan (which lives in RunPlan::hosts at a stable address).
struct HostRun {
  detail::HostPlan* plan = nullptr;

  // Join-phase concurrency limiter: at most `join_threads` join tasks run
  // at once (the work is over-decomposed for load balancing, so the task
  // count exceeds the thread count).
  std::unique_ptr<sim::Semaphore> join_slots;

  HostStats stats;
  SimDuration busy_at_join_start = 0;
  SimTime join_started_at = 0;

  // ----- adoption state (resilience.replicate; installed by the crash
  // watcher on the dead host's surviving successor only) -----------------
  /// Dead origin this host adopted (-1: none).
  int adopted_origin = -1;
  /// The promoted replica partition: one state per query, `result` as sink.
  std::vector<detail::QueryState> adopted;
  /// Per origin: seqs already joined against the adopted partition. At
  /// install time each surviving origin's entry is pre-marked with the
  /// seen-set snapshot — those chunks' adopted joins arrive as replay
  /// copies, so a stale original duplicate must not double-join.
  std::vector<std::set<std::uint32_t>> adopted_seen;
  /// Set once the adopted partition is built; the join loop parks until
  /// then so no post-adoption arrival misses its adopted join.
  std::unique_ptr<sim::Event> adoption_ready;
};

class Runner {
 public:
  Runner(const ClusterConfig& cluster_cfg, const JoinSpec& spec,
         const rel::Relation& r, const std::vector<SharedQuery>& queries,
         FragmentInputs* frags, std::vector<detail::HostMemory>* memory)
      : cluster_cfg_(cluster_cfg),
        spec_(spec),
        cluster_(engine_, cluster_cfg),
        n_(cluster_cfg.num_hosts),
        queries_(queries),  // owned copy: QueryState keeps pointers into it
        num_queries_(queries.size()),
        plan_(detail::plan_run(cluster_cfg_, spec_, r, queries_, frags,
                               memory)),
        setup_barrier_(engine_, n_),
        start_barrier_(engine_, n_),
        replicate_barrier_(engine_, n_),
        join_barrier_(engine_, n_) {
    if (plan_.resilient) retired_board_.resize(static_cast<std::size_t>(n_));
    hosts_.resize(static_cast<std::size_t>(n_));
    for (int i = 0; i < n_; ++i) {
      auto& host = hosts_[static_cast<std::size_t>(i)];
      host = std::make_unique<HostRun>();
      host->plan = &plan_.hosts[static_cast<std::size_t>(i)];
      host->join_slots =
          std::make_unique<sim::Semaphore>(engine_, spec_.join_threads);
    }
  }

  SharedRunReport execute() {
    // The flight recorder is always on: bounded memory, lock-free emits,
    // installed before any node can run (ring/node.cpp reads it per hop).
    flight_ = std::make_shared<obs::FlightRecorder>(n_, cluster_cfg_.flight);
    engine_.set_flight(flight_.get());
    if (cluster_cfg_.trace.enabled) {
      tracer_ = std::make_shared<obs::Tracer>();
      engine_.set_tracer(tracer_.get());
    }
    if (cluster_cfg_.profile.enabled) {
      profiler_ = std::make_unique<obs::prof::KernelProfiler>();
    }
    inject_times_.resize(static_cast<std::size_t>(n_));
    if (plan_.resilient) {
      // The termination detector listens on every origin's retire acks; it
      // must be installed before any node starts.
      for (int i = 0; i < n_; ++i) {
        cluster_.node(i).set_on_ack([this] { maybe_finish(); });
      }
      injector_done_.resize(static_cast<std::size_t>(n_));
      for (int i = 0; i < n_; ++i) {
        injector_done_[static_cast<std::size_t>(i)] = std::make_unique<sim::Event>(
            engine_, "injector-done" + std::to_string(i));
      }
      if (plan_.replicate) {
        replicas_.resize(static_cast<std::size_t>(n_));
        replica_records_.resize(static_cast<std::size_t>(n_));
        for (int i = 0; i < n_; ++i) {
          cluster_.node(i).set_on_replica(
              [this, i](int origin, std::span<const std::byte> record) {
                replicas_[static_cast<std::size_t>(i)].absorb(origin, record);
              });
        }
      }
      for (const sim::HostCrashSpec& crash : cluster_cfg_.fault.crashes) {
        engine_.spawn(crash_watcher(crash),
                      "crash-watcher" + std::to_string(crash.host));
      }
    }
    for (int i = 0; i < n_; ++i) {
      engine_.spawn(host_process(i), "host" + std::to_string(i));
    }
    engine_.run();
    engine_.check_all_complete();
    return build_report();
  }

  /// Hands the hosts' working memory back after execute().
  void reclaim(std::vector<detail::HostMemory>* memory) {
    detail::reclaim_memory(plan_, memory);
  }

 private:
  sim::Task<void> host_process(int i) {
    HostRun& host = *hosts_[static_cast<std::size_t>(i)];
    sim::CorePool& cores = cluster_.cores(i);
    ring::RoundaboutNode& node = cluster_.node(i);

    // ---- setup phase -------------------------------------------------
    const SimTime setup_start = engine_.now();
    if (obs::Tracer* t = engine_.tracer()) t->begin(setup_start, i, "phase", "setup");
    co_await run_setup(i);
    flush_profile();
    if (obs::Tracer* t = engine_.tracer()) t->end(engine_.now(), i, "phase");
    host.stats.setup = engine_.now() - setup_start;
    if (plan_.replicate && n_ > 1) {
      // Serialize this host's crash-relevant state (S_i pieces + the slab's
      // encoded chunks) while the fragments are still resident; the records
      // stream to the successor once the ring is up.
      replica_records_[static_cast<std::size_t>(i)] = detail::build_replica_records(
          *host.plan, cluster_cfg_.node.buffer_bytes - ring::kFrameBytes);
    }
    detail::release_inputs(*host.plan, spec_.algorithm);

    co_await setup_barrier_.arrive_and_wait();

    // ---- transport bring-up -------------------------------------------
    // Counts are known only now (chunking is data-dependent).
    {
      std::vector<std::span<std::byte>> slabs;
      ring::NodeCounts counts;
      if (n_ > 1) {
        slabs.push_back(host.plan->slab.slab());
        // Replica records are sent from where they were serialized, so they
        // register up front like the slab (Sec. III-C: never on the data
        // path).
        if (plan_.replicate) {
          for (auto& record : replica_records_[static_cast<std::size_t>(i)]) {
            slabs.push_back(record);
          }
        }
        counts = counts_for(i);
      }
      const Status started = co_await node.start(counts, std::move(slabs));
      CJ_CHECK_MSG(started.is_ok(), started.to_string().c_str());
    }
    co_await start_barrier_.arrive_and_wait();
    if (plan_.replicate && n_ > 1) {
      // ---- replication phase -------------------------------------------
      // Stream the replica of this host's state one hop ahead, then wait
      // until the successor acked every record. The barrier (and the crash
      // gate staying closed until after it) guarantees a crash never
      // interrupts replication: every host's replica is complete before
      // any chunk rotates.
      if (obs::Tracer* t = engine_.tracer()) {
        t->begin(engine_.now(), i, "phase", "replicate");
      }
      for (const auto& record : replica_records_[static_cast<std::size_t>(i)]) {
        co_await node.send_replica(record);
      }
      co_await node.replicas_drained();
      co_await replicate_barrier_.arrive_and_wait();
      // The records stay resident (they are registered memory; freeing them
      // would leave stale regions in the protection domain).
      if (obs::Tracer* t = engine_.tracer()) t->end(engine_.now(), i, "phase");
    }
    if (plan_.resilient) join_phase_started_.set();

    // ---- join phase ----------------------------------------------------
    host.join_started_at = engine_.now();
    host.busy_at_join_start = cores.busy_total();
    if (obs::Tracer* t = engine_.tracer()) {
      t->begin(host.join_started_at, i, "phase", "join");
    }

    if (n_ > 1 && host.plan->slab.num_chunks() > 0) {
      engine_.spawn(injector(i), "injector" + std::to_string(i));
    } else if (plan_.resilient) {
      injector_done_[static_cast<std::size_t>(i)]->set();
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
      // Dynamic termination: pull chunks until the retire-board detector
      // (or this host's own crash) delivers a stop chunk. An all-empty run
      // produces no acks, so kick the detector once here.
      maybe_finish();
      while (true) {
        ring::InboundChunk inbound = co_await node.next_chunk();
        if (inbound.stop) break;
        if (host.adopted_origin >= 0 && !host.adoption_ready->is_set()) {
          // Adopter with the partition still being promoted: every arrival
          // from here on may need an adopted join too — park until the
          // build finishes (the ring backs up behind this host's buffers
          // briefly; that stall is recovery's latency cost, not a
          // deadlock: promotion runs on cores, not the ring).
          co_await host.adoption_ready->wait();
        }
        const ChunkView view = decode_chunk(inbound.payload);
        const int origin = inbound.origin;
        const std::uint32_t seq = inbound.seq;
        const bool origin_dead = crashed_.count(origin) != 0;
        if (inbound.replay) {
          // Recovery replay copy: joined only at the adopter (against the
          // adopted partition), forwarded by everyone else. Never touches
          // the retire board — the original already accounted there.
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
        if (origin_dead && !recovering_) {
          // PR-1 degraded mode: a dead origin can neither take an ack nor
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
          // is its only pass by the adopter, so its join against the
          // adopted partition happens here.
          co_await join_adopted_chunk(i, view, origin, seq);
        }
        // Under recovery a dead origin's chunks stay first-class: they are
        // joined everywhere and retire one hop before the adopter, which
        // consumes their acks on the dead host's behalf.
        const int home = origin_dead ? adopter_ : origin;
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
        if (cluster_.fabric().successor(i) == view.origin_host) {
          record_revolution(view.origin_host);
          node.retire(inbound);  // full revolution completed
        } else {
          node.forward(inbound);
        }
      }
    }

    const SimTime join_end = engine_.now();
    if (obs::Tracer* t = engine_.tracer()) t->end(join_end, i, "phase");
    host.stats.join_phase = join_end - host.join_started_at;
    host.stats.sync = node.sync_time();
    host.stats.cpu_load_join =
        cores.utilization(host.busy_at_join_start, host.stats.join_phase);

    co_await join_barrier_.arrive_and_wait();
    co_await node.drain();

    if (plan_.resilient) {
      // A crashed host contributes nothing. Without recovery the surviving
      // hosts count only the surviving origins' buckets (dead R fragments
      // are retracted); under exact recovery every origin's bucket counts
      // and the adopter adds the partition it recomputed for the dead host.
      if (crashed_.count(i) == 0) {
        for (const auto& query : host.plan->queries) {
          for (int o = 0; o < n_; ++o) {
            if (crashed_.count(o) != 0 && !recovering_) continue;
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
  }

  sim::Task<void> injector(int i) {
    HostRun& host = *hosts_[static_cast<std::size_t>(i)];
    ring::RoundaboutNode& node = cluster_.node(i);
    for (std::size_t c = 0; c < host.plan->slab.num_chunks(); ++c) {
      if (plan_.resilient && node.stopped()) break;  // this host died
      co_await node.send_local(host.plan->slab.chunk(c));
      // send_local resumes us synchronously once the chunk is queued, so
      // this timestamp is the chunk's true injection time. The retire side
      // pops the front entry: the ring preserves per-origin order.
      if (!plan_.resilient) {
        inject_times_[static_cast<std::size_t>(i)].push_back(engine_.now());
      }
    }
    // Recovery replay waits for this: once set, seq numbers handed out by
    // send_local(replay=true) cannot collide with the slab numbering.
    if (plan_.resilient) injector_done_[static_cast<std::size_t>(i)]->set();
  }

  /// A chunk from `origin` just completed its revolution at pred(origin):
  /// sample the revolution makespan (non-resilient runs only — re-injection
  /// makes the pairing ambiguous under faults).
  void record_revolution(int origin) {
    auto& pending = inject_times_[static_cast<std::size_t>(origin)];
    if (pending.empty()) return;
    metrics_.record("revolution_ns", engine_.now() - pending.front());
    pending.pop_front();
  }

  // Wraps a measured closure so that kernel regions inside it attribute
  // their counter deltas to host i. When profiling is off the wrapper costs
  // one null test; the counter reads it enables when ON run inside the
  // measured region and perturb the virtual timings (ProfileConfig docs).
  template <typename Fn>
  auto profiled(int i, Fn fn, const char* phase = "core") {
    return [this, i, phase, fn = std::move(fn)] {
      obs::prof::ScopedContext ctx(profiler_.get(), i, phase);
      fn();
    };
  }

  // Streams the profile's changed counter tracks into the trace at the
  // current virtual time. Must be called from simulation code, never from
  // inside a measured closure (the flush itself is not kernel work).
  void flush_profile() {
    if (profiler_ != nullptr && tracer_ != nullptr) {
      profiler_->flush_to_tracer(*tracer_, engine_.now());
    }
  }

  // Prepares every query's stationary state plus the rotating slab on host
  // i's cores. One setup task per stationary fragment, one for the
  // rotating side — all compete for the host's cores like the paper's
  // parallel hash-build/sort setup.
  sim::Task<void> run_setup(int i) {
    HostRun& host = *hosts_[static_cast<std::size_t>(i)];
    sim::CorePool& cores = cluster_.cores(i);
    // Resilient frames travel in-buffer ahead of the payload; chunks must
    // leave them headroom or a full chunk would overflow the ring buffer.
    // With replication on, chunks additionally ride inside replica records,
    // so they leave room for the record header too.
    const ChunkWriter writer(
        cluster_cfg_.node.buffer_bytes -
        (plan_.resilient ? ring::kFrameBytes : 0) -
        (plan_.replicate ? sizeof(detail::ReplicaHeader) : 0));

    std::vector<sim::Task<void>> tasks;
    for (auto& fn :
         detail::setup_closures(spec_, plan_.radix_bits, writer, host.plan)) {
      tasks.push_back(cores.run(profiled(i, std::move(fn)), "setup"));
    }
    co_await sim::when_all(engine_, std::move(tasks));
    detail::patch_origin(host.plan->slab, i);
  }

  // With retire acks every host sends and receives exactly G messages
  // (see ring/node.h).
  ring::NodeCounts counts_for(int) const {
    const std::uint64_t g = plan_.global_chunks();
    return ring::NodeCounts{g, g};
  }

  // ----- resilient-mode termination detection & crash control ----------

  /// The next alive host downstream of i on the (possibly spliced) ring.
  int surviving_successor(int i) {
    int s = cluster_.fabric().successor(i);
    while (crashed_.count(s) != 0) s = cluster_.fabric().successor(s);
    return s;
  }

  /// Records that origin's chunk `seq` completed its revolution (retired at
  /// pred(origin)). The per-origin sets absorb duplicate re-retirements.
  void note_retired(int origin, std::uint32_t seq) {
    retired_board_[static_cast<std::size_t>(origin)].insert(seq);
    maybe_finish();
  }

  /// Every surviving origin's chunks all retired *and* all acked back — the
  /// board proves the revolutions, the outstanding count proves the acks.
  /// Under exact recovery the dead origin's board must fill too (the
  /// adopter's re-injections retire on the dead host's behalf) and every
  /// recovery task must have registered and finished its work.
  bool all_work_done() {
    if (recovering_ && recovery_pending_ > 0) return false;
    for (int o = 0; o < n_; ++o) {
      const bool dead = crashed_.count(o) != 0;
      if (dead && !recovering_) continue;
      const HostRun& host = *hosts_[static_cast<std::size_t>(o)];
      if (retired_board_[static_cast<std::size_t>(o)].size() <
          host.plan->slab.num_chunks()) {
        return false;
      }
      if (!dead && cluster_.node(o).outstanding_unacked() != 0) return false;
    }
    return true;
  }

  /// Termination detector: runs on every retire and every ack. Deferred
  /// while a ring repair is splicing (stopping a node mid-splice would
  /// strand the repair handshake).
  void maybe_finish() {
    if (!plan_.resilient || finished_ || repairing_ || !all_work_done()) return;
    finished_ = true;
    for (int i = 0; i < n_; ++i) {
      if (crashed_.count(i) == 0) cluster_.node(i).request_stop();
    }
  }

  sim::Task<void> crash_watcher(sim::HostCrashSpec spec) {
    co_await engine_.sleep(spec.at);
    // A crash during setup degenerates to a shorter ring from the start;
    // the interesting (and supported) case is a crash of a live ring.
    co_await join_phase_started_.wait();
    if (finished_) co_return;  // the run beat the crash to the finish line
    repairing_ = true;
    crashed_.insert(spec.host);
    // Black box: snapshot the recorder's window as it stood at the crash.
    if (!cluster_cfg_.flight.blackbox_path.empty() && !blackbox_written_) {
      blackbox_written_ = obs::write_blackbox(
          *flight_, cluster_cfg_.flight.blackbox_path, "crash");
    }
    if (plan_.replicate) {
      // Published together with the crash: any host observing the origin
      // as dead also sees recovery mode and the retire home, so no chunk
      // is quiet-retired in the window before adoption installs.
      CJ_CHECK_MSG(!recovering_, "replicated recovery supports a single crash");
      recovering_ = true;
      adopter_ = surviving_successor(spec.host);
      crash_at_ = engine_.now();
    }
    cluster_.node(spec.host).die();
    cluster_.injector()->mark_crashed(spec.host);
    co_await cluster_.splice_around(spec.host);
    if (plan_.replicate) install_recovery(spec.host);
    repairing_ = false;
    // Without recovery the crash may itself complete the run (the dead
    // host's unfinished work no longer counts).
    maybe_finish();
  }

  /// Flips the run into exact-recovery mode: the dead host's surviving
  /// successor adopts its partition. Runs synchronously inside the crash
  /// watcher, before `repairing_` clears, so the termination detector never
  /// observes a half-installed recovery.
  void install_recovery(int dead) {
    HostRun& a = *hosts_[static_cast<std::size_t>(adopter_)];
    ring::RoundaboutNode& node = cluster_.node(adopter_);
    node.adopt(dead);
    a.adopted_origin = dead;
    a.adoption_ready =
        std::make_unique<sim::Event>(engine_, "adoption-ready");
    a.adopted_seen.assign(static_cast<std::size_t>(n_), {});
    // Snapshot: chunks the adopter has already seen from each surviving
    // origin get their adopted join from a replay copy, so the entry is
    // pre-marked — a stale original duplicate must not double-join.
    for (int o = 0; o < n_; ++o) {
      if (o == adopter_ || crashed_.count(o) != 0) continue;
      a.adopted_seen[static_cast<std::size_t>(o)] = node.seen(o);
    }
    // One adoption task on the adopter plus one replay task per other
    // survivor; termination stays blocked until each registered and
    // finished its share of the recovery work.
    recovery_pending_ = 1;
    engine_.spawn(adoption_task(adopter_, dead), "adopt");
    for (int o = 0; o < n_; ++o) {
      if (o == adopter_ || crashed_.count(o) != 0) continue;
      ++recovery_pending_;
      engine_.spawn(
          replay_task(o, a.adopted_seen[static_cast<std::size_t>(o)]),
          "replay" + std::to_string(o));
    }
    if (tracer_ != nullptr) {
      tracer_->instant(crash_at_, adopter_, "fault", "adopt-install");
    }
  }

  /// The adopter's recovery work: promote the replica S_dead into a live
  /// join partition, re-inject the dead origin's unretired chunks from the
  /// replica log, then run the local joins the dead host can no longer do.
  sim::Task<void> adoption_task(int a, int dead) {
    HostRun& host = *hosts_[static_cast<std::size_t>(a)];
    detail::ReplicaStore& store = replicas_[static_cast<std::size_t>(a)];
    sim::CorePool& cores = cluster_.cores(a);
    ring::RoundaboutNode& node = cluster_.node(a);
    CJ_CHECK_MSG(store.origin == dead, "replica store holds the wrong host");
    obs::Tracer* const t = engine_.tracer();
    if (t != nullptr) t->begin(engine_.now(), a, "adopt", "promote-replica");
    // 1. Promote the replica stationary fragments (re-build hash tables /
    //    re-sort on this host's cores). The join loop parks until ready.
    host.adopted.resize(num_queries_);
    for (std::size_t q = 0; q < num_queries_; ++q) {
      auto& state = host.adopted[q];
      state.band = queries_[q].band;
      state.predicate = &queries_[q].predicate;
      state.result = join::JoinResult(spec_.materialize);
    }
    {
      std::vector<sim::Task<void>> tasks;
      for (auto& fn : detail::adopted_setup_closures(
               spec_, plan_.radix_bits, store.s_tuples, &host.adopted)) {
        tasks.push_back(cores.run(profiled(a, std::move(fn), "adopt"), "adopt"));
      }
      co_await sim::when_all(engine_, std::move(tasks));
      flush_profile();
    }
    host.adoption_ready->set();
    if (t != nullptr) t->end(engine_.now(), a, "adopt");
    // 2. Re-inject the dead origin's unretired chunks under their original
    //    sequence numbers. A chunk still circulating (this host saw it
    //    before the crash) is registered for ack/timeout tracking but not
    //    pushed — the live copy completes the revolution by itself and the
    //    scanner re-injects only if its ack never lands. The replica log
    //    becomes send-worthy only now, so register it with the wire first.
    for (auto& [seq, bytes] : store.r_chunks) {
      co_await node.prepare_memory(bytes);
    }
    const std::size_t c_dead =
        plan_.hosts[static_cast<std::size_t>(dead)].slab.num_chunks();
    for (std::uint32_t seq = 0; seq < c_dead; ++seq) {
      if (retired_board_[static_cast<std::size_t>(dead)].count(seq) != 0) {
        continue;  // already completed its revolution before the crash
      }
      const auto it = store.r_chunks.find(seq);
      CJ_CHECK_MSG(it != store.r_chunks.end(),
                   "replica log is missing an unretired chunk");
      const bool circulating = node.seen(dead).count(seq) != 0;
      co_await node.send_adopted(seq, it->second, /*send_now=*/!circulating);
    }
    // 3. Local joins the dead host can no longer perform: the whole replica
    //    log against the adopted partition (R_dead ⋈ S_dead), the dead
    //    chunks this host never saw against its own queries (R_dead ⋈ S_a —
    //    post-splice they retire one hop upstream and never pass here), and
    //    this host's own slab against the adopted partition (R_a ⋈ S_dead).
    for (const auto& [seq, bytes] : store.r_chunks) {
      const ChunkView view = decode_chunk(bytes);
      co_await join_adopted_chunk(a, view, dead, seq);
      if (node.seen(dead).count(seq) == 0) {
        co_await join_chunk(a, view, dead, seq);
      }
    }
    for (std::size_t c = 0; c < host.plan->slab.num_chunks(); ++c) {
      co_await join_adopted_chunk(a, decode_chunk(host.plan->slab.chunk(c)),
                                  a, static_cast<std::uint32_t>(c));
    }
    adoption_done_at_ = engine_.now();
    --recovery_pending_;
    maybe_finish();
  }

  /// A surviving origin's recovery work: re-send every chunk the adopter
  /// had already consumed at install time as a flagged replay copy, so its
  /// join against the adopted partition is not lost. Runs after the
  /// origin's own injector so replay seqs extend the slab numbering.
  sim::Task<void> replay_task(int o, std::set<std::uint32_t> seqs) {
    co_await injector_done_[static_cast<std::size_t>(o)]->wait();
    HostRun& host = *hosts_[static_cast<std::size_t>(o)];
    ring::RoundaboutNode& node = cluster_.node(o);
    for (const std::uint32_t seq : seqs) {
      if (node.stopped()) break;
      co_await node.send_local(host.plan->slab.chunk(seq), /*replay=*/true);
    }
    --recovery_pending_;
    maybe_finish();
  }

  // One flight record from runner code (probe hops; the per-hop wire
  // records come from ring/node.cpp). Never called inside a measured
  // closure, so the emit cannot perturb virtual timings.
  void flight_probe(int i, int origin, std::uint32_t seq, SimTime start) {
    obs::FlightRecord r;
    r.ts = engine_.now();
    r.seq = seq;
    r.origin =
        origin < 0 ? obs::kNoOrigin : static_cast<std::uint16_t>(origin);
    r.query = cluster_cfg_.node.resilience.query_group;
    r.host = static_cast<std::int16_t>(i);
    r.kind = obs::HopKind::kProbe;
    r.arg_us = duration_us(engine_.now() - start);
    flight_->emit(i, r);
  }

  // Joins one chunk against every query's stationary state on host i using
  // up to spec_.join_threads virtual cores (work items over-decomposed per
  // detail::kTasksPerThread). `origin`/`seq` identify the chunk for the
  // flight recorder's probe record (-1 = no wire identity, fault-free runs).
  sim::Task<void> join_chunk(int i, ChunkView view, int origin = -1,
                             std::uint32_t seq = 0) {
    HostRun& host = *hosts_[static_cast<std::size_t>(i)];
    sim::CorePool& cores = cluster_.cores(i);
    ++host.stats.chunks_processed;
    probe_tuples_ += view.tuples.size() * host.plan->queries.size();
    const SimTime probe_start = engine_.now();

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
          cores.run(profiled(i, std::move(work.items[k])), tag)));
    }
    co_await sim::when_all(engine_, std::move(tasks));
    flush_profile();
    work.merge_into_sinks();
    flight_probe(i, origin, seq, probe_start);
  }

  // Joins one chunk against the adopter's promoted replica partition
  // (recovery only). Same decomposition and thread limit as join_chunk,
  // but the sinks are the adopted QueryStates' own results so recovered
  // matches stay separately attributable.
  sim::Task<void> join_adopted_chunk(int i, ChunkView view, int origin = -1,
                                     std::uint32_t seq = 0) {
    HostRun& host = *hosts_[static_cast<std::size_t>(i)];
    sim::CorePool& cores = cluster_.cores(i);
    probe_tuples_ += view.tuples.size() * host.adopted.size();
    const SimTime probe_start = engine_.now();

    detail::ChunkJoinWork work;
    for (auto& query : host.adopted) {
      detail::build_query_chunk_work(spec_, plan_.radix_bits, query,
                                     &query.result, view, work);
    }
    std::vector<sim::Task<void>> tasks;
    for (auto& item : work.items) {
      tasks.push_back(detail::guarded(
          *host.join_slots,
          cores.run(profiled(i, std::move(item), "adopt"), "adopt")));
    }
    co_await sim::when_all(engine_, std::move(tasks));
    flush_profile();
    work.merge_into_sinks();
    flight_probe(i, origin, seq, probe_start);
  }

  SharedRunReport build_report() {
    SharedRunReport report;
    report.queries.resize(num_queries_);
    for (int i = 0; i < n_; ++i) {
      HostRun& host = *hosts_[static_cast<std::size_t>(i)];
      report.setup_wall = std::max(report.setup_wall, host.stats.setup);
      report.join_wall = std::max(report.join_wall, host.stats.join_phase);
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
        if (plan_.resilient) {
          // Resilient runs sink matches into per-origin partials (plus the
          // adopter's promoted partition), not queries[0].result. Stitch
          // them back into one per-host output, applying the same origin
          // filter as the count above so the materialized multiset equals
          // exactly what matches/checksum cover. A crashed host contributes
          // an empty slot — its partition's matches live on the adopter.
          join::JoinResult combined(true);
          if (crashed_.count(i) == 0) {
            auto& query = host.plan->queries[0];
            for (int o = 0; o < n_; ++o) {
              if (crashed_.count(o) != 0 && !recovering_) continue;
              combined.merge(query.per_origin[static_cast<std::size_t>(o)]);
            }
            if (!host.adopted.empty()) combined.merge(host.adopted[0].result);
          }
          report.host_results.push_back(std::move(combined));
        } else {
          report.host_results.push_back(
              std::move(host.plan->queries[0].result));
        }
      }
    }
    for (const auto& query : report.queries) {
      report.matches += query.matches;
      report.checksum += query.checksum;
    }
    report.cpu_load_join /= n_;
    report.total_wall = engine_.now();
    report.bytes_on_wire = cluster_.fabric().total_data_bytes();
    if (n_ > 1 && report.join_wall > 0) {
      report.link_throughput_bps =
          static_cast<double>(cluster_.fabric().data_link(0).bytes_transferred()) /
          to_seconds(report.join_wall);
    }
    if (sim::FaultInjector* injector = cluster_.injector()) {
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
          fault.replica_bytes += cluster_.node(i).replica_bytes();
          fault.replicas_resent += cluster_.node(i).replicas_resent();
        }
      }
      if (recovering_) {
        fault.adopter = adopter_;
        fault.chunks_adopted = cluster_.node(adopter_).chunks_adopted();
        fault.recovery_time = adoption_done_at_ - crash_at_;
      }
      fault.messages_dropped = injector->counters().messages_dropped;
      fault.messages_corrupted = injector->counters().messages_corrupted;
      for (const HostStats& stats : report.hosts) {
        fault.chunks_reinjected += stats.chunks_reinjected;
        fault.chunks_recovered += stats.chunks_recovered;
        fault.corrupt_discards += stats.corrupt_discards;
        fault.duplicates_skipped += stats.duplicates_skipped;
      }
      // Fault plans require the RDMA transport, so devices exist.
      for (int i = 0; i < n_; ++i) {
        fault.retransmissions += cluster_.device(i).total_retransmissions();
        fault.rnr_retries += cluster_.device(i).total_rnr_retries();
      }
    }
    fill_metrics(report);  // last: it reads the wire/fault fields above
    return report;
  }

  void fill_metrics(SharedRunReport& report) {
    metrics_.add_counter("bytes_on_wire",
                         static_cast<std::int64_t>(report.bytes_on_wire));
    metrics_.add_counter("chunks_injected",
                         static_cast<std::int64_t>(plan_.global_chunks()));
    metrics_.add_counter("probe_tuples",
                         static_cast<std::int64_t>(probe_tuples_));
    std::uint64_t rotated = 0;
    std::uint64_t switches = 0;
    for (int i = 0; i < n_; ++i) {
      rotated += hosts_[static_cast<std::size_t>(i)]->stats.chunks_processed;
      switches += cluster_.cores(i).context_switches();
      for (const auto& [tag, busy] :
           hosts_[static_cast<std::size_t>(i)]->stats.busy_by_tag) {
        metrics_.add_counter("busy." + tag, busy);
      }
    }
    metrics_.add_counter("chunks_rotated", static_cast<std::int64_t>(rotated));
    metrics_.add_counter("context_switches", static_cast<std::int64_t>(switches));
    metrics_.set_gauge("cpu_load_join", report.cpu_load_join);
    metrics_.set_gauge("link_throughput_bps", report.link_throughput_bps);
    if (cluster_.injector() != nullptr) {
      metrics_.add_counter(
          "messages_dropped",
          static_cast<std::int64_t>(report.fault.messages_dropped));
      metrics_.add_counter(
          "messages_corrupted",
          static_cast<std::int64_t>(report.fault.messages_corrupted));
      metrics_.add_counter(
          "retransmissions",
          static_cast<std::int64_t>(report.fault.retransmissions));
      metrics_.add_counter("rnr_retries",
                           static_cast<std::int64_t>(report.fault.rnr_retries));
    }
    if (plan_.resilient) {
      // Summed from the per-host stats, not report.fault: the counters are
      // live even when no fault plan is configured.
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
              static_cast<std::int64_t>(cluster_.node(i).replica_bytes());
          resent +=
              static_cast<std::int64_t>(cluster_.node(i).replicas_resent());
          adopted +=
              static_cast<std::int64_t>(cluster_.node(i).chunks_adopted());
        }
        metrics_.add_counter("replica_bytes", replica_bytes);
        metrics_.add_counter("replicas_resent", resent);
        metrics_.add_counter("chunks_adopted", adopted);
      }
      const std::int64_t end_ts = engine_.now();
      for (int i = 0; i < n_; ++i) {
        const ring::RoundaboutNode& node = cluster_.node(i);
        for (const SimDuration rtt : node.ack_rtts()) {
          metrics_.record("ack_rtt_ns", rtt);
        }
        metrics_.set_gauge(
            "host" + std::to_string(i) + ".ack_timeout_ns",
            static_cast<double>(node.current_ack_timeout()));
        if (tracer_ != nullptr) {
          // Counter tracks: one sample per host at end-of-run is enough for
          // Perfetto to draw per-host recovery bars next to the phases.
          tracer_->counter(end_ts, i, "chunks_recovered",
                           static_cast<std::int64_t>(node.chunks_recovered()));
          tracer_->counter(end_ts, i, "chunks_reinjected",
                           static_cast<std::int64_t>(node.chunks_reinjected()));
          tracer_->counter(end_ts, i, "duplicates_skipped",
                           static_cast<std::int64_t>(node.duplicates_skipped()));
          tracer_->counter(
              end_ts, i, "chunks_discarded_corrupt",
              static_cast<std::int64_t>(node.chunks_discarded_corrupt()));
        }
      }
    }
    // ----- flight-recorder / journey plane (always on) -------------------
    std::uint64_t revolutions = 0;
    int max_hops = 0;
    std::int64_t flight_dropped = 0;
    for (int i = 0; i < n_; ++i) {
      const ring::RoundaboutNode& node = cluster_.node(i);
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
    // Post-run straggler replay: the same detector the rt backend runs
    // live, fed from the recorder window, so both backends report the same
    // obs.straggler_flags / host<i>.straggler_z columns.
    obs::StragglerDetector detector(n_, cluster_cfg_.sampler);
    obs::replay_stragglers(*flight_, detector, &metrics_, tracer_.get());
    for (int i = 0; i < n_; ++i) {
      metrics_.set_gauge("host" + std::to_string(i) + ".straggler_z",
                         detector.last_z(i));
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
    const obs::FlightConfig& fcfg = cluster_cfg_.flight;
    if (fcfg.retry_storm_threshold == 0 || fcfg.blackbox_path.empty() ||
        blackbox_written_) {
      return;
    }
    std::uint64_t reinjected = 0;
    for (int i = 0; i < n_; ++i) {
      reinjected += cluster_.node(i).chunks_reinjected();
    }
    if (reinjected >= fcfg.retry_storm_threshold) {
      blackbox_written_ =
          obs::write_blackbox(*flight_, fcfg.blackbox_path, "retry-storm");
    }
  }

  ClusterConfig cluster_cfg_;
  JoinSpec spec_;
  sim::Engine engine_;
  Cluster cluster_;
  int n_;
  std::vector<SharedQuery> queries_;
  std::size_t num_queries_;
  detail::RunPlan plan_;
  Barrier setup_barrier_;
  Barrier start_barrier_;
  Barrier replicate_barrier_;
  Barrier join_barrier_;
  std::vector<std::unique_ptr<HostRun>> hosts_;

  // ----- resilient-mode state ------------------------------------------
  bool finished_ = false;   // termination detector fired
  bool repairing_ = false;  // a ring splice is in flight
  sim::Event join_phase_started_{engine_, "join-phase-started"};
  std::set<int> crashed_;
  /// Per origin: sequence numbers of its chunks that completed a revolution.
  std::vector<std::set<std::uint32_t>> retired_board_;

  // ----- replication / exact-recovery state (resilience.replicate) -----
  /// Per host: the successor-held copy of its predecessor's state.
  std::vector<detail::ReplicaStore> replicas_;
  /// Per host: the serialized records it streams during the replication
  /// phase (must outlive replicas_drained — sends are by reference).
  std::vector<std::vector<std::vector<std::byte>>> replica_records_;
  /// Per host: set when its injector finished first sends. Replay waits on
  /// this so replay seqs never collide with the origin's own numbering.
  std::vector<std::unique_ptr<sim::Event>> injector_done_;
  bool recovering_ = false;  ///< a crash is being exactly recovered
  int adopter_ = -1;
  /// Recovery tasks (adoption + per-survivor replays) still registering
  /// work; termination is held off until all of them finished.
  int recovery_pending_ = 0;
  SimTime crash_at_ = 0;
  SimTime adoption_done_at_ = 0;

  // ----- observability --------------------------------------------------
  /// Always installed on the engine (ring/node.cpp emits per-hop records).
  std::shared_ptr<obs::FlightRecorder> flight_;
  /// First black-box trigger wins; a later one must not overwrite it.
  bool blackbox_written_ = false;
  /// Installed on the engine when cluster_cfg_.trace.enabled.
  std::shared_ptr<obs::Tracer> tracer_;
  /// Non-null when cluster_cfg_.profile.enabled. Shared by all hosts (the
  /// simulator runs every measured closure on one OS thread); attribution
  /// comes from the ScopedContext each closure installs.
  std::unique_ptr<obs::prof::KernelProfiler> profiler_;
  obs::MetricsRegistry metrics_;
  std::uint64_t probe_tuples_ = 0;
  /// Per origin host: injection times of its not-yet-retired chunks
  /// (revolution-makespan histogram; non-resilient runs only).
  std::vector<std::deque<SimTime>> inject_times_;
};

}  // namespace

std::shared_ptr<WorkingMemory> make_working_memory() {
  return std::make_shared<WorkingMemory>();
}

CycloJoin::CycloJoin(ClusterConfig cluster, JoinSpec spec,
                     std::shared_ptr<WorkingMemory> memory)
    : cluster_(std::move(cluster)),
      spec_(std::move(spec)),
      memory_(memory != nullptr ? std::move(memory) : make_working_memory()) {}

RunReport CycloJoin::run(const rel::Relation& r, const rel::Relation& s) {
  SharedQuery query;
  query.stationary = &s;
  query.band = spec_.band;
  query.predicate = spec_.predicate;
  return execute(r, {query}, nullptr);
}

SharedRunReport CycloJoin::run_shared(const rel::Relation& rotating,
                                      const std::vector<SharedQuery>& queries) {
  return execute(rotating, queries, nullptr);
}

RunReport CycloJoin::run_fragments(FragmentInputs inputs) {
  SharedQuery query;  // stationary stays null: the fragments are the input
  query.band = spec_.band;
  query.predicate = spec_.predicate;
  const rel::Relation no_rotating;  // ignored: plan_run moves the fragments
  return execute(no_rotating, {query}, &inputs);
}

SharedRunReport CycloJoin::execute(const rel::Relation& rotating,
                                   const std::vector<SharedQuery>& queries,
                                   FragmentInputs* frags) {
  std::vector<detail::HostMemory> memory = memory_->take();
  SharedRunReport report;
  if (cluster_.backend == Backend::kRt) {
    report = run_rt(cluster_, spec_, rotating, queries, frags, &memory);
  } else {
    Runner runner(cluster_, spec_, rotating, queries, frags, &memory);
    report = runner.execute();
    runner.reclaim(&memory);
  }
  memory_->give(std::move(memory));
  return report;
}

std::vector<OutputFragment> RunReport::output_fragments() const {
  std::vector<OutputFragment> out;
  out.reserve(host_results.size());
  for (const join::JoinResult& result : host_results) {
    OutputFragment frag;
    frag.rows = result.output().size();
    frag.bytes = frag.rows * sizeof(join::OutTuple);
    out.push_back(frag);
  }
  return out;
}

}  // namespace cj::cyclo
