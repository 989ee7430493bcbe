// The benchmark's workloads: each generates its inputs from the seed,
// sets up the program through its public API, runs one untimed warm-up
// query and then timed rounds of queries until its time is up. Every
// query is checked against the reference (reference.h). One call of
// run_workload is one worker process's share of a run (driver.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int worker = 0;  ///< index of the worker process within the run
};

/// Per-query samples of one per-layer metric, keyed by metric name.
using LayerSamples = std::map<std::string, std::vector<double>>;

struct Outcome {
  /// Wall time of each set-up (generate, stats, plan, construct, warm-up
  /// query), kSetups per worker process; the reference computation is not
  /// in it.
  std::vector<double> setup_s;
  /// One latency per timed query (untraced rounds only).
  std::vector<double> latency_s;
  /// Percentile query_tail_s reports (at least 10 samples beyond it at
  /// the query count a run of the default length makes).
  double tail_percentile = 0.75;
  double timed_wall_s = 0;
  double cpu_s = 0;      ///< process user + sys CPU over the timed phase
  double rows_read = 0;  ///< input rows read by the timed queries
  std::uint64_t queries = 0;    ///< timed queries (traced + untraced)
  std::uint64_t attempted = 0;  ///< warm-ups + timed queries
  std::uint64_t failed = 0;     ///< mismatched, rejected or cancelled
  std::uint64_t mismatched = 0; ///< failed with a wrong count or checksum
  /// Peak resident set of this worker process alone, in MB.
  double peak_rss_mb = 0;
  /// Traced run only: per-layer samples, and the latencies of the
  /// traced rounds (latency_s then holds the untraced ones).
  LayerSamples layers;
  std::vector<double> traced_latency_s;
};

const std::vector<std::string>& workload_names();

/// Set-ups each worker times before its timed queries, each from the same
/// fresh process state (all but the last in forked children); setup_s is
/// the median over all of them, so one slow set-up moves it little.
constexpr int kSetups = 3;

/// Runs one workload for opts.seconds of timed queries.
Outcome run_workload(const Options& opts);

}  // namespace perfbench
