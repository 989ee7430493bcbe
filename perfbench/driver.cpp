// End-to-end benchmark driver.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench --selftest
//
// A run forks kWorkers worker processes one after another. Each sets the
// workload up kSetups times from the same seed and runs timed queries for
// its share of --seconds, then sends its samples back over a pipe; the metrics are
// computed over the pooled samples. A single process draws one memory
// layout and one placement for the whole run, and on the reference VM
// that alone moved a process's per-query time by up to a third while the
// queries inside it stayed within a few percent (README.md). Pooling
// several processes is what keeps a run's medians steady.
//
// The driver prints a table of the metrics with sample counts, then, as
// the last line of standard output, one JSON object: {"correct",
// "attempted", "failed", "metrics"}. An untraced run (--trace 0) reports
// the end-to-end metrics; a traced run (--trace 1) reports the per-layer
// metrics and each worker writes its spans to
// .bench_out/trace-<workload>-<seed>-<worker>.json.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "reference.h"
#include "spans.h"
#include "workloads.h"

namespace {

using namespace perfbench;

constexpr int kWorkers = 5;

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  std::size_t samples = 0;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

// ----- worker → driver transport: one "key v v v" line per field -----------

void put(std::ostringstream& os, const std::string& key,
         const std::vector<double>& values) {
  os << key;
  char buf[32];
  for (const double v : values) {
    std::snprintf(buf, sizeof buf, " %.17g", v);
    os << buf;
  }
  os << '\n';
}

std::string serialize(const Outcome& o) {
  std::ostringstream os;
  put(os, "setup", o.setup_s);
  put(os, "latency", o.latency_s);
  put(os, "traced_latency", o.traced_latency_s);
  put(os, "scalars", {o.tail_percentile, o.timed_wall_s, o.cpu_s, o.rows_read,
                      static_cast<double>(o.queries),
                      static_cast<double>(o.attempted),
                      static_cast<double>(o.failed),
                      static_cast<double>(o.mismatched), o.peak_rss_mb});
  for (const auto& [name, values] : o.layers) put(os, "layer:" + name, values);
  return os.str();
}

/// Folds one worker's serialized outcome into `total`.
bool merge(const std::string& text, Outcome& total) {
  std::istringstream in(text);
  std::string line;
  bool saw_scalars = false;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    std::vector<double> v;
    for (double x; fields >> x;) v.push_back(x);
    auto append = [&v](std::vector<double>& to) { to.insert(to.end(), v.begin(), v.end()); };
    if (key == "setup") {
      append(total.setup_s);
    } else if (key == "latency") {
      append(total.latency_s);
    } else if (key == "traced_latency") {
      append(total.traced_latency_s);
    } else if (key == "scalars" && v.size() == 9) {
      saw_scalars = true;
      total.tail_percentile = v[0];
      total.timed_wall_s += v[1];
      total.cpu_s += v[2];
      total.rows_read += v[3];
      total.queries += static_cast<std::uint64_t>(v[4]);
      total.attempted += static_cast<std::uint64_t>(v[5]);
      total.failed += static_cast<std::uint64_t>(v[6]);
      total.mismatched += static_cast<std::uint64_t>(v[7]);
      total.peak_rss_mb = std::max(total.peak_rss_mb, v[8]);
    } else if (key.rfind("layer:", 0) == 0) {
      append(total.layers[key.substr(6)]);
    }
  }
  return saw_scalars;
}

/// The worker process: runs its share and writes its samples to `fd`.
int worker_main(const Options& opts, int fd) {
  try {
    Outcome o = run_workload(opts);
    // This process's own peak (ru_maxrss is in KiB). A forked child starts
    // its count afresh, so neither the driver's build steps nor other
    // workers are in it.
    rusage self{};
    getrusage(RUSAGE_SELF, &self);
    o.peak_rss_mb = static_cast<double>(self.ru_maxrss) * 1024.0 / 1e6;
    if (opts.trace) {
      const std::string path = ".bench_out/trace-" + opts.workload + "-" +
                               std::to_string(opts.seed) + "-" +
                               std::to_string(opts.worker) + ".json";
      if (!recorder().write_json(path)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return 1;
      }
    }
    const std::string text = serialize(o);
    for (std::size_t off = 0; off < text.size();) {
      const ssize_t n = write(fd, text.data() + off, text.size() - off);
      if (n <= 0) return 1;
      off += static_cast<std::size_t>(n);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: worker failed: %s\n", e.what());
    return 1;
  }
}

/// Forks one worker, waits for it and merges its samples; false when it
/// fails.
bool run_worker(const Options& opts, Outcome& total) {
  int fds[2];
  if (pipe(fds) != 0) return false;
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) return false;
  if (pid == 0) {
    close(fds[0]);
    const int code = worker_main(opts, fds[1]);
    close(fds[1]);
    std::fflush(nullptr);
    _exit(code);
  }
  close(fds[1]);
  std::string text;
  char buf[65536];
  for (ssize_t n; (n = read(fds[0], buf, sizeof buf)) > 0;) {
    text.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  if (waitpid(pid, &status, 0) != pid) return false;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0 && merge(text, total);
}

std::vector<Metric> end_to_end(const Outcome& o) {
  const double queries = static_cast<double>(std::max<std::uint64_t>(o.queries, 1));
  const std::size_t n = o.latency_s.size();
  const auto beyond =
      n - static_cast<std::size_t>(std::ceil(o.tail_percentile * static_cast<double>(n)));
  std::fprintf(stderr, "query_tail_s is p%.0f of %zu queries (%zu beyond it)%s\n",
               o.tail_percentile * 100, n, beyond,
               beyond < 10 ? ": fewer than 10, the tail is thin" : "");
  return {
      {"setup_s", "s", median(o.setup_s), o.setup_s.size()},
      {"query_p50_s", "s", median(o.latency_s), n},
      {"query_tail_s", "s", percentile(o.latency_s, o.tail_percentile), n},
      {"rows_per_s", "rows/s", o.rows_read / o.timed_wall_s, o.queries},
      {"cpu_s_per_query", "s", o.cpu_s / queries, o.queries},
      {"peak_rss_mb", "MB", o.peak_rss_mb, kWorkers},
  };
}

/// Per-layer metrics in BENCHMARK.json order: the median of each metric's
/// samples. A metric whose layer the workload does not reach reads 0
/// (README.md).
std::vector<Metric> per_layer(const Outcome& o) {
  static const std::vector<std::pair<std::string, std::string>> kLayerMetrics = {
      {"rt.sys_cpu_s", "s"},           {"rt.user_cpu_s", "s"},
      {"rt.minor_faults", "count"},    {"rt.vol_csw", "count"},
      {"rt.invol_csw", "count"},       {"rt.threads_peak", "count"},
      {"cyclo.setup_phase_s", "s"},    {"cyclo.join_phase_s", "s"},
      {"cyclo.teardown_s", "s"},       {"cyclo.outside_phases_s", "s"},
      {"cyclo.cpu_load_join", "ratio"}, {"cyclo.overhead_x", "x"},
      {"join.build_s", "s"},           {"join.probe_s", "s"},
      {"join.kernel_s", "s"},          {"ring.rotation_mb", "MB"},
      {"ring.sync_s", "s"},            {"ring.redistribute_mb", "MB"},
      {"plan.plan_s", "s"},            {"plan.between_rounds_s", "s"},
      {"plan.row_estimate_error", "ratio"}, {"rel.generate_s", "s"},
      {"rel.split_s", "s"},            {"rel.collect_stats_s", "s"},
      {"serve.queue_wait_mean_s", "s"}, {"serve.service_p50_s", "s"},
      {"serve.queries_per_wave", "count"}, {"serve.unaccounted_s", "s"},
      {"sim.virtual_makespan_s", "s"}, {"sim.wall_per_virtual", "x"},
      {"trace.overhead_x", "x"},
  };
  LayerSamples layers = o.layers;
  const double untraced_p50 = median(o.latency_s);
  const double kernel = median(layers["join.kernel_s"]);
  if (kernel > 0) layers["cyclo.overhead_x"] = {untraced_p50 / kernel};
  if (untraced_p50 > 0) {
    layers["trace.overhead_x"] = {median(o.traced_latency_s) / untraced_p50};
  }
  std::vector<double>& peaks = layers["rt.threads_peak"];
  if (!peaks.empty()) peaks = {*std::max_element(peaks.begin(), peaks.end())};
  std::vector<Metric> out;
  for (const auto& [name, unit] : kLayerMetrics) {
    const std::vector<double>& v = layers[name];
    out.push_back({name, unit, median(v), v.size()});
  }
  return out;
}

void print(const std::vector<Metric>& metrics, const Outcome& o, bool correct) {
  std::printf("%-26s %16s  %-7s %s\n", "metric", "value", "unit", "samples");
  for (const Metric& m : metrics) {
    std::printf("%-26s %16.6g  %-7s %zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  std::printf("attempted %llu  failed %llu  wrong results %llu  (%d worker processes)\n",
              static_cast<unsigned long long>(o.attempted),
              static_cast<unsigned long long>(o.failed),
              static_cast<unsigned long long>(o.mismatched), kWorkers);
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(o.attempted);
  json += ", \"failed\": " + std::to_string(o.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n       perfbench --selftest\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) return usage(("unexpected argument " + arg).c_str());
    arg = arg.substr(2);
    if (arg == "selftest") {
      flags.emplace(arg, std::string{});
      continue;
    }
    if (i + 1 == argc) return usage(("missing value for --" + arg).c_str());
    flags[arg] = argv[++i];
  }
  if (flags.count("selftest") != 0) {
    const bool ok = reference_self_test();
    std::printf("reference self-test %s\n", ok ? "passed" : "FAILED");
    return ok ? 0 : 1;
  }
  for (const auto& [name, value] : flags) {
    if (name != "workload" && name != "seed" && name != "seconds" && name != "trace") {
      return usage(("unknown flag --" + name).c_str());
    }
  }
  Options opts;
  try {
    opts.workload = flags.at("workload");
    opts.seed = std::stoull(flags.at("seed"));
    opts.seconds = std::stod(flags.at("seconds"));
    opts.trace = std::stoi(flags.at("trace")) != 0;
  } catch (const std::exception&) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), opts.workload) == names.end()) {
    return usage(("unknown workload " + opts.workload).c_str());
  }
  if (opts.seconds <= 0) return usage("--seconds must be positive");
  if (std::thread::hardware_concurrency() < 4) {
    std::fprintf(stderr, "perfbench: warning: %u cores; the workloads use up "
                 "to 4 compute threads\n", std::thread::hardware_concurrency());
  }
  if (opts.trace) std::filesystem::create_directories(".bench_out");

  // The driver starts no thread of its own, so each fork() copies a
  // single-threaded process.
  Outcome total;
  Options share = opts;
  share.seconds = opts.seconds / kWorkers;
  for (int i = 0; i < kWorkers; ++i) {
    share.worker = i;
    if (!run_worker(share, total)) {
      std::fprintf(stderr, "perfbench: worker %d failed\n", i);
      return 1;
    }
  }
  if (total.queries == 0) {
    std::fprintf(stderr, "perfbench: no timed query completed\n");
    return 1;
  }
  // The checker checks itself: unless a perturbed count and checksum are
  // flagged, no check of this run is trusted. A wrong result also makes
  // the run incorrect; a rejected or cancelled query only counts as failed.
  const bool correct = reference_self_test() && total.mismatched == 0;
  print(opts.trace ? per_layer(total) : end_to_end(total), total, correct);
  return 0;
}
