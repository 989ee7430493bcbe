// In-memory span recorder for the traced benchmark run.
//
// Every public library call a workload makes is wrapped in a Span: name
// (layer.call), start, end, parent span and query id. Spans stay in
// memory and are written out as one JSON file when the run ends. A
// layer's self time is its spans' durations minus the time their child
// spans cover. When recording is off (the untraced runs that produce the
// end-to-end metrics) a Span does nothing.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline double now_s() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return std::chrono::duration<double>(clock::now() - epoch).count();
}

struct SpanRecord {
  std::string name;
  double start = 0;
  double end = 0;
  int parent = -1;        ///< index into the recorder's spans, -1 = root
  std::int64_t query = -1;  ///< query id, -1 = set-up work
};

class SpanRecorder {
 public:
  void enable(bool on) { enabled_ = on; }

  int open(const std::string& name, std::int64_t query) {
    if (!enabled_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, now_s(), 0, parent, query});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = now_s();
    stack_.pop_back();
  }

  /// Total duration of spans named `name`.
  double total(const std::string& name) const;
  /// Self time per layer (the span name's prefix before the first '.').
  std::map<std::string, double> self_time_by_layer() const;
  /// Writes {"spans":[...],"self_s":{...}}; false when the file fails.
  bool write_json(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

/// The process's recorder (the benchmark is single-threaded; library
/// worker threads never touch it).
SpanRecorder& recorder();

/// RAII span around one call.
class Span {
 public:
  Span(const std::string& name, std::int64_t query = -1)
      : id_(recorder().open(name, query)) {}
  ~Span() { recorder().close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int id_;
};

}  // namespace perfbench
