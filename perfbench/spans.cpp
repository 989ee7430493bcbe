#include "spans.h"

#include <cstdio>

namespace perfbench {

SpanRecorder& recorder() {
  static SpanRecorder r;
  return r;
}

double SpanRecorder::total(const std::string& name) const {
  double sum = 0;
  for (const SpanRecord& s : spans_) {
    if (s.name == name) sum += s.end - s.start;
  }
  return sum;
}

std::map<std::string, double> SpanRecorder::self_time_by_layer() const {
  // Children nest strictly inside their parent (one thread, RAII spans),
  // so a parent's self time is its duration minus its children's.
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end - spans_[i].start;
  }
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
  }
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::string& name = spans_[i].name;
    by_layer[name.substr(0, name.find('.'))] += self[i];
  }
  return by_layer;
}

bool SpanRecorder::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\":[");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"id\":%zu,\"name\":\"%s\",\"start_s\":%.9f,"
                 "\"end_s\":%.9f,\"parent\":%d,\"query\":%lld}",
                 i == 0 ? "" : ",", i, s.name.c_str(), s.start, s.end, s.parent,
                 static_cast<long long>(s.query));
  }
  std::fprintf(f, "],\n\"self_s\":{");
  bool first = true;
  for (const auto& [layer, secs] : self_time_by_layer()) {
    std::fprintf(f, "%s\"%s\":%.9f", first ? "" : ",", layer.c_str(), secs);
    first = false;
  }
  std::fprintf(f, "}}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
