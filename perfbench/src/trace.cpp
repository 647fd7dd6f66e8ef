#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

int64_t SpanRecorder::Add(const char* layer, uint64_t query, int64_t parent,
                          double start, double end) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{layer, query, parent, start, std::max(start, end)});
  return static_cast<int64_t>(spans_.size()) - 1;
}

int64_t SpanRecorder::AddReported(const char* layer, uint64_t query,
                                  int64_t parent, double end,
                                  double seconds) {
  double start = end - std::max(0.0, seconds);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (parent >= 0) {
      start = std::max(start, spans_[static_cast<size_t>(parent)].start);
    }
  }
  return Add(layer, query, parent, start, end);
}

std::map<std::string, double> SpanRecorder::SelfSeconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start, s.end);
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0;
    double cursor = s.start;
    for (const auto& [b, e] : kids) {
      const double lo = std::max(b, cursor);
      const double hi = std::min(e, s.end);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    self[s.layer] += (s.end - s.start) - covered;
  }
  return self;
}

uint64_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool SpanRecorder::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %lld, \"query\": %llu}}\n",
                 i == 0 ? "" : ",", s.layer, s.start * 1e6,
                 (s.end - s.start) * 1e6, i,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.query));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
