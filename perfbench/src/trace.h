// Span recorder for the traced run.  Spans are recorded by the benchmark
// around its own calls into the library's layers (and, where a layer
// returns the duration of an inner region in its result, as a child span
// of that duration), kept in memory, and written out once the run ends.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* layer;  ///< static layer name: plan, executor, engine, server
  uint64_t query;     ///< spans of one query share this id
  int64_t parent;     ///< index of the parent span, -1 for a root
  double start;       ///< NowSeconds()
  double end;
};

class SpanRecorder {
 public:
  /// Record a finished span; returns its id for children to name.
  int64_t Add(const char* layer, uint64_t query, int64_t parent, double start,
              double end);

  /// Record a child of `parent` covering the last `seconds` before `end`
  /// (an inner region a layer reported in its result); returns its id.
  int64_t AddReported(const char* layer, uint64_t query, int64_t parent,
                      double end, double seconds);

  /// Per layer: the sum over its spans of span time minus the part of it
  /// covered by child spans.
  std::map<std::string, double> SelfSeconds() const;

  uint64_t size() const;

  /// Chrome trace-event JSON; false if the file cannot be written.
  bool Write(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;  ///< guarded by mu_
};

}  // namespace perfbench
