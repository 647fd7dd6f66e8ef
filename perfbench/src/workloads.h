// The benchmark's workloads and the metric vocabulary they share.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "report.h"
#include "trace.h"

namespace amac {
class SkipList;
}

namespace perfbench {

/// olap-large: batch join->group-by and skiplist lookups far beyond the LLC.
void RunOlap(const Args& args, Report& report);
/// serve-small: open-loop Poisson point queries over cache-resident data.
void RunServe(const Args& args, Report& report);
/// ycsb-write: closed-loop YCSB-A plus insert/erase churn.
void RunYcsb(const Args& args, Report& report);

/// Traced runs: the layer ladder over olap-large's structures.
void RunLadder(const Args& args, const amac::SkipList& list, Report& report);

/// Name and unit of every per-layer metric, in report order.  A traced run
/// reports all of them; layers a workload does not exercise read zero.
struct MetricName {
  std::string name;
  std::string unit;
};
std::vector<MetricName> PerLayerMetrics();

/// Set every per-layer metric to zero before a traced run fills in its own.
void ReportPerLayerDefaults(Report& report);

/// server.*: per-query queue wait, execution and submit-call times of the
/// served queries, and morsels per query.
void ReportServer(const std::vector<double>& queue_ms,
                  const std::vector<double>& exec_ms,
                  const std::vector<double>& submit_us, uint64_t morsels,
                  Report& report);

/// self_s.<layer>: mean self seconds per query, from the recorded spans,
/// and the span count; writes the spans to args.spans_path.
void ReportSpans(const Args& args, const SpanRecorder& spans,
                 uint64_t queries, Report& report);

/// The same checksum AggregateTable::Checksum computes, over one group.
uint64_t GroupChecksum(int64_t key, int64_t count, int64_t sum, int64_t min,
                       int64_t max, uint64_t sumsq);

}  // namespace perfbench
