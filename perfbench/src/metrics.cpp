#include <algorithm>

#include "common/hash.h"
#include "workloads.h"

namespace perfbench {

std::vector<MetricName> PerLayerMetrics() {
  std::vector<MetricName> out;
  // core engine / executor / pipeline, plan and scheduler: the ladder.
  for (const char* family : {"probe", "groupby", "skiplist"}) {
    for (const char* policy : {"amac", "seq"}) {
      for (const char* rung :
           {"hand", "engine", "executor", "pipeline", "plan", "scheduler"}) {
        if (std::string(rung) == "hand" && std::string(family) != "probe") {
          continue;
        }
        out.push_back({std::string("ladder.") + family + "." + policy + "." +
                           rung + "_cycles_per_input",
                       "cycles"});
      }
    }
    out.push_back({std::string("ladder.") + family +
                       ".adaptive.plan_cycles_per_input",
                   "cycles"});
  }
  for (const char* family : {"probe", "groupby", "skiplist"}) {
    const std::string p = std::string("engine.") + family + ".";
    for (const char* m : {"steps_per_input", "parks_per_input", "retries",
                          "noops", "vec_fallbacks"}) {
      out.push_back({p + m, "count"});
    }
  }
  out.push_back({"plan.candidates", "count"});
  out.push_back({"plan.from_priors", "share"});
  out.push_back({"plan.optimize_s", "s"});
  out.push_back({"plan.build_s", "s"});
  out.push_back({"plan.cost_ratio", "ratio"});
  out.push_back({"server.queue_ms.p50", "ms"});
  out.push_back({"server.queue_ms.p99", "ms"});
  out.push_back({"server.exec_ms.p50", "ms"});
  out.push_back({"server.exec_ms.p99", "ms"});
  out.push_back({"server.submit_us.p99", "us"});
  out.push_back({"server.morsels_per_query", "count"});
  out.push_back({"server.rejected", "count"});
  out.push_back({"server.shed", "count"});
  out.push_back({"server.degraded", "count"});
  out.push_back({"loadgen.lag_ms.p99", "ms"});
  out.push_back({"loadgen.lag_ms.max", "ms"});
  out.push_back({"adaptive.cache_hit_share", "share"});
  out.push_back({"adaptive.calibration_morsel_share", "share"});
  out.push_back({"adaptive.switches", "count"});
  out.push_back({"adaptive.over_best_static", "ratio"});
  out.push_back({"epoch.retired", "count"});
  out.push_back({"epoch.reclaimed", "count"});
  out.push_back({"epoch.unreclaimed_end", "count"});
  out.push_back({"hashtable.retries_per_op", "count"});
  out.push_back({"writes.inserts", "count"});
  out.push_back({"writes.updates", "count"});
  out.push_back({"writes.erases", "count"});
  for (const char* layer : {"engine", "executor", "pipeline", "plan", "server"}) {
    out.push_back({std::string("self_s.") + layer, "s"});
  }
  out.push_back({"trace.overhead_pct", "%"});
  out.push_back({"trace.spans", "count"});
  return out;
}

void ReportPerLayerDefaults(Report& report) {
  for (const MetricName& m : PerLayerMetrics()) report.Metric(m.name, 0, m.unit);
}

void ReportServer(const std::vector<double>& queue_ms,
                  const std::vector<double>& exec_ms,
                  const std::vector<double>& submit_us, uint64_t morsels,
                  Report& report) {
  report.Metric("server.queue_ms.p50", Percentile(queue_ms, 0.50), "ms");
  report.Metric("server.queue_ms.p99", Percentile(queue_ms, 0.99), "ms");
  report.Metric("server.exec_ms.p50", Percentile(exec_ms, 0.50), "ms");
  report.Metric("server.exec_ms.p99", Percentile(exec_ms, 0.99), "ms");
  report.Metric("server.submit_us.p99", Percentile(submit_us, 0.99), "us");
  report.Metric("server.morsels_per_query",
                static_cast<double>(morsels) /
                    static_cast<double>(std::max<size_t>(1, exec_ms.size())),
                "count");
}

void ReportSpans(const Args& args, const SpanRecorder& spans, uint64_t queries,
                 Report& report) {
  const double n = static_cast<double>(std::max<uint64_t>(1, queries));
  for (const auto& [layer, seconds] : spans.SelfSeconds()) {
    report.Metric("self_s." + layer, seconds / n, "s");
  }
  report.Metric("trace.spans", static_cast<double>(spans.size()), "count");
  report.Samples("self_s", queries);
  if (!args.spans_path.empty() && !spans.Write(args.spans_path)) {
    report.Fail("cannot write spans to " + args.spans_path);
  }
}

uint64_t GroupChecksum(int64_t key, int64_t count, int64_t sum, int64_t min,
                       int64_t max, uint64_t sumsq) {
  uint64_t h = amac::Mix64(static_cast<uint64_t>(key));
  h = amac::Mix64(h ^ static_cast<uint64_t>(count));
  h = amac::Mix64(h ^ static_cast<uint64_t>(sum));
  h = amac::Mix64(h ^ static_cast<uint64_t>(min));
  h = amac::Mix64(h ^ static_cast<uint64_t>(max));
  return amac::Mix64(h ^ sumsq);
}

}  // namespace perfbench
