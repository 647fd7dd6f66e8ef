// olap-large: one query at a time on a one-thread kAmac Executor.
//
//   join:   Plan::Scan(S).HashJoin(R).GroupBy(G), optimizer unpinned.
//           R is a dimension table (dense unique keys, payload = group id),
//           S a fact table joining every R key once; the plan builds a
//           hash table over 2^23 keys (256 MiB of buckets plus a 256 MiB
//           overflow pool).
//   lookup: Plan::Scan(P).LookupSkipList(list) over a 7 Mi-key skiplist
//           (~480 MiB of nodes), P uniform over twice the key range.
//
// Both structures are over 4x a 105 MiB LLC, so memory-level parallelism
// sets the cost.  The one-thread static path bypasses the QueryScheduler
// and the kAdaptive governor.
#include <algorithm>
#include <memory>

#include "common/cycle_timer.h"
#include "common/hash.h"
#include "common/rng.h"
#include "core/pipeline.h"
#include "plan/plan.h"
#include "skiplist/skiplist.h"
#include "workloads.h"

namespace perfbench {
namespace {

using amac::Relation;
using amac::Tuple;

struct Sizes {
  uint64_t join_keys;     ///< |R| = |S|
  uint64_t groups;        ///< distinct R payloads (group ids)
  uint64_t skip_keys;     ///< skiplist keys [1, skip_keys]
  uint64_t skip_query;    ///< lookups per skiplist query
  uint64_t skip_windows;  ///< distinct skiplist queries
};

Sizes SizesFor(Size size) {
  if (size == Size::kTiny) return Sizes{1 << 14, 1 << 8, 1 << 12, 1 << 9, 8};
  return Sizes{1 << 23, 1 << 20, 7 << 20, 1 << 12, 256};
}

constexpr int kSetupReps = 3;
constexpr uint32_t kInflight = 10;

int64_t GroupOf(int64_t key, uint64_t groups) {
  return static_cast<int64_t>(amac::Mix64(static_cast<uint64_t>(key)) %
                              groups) +
         1;
}

int64_t SkipPayload(int64_t key) { return key * 3 + 1; }

struct Data {
  Relation r;
  Relation s;
  std::vector<Relation> lookups;  ///< one relation per skiplist query
  std::unique_ptr<amac::SkipList> list;
};

Data Setup(const Sizes& z, uint64_t seed) {
  Data d;
  d.r = amac::MakeDenseUniqueRelation(z.join_keys, seed ^ 0x0a11);
  for (uint64_t i = 0; i < d.r.size(); ++i) {
    d.r[i].payload = GroupOf(d.r[i].key, z.groups);
  }
  d.s = amac::MakeForeignKeyRelation(z.join_keys, z.join_keys, seed ^ 0x0b22);
  for (uint64_t w = 0; w < z.skip_windows; ++w) {
    d.lookups.push_back(amac::MakeZipfRelation(z.skip_query, 2 * z.skip_keys,
                                               0.0, seed ^ (0x0c33 + w)));
  }
  // Sorted inserts keep the build linear; the lookups are uniform, so the
  // walk still misses on every lower level.  Tower heights come from a
  // fixed stream: the skiplist's shape is the same for every seed, so the
  // seed varies the inputs and not the structure's search cost.
  d.list = std::make_unique<amac::SkipList>(z.skip_keys);
  amac::Rng rng(0x0d44);
  for (uint64_t k = 1; k <= z.skip_keys; ++k) {
    const int64_t key = static_cast<int64_t>(k);
    d.list->InsertUnsync(key, SkipPayload(key), rng);
  }
  return d;
}

struct Oracle {
  uint64_t groups = 0;
  uint64_t group_checksum = 0;
  std::vector<uint64_t> lookup_rows;
  std::vector<uint64_t> lookup_checksum;
};

/// Reference results from dense arrays, sharing no code with the hash
/// table, the aggregation table or the skiplist.
Oracle ComputeOracle(const Data& d, const Sizes& z, bool corrupt) {
  Oracle o;
  std::vector<int64_t> group_of(z.join_keys + 1, 0);
  for (const Tuple& t : d.r) group_of[static_cast<uint64_t>(t.key)] = t.payload;
  struct Agg {
    int64_t count = 0, sum = 0, min = 0, max = 0;
    uint64_t sumsq = 0;
  };
  std::vector<Agg> agg(z.groups + 1);
  for (const Tuple& t : d.s) {
    if (t.key < 1 || static_cast<uint64_t>(t.key) > z.join_keys) continue;
    const int64_t g = group_of[static_cast<uint64_t>(t.key)];
    if (g == 0) continue;
    Agg& a = agg[static_cast<uint64_t>(g)];
    a.min = a.count == 0 ? t.payload : std::min(a.min, t.payload);
    a.max = a.count == 0 ? t.payload : std::max(a.max, t.payload);
    ++a.count;
    a.sum += t.payload;
    a.sumsq += static_cast<uint64_t>(t.payload) * static_cast<uint64_t>(t.payload);
  }
  for (uint64_t g = 1; g <= z.groups; ++g) {
    const Agg& a = agg[g];
    if (a.count == 0) continue;
    ++o.groups;
    o.group_checksum += GroupChecksum(static_cast<int64_t>(g), a.count, a.sum,
                                      a.min, a.max, a.sumsq);
  }
  for (const Relation& window : d.lookups) {
    amac::RowSink sink;
    for (const Tuple& t : window) {
      if (t.key >= 1 && static_cast<uint64_t>(t.key) <= z.skip_keys) {
        sink.Emit(Tuple{t.key, SkipPayload(t.key)});
      }
    }
    o.lookup_rows.push_back(sink.rows());
    o.lookup_checksum.push_back(sink.checksum() ^ (corrupt ? 1 : 0));
  }
  if (corrupt) o.group_checksum ^= 1;
  return o;
}

/// What one RunPlan call cost, seen from outside and as reported.
struct QueryRun {
  double start = 0;
  double end = 0;
  uint64_t cycles = 0;
  amac::PlanResult result;
};

QueryRun TimedPlan(amac::Executor& exec, const amac::Plan& plan) {
  QueryRun q;
  q.start = NowSeconds();
  amac::CycleTimer timer;
  q.result = amac::RunPlan(exec, plan);
  q.cycles = timer.Elapsed();
  q.end = NowSeconds();
  return q;
}

/// plan span over the RunPlan call; an executor span per phase the plan
/// reported (build, then run), each around its reported engine region.
void RecordPlanSpans(SpanRecorder* spans, uint64_t query, const QueryRun& q) {
  if (spans == nullptr) return;
  const int64_t plan = spans->Add("plan", query, -1, q.start, q.end);
  const amac::RunStats& run = q.result.run;
  const amac::RunStats& build = q.result.build;
  const int64_t run_exec =
      spans->AddReported("executor", query, plan, q.end, run.dispatch_seconds);
  spans->AddReported("engine", query, run_exec, q.end, run.seconds);
  if (build.inputs > 0) {
    const double build_end = q.end - run.dispatch_seconds;
    const int64_t build_exec = spans->AddReported(
        "executor", query, plan, build_end, build.dispatch_seconds);
    spans->AddReported("engine", query, build_exec, build_end, build.seconds);
  }
}

struct Measured {
  std::vector<double> join_seconds;           ///< whole RunPlan call
  std::vector<double> join_cycles_per_tuple;  ///< build plus probe, as reported
  std::vector<double> lookup_ms;
  std::vector<double> lookup_cycles_per_key;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Plan-layer observations over the timed join queries.
  std::vector<double> optimize_s, build_s, cost_ratio;
  uint64_t candidates = 0;
  uint64_t from_priors = 0;
};

class Olap {
 public:
  Olap(const Sizes& z, const Data& d, const Oracle& o)
      : z_(z),
        d_(d),
        o_(o),
        exec_(amac::ExecConfig{amac::ExecPolicy::kAmac,
                               amac::SchedulerParams{kInflight, 1, 0}, 1, 0}),
        join_(amac::Plan::Scan(d.s).HashJoin(d.r).GroupBy(z.groups)) {}

  /// One join->group-by query, checked against the oracle.
  void Join(Measured* m, SpanRecorder* spans) {
    const QueryRun q = TimedPlan(exec_, join_);
    ++m->attempted;
    const amac::PlanResult& res = q.result;
    const bool ok = res.groups != nullptr &&
                    res.groups->CountGroups() == o_.groups &&
                    res.groups->Checksum() == o_.group_checksum;
    if (!ok) ++m->failed;
    const double seconds = q.end - q.start;
    m->join_seconds.push_back(seconds);
    m->join_cycles_per_tuple.push_back(static_cast<double>(res.TotalCycles()) /
                                       static_cast<double>(d_.s.size()));
    const amac::PlanStats& plan = res.run.plan;
    m->optimize_s.push_back(seconds - res.run.dispatch_seconds -
                            res.build.dispatch_seconds);
    m->build_s.push_back(res.build.seconds);
    if (plan.measured_cost_cycles > 0) {
      m->cost_ratio.push_back(plan.estimated_cost_cycles /
                              plan.measured_cost_cycles);
    }
    m->candidates = plan.candidates_considered;
    m->from_priors += plan.from_priors ? 1 : 0;
    RecordPlanSpans(spans, next_query_++, q);
  }

  /// One skiplist lookup query over window `w`.
  void Lookup(uint64_t w, Measured* m, SpanRecorder* spans) {
    const QueryRun q = TimedPlan(
        exec_, amac::Plan::Scan(d_.lookups[w]).LookupSkipList(*d_.list));
    ++m->attempted;
    if (q.result.run.outputs != o_.lookup_rows[w] ||
        q.result.run.checksum != o_.lookup_checksum[w]) {
      ++m->failed;
    }
    m->lookup_ms.push_back((q.end - q.start) * 1e3);
    m->lookup_cycles_per_key.push_back(
        static_cast<double>(q.cycles) /
        static_cast<double>(d_.lookups[w].size()));
    RecordPlanSpans(spans, next_query_++, q);
  }

  /// One round: a join query, then lookup queries until `slice` seconds
  /// have passed since the round began (at least one).
  void Round(double slice, Measured* m, SpanRecorder* spans) {
    const double begin = NowSeconds();
    Join(m, spans);
    do {
      Lookup(next_window_++ % z_.skip_windows, m, spans);
    } while (NowSeconds() - begin < slice);
  }

 private:
  const Sizes& z_;
  const Data& d_;
  const Oracle& o_;
  amac::Executor exec_;
  const amac::Plan join_;
  uint64_t next_window_ = 0;
  uint64_t next_query_ = 0;
};

}  // namespace

void RunOlap(const Args& args, Report& report) {
  const Sizes z = SizesFor(args.size);
  Data d;
  const std::vector<double> setup_s =
      TimeSetup(kSetupReps, &d, [&] { return Setup(z, args.seed); });
  const Oracle oracle = ComputeOracle(d, z, args.corrupt_oracle);
  Olap olap(z, d, oracle);

  // Warm-up: the first join runs the optimizer's measure fallback and
  // stores shape priors; page faults and cold caches stay out of the timed
  // rounds.  Warm-up results are checked and counted too.
  Measured warm;
  olap.Join(&warm, nullptr);
  for (uint64_t w = 0; w < std::min<uint64_t>(8, z.skip_windows); ++w) {
    olap.Lookup(w, &warm, nullptr);
  }
  report.Count(warm.attempted, warm.failed);

  constexpr int kRounds = 5;
  Measured plain;
  Measured traced;
  SpanRecorder spans;
  if (!args.trace) {
    for (int r = 0; r < kRounds; ++r) {
      olap.Round(args.seconds / kRounds, &plain, nullptr);
    }
  } else {
    // Alternate untraced and traced rounds: their difference is the
    // tracing overhead.  The ladder takes the rest of the run.
    const double slice = args.seconds / 8;
    for (int r = 0; r < 2; ++r) {
      olap.Round(slice, &plain, nullptr);
      olap.Round(slice, &traced, &spans);
    }
  }
  report.Count(plain.attempted + traced.attempted,
               plain.failed + traced.failed);
  const uint64_t wrong = warm.failed + plain.failed + traced.failed;
  if (wrong > 0) {
    report.Fail(std::to_string(wrong) + " query results differ from the oracle");
  }

  if (!args.trace) {
    report.Metric("setup_s", Median(setup_s), "s");
    report.Metric("peak_rss_mib", PeakRssMib(), "MiB");
    report.Metric("mrows_per_s",
                  static_cast<double>(d.s.size()) / Median(plain.join_seconds) / 1e6,
                  "Mrows/s");
    report.Metric("lat_p50_ms", Percentile(plain.lookup_ms, 0.50), "ms");
    report.Metric("lat_p99_ms", Percentile(plain.lookup_ms, 0.99), "ms");
    report.Samples("setup_s", setup_s.size());
    report.Samples("mrows_per_s", plain.join_seconds.size());
    report.Samples("lat_ms", plain.lookup_ms.size());
    report.Detail("join_groupby_cycles_per_tuple",
                  Median(plain.join_cycles_per_tuple));
    report.Detail("skiplist_lookup_cycles_per_tuple",
                  Median(plain.lookup_cycles_per_key));
    return;
  }

  ReportPerLayerDefaults(report);
  report.Metric("plan.candidates", static_cast<double>(traced.candidates),
                "count");
  report.Metric("plan.from_priors",
                static_cast<double>(traced.from_priors) /
                    static_cast<double>(
                        std::max<size_t>(1, traced.join_seconds.size())),
                "share");
  report.Metric("plan.optimize_s", Median(traced.optimize_s), "s");
  report.Metric("plan.build_s", Median(traced.build_s), "s");
  report.Metric("plan.cost_ratio", Median(traced.cost_ratio), "ratio");
  const double untraced = Median(plain.lookup_ms);
  report.Metric("trace.overhead_pct",
                untraced > 0 ? 100.0 * (Median(traced.lookup_ms) - untraced) /
                                   untraced
                             : 0,
                "%");
  ReportSpans(args, spans, traced.attempted, report);
  RunLadder(args, *d.list, report);
}

}  // namespace perfbench
