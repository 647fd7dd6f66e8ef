// serve-small: open-loop point queries on a shared QueryScheduler.
//
// One generator thread submits queries on a Poisson schedule to a
// scheduler with two worker threads and EDF admission.  The query mix is
// ext_serving's point-query mix: hash probe, B+-tree, BST and skiplist
// lookups plus a small fused join->group-by, each over a Zipf-keyed input.
// Every structure holds 4 Ki keys and fits in L2, so admission, morsel
// dispatch, the kAdaptive governor and per-row layer overhead set the
// cost, not memory.  One query in eight runs kAdaptive; the rest split
// between kAmac and kSequential.
//
// Two fixed offered rates, 500 and 5400 queries/s: about 0.12x and 1.3x
// the 4150 queries/s goodput plateau measured past saturation when the
// benchmark was defined (4-vCPU Xeon guest, AVX-512).
//
// Rate 1 measures latency on a scheduler that queues every query (no
// pending bound, no shedding), so every query is served and each one's
// lateness shows in the percentiles instead of as a refusal.  At 0.25x
// (1000 queries/s), a slow spell of the host queued work behind the two
// workers and moved p50 by up to 57% and p99 by up to 270% between runs;
// at 500 queries/s the workers are busy about a fifth of the time, so the
// percentiles are mostly service time.  Smaller queries at a higher rate
// (1024 or 2048 rows) were steadier on a quiet host but far less so on a
// contended one: the per-query wake-ups they add are what contention
// slows most.
// Rate 2 is the overload phase: a second scheduler bounds the pending
// queue and sheds expired queries, and goodput counts the replies within
// the SLO.  Pressure degrade stays off: swapping policies under backlog
// changes the service time with the queue length, which made goodput
// bistable run to run.
// Latency is timed from when a query was due, so a stalled generator
// shows; a refused or shed query counts as missing the SLO with the phase
// length as its latency.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <memory>
#include <thread>

#include "bst/bst.h"
#include "btree/btree.h"
#include "btree/btree_ops.h"
#include "common/hash.h"
#include "common/rng.h"
#include "core/pipeline.h"
#include "groupby/agg_table.h"
#include "hashtable/chained_table.h"
#include "plan/plan.h"
#include "server/load_gen.h"
#include "server/query_scheduler.h"
#include "skiplist/skiplist.h"
#include "skiplist/skiplist_ops.h"
#include "workloads.h"

namespace perfbench {
namespace {

using amac::ExecPolicy;
using amac::QueryOutcome;
using amac::Relation;
using amac::Tuple;

struct Sizes {
  uint64_t keys;
  uint64_t rows_per_query;
  uint64_t windows;
  uint64_t groups;
  double rate1;  ///< queries per second
  double rate2;
  double slo_seconds;
  double warmup_seconds;
};

// Rates and SLO are fixed constants (not re-derived per run), so a later
// change to the serving path moves the latency and goodput it measures.
Sizes SizesFor(Size size) {
  if (size == Size::kTiny) {
    return Sizes{1 << 10, 128, 4, 16, 200, 400, 0.050, 0.1};
  }
  return Sizes{1 << 12, 4096, 64, 64, 500, 5400, 0.020, 0.5};
}

/// Scheduler threads.  With the generator that is three of four cores: the
/// spare core absorbs the host's own work, which otherwise lands on a
/// worker and shows up as tail latency.
constexpr uint32_t kWorkers = 2;
constexpr uint32_t kInflight = 8;
constexpr int kNumKinds = 5;  ///< probe, btree, bst, skiplist, fused
/// A phase's metrics are medians over windows at least this long: at
/// rate 1 a window holds 1000 queries or more, so its p99 has ten samples
/// beyond it.
constexpr double kWindowSeconds = 2.0;
constexpr double kZipfTheta = 0.99;
/// The generator sleeps until this long before a query is due, then spins.
constexpr double kSpinSeconds = 300e-6;

int64_t GroupOf(int64_t key, uint64_t groups) {
  return static_cast<int64_t>(amac::Mix64(static_cast<uint64_t>(key) ^ 0x5e) %
                              groups) +
         1;
}

struct Data {
  Relation r;
  std::unique_ptr<amac::ChainedHashTable> table;
  std::unique_ptr<amac::BTree> btree;
  std::unique_ptr<amac::BinarySearchTree> bst;
  std::unique_ptr<amac::SkipList> list;
  std::vector<Relation> inputs;  ///< one query input per window
};

Data Setup(const Sizes& z, uint64_t seed) {
  Data d;
  d.r = amac::MakeDenseUniqueRelation(z.keys, seed ^ 0x51);
  for (uint64_t i = 0; i < d.r.size(); ++i) {
    d.r[i].payload = GroupOf(d.r[i].key, z.groups);
  }
  d.table = std::make_unique<amac::ChainedHashTable>(
      z.keys, amac::ChainedHashTable::Options{});
  for (const Tuple& t : d.r) d.table->InsertUnsync(t);
  d.btree = std::make_unique<amac::BTree>(d.r);
  d.bst = std::make_unique<amac::BinarySearchTree>(amac::BuildBst(d.r));
  d.list = std::make_unique<amac::SkipList>(z.keys);
  amac::Rng rng(0x52);  // tower heights: same skiplist shape for every seed
  for (const Tuple& t : d.r) d.list->InsertUnsync(t.key, t.payload, rng);
  // Keys beyond the build range miss (about one in nine distinct keys).
  for (uint64_t w = 0; w < z.windows; ++w) {
    d.inputs.push_back(amac::MakeZipfRelation(
        z.rows_per_query, z.keys + z.keys / 8, kZipfTheta, seed ^ (0x60 + w)));
  }
  return d;
}

/// The plan of one query; the fused kind aggregates into `agg`.
amac::Plan KindPlan(const Data& d, int kind, uint64_t window,
                    amac::AggregateTable* agg) {
  const Relation& in = d.inputs[window];
  switch (kind) {
    case 0: return amac::Plan::Scan(in).Lookup(*d.table);
    case 1: return amac::Plan::Scan(in).LookupBTree(*d.btree);
    case 2: return amac::Plan::Scan(in).LookupBst(*d.bst);
    case 3: return amac::Plan::Scan(in).LookupSkipList(*d.list);
    default: return amac::Plan::Scan(in).Lookup(*d.table).GroupByInto(agg);
  }
}

struct Expect {
  uint64_t rows = 0;
  uint64_t checksum = 0;
};

/// Solo sequential run of every (kind, window): what each served query
/// must reproduce.
std::vector<Expect> ComputeOracle(const Data& d, const Sizes& z,
                                  bool corrupt) {
  amac::Executor solo(amac::ExecConfig{
      ExecPolicy::kSequential, amac::SchedulerParams{1, 1, 0}, 1, 0});
  std::vector<Expect> oracle;
  for (int kind = 0; kind < kNumKinds; ++kind) {
    for (uint64_t w = 0; w < z.windows; ++w) {
      amac::AggregateTable agg(z.groups, amac::AggregateTable::Options{});
      const amac::RunStats run =
          amac::RunPlan(solo, KindPlan(d, kind, w, &agg)).run;
      Expect e = kind == 4 ? Expect{agg.CountGroups(), agg.Checksum()}
                           : Expect{run.outputs, run.checksum};
      if (corrupt) e.checksum ^= 1;
      oracle.push_back(e);
    }
  }
  return oracle;
}

struct Issued {
  amac::QueryTicket ticket;
  int kind = 0;
  ExecPolicy policy = ExecPolicy::kAmac;
  uint64_t window = 0;
  double due = 0;
  double submit_start = 0;
  double submit_end = 0;
  std::shared_ptr<amac::AggregateTable> agg;
};

/// Everything one phase observed.
struct Phase {
  double duration = 0;
  int windows = 1;
  // Per query, in submission order.
  std::vector<double> latency_s;  ///< from due; refused = phase duration
  std::vector<int> window_of;     ///< which rep window the query was due in
  std::vector<bool> good;         ///< served, correct, within the SLO
  uint64_t attempted = 0;
  uint64_t wrong = 0;
  uint64_t refused = 0;  ///< rejected or shed
  uint64_t late = 0;
  // Layer observations over served queries.
  std::vector<double> queue_ms, exec_ms, submit_us, lag_ms;
  uint64_t morsels = 0;
  uint64_t rejected = 0, shed = 0, degraded = 0;
  uint64_t adaptive = 0, adaptive_hits = 0, switches = 0;
  uint64_t adaptive_morsels = 0, calibration_morsels = 0;
  /// Sum and count of execution cycles per input, by kind and policy
  /// (0 = kAmac, 1 = kSequential, 2 = kAdaptive).
  double cpi_sum[kNumKinds][3] = {};
  uint64_t cpi_n[kNumKinds][3] = {};
};

class Server {
 public:
  /// `shedding`: bound the pending queue and shed expired queries.
  Server(const Sizes& z, const Data& d, const std::vector<Expect>& oracle,
         bool shedding)
      : z_(z), d_(d), oracle_(oracle), sched_(Options(shedding)) {}

  static amac::QuerySchedulerOptions Options(bool shedding) {
    amac::QuerySchedulerOptions o;
    o.num_workers = kWorkers + 1;  // the pool's size() - 1 workers run morsels
    o.max_inflight_queries = kWorkers;
    o.order = amac::AdmissionOrder::kDeadline;
    o.max_pending = shedding ? 16 * kWorkers : 0;
    o.shed_expired = shedding;
    return o;
  }

  /// Offer `rate` queries/s for `duration` seconds; drains before
  /// returning.  Spans are recorded when `spans` is non-null.
  Phase Run(double rate, double duration, uint64_t seed, SpanRecorder* spans) {
    Phase ph;
    ph.duration = duration;
    ph.windows = std::max(1, static_cast<int>(duration / kWindowSeconds));
    spans_ = spans;
    const amac::ServingStats before = sched_.serving_stats();
    amac::ArrivalOptions arrivals_options;
    arrivals_options.kind = amac::ArrivalKind::kPoisson;
    arrivals_options.rate_qps = rate;
    arrivals_options.seed = seed;
    amac::ArrivalProcess arrivals(arrivals_options);
    amac::Rng mix(seed ^ 0x3141);
    std::deque<Issued> outstanding;
    const double t0 = NowSeconds();
    for (;;) {
      const double offset = arrivals.Next();
      if (offset >= duration) break;
      const double due = t0 + offset;
      // Until the query is due, retire completed queries in order.  The
      // generator sleeps, then spins the last kSpinSeconds: a sleep
      // overshoots by a variable amount on a virtual CPU, and that lag
      // would land in every latency, while spinning throughout would keep
      // a core busy that the workers and the host need.
      while (NowSeconds() < due) {
        if (!outstanding.empty() && sched_.Finished(outstanding.front().ticket)) {
          Complete(outstanding.front(), t0, &ph);
          outstanding.pop_front();
        } else if (due - NowSeconds() > kSpinSeconds) {
          std::this_thread::sleep_for(
              std::chrono::duration<double>(due - NowSeconds() - kSpinSeconds));
        } else {
          __builtin_ia32_pause();  // yield the core to a hyperthread sibling
        }
      }
      Issued q;
      q.kind = static_cast<int>(mix.NextBounded(kNumKinds));
      q.window = mix.NextBounded(z_.windows);
      const uint64_t p = mix.NextBounded(16);
      q.policy = p < 2 ? ExecPolicy::kAdaptive
                       : p < 9 ? ExecPolicy::kAmac : ExecPolicy::kSequential;
      amac::QueryOptions options;
      options.policy = q.policy;
      options.params = amac::SchedulerParams{kInflight, 1, 0};
      options.max_slots = 1;
      // Static policies serve a query as one morsel; the governor needs a
      // morsel stream to calibrate on, so kAdaptive derives its own.
      options.morsel_size = q.policy == ExecPolicy::kAdaptive ? 0 : z_.rows_per_query;
      options.deadline_seconds = z_.slo_seconds;
      if (q.kind == 4) {
        q.agg = std::make_shared<amac::AggregateTable>(
            z_.groups, amac::AggregateTable::Options{});
      }
      q.due = due;
      q.submit_start = NowSeconds();
      q.ticket = amac::Submit(sched_, KindPlan(d_, q.kind, q.window, q.agg.get()),
                              options);
      q.submit_end = NowSeconds();
      outstanding.push_back(std::move(q));
    }
    for (Issued& q : outstanding) {
      sched_.Wait(q.ticket);
      Complete(q, t0, &ph);
    }
    const amac::ServingStats after = sched_.serving_stats();
    ph.rejected = after.rejected - before.rejected;
    ph.shed = after.shed - before.shed;
    ph.degraded = after.degraded_queries - before.degraded_queries;
    return ph;
  }

 private:
  void Complete(const Issued& q, double t0, Phase* ph) {
    const amac::QueryStats st = sched_.Wait(q.ticket);
    ++ph->attempted;
    ph->lag_ms.push_back((q.submit_start - q.due) * 1e3);
    ph->submit_us.push_back((q.submit_end - q.submit_start) * 1e6);
    const int window = std::min<int>(
        ph->windows - 1, static_cast<int>((q.due - t0) / ph->duration * ph->windows));
    ph->window_of.push_back(window);
    const uint64_t query = next_query_++;
    if (st.outcome != QueryOutcome::kServed) {
      ++ph->refused;
      ph->latency_s.push_back(ph->duration);
      ph->good.push_back(false);
      if (spans_ != nullptr) {
        const int64_t server =
            spans_->Add("server", query, -1, q.submit_start, q.submit_end);
        spans_->Add("plan", query, server, q.submit_start, q.submit_end);
      }
      return;
    }
    const Expect& want = oracle_[static_cast<size_t>(q.kind) * z_.windows + q.window];
    const bool right =
        q.kind == 4
            ? q.agg->CountGroups() == want.rows && q.agg->Checksum() == want.checksum
            : st.run.outputs == want.rows && st.run.checksum == want.checksum;
    const double latency = (q.submit_start - q.due) + st.latency_seconds;
    const bool in_slo = latency <= z_.slo_seconds;
    ph->wrong += right ? 0 : 1;
    ph->late += in_slo ? 0 : 1;
    ph->latency_s.push_back(latency);
    ph->good.push_back(right && in_slo);
    ph->queue_ms.push_back(st.queue_seconds * 1e3);
    ph->exec_ms.push_back(st.run.seconds * 1e3);
    ph->morsels += st.run.morsels;
    const int slot = q.policy == ExecPolicy::kAmac ? 0
                     : q.policy == ExecPolicy::kSequential ? 1 : 2;
    ph->cpi_sum[q.kind][slot] += st.run.CyclesPerInput();
    ++ph->cpi_n[q.kind][slot];
    if (st.run.adaptive.active) {
      ++ph->adaptive;
      ph->adaptive_hits += st.run.adaptive.cache_hit ? 1 : 0;
      ph->switches += st.run.adaptive.tuning_switches;
      ph->adaptive_morsels += st.run.morsels;
      ph->calibration_morsels += st.run.adaptive.calibration_morsels;
    }
    if (spans_ != nullptr) {
      const double end = q.submit_start + st.latency_seconds;
      const int64_t server = spans_->Add("server", query, -1, q.submit_start, end);
      spans_->Add("plan", query, server, q.submit_start, q.submit_end);
      spans_->AddReported("engine", query, server, end, st.run.seconds);
    }
  }

  const Sizes& z_;
  const Data& d_;
  const std::vector<Expect>& oracle_;
  amac::QueryScheduler sched_;
  SpanRecorder* spans_ = nullptr;
  uint64_t next_query_ = 0;
};

/// Per-window values of `fn(latencies of the window)`, for medians over reps.
template <typename Fn>
std::vector<double> PerWindow(const Phase& ph, Fn fn) {
  std::vector<double> out;
  for (int w = 0; w < ph.windows; ++w) {
    std::vector<double> lat;
    uint64_t good = 0;
    for (size_t i = 0; i < ph.latency_s.size(); ++i) {
      if (ph.window_of[i] != w) continue;
      lat.push_back(ph.latency_s[i] * 1e3);
      good += ph.good[i] ? 1 : 0;
    }
    out.push_back(fn(lat, good));
  }
  return out;
}

void Merge(const Phase& from, Phase* into) {
  auto append = [](std::vector<double>* a, const std::vector<double>& b) {
    a->insert(a->end(), b.begin(), b.end());
  };
  append(&into->queue_ms, from.queue_ms);
  append(&into->exec_ms, from.exec_ms);
  append(&into->submit_us, from.submit_us);
  append(&into->lag_ms, from.lag_ms);
  into->morsels += from.morsels;
  into->rejected += from.rejected;
  into->shed += from.shed;
  into->degraded += from.degraded;
  into->adaptive += from.adaptive;
  into->adaptive_hits += from.adaptive_hits;
  into->switches += from.switches;
  into->adaptive_morsels += from.adaptive_morsels;
  into->calibration_morsels += from.calibration_morsels;
  for (int k = 0; k < kNumKinds; ++k) {
    for (int p = 0; p < 3; ++p) {
      into->cpi_sum[k][p] += from.cpi_sum[k][p];
      into->cpi_n[k][p] += from.cpi_n[k][p];
    }
  }
}

/// Geometric mean over kinds of adaptive cycles/input over the better of
/// the two static policies' cycles/input.
double OverBestStatic(const Phase& ph) {
  double log_sum = 0;
  int n = 0;
  for (int k = 0; k < kNumKinds; ++k) {
    double best = 0;
    for (int p = 0; p < 2; ++p) {
      if (ph.cpi_n[k][p] == 0) continue;
      const double cpi = ph.cpi_sum[k][p] / static_cast<double>(ph.cpi_n[k][p]);
      best = best == 0 ? cpi : std::min(best, cpi);
    }
    if (best <= 0 || ph.cpi_n[k][2] == 0) continue;
    const double adaptive = ph.cpi_sum[k][2] / static_cast<double>(ph.cpi_n[k][2]);
    log_sum += std::log(adaptive / best);
    ++n;
  }
  return n == 0 ? 0 : std::exp(log_sum / n);
}

}  // namespace

void RunServe(const Args& args, Report& report) {
  const Sizes z = SizesFor(args.size);
  constexpr int kSetupReps = 21;
  Data d;
  const std::vector<double> setup_s =
      TimeSetup(kSetupReps, &d, [&] { return Setup(z, args.seed); });
  const std::vector<Expect> oracle = ComputeOracle(d, z, args.corrupt_oracle);
  // One scheduler per rate (see the top of this file); each is warmed at
  // its own rate first, which calibrates its governor and warms caches.
  // Wrong warm-up results count; refusals there do not.
  Server queued(z, d, oracle, /*shedding=*/false);
  Server shedding(z, d, oracle, /*shedding=*/true);
  uint64_t wrong = 0;
  auto warm_up = [&](Server& server, double rate) {
    const Phase warm = server.Run(rate, z.warmup_seconds, args.seed ^ 0x77, nullptr);
    report.Count(warm.attempted, warm.wrong);
    wrong += warm.wrong;
  };

  // Rate 1 queues every query, so a wrong or unserved reply is a failed
  // operation; a late one shows in the latency percentiles (and in the
  // late.r1 detail).  Rate 2 is deliberate overload: its refusals and late
  // replies are what goodput measures, so only wrong results fail.
  auto count_r1 = [&](const Phase& ph) {
    report.Count(ph.attempted, ph.wrong + ph.refused);
    wrong += ph.wrong;
  };
  auto count_r2 = [&](const Phase& ph) {
    report.Count(ph.attempted, ph.wrong);
    wrong += ph.wrong;
  };
  auto check_wrong = [&] {
    if (wrong > 0) {
      report.Fail(std::to_string(wrong) + " query results differ from the oracle");
    }
  };
  auto p50 = [](const std::vector<double>& lat, uint64_t) { return Percentile(lat, 0.50); };
  auto p99 = [](const std::vector<double>& lat, uint64_t) { return Percentile(lat, 0.99); };

  if (!args.trace) {
    // Latency percentiles need more of the run than goodput does.
    const double phase1 = args.seconds * 0.6;
    const double phase2 = args.seconds * 0.3;
    warm_up(queued, z.rate1);
    const Phase r1 = queued.Run(z.rate1, phase1, args.seed ^ 0x11, nullptr);
    warm_up(shedding, z.rate2);
    const Phase r2 = shedding.Run(z.rate2, phase2, args.seed ^ 0x22, nullptr);
    count_r1(r1);
    count_r2(r2);
    check_wrong();
    const double window_s = phase2 / r2.windows;
    const auto goodput = PerWindow(r2, [&](const std::vector<double>&, uint64_t good) {
      return static_cast<double>(good) / window_s;
    });
    report.Metric("setup_s", Median(setup_s), "s");
    report.Metric("peak_rss_mib", PeakRssMib(), "MiB");
    report.Metric("lat_p50_ms", Median(PerWindow(r1, p50)), "ms");
    report.Metric("lat_p99_ms", Median(PerWindow(r1, p99)), "ms");
    report.Metric("mrows_per_s",
                  Median(goodput) * static_cast<double>(z.rows_per_query) / 1e6,
                  "Mrows/s");
    report.Samples("setup_s", setup_s.size());
    report.Samples("lat_ms", r1.latency_s.size());
    report.Samples("mrows_per_s", r2.latency_s.size());
    report.Detail("goodput_qps.r2", Median(goodput));
    report.Detail("rate_qps.r1", z.rate1);
    report.Detail("rate_qps.r2", z.rate2);
    report.Detail("slo_ms", z.slo_seconds * 1e3);
    report.Detail("refused.r2", static_cast<double>(r2.refused));
    report.Detail("late.r1", static_cast<double>(r1.late));
    report.Detail("late.r2", static_cast<double>(r2.late));
    return;
  }

  // Traced run: rate 1 untraced then traced (their difference is the
  // tracing overhead), then rate 2 traced for the overload layer numbers.
  SpanRecorder spans;
  const double phase = args.seconds / 3;
  warm_up(queued, z.rate1);
  const Phase plain = queued.Run(z.rate1, phase, args.seed ^ 0x11, nullptr);
  const Phase t1 = queued.Run(z.rate1, phase, args.seed ^ 0x11, &spans);
  warm_up(shedding, z.rate2);
  const Phase t2 = shedding.Run(z.rate2, phase, args.seed ^ 0x22, &spans);
  count_r1(plain);
  count_r1(t1);
  count_r2(t2);
  check_wrong();
  Phase all;
  Merge(t1, &all);
  Merge(t2, &all);

  ReportPerLayerDefaults(report);
  ReportServer(all.queue_ms, all.exec_ms, all.submit_us, all.morsels, report);
  report.Metric("server.rejected", static_cast<double>(all.rejected), "count");
  report.Metric("server.shed", static_cast<double>(all.shed), "count");
  report.Metric("server.degraded", static_cast<double>(all.degraded), "count");
  report.Metric("loadgen.lag_ms.p99", Percentile(all.lag_ms, 0.99), "ms");
  report.Metric("loadgen.lag_ms.max", Percentile(all.lag_ms, 1.0), "ms");
  const double adaptive = static_cast<double>(std::max<uint64_t>(1, all.adaptive));
  report.Metric("adaptive.cache_hit_share",
                static_cast<double>(all.adaptive_hits) / adaptive, "share");
  report.Metric("adaptive.calibration_morsel_share",
                static_cast<double>(all.calibration_morsels) /
                    static_cast<double>(std::max<uint64_t>(1, all.adaptive_morsels)),
                "share");
  report.Metric("adaptive.switches", static_cast<double>(all.switches), "count");
  report.Metric("adaptive.over_best_static", OverBestStatic(all), "ratio");
  const double untraced = Median(PerWindow(plain, p50));
  report.Metric("trace.overhead_pct",
                untraced > 0
                    ? 100.0 * (Median(PerWindow(t1, p50)) - untraced) / untraced
                    : 0,
                "%");
  ReportSpans(args, spans, t1.attempted + t2.attempted, report);
}

}  // namespace perfbench
