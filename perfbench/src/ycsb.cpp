// ycsb-write: closed-loop YCSB-A beside insert/erase churn.
//
// Two client threads each submit one query and wait for its reply before
// the next, beside one scheduler worker: three busy threads on four cores.
// (With a fourth busy thread, a preempted latch holder stalled the others
// for milliseconds and throughput swung 3x run to run.)
// Seven queries in eight are YCSB-A batches over a 4 Mi-key
// ConcurrentChainedTable (192 MiB with its first overflow slab, beyond a
// 105 MiB LLC): half read batches (ConcurrentFindOp), half update batches
// (UpsertOp), keys Zipf(0.99).  The eighth is churn: each client cycles
// through inserting its churn key batch into the table, into a skiplist
// (SkipInsertOp), then erasing it from both (EraseOp, SkipEraseOp), so
// epoch reclamation runs on every run.  Every query is
// Submit(scheduler, Plan::FromOp(...)).
//
// Checks: reads validate online (a payload is its key's loaded or updated
// value, and no read misses); after the drain the table and the skiplist
// must equal a sequential replay of each client's consumed query stream,
// and every retired node must be reclaimed.
#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <utility>

#include "common/zipf.h"
#include "epoch/epoch.h"
#include "hashtable/concurrent_ops.h"
#include "hashtable/concurrent_table.h"
#include "plan/plan.h"
#include "server/query_scheduler.h"
#include "skiplist/skiplist.h"
#include "skiplist/skiplist_write_ops.h"
#include "workloads.h"

namespace perfbench {
namespace {

using amac::QueryOutcome;
using amac::Tuple;

struct Sizes {
  uint64_t keys;
  uint64_t batch;          ///< operations per query
  uint64_t trace_queries;  ///< per client; the stream wraps around
  uint64_t skip_preload;
  uint64_t skip_capacity;
};

Sizes SizesFor(Size size) {
  if (size == Size::kTiny) return Sizes{1 << 12, 32, 256, 1 << 10, 1 << 15};
  return Sizes{1 << 22, 256, 2048, 1 << 16, 1 << 22};
}

constexpr uint32_t kClients = 2;
constexpr uint32_t kWorkers = 1;
constexpr uint32_t kInflight = 8;
constexpr double kZipfTheta = 0.99;
constexpr int kReps = 5;  ///< time slices the metrics take medians over
constexpr double kWarmupSeconds = 0.3;
/// Per client; about 3x the rate measured when the benchmark was defined.
constexpr uint64_t kMaxQueriesPerSecond = 64 * 1024;

int64_t LoadVal(int64_t key) { return key * 2; }
int64_t UpVal(int64_t key) { return key * 2 + 1; }
int64_t ChurnVal(int64_t key) { return key ^ 0x3c3c; }

enum Kind : uint8_t { kRead, kUpdate, kChurn };
enum ChurnStep : uint8_t { kTableInsert, kListInsert, kTableErase, kListErase };

/// Churn keys lie beyond the YCSB key range, one set per client, reused
/// by every cycle: erased slots and nodes are compacted and recycled, so
/// memory stays flat however long a run lasts.
int64_t ChurnKey(uint32_t client, uint64_t i) {
  return (int64_t{1} << 40) + (static_cast<int64_t>(client) << 34) +
         static_cast<int64_t>(i);
}

/// Folds a write op's WriteStats in when the op is destroyed (the
/// scheduler owns the op; this is how its counts get out).
struct WriteTally {
  std::atomic<uint64_t> inserts{0}, updates{0}, erases{0};
  void Add(const amac::WriteStats& w) {
    inserts += w.inserts;
    updates += w.updates;
    erases += w.erases;
  }
};

template <typename Op>
class Counted : public Op {
 public:
  template <typename... A>
  explicit Counted(WriteTally* tally, A&&... a)
      : Op(std::forward<A>(a)...), tally_(tally) {}
  Counted(Counted&& other) noexcept
      : Op(std::move(other)), tally_(std::exchange(other.tally_, nullptr)) {}
  Counted(const Counted&) = delete;
  Counted& operator=(const Counted&) = delete;
  Counted& operator=(Counted&&) = delete;
  ~Counted() {
    if (tally_ != nullptr) tally_->Add(this->writes());
  }

 private:
  WriteTally* tally_;
};

/// Read sink: a hit must carry its key's loaded or updated value, and no
/// YCSB key is ever erased, so a miss is wrong too.
struct ReadCheck {
  const int64_t* keys;
  uint64_t bad = 0;
  void Emit(uint64_t rid, int64_t payload) {
    const int64_t k = keys[rid];
    bad += payload == LoadVal(k) || payload == UpVal(k) ? 0 : 1;
  }
  void Miss(uint64_t) { ++bad; }
};

struct Stream {
  std::vector<Kind> kinds;
  std::vector<int64_t> keys;      ///< batch keys per query
  std::vector<int64_t> payloads;  ///< UpVal(key), for update queries
};

Stream MakeStream(const Sizes& z, uint64_t seed) {
  Stream s;
  amac::ZipfGenerator zipf(z.keys, kZipfTheta, seed);
  amac::Rng rng(seed ^ 0x7a);
  for (uint64_t q = 0; q < z.trace_queries; ++q) {
    const uint64_t r = rng.NextBounded(16);
    s.kinds.push_back(r < 2 ? kChurn : r < 9 ? kRead : kUpdate);
  }
  for (uint64_t i = 0; i < z.trace_queries * z.batch; ++i) {
    const int64_t key = static_cast<int64_t>(zipf.Next());
    s.keys.push_back(key);
    s.payloads.push_back(UpVal(key));
  }
  return s;
}

struct Data {
  std::unique_ptr<amac::EpochManager> epochs;
  std::unique_ptr<amac::ConcurrentChainedTable> table;
  std::unique_ptr<amac::SkipList> list;
  std::vector<Stream> streams;
};

Data Setup(const Sizes& z, uint64_t seed) {
  Data d;
  d.epochs = std::make_unique<amac::EpochManager>();
  d.table = std::make_unique<amac::ConcurrentChainedTable>(z.keys, d.epochs.get());
  d.list = std::make_unique<amac::SkipList>(z.skip_capacity);
  {
    amac::EpochGuard guard(d.epochs.get());
    for (int64_t k = 1; k <= static_cast<int64_t>(z.keys); ++k) {
      d.table->Upsert(k, LoadVal(k), guard);
    }
  }
  amac::Rng rng(0x5b);  // tower heights: same skiplist shape for every seed
  for (int64_t k = 1; k <= static_cast<int64_t>(z.skip_preload); ++k) {
    d.list->InsertUnsync(k, LoadVal(k), rng);
  }
  for (uint32_t c = 0; c < kClients; ++c) {
    d.streams.push_back(MakeStream(z, seed ^ (0x1000 + c)));
  }
  return d;
}

/// One completed query as its client saw it.
struct Done {
  double start = 0;
  double end = 0;
  uint64_t ops = 0;
  bool traced = false;
};

/// What each client did; merged after the clients join.
struct ClientLog {
  std::vector<Done> done;
  uint64_t consumed = 0;     ///< stream queries taken, wrapping included
  uint64_t churn_steps = 0;  ///< churn queries issued
  uint64_t failed = 0;  ///< not served
  uint64_t wrong = 0;   ///< a read saw a payload no write produced
  std::vector<double> queue_ms, exec_ms, submit_us;
  uint64_t morsels = 0;
  uint64_t table_write_ops = 0;
  uint64_t table_write_retries = 0;
};

class Ycsb {
 public:
  Ycsb(const Sizes& z, Data& d)
      : z_(z), d_(d), sched_(Options()) {
    amac::EpochManager* epochs = d.epochs.get();
    sched_.pool().SetIdleTask([epochs] { epochs->AdvanceAndReclaim(); });
  }

  static amac::QuerySchedulerOptions Options() {
    amac::QuerySchedulerOptions o;
    o.num_workers = kWorkers + 1;  // size() - 1 pool workers; clients pump too
    return o;
  }

  /// Run the clients for `seconds`; queries completing after `trace_from`
  /// (NowSeconds) record spans into `spans` when it is non-null.
  void Run(double seconds, double trace_from, SpanRecorder* spans) {
    std::atomic<bool> stop{false};
    logs_.assign(kClients, ClientLog{});
    // Room for every completion up front: growing the log by doubling
    // would make peak RSS jump with throughput.
    for (ClientLog& log : logs_) {
      log.done.reserve(static_cast<size_t>(kMaxQueriesPerSecond * (seconds + 1)));
    }
    std::vector<std::thread> clients;
    for (uint32_t c = 0; c < kClients; ++c) {
      clients.emplace_back([this, c, &stop, trace_from, spans] {
        Client(c, stop, trace_from, spans);
      });
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop = true;
    for (std::thread& t : clients) t.join();
    sched_.Drain();
  }

  const std::vector<ClientLog>& logs() const { return logs_; }
  WriteTally& tally() { return tally_; }

  /// Compare the quiesced structures against a sequential replay of every
  /// client's consumed stream (`corrupt` perturbs the replay).  Returns an
  /// empty string when they match.
  std::string CheckFinalState(bool corrupt) const {
    const auto audit = d_.table->AuditQuiesced();
    if (!audit.ok) return "table audit failed";
    std::vector<uint8_t> updated(z_.keys + 1, 0);
    std::vector<Tuple> want_table, want_list;
    for (uint32_t c = 0; c < kClients; ++c) {
      const Stream& s = d_.streams[c];
      for (uint64_t q = 0; q < logs_[c].consumed; ++q) {
        const uint64_t i = q % z_.trace_queries;
        if (s.kinds[i] != kUpdate) continue;
        for (uint64_t j = 0; j < z_.batch; ++j) {
          updated[static_cast<uint64_t>(s.keys[i * z_.batch + j])] = 1;
        }
      }
      const uint64_t steps = logs_[c].churn_steps;
      if (steps == 0) continue;
      const uint64_t done_in_cycle = (steps - 1) % 4 + 1;
      for (uint64_t j = 0; j < z_.batch; ++j) {
        const int64_t key = ChurnKey(c, j);
        if (done_in_cycle == 1 || done_in_cycle == 2) {
          want_table.push_back(Tuple{key, ChurnVal(key)});
        }
        if (done_in_cycle == 2 || done_in_cycle == 3) {
          want_list.push_back(Tuple{key, ChurnVal(key)});
        }
      }
    }
    for (uint64_t k = 1; k <= z_.keys; ++k) {
      const int64_t key = static_cast<int64_t>(k);
      want_table.push_back(Tuple{key, updated[k] ? UpVal(key) : LoadVal(key)});
    }
    if (corrupt) want_table[0].payload ^= 1;
    for (uint64_t k = 1; k <= z_.skip_preload; ++k) {
      const int64_t key = static_cast<int64_t>(k);
      want_list.push_back(Tuple{key, LoadVal(key)});
    }
    auto by_key = [](const Tuple& a, const Tuple& b) { return a.key < b.key; };
    std::vector<Tuple> live;
    d_.table->CollectLive(&live);
    std::sort(live.begin(), live.end(), by_key);
    std::sort(want_table.begin(), want_table.end(), by_key);
    if (live != want_table) return "table state differs from the replay";
    std::vector<Tuple> list;
    d_.list->ForEach([&](const amac::SkipNode& n) {
      list.push_back(Tuple{n.key, n.payload});
    });
    std::sort(want_list.begin(), want_list.end(), by_key);
    if (list != want_list) return "skiplist state differs from the replay";
    return "";
  }

 private:
  void Client(uint32_t c, const std::atomic<bool>& stop, double trace_from,
              SpanRecorder* spans) {
    ClientLog& log = logs_[c];
    const Stream& s = d_.streams[c];
    std::vector<int64_t> churn_keys(z_.batch), churn_vals(z_.batch);
    for (uint64_t j = 0; j < z_.batch; ++j) {
      churn_keys[j] = ChurnKey(c, j);
      churn_vals[j] = ChurnVal(churn_keys[j]);
    }
    amac::QueryOptions options;
    options.policy = amac::ExecPolicy::kAmac;
    options.params = amac::SchedulerParams{kInflight, 1, 0};
    options.max_slots = 1;
    options.morsel_size = z_.batch;
    while (!stop.load(std::memory_order_relaxed)) {
      const uint64_t i = log.consumed++ % z_.trace_queries;
      const int64_t* keys = s.keys.data() + i * z_.batch;
      const int64_t* vals = s.payloads.data() + i * z_.batch;
      ReadCheck check{keys};
      amac::Plan plan;
      bool table_write = false;
      switch (s.kinds[i]) {
        case kRead:
          plan = amac::Plan::FromOp(z_.batch, [this, keys, &check](uint32_t) {
            return amac::ConcurrentFindOp<ReadCheck>(*d_.table, keys, check);
          });
          break;
        case kUpdate:
          table_write = true;
          plan = amac::Plan::FromOp(z_.batch, [this, keys, vals](uint32_t) {
            return Counted<amac::UpsertOp>(&tally_, *d_.table, keys, vals);
          });
          break;
        case kChurn: {
          const uint64_t step = log.churn_steps++;
          const int64_t* ck = churn_keys.data();
          const int64_t* cv = churn_vals.data();
          amac::SkipList* list = d_.list.get();
          amac::EpochManager* epochs = d_.epochs.get();
          switch (static_cast<ChurnStep>(step % 4)) {
            case kTableInsert:
              table_write = true;
              plan = amac::Plan::FromOp(z_.batch, [this, ck, cv](uint32_t) {
                return Counted<amac::UpsertOp>(&tally_, *d_.table, ck, cv);
              });
              break;
            case kListInsert:
              // The same tower heights every cycle, so the nodes the last
              // erase retired fit this insert exactly once reclaimed, and
              // the skiplist's slab stays flat.
              plan = amac::Plan::FromOp(
                  z_.batch, [this, list, epochs, ck, cv, c](uint32_t) {
                    return Counted<amac::SkipInsertOp>(&tally_, *list, epochs,
                                                       ck, cv, c);
                  });
              break;
            case kTableErase:
              table_write = true;
              plan = amac::Plan::FromOp(z_.batch, [this, ck](uint32_t) {
                return Counted<amac::EraseOp>(&tally_, *d_.table, ck);
              });
              break;
            case kListErase:
              plan = amac::Plan::FromOp(z_.batch, [this, list, epochs, ck](uint32_t) {
                return Counted<amac::SkipEraseOp>(&tally_, *list, epochs, ck);
              });
              break;
          }
          break;
        }
      }
      const double start = NowSeconds();
      const amac::QueryTicket ticket = amac::Submit(sched_, plan, options);
      const double submitted = NowSeconds();
      const amac::QueryStats st = sched_.Wait(ticket);
      const double end = NowSeconds();
      log.failed += st.outcome == QueryOutcome::kServed ? 0 : 1;
      log.wrong += check.bad == 0 ? 0 : 1;
      // Churn clients drive reclamation as a serving loop would: the pool's
      // idle hook alone runs only when a worker parks, which a busy
      // scheduler rarely does, and an orphan backlog would make every
      // insert allocate fresh nodes.
      if (s.kinds[i] == kChurn) d_.epochs->AdvanceAndReclaim();
      const bool traced = spans != nullptr && start >= trace_from;
      log.done.push_back(Done{start, end, z_.batch, traced});
      if (!traced) continue;
      log.queue_ms.push_back(st.queue_seconds * 1e3);
      log.exec_ms.push_back(st.run.seconds * 1e3);
      log.submit_us.push_back((submitted - start) * 1e6);
      log.morsels += st.run.morsels;
      if (table_write) {
        log.table_write_ops += z_.batch;
        log.table_write_retries += st.run.engine.retries;
      }
      const uint64_t query = (uint64_t{c} << 40) + log.consumed;
      const int64_t server = spans->Add("server", query, -1, start, end);
      spans->Add("plan", query, server, start, submitted);
      spans->AddReported("engine", query, server, end, st.run.seconds);
    }
  }

  const Sizes& z_;
  Data& d_;
  WriteTally tally_;
  std::vector<ClientLog> logs_;
  amac::QueryScheduler sched_;  // last: destroyed (drained) first
};

/// Per time slice of [from, to): Mops/s and latency percentiles over the
/// queries that completed in it.
struct Slices {
  std::vector<double> mops, p50_ms, p99_ms;
  uint64_t samples = 0;
};

Slices Slice(const std::vector<ClientLog>& logs, double from, double to,
             bool traced) {
  Slices out;
  const double width = (to - from) / kReps;
  std::vector<std::vector<double>> lat(kReps);
  std::vector<uint64_t> ops(kReps, 0);
  for (const ClientLog& log : logs) {
    for (const Done& q : log.done) {
      if (q.end < from || q.end >= to || q.traced != traced) continue;
      const int s = std::min(kReps - 1, static_cast<int>((q.end - from) / width));
      lat[s].push_back((q.end - q.start) * 1e3);
      ops[s] += q.ops;
      ++out.samples;
    }
  }
  for (int s = 0; s < kReps; ++s) {
    out.mops.push_back(static_cast<double>(ops[s]) / width / 1e6);
    out.p50_ms.push_back(Percentile(lat[s], 0.50));
    out.p99_ms.push_back(Percentile(lat[s], 0.99));
  }
  return out;
}

}  // namespace

void RunYcsb(const Args& args, Report& report) {
  const Sizes z = SizesFor(args.size);
  constexpr int kSetupReps = 3;
  Data d;
  const std::vector<double> setup_s =
      TimeSetup(kSetupReps, &d, [&] { return Setup(z, args.seed); });

  SpanRecorder spans;
  uint64_t retired = 0, reclaimed = 0;
  double peak_rss_mib = 0;
  Slices plain, traced;
  uint64_t attempted = 0, failed = 0;
  {
    Ycsb ycsb(z, d);
    const double run_s = std::max(0.5, args.seconds - kWarmupSeconds);
    const double begin = NowSeconds() + kWarmupSeconds;
    // A traced run spends its first half untraced and its second traced.
    const double trace_from = args.trace ? begin + run_s / 2 : 1e300;
    ycsb.Run(kWarmupSeconds + run_s, trace_from, args.trace ? &spans : nullptr);
    const double end = begin + run_s;
    plain = Slice(ycsb.logs(), begin, args.trace ? trace_from : end, false);
    if (args.trace) traced = Slice(ycsb.logs(), trace_from, end, true);
    uint64_t wrong = 0;
    for (const ClientLog& log : ycsb.logs()) {
      attempted += log.done.size();
      failed += log.failed + log.wrong;
      wrong += log.wrong;
    }
    if (wrong > 0) {
      report.Fail(std::to_string(wrong) + " read batches saw a wrong payload");
    }
    retired = d.epochs->retired();
    reclaimed = d.epochs->reclaimed();
    // Taken before the final-state check: the replay's copies of the table
    // are the oracle's memory, not the program's.
    peak_rss_mib = PeakRssMib();
    const std::string state = ycsb.CheckFinalState(args.corrupt_oracle);
    if (!state.empty()) {
      ++failed;
      report.Fail(state);
    }

    if (args.trace) {
      ReportPerLayerDefaults(report);
      ClientLog all;
      for (const ClientLog& log : ycsb.logs()) {
        all.queue_ms.insert(all.queue_ms.end(), log.queue_ms.begin(), log.queue_ms.end());
        all.exec_ms.insert(all.exec_ms.end(), log.exec_ms.begin(), log.exec_ms.end());
        all.submit_us.insert(all.submit_us.end(), log.submit_us.begin(), log.submit_us.end());
        all.morsels += log.morsels;
        all.table_write_ops += log.table_write_ops;
        all.table_write_retries += log.table_write_retries;
      }
      ReportServer(all.queue_ms, all.exec_ms, all.submit_us, all.morsels, report);
      report.Metric("hashtable.retries_per_op",
                    static_cast<double>(all.table_write_retries) /
                        static_cast<double>(std::max<uint64_t>(1, all.table_write_ops)),
                    "count");
      WriteTally& tally = ycsb.tally();
      report.Metric("writes.inserts", static_cast<double>(tally.inserts.load()), "count");
      report.Metric("writes.updates", static_cast<double>(tally.updates.load()), "count");
      report.Metric("writes.erases", static_cast<double>(tally.erases.load()), "count");
      const double untraced = Median(plain.mops);
      report.Metric("trace.overhead_pct",
                    Median(traced.mops) > 0
                        ? 100.0 * (untraced / Median(traced.mops) - 1.0)
                        : 0,
                    "%");
      ReportSpans(args, spans, traced.samples, report);
    }
  }  // scheduler destroyed: every op, and with it every epoch guard, is gone

  // Every retired node must be reclaimable once no guard is pinned.
  d.epochs->ReclaimAll();
  if (d.epochs->retired() != d.epochs->reclaimed()) {
    ++failed;
    report.Fail("epoch: retired != reclaimed after the drain");
  }
  report.Count(attempted, failed);

  if (args.trace) {
    report.Metric("epoch.retired", static_cast<double>(retired), "count");
    report.Metric("epoch.reclaimed", static_cast<double>(reclaimed), "count");
    report.Metric("epoch.unreclaimed_end", static_cast<double>(retired - reclaimed),
                  "count");
    return;
  }
  report.Metric("setup_s", Median(setup_s), "s");
  report.Metric("peak_rss_mib", peak_rss_mib, "MiB");
  report.Metric("mrows_per_s", Median(plain.mops), "Mrows/s");
  report.Metric("lat_p50_ms", Median(plain.p50_ms), "ms");
  report.Metric("lat_p99_ms", Median(plain.p99_ms), "ms");
  report.Samples("setup_s", setup_s.size());
  report.Samples("lat_ms", plain.samples);
  report.Samples("mrows_per_s", kReps);
}

}  // namespace perfbench
