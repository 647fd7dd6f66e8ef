// Run arguments, operation accounting and the named-metric report every
// workload fills in.  The report prints three JSON lines on stdout: the
// environment stamp, the sample counts behind each metric, and — always
// last — the result object {correct, attempted, failed, metrics}.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Input sizes.  kFull is the benchmark; kTiny is a seconds-long smoke
/// size for the benchmark's own tests.
enum class Size { kFull, kTiny };

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Size size = Size::kFull;
  /// Test hook: perturb every oracle so each checked operation must be
  /// counted as failed.
  bool corrupt_oracle = false;
  /// Where a trace run writes its spans (Chrome trace-event JSON).
  std::string spans_path;
};

class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Number of samples behind a metric (latency percentiles, reps).
  void Samples(const std::string& name, uint64_t count);
  void Env(const std::string& key, const std::string& value);
  void Env(const std::string& key, double value);
  /// A named figure printed beside the sample counts, outside the result.
  void Detail(const std::string& key, double value);

  /// Count `attempted` operations of which `failed` failed: a wrong
  /// result, or a refused or shed query where every query must be served.
  void Count(uint64_t attempted, uint64_t failed);
  /// An output is wrong (a result differs from its oracle, a final state
  /// from its replay, a ladder rung from its family): the run is not
  /// correct.
  void Fail(const std::string& why);

  void Print() const;

 private:
  struct Value {
    double value;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  std::map<std::string, uint64_t> samples_;
  std::map<std::string, std::string> env_;
  std::map<std::string, double> detail_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 if empty.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// Seconds on a monotonic clock shared by every workload and the span
/// recorder.
double NowSeconds();

/// Peak resident set size of this process, MiB.
double PeakRssMib();

/// TSC ticks per second (measured once).
double TscHz();

/// Build `*data` `reps` times with `setup()`, freeing the previous copy
/// first; returns the seconds each build took.  The last copy stays.
template <typename Data, typename Setup>
std::vector<double> TimeSetup(int reps, Data* data, Setup setup) {
  std::vector<double> seconds;
  for (int rep = 0; rep < reps; ++rep) {
    *data = Data{};
    const double t0 = NowSeconds();
    *data = setup();
    seconds.push_back(NowSeconds() - t0);
  }
  return seconds;
}

}  // namespace perfbench
