#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "common/cycle_timer.h"

namespace perfbench {
namespace {

std::string Number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    Fail("metric " + name + " is not finite");
    value = 0;
  }
  metrics_[name] = Value{value, unit};
}

void Report::Samples(const std::string& name, uint64_t count) {
  samples_[name] = count;
}

void Report::Env(const std::string& key, const std::string& value) {
  env_[key] = Quote(value);
}

void Report::Env(const std::string& key, double value) {
  env_[key] = Number(value);
}

void Report::Detail(const std::string& key, double value) {
  detail_[key] = value;
}

void Report::Count(uint64_t attempted, uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::Fail(const std::string& why) {
  std::fprintf(stderr, "perfbench: FAIL: %s\n", why.c_str());
  failures_.push_back(why);
}

void Report::Print() const {
  std::string env = "{\"env\": {";
  bool first = true;
  for (const auto& [key, value] : env_) {
    env += (first ? "" : ", ") + Quote(key) + ": " + value;
    first = false;
  }
  env += "}}";
  std::string samples = "{\"samples\": {";
  first = true;
  for (const auto& [key, count] : samples_) {
    samples += (first ? "" : ", ") + Quote(key) + ": " + std::to_string(count);
    first = false;
  }
  samples += "}, \"detail\": {";
  first = true;
  for (const auto& [key, value] : detail_) {
    samples += (first ? "" : ", ") + Quote(key) + ": " + Number(value);
    first = false;
  }
  samples += "}}";
  std::string metrics;
  first = true;
  for (const auto& [key, v] : metrics_) {
    metrics += (first ? "" : ", ") + Quote(key) + ": {\"value\": " +
               Number(v.value) + ", \"unit\": " + Quote(v.unit) + "}";
    first = false;
  }
  const bool correct = failures_.empty() && attempted_ > 0;
  std::printf("%s\n%s\n", env.c_str(), samples.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(std::max<uint64_t>(attempted_, 1)),
      static_cast<unsigned long long>(failed_), metrics.c_str());
  std::fflush(stdout);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double NowSeconds() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double TscHz() {
  static const double hz = amac::EstimateTscHz();
  return hz;
}

}  // namespace perfbench
