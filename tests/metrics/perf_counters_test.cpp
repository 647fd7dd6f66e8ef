// perf_event wrapper tests: must behave sanely whether or not the kernel
// grants counter access (containers usually deny it).
#include "metrics/perf_counters.h"

#include <gtest/gtest.h>

namespace amac {
namespace {

TEST(PerfCountersTest, ConstructsWithoutCrashing) {
  PerfCounters counters;
  // Availability is environment-dependent; both outcomes are legal.
  SUCCEED() << "available=" << counters.available();
}

TEST(PerfCountersTest, StartStopAlwaysSafe) {
  PerfCounters counters;
  counters.Start();
  volatile uint64_t sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  const PerfCounters::Sample sample = counters.Stop();
  EXPECT_EQ(sample.valid, counters.available());
}

TEST(PerfCountersTest, CountsWorkWhenAvailable) {
  PerfCounters counters;
  if (!counters.available()) {
    GTEST_SKIP() << "perf_event_open not permitted in this environment";
  }
  counters.Start();
  volatile uint64_t sink = 0;
  for (int i = 0; i < 1000000; ++i) sink = sink + i;
  const PerfCounters::Sample sample = counters.Stop();
  EXPECT_TRUE(sample.valid);
  EXPECT_GT(sample.instructions, 1000000u);  // at least the loop body
}

TEST(PerfCountersTest, LargerWorkCountsMoreInstructions) {
  PerfCounters counters;
  if (!counters.available()) {
    GTEST_SKIP() << "perf_event_open not permitted in this environment";
  }
  auto measure = [&](int iters) {
    counters.Start();
    volatile uint64_t sink = 0;
    for (int i = 0; i < iters; ++i) sink = sink + i;
    return counters.Stop().instructions;
  };
  const uint64_t small = measure(100000);
  const uint64_t large = measure(1000000);
  EXPECT_GT(large, small);
}

}  // namespace
}  // namespace amac
