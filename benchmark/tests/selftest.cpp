// Self-tests of the benchmark harness: the decorated census reproduces the
// plain one, and the statistics helpers behave on synthetic inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "bench_stats.hpp"
#include "common/rng.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using rfidbench::CensusSummary;

TEST(DecoratedCensus, MatchesRunExperimentForEveryWorkloadConfig) {
  rfidbench::Tracer tracer;
  for (auto [label, config] : rfidbench::censusConfigs()) {
    config.tagCount = std::max<std::size_t>(20, config.tagCount / 10);
    config.frameSize = std::max<std::size_t>(12, config.frameSize / 10);
    for (std::uint64_t seed : {1ull, 2ull, 20100913ull}) {
      config.seed = seed;
      const CensusSummary plain =
          CensusSummary::of(rfid::anticollision::runExperiment(config));
      const rfidbench::TracedCensus traced =
          rfidbench::runTracedCensus(config, seed, tracer, label);
      SCOPED_TRACE(label + " seed " + std::to_string(seed));
      EXPECT_EQ(traced.summary.digest(), plain.digest());
      EXPECT_EQ(traced.summary.throughput, plain.throughput);
      EXPECT_GT(plain.slots(), 0u);
    }
  }
}

TEST(DecoratedCensus, FoldsCallsIntoTheRunSpan) {
  rfidbench::Tracer tracer;
  rfid::anticollision::ExperimentConfig config;
  config.protocol = rfid::anticollision::ProtocolKind::kBt;
  config.scheme = rfid::anticollision::SchemeKind::kCrcCd;
  config.tagCount = 50;
  (void)rfidbench::runTracedCensus(config, 7, tracer, "bt:0");
  const auto& spans = tracer.spans();
  ASSERT_EQ(spans.size(), 6u);
  EXPECT_EQ(spans[0].name, "bt:0");
  EXPECT_EQ(spans[0].parent, -1);
  const auto run = std::find_if(spans.begin(), spans.end(), [](const auto& s) {
    return s.name == "anticollision.run";
  });
  ASSERT_NE(run, spans.end());
  EXPECT_EQ(run->parent, 0);
  const auto& superpose =
      run->folds[static_cast<std::size_t>(rfidbench::Op::kSuperpose)];
  EXPECT_GT(superpose.calls, 0u);
  EXPECT_LE(run->foldedNs(), run->durationNs());
}

TEST(Percentile, TailNeedsTenSamplesBeyond) {
  std::vector<double> v(999);
  std::iota(v.begin(), v.end(), 0.0);
  EXPECT_FALSE(rfidbench::reportablePercentile(v, 99.0).has_value());
  v.push_back(999.0);
  const auto p99 = rfidbench::reportablePercentile(v, 99.0);
  ASSERT_TRUE(p99.has_value());
  EXPECT_NEAR(*p99, 989.01, 1e-9);

  std::vector<double> small(19, 1.0);
  EXPECT_FALSE(rfidbench::reportablePercentile(small, 50.0).has_value());
  small.push_back(3.0);
  EXPECT_EQ(rfidbench::reportablePercentile(small, 50.0), 1.0);
}

TEST(Percentile, InfiniteTailStaysInfinite) {
  std::vector<double> v(1000, 1.0);
  std::fill(v.end() - 20, v.end(), std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isinf(*rfidbench::reportablePercentile(v, 99.0)));
}

TEST(QuietBlocks, SkipADisturbedStretch) {
  // Ten blocks of ten samples; blocks 0-6 run slow, block 7 is quietest
  // and holds one stall, which its median ignores.
  std::vector<double> v(100, 5.0);
  std::fill(v.begin() + 70, v.begin() + 80, 3.0);
  std::fill(v.begin() + 80, v.end(), 4.0);
  v[75] = 50.0;
  EXPECT_EQ(rfidbench::quietMedian(v, 10), 3.0);
  EXPECT_EQ(rfidbench::quietMedian({1.0, 2.0}, 10), 1.0);

  // One unit of work per sample. The stall costs block 7 its rate, so
  // block 8 (10 samples in 40) is fastest; without it block 7 is.
  const std::vector<double> ones(v.size(), 1.0);
  EXPECT_DOUBLE_EQ(rfidbench::quietRate(ones, v, 10), 10.0 / 40.0);
  std::vector<double> fast = v;
  fast[75] = 3.0;
  EXPECT_DOUBLE_EQ(rfidbench::quietRate(ones, fast, 10), 10.0 / 30.0);
}

TEST(SloSearch, FindsThresholdWithinResolution) {
  int probes = 0;
  const double rate = rfidbench::maxRateUnderSlo(
      2000, 16000, 0.05, [&](double r) {
        ++probes;
        return r <= 7000;
      });
  EXPECT_LE(rate, 7000.0);
  EXPECT_GT(rate, 7000.0 / 1.05);
  EXPECT_LE(probes, 8);
}

TEST(SloSearch, CapsAtCeilingAndMovesBelowFloor) {
  EXPECT_EQ(rfidbench::maxRateUnderSlo(2000, 16000, 0.05,
                                       [](double) { return true; }),
            16000.0);
  const double low = rfidbench::maxRateUnderSlo(
      2000, 16000, 0.05, [](double r) { return r <= 600; }, false);
  EXPECT_LE(low, 600.0);
  EXPECT_GT(low, 600.0 / 1.05);
  EXPECT_EQ(rfidbench::maxRateUnderSlo(2000, 16000, 0.05,
                                       [](double) { return false; }),
            125.0);
}

/// One FIFO server with a fixed service time fed by Poisson arrivals, as
/// the service's load point would record it.
rfidbench::LoadPoint fifoQueue(double serviceMs, double ratePerSec) {
  rfid::common::Rng rng(3);
  rfidbench::LoadPoint point;
  double arrival = 0.0, freeAt = 0.0;
  std::vector<double> done;
  for (int i = 0; i < 20000; ++i) {
    arrival += -std::log(1.0 - rng.real()) * 1000.0 / ratePerSec;
    freeAt = std::max(freeAt, arrival) + serviceMs;
    point.sojournMs.push_back(freeAt - arrival);
    done.push_back(freeAt);
  }
  const auto byLastArrival = static_cast<double>(
      std::count_if(done.begin(), done.end(),
                    [&](double t) { return t <= arrival; }));
  point.offeredPerSec = 20000.0 / (arrival / 1000.0);
  point.completedPerSec = byLastArrival / (arrival / 1000.0);
  return point;
}

TEST(SloSearch, FindsTheKneeOfAQueue) {
  const rfidbench::LoadPoint light = fifoQueue(1.0, 10);
  EXPECT_NEAR(light.offeredPerSec, 10.0, 0.3);
  EXPECT_TRUE(rfidbench::meetsSlo(light, 5.0));

  // Twice the server's capacity: the backlog grows, so the SLO fails on
  // throughput even with a lax latency bound.
  const rfidbench::LoadPoint over = fifoQueue(1.0, 2000);
  EXPECT_LT(over.completedPerSec, 0.6 * over.offeredPerSec);
  EXPECT_FALSE(rfidbench::meetsSlo(over, 1e9));

  // A 1 ms server saturates at 1000/s; a 5 ms p99 bound is met well before.
  const double knee = rfidbench::maxRateUnderSlo(100, 2000, 0.01, [](double r) {
    return rfidbench::meetsSlo(fifoQueue(1.0, r), 5.0);
  });
  EXPECT_GT(knee, 300.0);
  EXPECT_LT(knee, 1000.0);
}

TEST(LoadPoint, RejectionFailsTheSlo) {
  rfidbench::LoadPoint p;
  p.sojournMs.assign(1000, 1.0);
  p.offeredPerSec = p.completedPerSec = 100.0;
  EXPECT_TRUE(rfidbench::meetsSlo(p, 20.0));
  p.rejected = 1;
  EXPECT_FALSE(rfidbench::meetsSlo(p, 20.0));
}

TEST(CensusSummary, DigestCoversEveryOutcomeField) {
  CensusSummary a;
  a.idle = 3;
  a.airtimeMicros = 12.5;
  const std::string base = a.digest();
  EXPECT_EQ(base.size(), 16u);
  CensusSummary b = a;
  b.lost = 1;
  EXPECT_NE(b.digest(), base);
  b = a;
  b.airtimeMicros = std::nextafter(12.5, 13.0);
  EXPECT_NE(b.digest(), base);
  b = a;
  b.throughput = 0.5;  // derived from the census, so not digested
  EXPECT_EQ(b.digest(), base);
}

}  // namespace
