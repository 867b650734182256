// Query Tree and Adaptive Query Splitting: deterministic identification,
// prefix mechanics, starvation-freedom, and AQS's cross-round reuse.
#include "anticollision/aqs.hpp"
#include "anticollision/qt.hpp"

#include <gtest/gtest.h>

#include "helpers.hpp"
#include "phy/channel.hpp"
#include "tags/population.hpp"

namespace {

using rfid::anticollision::AdaptiveQuerySplitting;
using rfid::anticollision::Prefix;
using rfid::anticollision::QueryTree;
using rfid::testing::Harness;

Harness idealHarness(std::size_t tagCount, std::uint64_t seed) {
  return Harness(tagCount, seed,
                 std::make_unique<rfid::core::IdealScheme>(
                     rfid::phy::AirInterface{}));
}

void resetRound(std::vector<rfid::tags::Tag>& tags) {
  for (auto& t : tags) {
    t.resetForRound();
  }
}

TEST(Prefix, ChildrenAndParent) {
  const Prefix p{0b10, 2};
  EXPECT_EQ(p.child(0).value, 0b100u);
  EXPECT_EQ(p.child(1).value, 0b101u);
  EXPECT_EQ(p.child(0).length, 3u);
  EXPECT_EQ(p.child(1).parent(), p);
}

TEST(Qt, IdentifiesAllTags) {
  for (const std::size_t n : {1u, 2u, 33u, 200u}) {
    Harness h(n, 51);
    QueryTree qt;
    EXPECT_TRUE(qt.run(h.engine, h.tags, h.rng)) << n << " tags";
    EXPECT_EQ(h.believed(), n) << n << " tags";
  }
}

TEST(Qt, DeterministicSlotCountUnderOracle) {
  // QT's slot sequence is a function of the ID set only; two runs over the
  // same population must match exactly.
  Harness a = idealHarness(100, 52);
  Harness b = idealHarness(100, 52);
  QueryTree qt;
  EXPECT_TRUE(qt.run(a.engine, a.tags, a.rng));
  EXPECT_TRUE(qt.run(b.engine, b.tags, b.rng));
  EXPECT_EQ(a.metrics.detectedCensus().total(),
            b.metrics.detectedCensus().total());
}

TEST(Qt, StarvationFree) {
  // Every tag is identified in bounded time — the property FSAs lack (§II).
  Harness h = idealHarness(256, 53);
  QueryTree qt;
  EXPECT_TRUE(qt.run(h.engine, h.tags, h.rng));
  for (const auto& t : h.tags) {
    EXPECT_TRUE(t.correctlyIdentified);
    // No tag waits longer than the whole procedure (trivially true) and
    // every delay is positive.
    EXPECT_GT(t.identifiedAtMicros, 0.0);
  }
}

TEST(Qt, SlotCountScalesLinearly) {
  // Theory: QT visits < 2.9n nodes on random IDs.
  Harness h = idealHarness(1000, 54);
  QueryTree qt;
  EXPECT_TRUE(qt.run(h.engine, h.tags, h.rng));
  EXPECT_LT(h.metrics.detectedCensus().total(), 3000u);
  EXPECT_GE(h.metrics.detectedCensus().total(), 1000u);
}

TEST(Qt, EmptyPopulation) {
  Harness h(0, 55);
  QueryTree qt;
  EXPECT_TRUE(qt.run(h.engine, h.tags, h.rng));
  // The root query still costs one (idle) slot.
  EXPECT_EQ(h.metrics.detectedCensus().total(), 1u);
  EXPECT_EQ(h.metrics.detectedCensus().idle, 1u);
}

TEST(Aqs, FirstRoundMatchesQtBehaviour) {
  Harness h = idealHarness(120, 56);
  AdaptiveQuerySplitting aqs;
  EXPECT_TRUE(aqs.run(h.engine, h.tags, h.rng));
  EXPECT_EQ(h.believed(), 120u);
  EXPECT_FALSE(aqs.candidates().empty());
}

TEST(Aqs, SecondRoundOverSamePopulationHasNoCollisions) {
  Harness h = idealHarness(100, 57);
  AdaptiveQuerySplitting aqs;
  EXPECT_TRUE(aqs.run(h.engine, h.tags, h.rng));
  const std::uint64_t firstSlots = h.metrics.detectedCensus().total();

  resetRound(h.tags);
  rfid::sim::Metrics second;
  rfid::sim::SlotEngine engine2(*h.scheme, *h.channel, second);
  EXPECT_TRUE(aqs.run(engine2, h.tags, h.rng));
  EXPECT_EQ(h.believed(), 100u);
  EXPECT_EQ(second.detectedCensus().collided, 0u);
  EXPECT_LT(second.detectedCensus().total(), firstSlots);
}

TEST(Aqs, IdleSiblingsMergeIntoParent) {
  // After a round, no two candidates should be mergeable idle siblings; we
  // validate indirectly: candidate count stays bounded by ~2n.
  Harness h = idealHarness(64, 58);
  AdaptiveQuerySplitting aqs;
  EXPECT_TRUE(aqs.run(h.engine, h.tags, h.rng));
  EXPECT_LE(aqs.candidates().size(), 2u * 64u);
}

TEST(Aqs, AbsorbsArrivalsWithLimitedExtraWork) {
  Harness h = idealHarness(80, 59);
  AdaptiveQuerySplitting aqs;
  EXPECT_TRUE(aqs.run(h.engine, h.tags, h.rng));

  resetRound(h.tags);
  rfid::common::Rng arrivalRng(5959);
  auto arrivals = rfid::tags::makeUniformPopulation(20, 64, arrivalRng);
  for (auto& t : arrivals) {
    h.tags.push_back(std::move(t));
  }
  rfid::sim::Metrics second;
  rfid::sim::SlotEngine engine2(*h.scheme, *h.channel, second);
  EXPECT_TRUE(aqs.run(engine2, h.tags, h.rng));
  EXPECT_EQ(rfid::tags::countBelievedIdentified(h.tags), 100u);
  // Fewer slots than restarting QT from the root over 100 tags.
  Harness fresh = idealHarness(100, 60);
  QueryTree qt;
  EXPECT_TRUE(qt.run(fresh.engine, fresh.tags, fresh.rng));
  EXPECT_LT(second.detectedCensus().total(),
            fresh.metrics.detectedCensus().total() * 2);
}

TEST(Aqs, ResetAdaptationRestartsFromRoot) {
  Harness h = idealHarness(50, 61);
  AdaptiveQuerySplitting aqs;
  EXPECT_TRUE(aqs.run(h.engine, h.tags, h.rng));
  aqs.resetAdaptation();
  EXPECT_TRUE(aqs.candidates().empty());
}

TEST(QtAndAqs, CapAborts) {
  Harness h(100, 62);
  QueryTree qt(/*maxSlots=*/3);
  EXPECT_FALSE(qt.run(h.engine, h.tags, h.rng));
  Harness h2(100, 63);
  AdaptiveQuerySplitting aqs(/*maxSlots=*/3);
  EXPECT_FALSE(aqs.run(h2.engine, h2.tags, h2.rng));

  // Under capture, losers fall out of a walk and both protocols walk again;
  // every walk of one run draws on the run's one slot budget.
  const auto captureHarness = [] {
    return Harness(100, 2,
                   std::make_unique<rfid::core::CrcCdScheme>(
                       rfid::phy::AirInterface{}),
                   std::make_unique<rfid::phy::CaptureChannel>(0.5));
  };
  Harness h3 = captureHarness();
  QueryTree cappedQt(/*maxSlots=*/50);
  EXPECT_FALSE(cappedQt.run(h3.engine, h3.tags, h3.rng));
  EXPECT_LE(h3.metrics.detectedCensus().total(), 50u);
  Harness h4 = captureHarness();
  AdaptiveQuerySplitting cappedAqs(/*maxSlots=*/50);
  EXPECT_FALSE(cappedAqs.run(h4.engine, h4.tags, h4.rng));
  EXPECT_LE(h4.metrics.detectedCensus().total(), 50u);
}

}  // namespace
