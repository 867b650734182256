// Cardinality estimation: census inversion math, end-to-end estimation
// accuracy, read-only behaviour, and the QCD cost advantage.
#include "anticollision/cardinality.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <ios>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/require.hpp"
#include "helpers.hpp"
#include "phy/channel.hpp"

namespace {

using rfid::anticollision::CardinalityConfig;
using rfid::anticollision::CardinalityEstimator;
using rfid::anticollision::estimateCardinality;
using rfid::anticollision::invertCensus;
using rfid::common::PreconditionError;
using rfid::testing::Harness;

TEST(CardinalityInversion, ZeroEstimatorClosedForm) {
  // N0 = F·e^-rho; with F = 100 and N0 = 37 → rho = ln(100/37) ≈ 0.9943.
  const double est = invertCensus(CardinalityEstimator::kZero, 100, 37, 0, 63);
  EXPECT_NEAR(est, 100.0 * std::log(100.0 / 37.0), 1e-9);
}

TEST(CardinalityInversion, ZeroEstimatorEdgeCases) {
  // All idle → zero tags.
  EXPECT_DOUBLE_EQ(invertCensus(CardinalityEstimator::kZero, 64, 64, 0, 0),
                   0.0);
  // No idle slots → the inversion ceiling (64·F).
  EXPECT_DOUBLE_EQ(invertCensus(CardinalityEstimator::kZero, 64, 0, 0, 64),
                   64.0 * 64.0);
}

TEST(CardinalityInversion, SingletonEstimatorRecoversRho) {
  // N1/F = rho·e^-rho at rho = 0.5 → 0.3033.
  const auto single = static_cast<std::uint64_t>(
      std::llround(0.5 * std::exp(-0.5) * 1000.0));
  const double est = invertCensus(CardinalityEstimator::kSingleton, 1000,
                                  1000 - single, single, 0);
  EXPECT_NEAR(est, 500.0, 10.0);
}

TEST(CardinalityInversion, CollisionEstimatorRecoversRho) {
  // Nc/F = 1 − e^-rho(1+rho) at rho = 1 → 1 − 2/e ≈ 0.2642.
  const auto collided = static_cast<std::uint64_t>(
      std::llround((1.0 - 2.0 / std::exp(1.0)) * 1000.0));
  const double est = invertCensus(CardinalityEstimator::kCollision, 1000,
                                  1000 - collided, 0, collided);
  EXPECT_NEAR(est, 1000.0, 15.0);
}

TEST(CardinalityInversion, Validation) {
  EXPECT_THROW(invertCensus(CardinalityEstimator::kZero, 0, 0, 0, 0),
               PreconditionError);
  EXPECT_THROW(invertCensus(CardinalityEstimator::kZero, 10, 3, 3, 3),
               PreconditionError);
}

class CardinalityEndToEnd
    : public ::testing::TestWithParam<CardinalityEstimator> {};

TEST_P(CardinalityEndToEnd, EstimatesWithinTenPercent) {
  constexpr std::size_t kTags = 400;
  Harness h(kTags, 96);
  rfid::phy::OrChannel channel;
  CardinalityConfig cfg;
  cfg.estimator = GetParam();
  cfg.frameSize = 512;
  cfg.probeFrames = 24;
  const auto est =
      estimateCardinality(*h.scheme, channel, h.tags, cfg, h.rng);
  EXPECT_NEAR(est.estimate, static_cast<double>(kTags), 0.10 * kTags)
      << toString(GetParam());
  EXPECT_GT(est.probeSlots, 0u);
  EXPECT_GT(est.airtimeMicros, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Estimators, CardinalityEndToEnd,
                         ::testing::Values(CardinalityEstimator::kZero,
                                           CardinalityEstimator::kSingleton,
                                           CardinalityEstimator::kCollision),
                         [](const auto& paramInfo) {
                           std::string n = toString(paramInfo.param);
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

TEST(Cardinality, IsReadOnly) {
  Harness h(100, 97);
  rfid::phy::OrChannel channel;
  CardinalityConfig cfg;
  cfg.frameSize = 64;
  cfg.probeFrames = 4;
  (void)estimateCardinality(*h.scheme, channel, h.tags, cfg, h.rng);
  EXPECT_EQ(h.believed(), 0u);  // probing silences nobody
}

TEST(Cardinality, ProbeLeavesTagsAsFound) {
  // A probe sends no ACK: every field of every tag (the ID, its integer
  // view, both identification flags, the identification time and the
  // blocker flag) reads afterwards as it did before.
  for (const bool crc : {false, true}) {
    for (const double capture : {0.0, 0.5}) {
      const rfid::phy::AirInterface air;
      std::unique_ptr<rfid::core::DetectionScheme> scheme;
      if (crc) {
        scheme = std::make_unique<rfid::core::CrcCdScheme>(air);
      } else {
        scheme = std::make_unique<rfid::core::QcdScheme>(air, 8);
      }
      std::unique_ptr<rfid::phy::Channel> channel;
      if (capture > 0.0) {
        channel = std::make_unique<rfid::phy::CaptureChannel>(capture);
      } else {
        channel = std::make_unique<rfid::phy::OrChannel>();
      }
      Harness h(200, 43, std::move(scheme));
      const std::vector<rfid::tags::Tag> before = h.tags;
      CardinalityConfig cfg;
      cfg.frameSize = 128;
      cfg.probeFrames = 4;
      const auto est =
          estimateCardinality(*h.scheme, *channel, h.tags, cfg, h.rng);
      ASSERT_GT(est.probeSlots, 0u);
      std::size_t changed = 0;
      for (std::size_t i = 0; i < before.size(); ++i) {
        const rfid::tags::Tag& a = before[i];
        const rfid::tags::Tag& b = h.tags[i];
        if (b.id != a.id || b.idValue != a.idValue ||
            b.believesIdentified != a.believesIdentified ||
            b.correctlyIdentified != a.correctlyIdentified ||
            b.identifiedAtMicros != a.identifiedAtMicros ||
            b.blocker != a.blocker) {
          ++changed;
        }
      }
      EXPECT_EQ(changed, 0u) << (crc ? "CRC-CD" : "QCD-8") << ", capture "
                             << capture << ": tags the probe changed";
    }
  }
}

TEST(Cardinality, BlockerJamsEveryProbeSlot) {
  // A blocker answers every probe slot, as it answers every inventory
  // slot, so every probe slot reads collided. With no idle slot left, the
  // zero estimator returns its inversion ceiling (64·F) for every frame.
  Harness h(50, 42);
  h.tags[0].blocker = true;
  rfid::phy::OrChannel channel;
  CardinalityConfig cfg;
  cfg.estimator = CardinalityEstimator::kZero;
  cfg.frameSize = 32;
  cfg.probeFrames = 3;
  const auto est =
      estimateCardinality(*h.scheme, channel, h.tags, cfg, h.rng);
  EXPECT_EQ(est.estimate, 64.0 * 32.0);
  EXPECT_EQ(est.stddev, 0.0);
  EXPECT_EQ(est.probeSlots, 3u * 32u);
  EXPECT_EQ(h.believed(), 0u);
}

TEST(Cardinality, QcdProbesAreCheaperThanCrcCd) {
  const rfid::phy::AirInterface air;
  // QCD probe frames need no ID phase at all (no ACKs are sent).
  const rfid::core::QcdScheme qcd{air, 8, /*chargeIdPhase=*/false};
  const rfid::core::CrcCdScheme crc{air};
  Harness h(200, 98);
  rfid::phy::OrChannel channel;
  CardinalityConfig cfg;
  cfg.frameSize = 256;
  cfg.probeFrames = 8;
  rfid::common::Rng r1(5), r2(5);
  const auto a = estimateCardinality(qcd, channel, h.tags, cfg, r1);
  const auto b = estimateCardinality(crc, channel, h.tags, cfg, r2);
  EXPECT_EQ(a.probeSlots, b.probeSlots);  // identical statistical effort
  // 16 bits/slot vs 96 bits/slot: exactly 6× cheaper on air.
  EXPECT_NEAR(b.airtimeMicros / a.airtimeMicros, 6.0, 1e-9);
}

TEST(Cardinality, MoreProbesShrinkSpread) {
  Harness h(300, 99);
  rfid::phy::OrChannel channel;
  CardinalityConfig few;
  few.frameSize = 256;
  few.probeFrames = 4;
  CardinalityConfig many = few;
  many.probeFrames = 64;
  rfid::common::Rng r1(9), r2(9);
  const auto a = estimateCardinality(*h.scheme, channel, h.tags, few, r1);
  const auto b = estimateCardinality(*h.scheme, channel, h.tags, many, r2);
  // Wider averaging gives a more precise (not necessarily more accurate)
  // estimate: compare the standard error of the mean.
  EXPECT_LT(b.stddev / std::sqrt(64.0), a.stddev / std::sqrt(4.0) + 1e-9);
}

/// One probe run: 300 tags, 6 probe frames of 128 slots.
struct PinnedProbe {
  bool crc;        ///< CRC-CD; otherwise QCD l = 8
  double capture;  ///< capture probability; 0 runs the pure OR channel
  CardinalityEstimator estimator;
  double estimate;
  double stddev;
  double airtimeMicros;
  std::uint64_t probeSlots;
};

std::string hex(double value) {
  std::ostringstream os;
  os << std::hexfloat << value;
  return os.str();
}

TEST(Cardinality, ResultsArePinned) {
  // Generated by the per-slot probe loop that FrameBatcher's frames
  // replaced: every field must stay bit-identical.
  constexpr CardinalityEstimator kZero = CardinalityEstimator::kZero;
  constexpr CardinalityEstimator kSingle = CardinalityEstimator::kSingleton;
  constexpr CardinalityEstimator kColl = CardinalityEstimator::kCollision;
  const PinnedProbe cases[] = {
      {false, 0.0, kZero, 0x1.3326cd6a385d6p+8, 0x1.83dbb63d1297fp+5, 0x1.6dp+14, 768},
      {false, 0.0, kSingle, 0x1.3c3bafef0de09p+5, 0x1.bbdd1552076e4p+2, 0x1.6dp+14, 768},
      {false, 0.0, kColl, 0x1.2bbd7caf32696p+8, 0x1.20ff938beb7bbp+3, 0x1.6dp+14, 768},
      {false, 0.5, kZero, 0x1.2c69d2fc3648ep+8, 0x1.1aa343ac60f8ap+5, 0x1.328p+15, 768},
      {false, 0.5, kSingle, 0x1.ffffffacbff24p+6, 0.0, 0x1.328p+15, 768},
      {false, 0.5, kColl, 0x1.3efcf1a739ceep+7, 0x1.6b1ec05b3cf93p+4, 0x1.328p+15, 768},
      {true, 0.0, kZero, 0x1.2974a123589b2p+8, 0x1.96a66ffd3c1d6p+5, 0x1.2p+16, 768},
      {true, 0.0, kSingle, 0x1.3d5746ddf52acp+5, 0x1.02528fb6148f5p+3, 0x1.2p+16, 768},
      {true, 0.0, kColl, 0x1.2769081112566p+8, 0x1.5b245eb9a912p+3, 0x1.2p+16, 768},
      {true, 0.5, kZero, 0x1.1860ad2128be8p+8, 0x1.eded4b884b3bap+4, 0x1.2p+16, 768},
      {true, 0.5, kSingle, 0x1.ffffffacbff24p+6, 0.0, 0x1.2p+16, 768},
      {true, 0.5, kColl, 0x1.3f72c9b436ac1p+7, 0x1.dc1f9b506051bp+3, 0x1.2p+16, 768},
  };
  for (const PinnedProbe& c : cases) {
    const rfid::phy::AirInterface air;
    std::unique_ptr<rfid::core::DetectionScheme> scheme;
    if (c.crc) {
      scheme = std::make_unique<rfid::core::CrcCdScheme>(air);
    } else {
      scheme = std::make_unique<rfid::core::QcdScheme>(air, 8);
    }
    std::unique_ptr<rfid::phy::Channel> channel;
    if (c.capture > 0.0) {
      channel = std::make_unique<rfid::phy::CaptureChannel>(c.capture);
    } else {
      channel = std::make_unique<rfid::phy::OrChannel>();
    }
    Harness h(300, 41, std::move(scheme));
    CardinalityConfig cfg;
    cfg.estimator = c.estimator;
    cfg.frameSize = 128;
    cfg.probeFrames = 6;
    const auto r = estimateCardinality(*h.scheme, *channel, h.tags, cfg, h.rng);
    const std::string label = std::string(c.crc ? "CRC-CD" : "QCD-8") +
                              " capture " + std::to_string(c.capture) + " " +
                              toString(c.estimator);
    EXPECT_EQ(r.estimate, c.estimate) << label << ": " << hex(r.estimate);
    EXPECT_EQ(r.stddev, c.stddev) << label << ": " << hex(r.stddev);
    EXPECT_EQ(r.airtimeMicros, c.airtimeMicros)
        << label << ": " << hex(r.airtimeMicros);
    EXPECT_EQ(r.probeSlots, c.probeSlots) << label;
    EXPECT_EQ(h.believed(), 0u) << label;
  }
}

TEST(Cardinality, Validation) {
  Harness h(10, 100);
  rfid::phy::OrChannel channel;
  CardinalityConfig cfg;
  cfg.frameSize = 0;
  EXPECT_THROW(estimateCardinality(*h.scheme, channel, h.tags, cfg, h.rng),
               PreconditionError);
  cfg.frameSize = 16;
  cfg.probeFrames = 0;
  EXPECT_THROW(estimateCardinality(*h.scheme, channel, h.tags, cfg, h.rng),
               PreconditionError);
}

}  // namespace
