// SlotEngine: the identification handshake end to end — clean singles,
// collisions, idle slots, phantom ACKs after misdetection, capture winners,
// and blocker jamming.
#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "core/detection_scheme.hpp"
#include "phy/channel.hpp"
#include "tags/population.hpp"

namespace {

using rfid::common::Rng;
using rfid::core::CrcCdScheme;
using rfid::core::IdealScheme;
using rfid::core::QcdScheme;
using rfid::phy::AirInterface;
using rfid::phy::CaptureChannel;
using rfid::phy::OrChannel;
using rfid::phy::SlotType;
using rfid::sim::Metrics;
using rfid::sim::SlotEngine;
using rfid::tags::Tag;

std::vector<Tag> makeTags(std::size_t n, Rng& rng) {
  return rfid::tags::makeUniformPopulation(n, 64, rng);
}

TEST(SlotEngine, IdleSlot) {
  Rng rng(81);
  auto tags = makeTags(2, rng);
  Metrics m;
  OrChannel ch;
  const QcdScheme scheme{AirInterface{}, 8};
  SlotEngine engine(scheme, ch, m);
  EXPECT_EQ(engine.runSlot(tags, {}, rng), SlotType::kIdle);
  EXPECT_EQ(m.trueCensus().idle, 1u);
  EXPECT_DOUBLE_EQ(m.totalAirtimeMicros(), 16.0);  // preamble only
  EXPECT_EQ(m.identified(), 0u);
}

TEST(SlotEngine, CleanSingleIdentifiesCorrectly) {
  Rng rng(82);
  auto tags = makeTags(2, rng);
  Metrics m;
  OrChannel ch;
  const QcdScheme scheme{AirInterface{}, 8};
  SlotEngine engine(scheme, ch, m);
  const std::size_t responders[] = {1};
  EXPECT_EQ(engine.runSlot(tags, responders, rng), SlotType::kSingle);
  EXPECT_TRUE(tags[1].believesIdentified);
  EXPECT_TRUE(tags[1].correctlyIdentified);
  EXPECT_FALSE(tags[0].believesIdentified);
  EXPECT_DOUBLE_EQ(m.totalAirtimeMicros(), 80.0);  // preamble + ID phase
  EXPECT_DOUBLE_EQ(tags[1].identifiedAtMicros, 80.0);
  EXPECT_EQ(m.correctlyIdentified(), 1u);
}

TEST(SlotEngine, CollisionLeavesTagsContending) {
  Rng rng(83);
  auto tags = makeTags(4, rng);
  Metrics m;
  OrChannel ch;
  const CrcCdScheme scheme{AirInterface{}};
  SlotEngine engine(scheme, ch, m);
  const std::size_t responders[] = {0, 1, 2};
  EXPECT_EQ(engine.runSlot(tags, responders, rng), SlotType::kCollided);
  for (const Tag& t : tags) {
    EXPECT_FALSE(t.believesIdentified);
  }
  EXPECT_EQ(m.trueCensus().collided, 1u);
  EXPECT_DOUBLE_EQ(m.totalAirtimeMicros(), 96.0);
}

TEST(SlotEngine, MisdetectedCollisionSilencesAllRespondersAsPhantom) {
  // Strength 1: r can only be 1, so every collision evades detection.
  Rng rng(84);
  auto tags = makeTags(3, rng);
  Metrics m;
  OrChannel ch;
  const QcdScheme scheme{AirInterface{}, 1};
  SlotEngine engine(scheme, ch, m);
  const std::size_t responders[] = {0, 1, 2};
  EXPECT_EQ(engine.runSlot(tags, responders, rng), SlotType::kSingle);
  EXPECT_EQ(m.phantoms(), 1u);
  EXPECT_EQ(m.lostTags(), 3u);
  for (const Tag& t : tags) {
    EXPECT_TRUE(t.believesIdentified);
    EXPECT_FALSE(t.correctlyIdentified);
  }
  EXPECT_EQ(m.identified(), 3u);
  EXPECT_EQ(m.correctlyIdentified(), 0u);
  // Confusion matrix shows collided→single.
  EXPECT_EQ(m.confusion()[2][1], 1u);
}

TEST(SlotEngine, CaptureWinnerIdentifiedOthersRemain) {
  Rng rng(85);
  auto tags = makeTags(2, rng);
  Metrics m;
  CaptureChannel ch(1.0);
  const CrcCdScheme scheme{AirInterface{}};
  SlotEngine engine(scheme, ch, m);
  const std::size_t responders[] = {0, 1};
  EXPECT_EQ(engine.runSlot(tags, responders, rng), SlotType::kSingle);
  const int identified = (tags[0].believesIdentified ? 1 : 0) +
                         (tags[1].believesIdentified ? 1 : 0);
  EXPECT_EQ(identified, 1);
  EXPECT_EQ(m.correctlyIdentified(), 1u);
  EXPECT_EQ(m.phantoms(), 0u);
  // Ground truth still says collided; the reader detected single.
  EXPECT_EQ(m.trueCensus().collided, 1u);
  EXPECT_EQ(m.detectedCensus().single, 1u);
}

TEST(SlotEngine, BlockerForcesCollision) {
  Rng rng(86);
  auto tags = makeTags(1, rng);
  tags.push_back(rfid::tags::makeBlockerTag(64));
  Metrics m;
  OrChannel ch;
  const QcdScheme scheme{AirInterface{}, 8};
  SlotEngine engine(scheme, ch, m);
  const std::size_t responders[] = {0, 1};
  EXPECT_EQ(engine.runSlot(tags, responders, rng), SlotType::kCollided);
  EXPECT_FALSE(tags[0].believesIdentified);
}

TEST(SlotEngine, LoneBlockerIsNotIdentified) {
  Rng rng(87);
  std::vector<Tag> tags = {rfid::tags::makeBlockerTag(64)};
  Metrics m;
  OrChannel ch;
  const CrcCdScheme scheme{AirInterface{}};
  SlotEngine engine(scheme, ch, m);
  const std::size_t responders[] = {0};
  // All-ones ID+code fails the CRC check: collided, not single.
  EXPECT_EQ(engine.runSlot(tags, responders, rng), SlotType::kCollided);
  EXPECT_FALSE(tags[0].believesIdentified);
  EXPECT_EQ(m.identified(), 0u);
}

TEST(SlotEngine, IdealSchemeNeverMisdetects) {
  Rng rng(88);
  auto tags = makeTags(5, rng);
  Metrics m;
  OrChannel ch;
  const IdealScheme scheme{AirInterface{}};
  SlotEngine engine(scheme, ch, m);
  const std::size_t all[] = {0, 1, 2, 3, 4};
  EXPECT_EQ(engine.runSlot(tags, all, rng), SlotType::kCollided);
  EXPECT_EQ(engine.runSlot(tags, {}, rng), SlotType::kIdle);
  const std::size_t one[] = {2};
  EXPECT_EQ(engine.runSlot(tags, one, rng), SlotType::kSingle);
  EXPECT_TRUE(tags[2].correctlyIdentified);
  // Idle and collided slots are free under the oracle.
  EXPECT_DOUBLE_EQ(m.totalAirtimeMicros(), 64.0);
}

TEST(SlotEngine, ClockAccumulatesAcrossSlots) {
  Rng rng(89);
  auto tags = makeTags(3, rng);
  Metrics m;
  OrChannel ch;
  const QcdScheme scheme{AirInterface{}, 8};
  SlotEngine engine(scheme, ch, m);
  (void)engine.runSlot(tags, {}, rng);                       // 16
  const std::size_t pair[] = {0, 1};
  (void)engine.runSlot(tags, pair, rng);                     // 16 (almost surely)
  const std::size_t one[] = {2};
  (void)engine.runSlot(tags, one, rng);                      // 80
  EXPECT_DOUBLE_EQ(m.nowMicros(), m.totalAirtimeMicros());
  EXPECT_DOUBLE_EQ(tags[2].identifiedAtMicros, m.nowMicros());
}

TEST(SlotEngine, RejectsOutOfRangeResponder) {
  Rng rng(29);
  auto tags = makeTags(4, rng);
  const QcdScheme qcd{AirInterface{}, 8};
  OrChannel channel;
  Metrics metrics;
  SlotEngine engine(qcd, channel, metrics);
  const std::vector<std::size_t> responders{1, 4};
  EXPECT_THROW((void)engine.runSlot(tags, responders, rng),
               rfid::common::PreconditionError);
}

}  // namespace
