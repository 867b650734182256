// Capture-effect interaction with the protocol family: the leftover-tag
// paths (BT's pending group, ABS's re-contention, Q-adaptive stragglers)
// only execute under capture, so they get dedicated coverage here.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "anticollision/abs.hpp"
#include "anticollision/bt.hpp"
#include "anticollision/fsa.hpp"
#include "anticollision/qadaptive.hpp"
#include "anticollision/qt.hpp"
#include "common/bitvec.hpp"
#include "common/rng.hpp"
#include "core/detection_scheme.hpp"
#include "helpers.hpp"
#include "phy/channel.hpp"
#include "phy/timing.hpp"

namespace {

using rfid::phy::AirInterface;
using rfid::phy::CaptureChannel;
using rfid::testing::Harness;

Harness captureHarness(std::size_t tags, std::uint64_t seed, double p) {
  return Harness(tags, seed,
                 std::make_unique<rfid::core::CrcCdScheme>(AirInterface{}),
                 std::make_unique<CaptureChannel>(p));
}

TEST(CapturePaths, FsaCompletesUnderHeavyCapture) {
  Harness h = captureHarness(200, 21, 0.9);
  rfid::anticollision::FramedSlottedAloha fsa(64);
  EXPECT_TRUE(fsa.run(h.engine, h.tags, h.rng));
  EXPECT_EQ(h.believed(), 200u);
  EXPECT_EQ(h.correct(), 200u);  // capture never fabricates IDs
}

TEST(CapturePaths, BtLeftoversReContendAndComplete) {
  for (const double p : {0.3, 0.7, 1.0}) {
    Harness h = captureHarness(150, 22, p);
    rfid::anticollision::BinaryTree bt;
    EXPECT_TRUE(bt.run(h.engine, h.tags, h.rng)) << "p = " << p;
    EXPECT_EQ(h.believed(), 150u) << "p = " << p;
    EXPECT_EQ(h.correct(), 150u) << "p = " << p;
  }
}

TEST(CapturePaths, AbsCaptureLosersRejoinNextGroup) {
  Harness h = captureHarness(120, 23, 0.8);
  rfid::anticollision::AdaptiveBinarySplitting abs;
  EXPECT_TRUE(abs.run(h.engine, h.tags, h.rng));
  EXPECT_EQ(h.believed(), 120u);
  // Second round still works (reservations were assigned under capture).
  for (auto& t : h.tags) {
    t.resetForRound();
  }
  rfid::sim::Metrics second;
  rfid::sim::SlotEngine engine2(*h.scheme, *h.channel, second);
  EXPECT_TRUE(abs.run(engine2, h.tags, h.rng));
  EXPECT_EQ(h.believed(), 120u);
}

TEST(CapturePaths, QtCompletesUnderCapture) {
  Harness h = captureHarness(100, 24, 0.6);
  rfid::anticollision::QueryTree qt;
  EXPECT_TRUE(qt.run(h.engine, h.tags, h.rng));
  EXPECT_EQ(h.believed(), 100u);
}

TEST(CapturePaths, QAdaptiveCompletesUnderCapture) {
  Harness h = captureHarness(100, 25, 0.6);
  rfid::anticollision::QAdaptive q;
  EXPECT_TRUE(q.run(h.engine, h.tags, h.rng));
  EXPECT_EQ(h.believed(), 100u);
}

TEST(CapturePaths, CaptureConvertsCollisionsIntoReads) {
  // With capture, detected singles during true collisions are real reads,
  // so the "single detected during true collision" confusion cell is
  // populated while correctness stays perfect.
  Harness h = captureHarness(150, 26, 0.8);
  rfid::anticollision::FramedSlottedAloha fsa(64);
  EXPECT_TRUE(fsa.run(h.engine, h.tags, h.rng));
  const auto& conf = h.metrics.confusion();
  EXPECT_GT(conf[2][1], 0u);  // true collided → detected single (captured)
  EXPECT_EQ(h.metrics.phantoms(), 0u);
  EXPECT_EQ(h.correct(), 150u);
}

// A reader that only does energy detection: any signal on the air reads as
// single. Lets a blocker's clean captured jam signal pass classification, so
// the engine's "never identify a blocker" guard is what's under test.
class EnergyDetectScheme final : public rfid::core::DetectionScheme {
 public:
  explicit EnergyDetectScheme(AirInterface air) : DetectionScheme(air) {}
  std::string name() const override { return "energy-detect"; }
  std::size_t contentionBits() const override { return air().idBits; }
  void contentionSignalInto(const rfid::tags::Tag& tag, rfid::common::Rng&,
                            rfid::common::BitVec& out) const override {
    // In-place copy, as the built-in schemes do: the engine calls this
    // inside its allocation guard.
    tag.id.sliceInto(0, tag.id.size(), out);
  }
  rfid::phy::SlotType classify(const std::optional<rfid::common::BitVec>& s,
                               std::size_t) const override {
    return s.has_value() && s->any() ? rfid::phy::SlotType::kSingle
                                     : rfid::phy::SlotType::kIdle;
  }
  bool idIsInContention() const override { return true; }
  rfid::phy::SlotTiming timing() const override { return {8.0, 8.0, 8.0}; }
};

TEST(CapturePaths, BlockerCaptureWinIdentifiesNoOne) {
  using rfid::common::BitVec;
  using rfid::common::Rng;
  using rfid::phy::SlotType;

  Harness h(2, 30, std::make_unique<EnergyDetectScheme>(AirInterface{}),
            std::make_unique<CaptureChannel>(1.0));
  // Predict which of the two transmitters the channel will capture by
  // replaying the slot's draws (chance, then winner pick) on a copy of the
  // rng, and make that tag the blocker.
  Rng probe = h.rng;
  const std::vector<BitVec> probeTx = {BitVec(8, true), BitVec(8, true)};
  const std::size_t winner =
      *CaptureChannel(1.0).superpose(probeTx, probe).capturedIndex;
  h.tags[winner].blocker = true;
  const std::size_t honest = 1 - winner;

  const std::vector<std::size_t> both = {0, 1};
  EXPECT_EQ(h.engine.runSlot(h.tags, both, h.rng), SlotType::kSingle);
  // The captured "single" was the blocker's jam: nobody is identified, no
  // phantom is logged, and the honest tag is still live.
  EXPECT_EQ(h.metrics.identified(), 0u);
  EXPECT_EQ(h.metrics.phantoms(), 0u);
  EXPECT_FALSE(h.tags[winner].believesIdentified);
  EXPECT_FALSE(h.tags[honest].believesIdentified);

  // Still eligible: a later clean slot identifies the honest tag normally.
  const std::vector<std::size_t> alone = {honest};
  EXPECT_EQ(h.engine.runSlot(h.tags, alone, h.rng), SlotType::kSingle);
  EXPECT_TRUE(h.tags[honest].believesIdentified);
  EXPECT_TRUE(h.tags[honest].correctlyIdentified);
  EXPECT_EQ(h.metrics.identified(), 1u);
  EXPECT_EQ(h.metrics.correctlyIdentified(), 1u);
}

TEST(CapturePaths, HigherCaptureMeansFewerSlots) {
  std::uint64_t slotsLow = 0, slotsHigh = 0;
  for (int r = 0; r < 8; ++r) {
    Harness low = captureHarness(150, 100 + static_cast<std::uint64_t>(r), 0.1);
    Harness high =
        captureHarness(150, 100 + static_cast<std::uint64_t>(r), 0.9);
    rfid::anticollision::FramedSlottedAloha fsa(96);
    EXPECT_TRUE(fsa.run(low.engine, low.tags, low.rng));
    EXPECT_TRUE(fsa.run(high.engine, high.tags, high.rng));
    slotsLow += low.metrics.detectedCensus().total();
    slotsHigh += high.metrics.detectedCensus().total();
  }
  EXPECT_LT(slotsHigh, slotsLow);
}

}  // namespace
