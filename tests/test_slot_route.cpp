// Which route the tree walkers' and birthday's slots take through the
// engine. Each query (BT, ABS, QT, AQS) and each birthday slot reaches
// SlotEngine::runSlotsBatch as a one-row batch over the run's TagSoA, so on
// the pure OR channel it runs the packed kernel: no per-responder BitVec
// render (contentionSignalInto) and no channel superpose. On a capture
// channel the engine's per-slot fallback runs instead, and both show up.
//
// The decorators forward every call, the packed API included, to the
// scheme or channel they wrap, and count the two scalar-path calls.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "anticollision/abs.hpp"
#include "anticollision/aqs.hpp"
#include "anticollision/birthday.hpp"
#include "anticollision/bt.hpp"
#include "anticollision/qt.hpp"
#include "common/bitvec.hpp"
#include "common/rng.hpp"
#include "core/detection_scheme.hpp"
#include "helpers.hpp"
#include "phy/channel.hpp"

namespace {

using rfid::anticollision::Protocol;
using rfid::common::BitVec;
using rfid::common::Rng;
using rfid::core::DetectionScheme;
using rfid::phy::AirInterface;
using rfid::testing::Harness;

/// Forwards to `inner`, counting the per-responder BitVec renders.
class CountingScheme final : public DetectionScheme {
 public:
  explicit CountingScheme(std::unique_ptr<DetectionScheme> inner)
      : DetectionScheme(inner->air()), inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  std::size_t contentionBits() const override {
    return inner_->contentionBits();
  }
  BitVec contentionSignal(const rfid::tags::Tag& tag,
                          Rng& tagRng) const override {
    ++signalCalls;
    return inner_->contentionSignal(tag, tagRng);
  }
  void contentionSignalInto(const rfid::tags::Tag& tag, Rng& tagRng,
                            BitVec& out) const override {
    ++signalCalls;
    inner_->contentionSignalInto(tag, tagRng, out);
  }
  rfid::phy::SlotType classify(const std::optional<BitVec>& signal,
                               std::size_t trueResponders) const override {
    return inner_->classify(signal, trueResponders);
  }
  bool idIsInContention() const override {
    return inner_->idIsInContention();
  }
  BitVec idFromContention(const BitVec& signal) const override {
    return inner_->idFromContention(signal);
  }
  rfid::phy::SlotTiming timing() const override { return inner_->timing(); }
  PackedKind packedKind() const noexcept override {
    return inner_->packedKind();
  }
  void packedStaticSignal(const rfid::tags::Tag& tag,
                          std::uint64_t* out) const override {
    inner_->packedStaticSignal(tag, out);
  }
  void packedDraw(Rng& tagRng, std::uint64_t* out) const override {
    inner_->packedDraw(tagRng, out);
  }
  void packedDrawRun(Rng& tagRng, std::size_t n,
                     std::uint64_t* out) const override {
    inner_->packedDrawRun(tagRng, n, out);
  }
  void classifyPacked(const std::uint64_t* superposed,
                      const std::uint32_t* slotOffsets, std::size_t count,
                      rfid::phy::SlotType* out) const override {
    inner_->classifyPacked(superposed, slotOffsets, count, out);
  }

  mutable std::uint64_t signalCalls = 0;

 private:
  std::unique_ptr<DetectionScheme> inner_;
};

/// Forwards to `inner`, counting superposeInto calls.
class CountingChannel final : public rfid::phy::Channel {
 public:
  explicit CountingChannel(std::unique_ptr<rfid::phy::Channel> inner)
      : inner_(std::move(inner)) {}

  void beginSlot(std::uint64_t slotIndex) override {
    inner_->beginSlot(slotIndex);
  }
  bool isPureOr() const noexcept override { return inner_->isPureOr(); }
  void superposeInto(std::span<const BitVec> transmissions, Rng& rng,
                     rfid::phy::Reception& out) override {
    ++superposeCalls;
    inner_->superposeInto(transmissions, rng, out);
  }

  std::uint64_t superposeCalls = 0;

 private:
  std::unique_ptr<rfid::phy::Channel> inner_;
};

enum class Kind { kBt, kAbs, kQt, kAqs, kBirthday };

std::unique_ptr<Protocol> makeProtocol(Kind kind) {
  switch (kind) {
    case Kind::kBt:
      return std::make_unique<rfid::anticollision::BinaryTree>();
    case Kind::kAbs:
      return std::make_unique<rfid::anticollision::AdaptiveBinarySplitting>();
    case Kind::kQt:
      return std::make_unique<rfid::anticollision::QueryTree>();
    case Kind::kAqs:
      return std::make_unique<rfid::anticollision::AdaptiveQuerySplitting>();
    case Kind::kBirthday:
      return std::make_unique<rfid::anticollision::BirthdayProtocol>();
  }
  return nullptr;
}

struct Counts {
  std::uint64_t signalCalls = 0;
  std::uint64_t superposeCalls = 0;
};

/// One run of `kind` over 100 tags under CRC-CD or QCD l = 8, on the pure
/// OR channel or CaptureChannel(0.5); every tag must be identified.
Counts runCounted(Kind kind, bool crc, bool capture) {
  std::unique_ptr<DetectionScheme> inner;
  if (crc) {
    inner = std::make_unique<rfid::core::CrcCdScheme>(AirInterface{});
  } else {
    inner = std::make_unique<rfid::core::QcdScheme>(AirInterface{}, 8);
  }
  std::unique_ptr<rfid::phy::Channel> innerChannel;
  if (capture) {
    innerChannel = std::make_unique<rfid::phy::CaptureChannel>(0.5);
  } else {
    innerChannel = std::make_unique<rfid::phy::OrChannel>();
  }
  auto scheme = std::make_unique<CountingScheme>(std::move(inner));
  auto channel = std::make_unique<CountingChannel>(std::move(innerChannel));
  const CountingScheme& schemeCounts = *scheme;
  const CountingChannel& channelCounts = *channel;
  Harness h(100, 61, std::move(scheme), std::move(channel));
  EXPECT_TRUE(makeProtocol(kind)->run(h.engine, h.tags, h.rng));
  EXPECT_EQ(h.believed(), 100u);
  return {schemeCounts.signalCalls, channelCounts.superposeCalls};
}

const char* nameOf(Kind kind) {
  static const char* const kNames[] = {"BT", "ABS", "QT", "AQS", "Birthday"};
  return kNames[static_cast<int>(kind)];
}

constexpr Kind kKinds[] = {Kind::kBt, Kind::kAbs, Kind::kQt, Kind::kAqs,
                           Kind::kBirthday};

TEST(SlotRoute, PureOrSlotsRunThePackedKernel) {
  for (const Kind kind : kKinds) {
    for (const bool crc : {true, false}) {
      const Counts counts = runCounted(kind, crc, /*capture=*/false);
      EXPECT_EQ(counts.signalCalls, 0u)
          << nameOf(kind) << (crc ? " CRC-CD" : " QCD-8");
      EXPECT_EQ(counts.superposeCalls, 0u)
          << nameOf(kind) << (crc ? " CRC-CD" : " QCD-8");
    }
  }
}

TEST(SlotRoute, CaptureSlotsTakeThePerSlotFallback) {
  for (const Kind kind : kKinds) {
    for (const bool crc : {true, false}) {
      const Counts counts = runCounted(kind, crc, /*capture=*/true);
      EXPECT_GT(counts.signalCalls, 0u)
          << nameOf(kind) << (crc ? " CRC-CD" : " QCD-8");
      EXPECT_GT(counts.superposeCalls, 0u)
          << nameOf(kind) << (crc ? " CRC-CD" : " QCD-8");
    }
  }
}

}  // namespace
