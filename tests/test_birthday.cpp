// Bernoulli/birthday discovery: completeness, coupon-collector scaling, p
// adaptation, scheme independence, and pinned slot sequences.
#include "anticollision/birthday.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/require.hpp"
#include "helpers.hpp"

namespace {

using rfid::anticollision::BirthdayProtocol;
using rfid::anticollision::birthdayExpectedSlotsCouponCollector;
using rfid::anticollision::birthdayExpectedSlotsWithSilencing;
using rfid::common::PreconditionError;
using rfid::testing::DigestObserver;
using rfid::testing::Harness;

TEST(Birthday, DiscoversAllNodes) {
  for (const std::size_t n : {1u, 5u, 50u, 300u}) {
    Harness h(n, 91);
    BirthdayProtocol protocol;
    EXPECT_TRUE(protocol.run(h.engine, h.tags, h.rng)) << n << " nodes";
    EXPECT_EQ(h.believed(), n) << n << " nodes";
  }
}

TEST(Birthday, EmptyFieldTerminatesAfterQuietPeriod) {
  Harness h(0, 92);
  BirthdayProtocol protocol;
  EXPECT_TRUE(protocol.run(h.engine, h.tags, h.rng));
  // The listener pays idle slots to conclude the field is empty.
  EXPECT_GT(h.metrics.detectedCensus().idle, 0u);
  EXPECT_EQ(h.metrics.detectedCensus().single, 0u);
}

TEST(Birthday, SlotCountNearSilencingBound) {
  // Discovered nodes are acknowledged and silenced, so the cost scales as
  // e·n, not as the no-feedback coupon-collector e·n·H_n; the adaptive p
  // should land within a small factor of the former and well under the
  // latter.
  constexpr std::size_t kNodes = 200;
  const double bound = birthdayExpectedSlotsWithSilencing(kNodes);
  double total = 0.0;
  constexpr int kRounds = 10;
  for (int r = 0; r < kRounds; ++r) {
    Harness h(kNodes, 300 + static_cast<std::uint64_t>(r));
    BirthdayProtocol protocol;
    EXPECT_TRUE(protocol.run(h.engine, h.tags, h.rng));
    total += static_cast<double>(h.metrics.detectedCensus().total());
  }
  const double mean = total / kRounds;
  EXPECT_GT(mean, 0.8 * bound);
  EXPECT_LT(mean, 3.0 * bound);
  EXPECT_LT(mean, birthdayExpectedSlotsCouponCollector(kNodes));
}

TEST(Birthday, ExpectedSlotsFormulas) {
  EXPECT_DOUBLE_EQ(birthdayExpectedSlotsCouponCollector(0), 0.0);
  // e·1·H_1 = e.
  EXPECT_NEAR(birthdayExpectedSlotsCouponCollector(1), std::exp(1.0), 1e-12);
  // Coupon collector is superlinear; the silencing bound is linear.
  EXPECT_GT(birthdayExpectedSlotsCouponCollector(200) / 200.0,
            birthdayExpectedSlotsCouponCollector(100) / 100.0);
  EXPECT_NEAR(birthdayExpectedSlotsWithSilencing(100),
              100.0 * std::exp(1.0), 1e-9);
  EXPECT_GT(birthdayExpectedSlotsCouponCollector(100),
            birthdayExpectedSlotsWithSilencing(100));
}

TEST(Birthday, WorksUnderEveryScheme) {
  const rfid::phy::AirInterface air;
  for (int s = 0; s < 3; ++s) {
    std::unique_ptr<rfid::core::DetectionScheme> scheme;
    if (s == 0) scheme = std::make_unique<rfid::core::CrcCdScheme>(air);
    if (s == 1) scheme = std::make_unique<rfid::core::QcdScheme>(air, 8);
    if (s == 2) scheme = std::make_unique<rfid::core::IdealScheme>(air);
    Harness h(60, 93, std::move(scheme));
    BirthdayProtocol protocol;
    EXPECT_TRUE(protocol.run(h.engine, h.tags, h.rng)) << s;
    EXPECT_EQ(h.believed(), 60u) << s;
  }
}

TEST(Birthday, BlockerPreventsDiscovery) {
  Harness h(10, 94);
  h.tags.push_back(rfid::tags::makeBlockerTag(64));
  BirthdayProtocol protocol(0.5, 1e-6, /*maxSlots=*/5000);
  EXPECT_FALSE(protocol.run(h.engine, h.tags, h.rng));
  EXPECT_EQ(h.believed(), 0u);
}

TEST(Birthday, ConstructionValidation) {
  EXPECT_THROW(BirthdayProtocol(0.0), PreconditionError);
  EXPECT_THROW(BirthdayProtocol(1.5), PreconditionError);
  EXPECT_THROW(BirthdayProtocol(0.5, 0.0), PreconditionError);
  EXPECT_THROW(BirthdayProtocol(0.5, 0.6), PreconditionError);
}

struct PinnedCase {
  bool crc;      ///< CRC-CD; otherwise QCD l = 8
  bool capture;  ///< CaptureChannel(0.5); otherwise the pure OR channel
  bool blocker;  ///< tags[0] is a blocker and the cap is 600 slots
  std::uint64_t seed;
  std::uint64_t digest;
};

/// 60 nodes. A blocker collides every slot it joins, so no run with one
/// ends on its own: it runs the whole cap.
std::uint64_t runPinnedCase(const PinnedCase& c) {
  constexpr std::size_t kBlockerCap = 600;
  const rfid::phy::AirInterface air;
  std::unique_ptr<rfid::core::DetectionScheme> scheme;
  if (c.crc) {
    scheme = std::make_unique<rfid::core::CrcCdScheme>(air);
  } else {
    scheme = std::make_unique<rfid::core::QcdScheme>(air, 8);
  }
  std::unique_ptr<rfid::phy::Channel> channel;
  if (c.capture) {
    channel = std::make_unique<rfid::phy::CaptureChannel>(0.5);
  } else {
    channel = std::make_unique<rfid::phy::OrChannel>();
  }
  Harness h(60, c.seed, std::move(scheme), std::move(channel));
  if (c.blocker) {
    h.tags[0].blocker = true;
  }
  DigestObserver observer;
  h.engine.setObserver(&observer);
  BirthdayProtocol protocol(
      0.5, 1e-6,
      c.blocker ? kBlockerCap : BirthdayProtocol::kDefaultMaxSlots);
  const bool done = protocol.run(h.engine, h.tags, h.rng);
  EXPECT_EQ(done, !c.blocker);
  if (c.blocker) {
    EXPECT_EQ(observer.slots, kBlockerCap);
  }
  observer.fnv.add(std::uint64_t{done});
  for (const auto& tag : h.tags) {
    observer.fnv.add(std::uint64_t{tag.believesIdentified});
    observer.fnv.add(std::uint64_t{tag.correctlyIdentified});
  }
  observer.fnv.add(h.rng());
  return observer.fnv.value();
}

TEST(Birthday, ResultsArePinned) {
  // Slot-sequence digests (every SlotEvent, the result, each node's
  // identification flags, one RNG draw after the run), generated by the
  // per-slot runSlot loop before each slot ran as a one-row batch. Rows:
  // scheme × channel × blocker × seed.
  static const std::vector<PinnedCase> kCases = {
      {false, false, false, 51, 0x8e9dd907d5d56114ull},
      {false, false, false, 52, 0x537053ccb70099d5ull},
      {false, false, false, 53, 0x6902de2a09482555ull},
      {false, false, true, 51, 0x68e886414f1c74feull},
      {false, false, true, 52, 0x908a8997e39d6e53ull},
      {false, false, true, 53, 0xe5fa0a75bad89c7eull},
      {false, true, false, 51, 0x91757526dec574e3ull},
      {false, true, false, 52, 0xb388f06258b918a7ull},
      {false, true, false, 53, 0xc82dc3ee67c41e64ull},
      {false, true, true, 51, 0xc27fa4cadafb3633ull},
      {false, true, true, 52, 0x1358c53d037586cbull},
      {false, true, true, 53, 0x3eb873fc1156c37full},
      {true, false, false, 51, 0x0a8161d8a4853d2eull},
      {true, false, false, 52, 0xf386f8b1abebe20cull},
      {true, false, false, 53, 0x8a7c484780e66255ull},
      {true, false, true, 51, 0x9f810bdbe9940771ull},
      {true, false, true, 52, 0x3d12c82c63fde0b9ull},
      {true, false, true, 53, 0x0476a3ea66de9107ull},
      {true, true, false, 51, 0x15a70ba8a08ae652ull},
      {true, true, false, 52, 0xbddce199cd37e331ull},
      {true, true, false, 53, 0x052e2a681f7f0d07ull},
      {true, true, true, 51, 0x9d5390b2df702f25ull},
      {true, true, true, 52, 0x0609a05375e36cb7ull},
      {true, true, true, 53, 0xeaf8be0e2769b822ull},
  };
  for (const PinnedCase& c : kCases) {
    const std::uint64_t digest = runPinnedCase(c);
    EXPECT_EQ(digest, c.digest)
        << (c.crc ? "CRC-CD" : "QCD-8") << (c.capture ? " capture" : " OR")
        << (c.blocker ? " blocker" : "") << " seed " << c.seed
        << ": digest 0x" << std::hex << digest;
  }
}

TEST(Birthday, QcdIsCheaperThanCrcCdOnAir) {
  const rfid::phy::AirInterface air;
  Harness hq(100, 95, std::make_unique<rfid::core::QcdScheme>(air, 8));
  Harness hc(100, 95, std::make_unique<rfid::core::CrcCdScheme>(air));
  BirthdayProtocol p1, p2;
  EXPECT_TRUE(p1.run(hq.engine, hq.tags, hq.rng));
  EXPECT_TRUE(p2.run(hc.engine, hc.tags, hc.rng));
  EXPECT_LT(hq.metrics.totalAirtimeMicros(), hc.metrics.totalAirtimeMicros());
}

}  // namespace
