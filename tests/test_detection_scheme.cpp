// DetectionScheme implementations: contention payloads, classification of
// superposed signals, slot timing (the variable-length mechanism), and the
// ideal oracle.
#include "core/detection_scheme.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "tags/population.hpp"

namespace {

using rfid::common::BitVec;
using rfid::common::PreconditionError;
using rfid::common::Rng;
using rfid::core::CrcCdScheme;
using rfid::core::IdealScheme;
using rfid::core::QcdScheme;
using rfid::phy::AirInterface;
using rfid::phy::SlotType;
using rfid::tags::Tag;

Tag makeTag(std::uint64_t id, std::size_t idBits = 64) {
  Tag t;
  t.idValue = id;
  t.id = BitVec::fromUint(id, idBits);
  return t;
}

// --- CRC-CD -----------------------------------------------------------------

TEST(CrcCdScheme, ContentionIsIdPlusCrc) {
  const CrcCdScheme scheme{AirInterface{}};
  Rng rng(61);
  const Tag tag = makeTag(0xDEADBEEFCAFEF00Dull);
  const BitVec s = scheme.contentionSignal(tag, rng);
  ASSERT_EQ(s.size(), 96u);
  EXPECT_EQ(s.slice(0, 64), tag.id);
  EXPECT_EQ(s.slice(64, 32), scheme.engine().codeFor(tag.id));
  EXPECT_TRUE(scheme.idIsInContention());
  EXPECT_EQ(scheme.idFromContention(s), tag.id);
}

TEST(CrcCdScheme, ClassifiesIdleSingleCollided) {
  const CrcCdScheme scheme{AirInterface{}};
  Rng rng(62);
  const Tag a = makeTag(0x1111111111111111ull);
  const Tag b = makeTag(0x2222222222222222ull);
  EXPECT_EQ(scheme.classify(std::nullopt, 0), SlotType::kIdle);
  EXPECT_EQ(scheme.classify(BitVec(96), 0), SlotType::kIdle);  // no energy
  const BitVec sa = scheme.contentionSignal(a, rng);
  EXPECT_EQ(scheme.classify(sa, 1), SlotType::kSingle);
  const BitVec sb = scheme.contentionSignal(b, rng);
  EXPECT_EQ(scheme.classify(sa | sb, 2), SlotType::kCollided);
}

TEST(CrcCdScheme, EverySlotTypeCosts96BitTimes) {
  const CrcCdScheme scheme{AirInterface{}};
  const auto timing = scheme.timing();
  EXPECT_DOUBLE_EQ(timing.idleBits, 96.0);
  EXPECT_DOUBLE_EQ(timing.singleBits, 96.0);
  EXPECT_DOUBLE_EQ(timing.collidedBits, 96.0);
}

TEST(CrcCdScheme, CollisionsOfManyTagsDetected) {
  const CrcCdScheme scheme{AirInterface{}};
  Rng rng(63);
  for (int t = 0; t < 200; ++t) {
    const std::size_t m = rng.between(2, 10);
    std::optional<BitVec> sum;
    for (std::size_t i = 0; i < m; ++i) {
      const Tag tag = makeTag(rng());
      const BitVec s = scheme.contentionSignal(tag, rng);
      sum = sum.has_value() ? (*sum | s) : s;
    }
    EXPECT_EQ(scheme.classify(sum, m), SlotType::kCollided);
  }
}

TEST(CrcCdScheme, RejectsMismatchedCrcWidth) {
  AirInterface air;
  air.crcBits = 16;
  EXPECT_THROW((CrcCdScheme{air, rfid::crc::crc32()}), PreconditionError);
  EXPECT_NO_THROW((CrcCdScheme{air, rfid::crc::crc16Genibus()}));
}

TEST(CrcCdScheme, RejectsWrongLengthSignal) {
  const CrcCdScheme scheme{AirInterface{}};
  EXPECT_THROW(scheme.classify(BitVec(95, true), 1), PreconditionError);
  EXPECT_THROW(scheme.idFromContention(BitVec(12, true)), PreconditionError);
}

// --- QCD ----------------------------------------------------------------------

TEST(QcdScheme, ContentionIsTwoLBitPreamble) {
  const QcdScheme scheme{AirInterface{}, 8};
  Rng rng(64);
  const Tag tag = makeTag(42);
  const BitVec s = scheme.contentionSignal(tag, rng);
  EXPECT_EQ(s.size(), 16u);
  EXPECT_EQ(scheme.contentionBits(), 16u);
  EXPECT_FALSE(scheme.idIsInContention());
  EXPECT_THROW(scheme.idFromContention(s), PreconditionError);
}

TEST(QcdScheme, VariableLengthSlots) {
  const QcdScheme scheme{AirInterface{}, 8};
  const auto timing = scheme.timing();
  EXPECT_DOUBLE_EQ(timing.idleBits, 16.0);
  EXPECT_DOUBLE_EQ(timing.collidedBits, 16.0);
  EXPECT_DOUBLE_EQ(timing.singleBits, 16.0 + 64.0);  // preamble + ID phase
}

TEST(QcdScheme, ClassifiesThreeWay) {
  const QcdScheme scheme{AirInterface{}, 8};
  Rng rng(65);
  const Tag a = makeTag(1), b = makeTag(2);
  EXPECT_EQ(scheme.classify(std::nullopt, 0), SlotType::kIdle);
  const BitVec sa = scheme.contentionSignal(a, rng);
  EXPECT_EQ(scheme.classify(sa, 1), SlotType::kSingle);
  // Find two distinct draws (draws are random; retry until distinct).
  for (int t = 0; t < 10; ++t) {
    const BitVec s1 = scheme.contentionSignal(a, rng);
    const BitVec s2 = scheme.contentionSignal(b, rng);
    if (s1 == s2) continue;
    EXPECT_EQ(scheme.classify(s1 | s2, 2), SlotType::kCollided);
    break;
  }
}

TEST(QcdScheme, IdPhaseAccountingKnob) {
  // Fig. 6 reproduction knob: without the ID phase every slot costs 2l.
  const QcdScheme paperAccounting{AirInterface{}, 8, /*chargeIdPhase=*/false};
  EXPECT_FALSE(paperAccounting.chargesIdPhase());
  EXPECT_DOUBLE_EQ(paperAccounting.timing().singleBits, 16.0);
  const QcdScheme fullAccounting{AirInterface{}, 8};
  EXPECT_TRUE(fullAccounting.chargesIdPhase());
  EXPECT_DOUBLE_EQ(fullAccounting.timing().singleBits, 80.0);
}

TEST(QcdScheme, StrengthSweepTiming) {
  for (const unsigned l : {1u, 4u, 8u, 16u, 32u}) {
    const QcdScheme scheme{AirInterface{}, l};
    EXPECT_EQ(scheme.contentionBits(), 2ull * l);
    EXPECT_DOUBLE_EQ(scheme.timing().idleBits, 2.0 * l);
    EXPECT_DOUBLE_EQ(scheme.timing().singleBits, 2.0 * l + 64.0);
  }
}

TEST(QcdScheme, NamesCarryConfiguration) {
  EXPECT_EQ(QcdScheme(AirInterface{}, 8).name(), "QCD[l=8]");
  EXPECT_NE(CrcCdScheme(AirInterface{}).name().find("CRC-CD"),
            std::string::npos);
  EXPECT_NE(IdealScheme(AirInterface{}).name().find("Ideal"),
            std::string::npos);
}

// --- CRC preamble (equal-budget alternative) -----------------------------------

TEST(CrcPreambleScheme, SameBudgetAndTimingAsQcd8) {
  const rfid::core::CrcPreambleScheme scheme{AirInterface{}, 8,
                                             rfid::crc::crc8Smbus()};
  const QcdScheme qcd{AirInterface{}, 8};
  EXPECT_EQ(scheme.contentionBits(), qcd.contentionBits());
  EXPECT_DOUBLE_EQ(scheme.timing().idleBits, qcd.timing().idleBits);
  EXPECT_DOUBLE_EQ(scheme.timing().singleBits, qcd.timing().singleBits);
  EXPECT_FALSE(scheme.idIsInContention());
}

TEST(CrcPreambleScheme, SingleAlwaysPassesTheCheck) {
  const rfid::core::CrcPreambleScheme scheme{AirInterface{}, 8,
                                             rfid::crc::crc8Smbus()};
  Rng rng(71);
  const Tag tag = makeTag(1);
  for (int t = 0; t < 200; ++t) {
    const BitVec s = scheme.contentionSignal(tag, rng);
    EXPECT_EQ(scheme.classify(s, 1), SlotType::kSingle);
  }
}

TEST(CrcPreambleScheme, DetectionIsProbabilisticNotGuaranteed) {
  // Unlike QCD (Theorem 1), a superposition of two *distinct* preambles can
  // pass the CRC check — exhaustively count failures over all pairs of
  // distinct r: 2.9%, well above the ~2^-8 coincidence rate.
  const rfid::core::CrcPreambleScheme scheme{AirInterface{}, 8,
                                             rfid::crc::crc8Smbus()};
  const rfid::crc::CrcEngine& engine = scheme.engine();
  std::size_t evasions = 0;
  std::size_t pairs = 0;
  for (std::uint64_t a = 1; a <= 255; ++a) {
    const BitVec ra = BitVec::fromUint(a, 8);
    const BitVec pa = ra.concat(engine.codeFor(ra));
    for (std::uint64_t b = a + 1; b <= 255; ++b) {
      const BitVec rb = BitVec::fromUint(b, 8);
      const BitVec pb = rb.concat(engine.codeFor(rb));
      ++pairs;
      if (scheme.classify(pa | pb, 2) == SlotType::kSingle) {
        ++evasions;
      }
    }
  }
  EXPECT_EQ(pairs, 32385u);
  EXPECT_EQ(evasions, 951u);  // no Theorem-1 guarantee, but a useful detector
}

TEST(CrcPreambleScheme, Validation) {
  EXPECT_THROW((rfid::core::CrcPreambleScheme{AirInterface{}, 0,
                                              rfid::crc::crc8Smbus()}),
               PreconditionError);
  const rfid::core::CrcPreambleScheme scheme{AirInterface{}, 8,
                                             rfid::crc::crc8Smbus()};
  EXPECT_THROW(scheme.classify(BitVec(15, true), 1), PreconditionError);
  EXPECT_THROW(scheme.idFromContention(BitVec(16, true)), PreconditionError);
}

// --- Ideal oracle ---------------------------------------------------------------

TEST(IdealScheme, ClassifiesFromGroundTruth) {
  const IdealScheme scheme{AirInterface{}};
  EXPECT_EQ(scheme.classify(std::nullopt, 0), SlotType::kIdle);
  EXPECT_EQ(scheme.classify(BitVec(64, true), 1), SlotType::kSingle);
  EXPECT_EQ(scheme.classify(BitVec(64, true), 5), SlotType::kCollided);
}

TEST(IdealScheme, FreeDetectionTiming) {
  const IdealScheme scheme{AirInterface{}};
  EXPECT_DOUBLE_EQ(scheme.timing().idleBits, 0.0);
  EXPECT_DOUBLE_EQ(scheme.timing().collidedBits, 0.0);
  EXPECT_DOUBLE_EQ(scheme.timing().singleBits, 64.0);
}

TEST(IdealScheme, IdInContention) {
  const IdealScheme scheme{AirInterface{}};
  Rng rng(66);
  const Tag tag = makeTag(0xABCD);
  EXPECT_TRUE(scheme.idIsInContention());
  EXPECT_EQ(scheme.idFromContention(scheme.contentionSignal(tag, rng)),
            tag.id);
}

// --- in-place contention signals (the slot hot path) -----------------------

TEST(DetectionScheme, InPlaceContentionSignalMatchesAllocating) {
  const AirInterface air{};
  const Tag tag = makeTag(0xDEADBEEFCAFEF00Dull);
  std::vector<std::unique_ptr<rfid::core::DetectionScheme>> schemes;
  schemes.push_back(std::make_unique<CrcCdScheme>(air));
  schemes.push_back(std::make_unique<QcdScheme>(air, 8));
  schemes.push_back(std::make_unique<QcdScheme>(air, 33));  // word-spanning
  schemes.push_back(std::make_unique<rfid::core::CrcPreambleScheme>(
      air, 8, rfid::crc::crc8Smbus()));
  schemes.push_back(std::make_unique<IdealScheme>(air));
  for (const auto& scheme : schemes) {
    // Identical rng state for both forms: the draws must line up too.
    Rng a(77), b(77);
    BitVec scratch;  // reused across iterations, as the engine reuses it
    for (int i = 0; i < 100; ++i) {
      scheme->contentionSignalInto(tag, a, scratch);
      ASSERT_EQ(scratch, scheme->contentionSignal(tag, b)) << scheme->name();
    }
  }
}

}  // namespace
