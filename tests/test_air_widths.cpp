// The library must not be hardwired to the EPC 64-bit profile: run the
// protocol × scheme machinery under alternative air interfaces (short IDs,
// 16-bit CRC, different τ) and check the timing algebra follows.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "anticollision/bt.hpp"
#include "anticollision/fsa.hpp"
#include "anticollision/qt.hpp"
#include "core/detection_scheme.hpp"
#include "phy/channel.hpp"
#include "sim/engine.hpp"
#include "tags/population.hpp"

namespace {

using rfid::common::BitVec;
using rfid::common::Rng;
using rfid::core::CrcCdScheme;
using rfid::core::QcdScheme;
using rfid::phy::AirInterface;
using rfid::phy::OrChannel;
using rfid::phy::SlotType;

struct WidthParam {
  std::size_t idBits;
  unsigned crcBits;
  double tau;
};

class AirWidthTest : public ::testing::TestWithParam<WidthParam> {};

TEST_P(AirWidthTest, QcdFsaIdentifiesEveryTag) {
  const auto [idBits, crcBits, tau] = GetParam();
  AirInterface air;
  air.idBits = idBits;
  air.crcBits = crcBits;
  air.tauMicros = tau;
  const QcdScheme scheme{air, 8};
  OrChannel channel;
  Rng rng(31);
  rfid::sim::Metrics metrics;
  rfid::sim::SlotEngine engine(scheme, channel, metrics);
  auto tags = rfid::tags::makeUniformPopulation(60, idBits, rng);
  rfid::anticollision::FramedSlottedAloha fsa(32);
  ASSERT_TRUE(fsa.run(engine, tags, rng));
  EXPECT_EQ(rfid::tags::countBelievedIdentified(tags), 60u);
  // Timing algebra: single slot = (16 + idBits)·τ.
  EXPECT_DOUBLE_EQ(scheme.timing().singleBits,
                   16.0 + static_cast<double>(idBits));
  EXPECT_DOUBLE_EQ(air.bitsToMicros(scheme.timing().singleBits),
                   (16.0 + static_cast<double>(idBits)) * tau);
}

TEST_P(AirWidthTest, CrcCdBtIdentifiesEveryTag) {
  const auto [idBits, crcBits, tau] = GetParam();
  AirInterface air;
  air.idBits = idBits;
  air.crcBits = crcBits;
  air.tauMicros = tau;
  const CrcCdScheme scheme{
      air, crcBits == 32 ? rfid::crc::crc32() : rfid::crc::crc16Genibus()};
  OrChannel channel;
  Rng rng(32);
  rfid::sim::Metrics metrics;
  rfid::sim::SlotEngine engine(scheme, channel, metrics);
  auto tags = rfid::tags::makeUniformPopulation(40, idBits, rng);
  rfid::anticollision::BinaryTree bt;
  ASSERT_TRUE(bt.run(engine, tags, rng));
  EXPECT_EQ(rfid::tags::countBelievedIdentified(tags), 40u);
  EXPECT_DOUBLE_EQ(scheme.timing().singleBits,
                   static_cast<double>(idBits + crcBits));
}

TEST_P(AirWidthTest, CrcCdClassifiesEveryPathExactly) {
  // Scalar classify, classifyPacked over packedStaticSignal rows and the
  // CRC-CD test written out on BitVec slices must agree on every random
  // superposition. The 48/32 profile puts the code across a word boundary;
  // the 16/16 profile puts the ID and the code in one word.
  const auto [idBits, crcBits, tau] = GetParam();
  AirInterface air;
  air.idBits = idBits;
  air.crcBits = crcBits;
  air.tauMicros = tau;
  const CrcCdScheme scheme{
      air, crcBits == 32 ? rfid::crc::crc32() : rfid::crc::crc16Genibus()};
  Rng rng(34);
  const auto tags = rfid::tags::makeUniformPopulation(64, idBits, rng);
  const std::size_t words = scheme.contentionWords();
  std::vector<std::uint64_t> rows(tags.size() * words);
  Rng unused(0);
  for (std::size_t i = 0; i < tags.size(); ++i) {
    scheme.packedStaticSignal(tags[i], rows.data() + i * words);
    const BitVec signal = scheme.contentionSignal(tags[i], unused);
    for (std::size_t w = 0; w < words; ++w) {
      ASSERT_EQ(rows[i * words + w], signal.word(w)) << "tag " << i;
    }
  }

  std::size_t collided = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t m = 1 + rng.below(4);
    std::vector<std::size_t> picked;
    while (picked.size() < m) {
      const std::size_t i = rng.below(tags.size());
      if (std::find(picked.begin(), picked.end(), i) == picked.end()) {
        picked.push_back(i);
      }
    }
    BitVec superposed(scheme.contentionBits());
    std::vector<std::uint64_t> packed(words, 0);
    for (const std::size_t i : picked) {
      superposed |= scheme.contentionSignal(tags[i], unused);
      for (std::size_t w = 0; w < words; ++w) {
        packed[w] |= rows[i * words + w];
      }
    }
    const BitVec id = superposed.slice(0, idBits);
    const BitVec code = superposed.slice(idBits, crcBits);
    const SlotType reference = scheme.engine().codeFor(id) == code
                                   ? SlotType::kSingle
                                   : SlotType::kCollided;
    const std::uint32_t offsets[] = {0, static_cast<std::uint32_t>(m)};
    SlotType batched = SlotType::kIdle;
    scheme.classifyPacked(packed.data(), offsets, 1, &batched);
    EXPECT_EQ(scheme.classify(superposed, m), reference) << "m=" << m;
    EXPECT_EQ(batched, reference) << "m=" << m;
    if (m == 1) {
      EXPECT_EQ(reference, SlotType::kSingle);
    }
    collided += reference == SlotType::kCollided ? 1 : 0;
  }
  EXPECT_GT(collided, 0u);
}

TEST_P(AirWidthTest, QtPrefixMathFollowsIdWidth) {
  const auto [idBits, crcBits, tau] = GetParam();
  AirInterface air;
  air.idBits = idBits;
  air.crcBits = crcBits;
  air.tauMicros = tau;
  const QcdScheme scheme{air, 8};
  OrChannel channel;
  Rng rng(33);
  rfid::sim::Metrics metrics;
  rfid::sim::SlotEngine engine(scheme, channel, metrics);
  auto tags = rfid::tags::makeUniformPopulation(30, idBits, rng);
  rfid::anticollision::QueryTree qt;
  ASSERT_TRUE(qt.run(engine, tags, rng));
  EXPECT_EQ(rfid::tags::countBelievedIdentified(tags), 30u);
}

INSTANTIATE_TEST_SUITE_P(
    Profiles, AirWidthTest,
    ::testing::Values(WidthParam{16, 16, 1.0},   // short-ID profile
                      WidthParam{32, 16, 0.5},   // 32-bit IDs, faster link
                      WidthParam{48, 32, 1.0},   // MAC-address-sized
                      WidthParam{64, 32, 1.0},   // paper profile
                      WidthParam{64, 16, 2.0}),  // EPC CRC-16, slow link
    [](const auto& paramInfo) {
      return "id" + std::to_string(paramInfo.param.idBits) + "_crc" +
             std::to_string(paramInfo.param.crcBits) + "_tau" +
             std::to_string(static_cast<int>(paramInfo.param.tau * 10));
    });

}  // namespace
