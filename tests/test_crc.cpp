// CrcEngine: published check values, table/serial agreement, bit-stream
// equivalence, and the linearity facts CRC-CD relies on.
#include "crc/crc.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <span>
#include <string_view>

#include "common/require.hpp"
#include "common/rng.hpp"

namespace {

using rfid::common::BitVec;
using rfid::common::PreconditionError;
using rfid::common::Rng;
using rfid::crc::bytesToBits;
using rfid::crc::CrcEngine;
using rfid::crc::CrcSpec;
using rfid::crc::reverseBits;
using rfid::crc::SerialOpCount;

std::span<const std::uint8_t> bytes(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

constexpr std::string_view kCheckInput = "123456789";

class CrcCatalogTest : public ::testing::TestWithParam<const CrcSpec*> {};

TEST_P(CrcCatalogTest, CheckValueMatchesCatalogue) {
  const CrcEngine engine(*GetParam());
  EXPECT_EQ(engine.computeBytes(bytes(kCheckInput)), GetParam()->check)
      << GetParam()->name;
}

TEST_P(CrcCatalogTest, TableMatchesSerialOnRandomMessages) {
  const CrcEngine engine(*GetParam());
  Rng rng(31);
  for (int t = 0; t < 50; ++t) {
    std::vector<std::uint8_t> msg(rng.below(64) + 1);
    for (auto& b : msg) {
      b = static_cast<std::uint8_t>(rng.below(256));
    }
    EXPECT_EQ(engine.computeBytes(msg), engine.computeBytesTable(msg));
  }
}

TEST_P(CrcCatalogTest, CodeForWidthAndDeterminism) {
  const CrcEngine engine(*GetParam());
  Rng rng(32);
  const BitVec payload = rng.bitvec(64);
  const BitVec code = engine.codeFor(payload);
  EXPECT_EQ(code.size(), engine.spec().width);
  EXPECT_EQ(code, engine.codeFor(payload));
}

INSTANTIATE_TEST_SUITE_P(Catalog, CrcCatalogTest,
                         ::testing::Values(&rfid::crc::crc5Epc(),
                                           &rfid::crc::crc8Smbus(),
                                           &rfid::crc::crc16CcittFalse(),
                                           &rfid::crc::crc16Genibus(),
                                           &rfid::crc::crc32(),
                                           &rfid::crc::crc32Bzip2()),
                         [](const auto& paramInfo) {
                           std::string n = paramInfo.param->name;
                           for (char& c : n) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return n;
                         });

TEST(Crc, BytesToBitsOrdering) {
  const std::uint8_t data[] = {0b10110010};
  const BitVec msbFirst = bytesToBits(data, /*lsbFirst=*/false);
  EXPECT_EQ(msbFirst.test(0), true);   // MSB of the byte enters first
  EXPECT_EQ(msbFirst.test(1), false);
  const BitVec lsbFirst = bytesToBits(data, /*lsbFirst=*/true);
  EXPECT_EQ(lsbFirst.test(0), false);  // LSB of the byte enters first
  EXPECT_EQ(lsbFirst.test(1), true);
}

TEST(Crc, ComputeBytesEqualsComputeBitsOnPackedMessage) {
  // The byte API is defined as the bit API over the reflectIn-ordered
  // bit stream; verify the equivalence explicitly for both orientations.
  Rng rng(33);
  std::vector<std::uint8_t> msg(17);
  for (auto& b : msg) {
    b = static_cast<std::uint8_t>(rng.below(256));
  }
  const CrcEngine refl(rfid::crc::crc32());
  EXPECT_EQ(refl.computeBytes(msg),
            refl.computeBits(bytesToBits(msg, /*lsbFirst=*/true)));
  const CrcEngine norm(rfid::crc::crc16CcittFalse());
  EXPECT_EQ(norm.computeBytes(msg),
            norm.computeBits(bytesToBits(msg, /*lsbFirst=*/false)));
}

TEST(Crc, DetectsSingleBitErrors) {
  const CrcEngine engine(rfid::crc::crc32());
  Rng rng(34);
  const BitVec payload = rng.bitvec(96);
  const std::uint64_t good = engine.computeBits(payload);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    BitVec corrupted = payload;
    corrupted.set(i, !corrupted.test(i));
    EXPECT_NE(engine.computeBits(corrupted), good) << "bit " << i;
  }
}

TEST(Crc, DetectsBurstErrorsUpToWidth) {
  const CrcEngine engine(rfid::crc::crc16Genibus());
  Rng rng(35);
  const BitVec payload = rng.bitvec(64);
  const std::uint64_t good = engine.computeBits(payload);
  for (int t = 0; t < 100; ++t) {
    BitVec corrupted = payload;
    const std::size_t start = rng.below(payload.size() - 16);
    const std::size_t len = rng.below(16) + 1;  // burst <= width
    bool changed = false;
    for (std::size_t i = start; i < start + len; ++i) {
      const bool flip = rng.chance(0.5) || i == start;
      if (flip) {
        corrupted.set(i, !corrupted.test(i));
        changed = true;
      }
    }
    ASSERT_TRUE(changed);
    EXPECT_NE(engine.computeBits(corrupted), good);
  }
}

TEST(Crc, SerialOpCountScalesLinearly) {
  const CrcEngine engine(rfid::crc::crc32());
  SerialOpCount ops64, ops128;
  (void)engine.computeBits(BitVec(64, true), &ops64);
  (void)engine.computeBits(BitVec(128, true), &ops128);
  EXPECT_EQ(ops64.shifts, 64u);
  EXPECT_EQ(ops128.shifts, 128u);
  EXPECT_EQ(ops64.branches, 64u);
  EXPECT_GE(ops64.total(), 3 * 64u);
  EXPECT_LE(ops64.total(), 4 * 64u);
}

TEST(Crc, RejectsInvalidSpecs) {
  CrcSpec bad = rfid::crc::crc32();
  bad.width = 0;
  EXPECT_THROW(CrcEngine{bad}, PreconditionError);
  bad = rfid::crc::crc32();
  bad.width = 65;
  EXPECT_THROW(CrcEngine{bad}, PreconditionError);
  CrcSpec overflowPoly = rfid::crc::crc5Epc();
  overflowPoly.poly = 0x20;  // bit 5 set: exceeds width 5
  EXPECT_THROW(CrcEngine{overflowPoly}, PreconditionError);
}

TEST(Crc, TableBitsMatchesPaperMemoryFigure) {
  const CrcEngine engine(rfid::crc::crc32());
  // 256 entries × 32 bits = 1 KiB — the "1KB" of Table IV.
  EXPECT_EQ(engine.tableBits(), 256u * 32u);
  EXPECT_EQ(engine.tableBits() / 8, 1024u);
}

TEST(Crc, ReverseBits) {
  EXPECT_EQ(reverseBits(0b001, 3), 0b100u);
  EXPECT_EQ(reverseBits(0x1, 32), 0x80000000u);
  EXPECT_EQ(reverseBits(0xF0F0F0F0F0F0F0F0ull, 64), 0x0F0F0F0F0F0F0F0Full);
  EXPECT_THROW(reverseBits(1, 0), PreconditionError);
  EXPECT_THROW(reverseBits(1, 65), PreconditionError);
}

TEST(Crc, EmptyMessage) {
  const CrcEngine engine(rfid::crc::crc32());
  // CRC-32 of the empty message is 0 (init ^ xorout cancel after reflection).
  EXPECT_EQ(engine.computeBytes({}), 0u);
  EXPECT_EQ(engine.computeBits(BitVec{}), 0u);
}

}  // namespace
