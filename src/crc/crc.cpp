#include "crc/crc.hpp"

#include "common/alloc_guard.hpp"
#include "common/require.hpp"

namespace rfid::crc {

using common::BitVec;

namespace {

CrcSpec makeSpec(std::string name, unsigned width, std::uint64_t poly,
                 std::uint64_t init, bool refIn, bool refOut,
                 std::uint64_t xorOut, std::uint64_t check) {
  return CrcSpec{std::move(name), width, poly, init, refIn, refOut, xorOut,
                 check};
}

}  // namespace

const CrcSpec& crc5Epc() {
  static const CrcSpec spec =
      makeSpec("CRC-5/EPC-C1G2", 5, 0x09, 0x09, false, false, 0x00, 0x00);
  return spec;
}

const CrcSpec& crc8Smbus() {
  static const CrcSpec spec =
      makeSpec("CRC-8/SMBUS", 8, 0x07, 0x00, false, false, 0x00, 0xF4);
  return spec;
}

const CrcSpec& crc16CcittFalse() {
  static const CrcSpec spec = makeSpec("CRC-16/CCITT-FALSE", 16, 0x1021,
                                       0xFFFF, false, false, 0x0000, 0x29B1);
  return spec;
}

const CrcSpec& crc16Genibus() {
  static const CrcSpec spec = makeSpec("CRC-16/GENIBUS (EPC Gen2)", 16, 0x1021,
                                       0xFFFF, false, false, 0xFFFF, 0xD64E);
  return spec;
}

const CrcSpec& crc32() {
  static const CrcSpec spec =
      makeSpec("CRC-32/ISO-HDLC", 32, 0x04C11DB7, 0xFFFFFFFF, true, true,
               0xFFFFFFFF, 0xCBF43926);
  return spec;
}

const CrcSpec& crc32Bzip2() {
  static const CrcSpec spec =
      makeSpec("CRC-32/BZIP2", 32, 0x04C11DB7, 0xFFFFFFFF, false, false,
               0xFFFFFFFF, 0xFC891918);
  return spec;
}

std::uint64_t reverseBits(std::uint64_t v, unsigned width) {
  RFID_REQUIRE(width >= 1 && width <= 64, "width must be in [1, 64]");
  std::uint64_t out = 0;
  for (unsigned i = 0; i < width; ++i) {
    out = (out << 1) | ((v >> i) & 1u);
  }
  return out;
}

BitVec bytesToBits(std::span<const std::uint8_t> data, bool lsbFirst) {
  BitVec v(data.size() * 8);
  std::size_t idx = 0;
  for (const std::uint8_t byte : data) {
    for (unsigned b = 0; b < 8; ++b) {
      const unsigned bit = lsbFirst ? b : (7u - b);
      v.set(idx++, ((byte >> bit) & 1u) != 0);
    }
  }
  return v;
}

CrcEngine::CrcEngine(CrcSpec spec) : spec_(std::move(spec)) {
  RFID_REQUIRE(spec_.width >= 1 && spec_.width <= 64,
               "CRC width must be in [1, 64]");
  RFID_REQUIRE((spec_.poly & ~mask()) == 0, "polynomial exceeds width");
  if (spec_.width >= 8) {
    table_.resize(256);
    if (spec_.reflectIn) {
      // Right-shift table over the reversed polynomial.
      const std::uint64_t polyRev = reverseBits(spec_.poly, spec_.width);
      for (std::uint32_t b = 0; b < 256; ++b) {
        std::uint64_t reg = b;
        for (int k = 0; k < 8; ++k) {
          reg = (reg & 1u) ? ((reg >> 1) ^ polyRev) : (reg >> 1);
        }
        table_[b] = reg & mask();
      }
    } else {
      for (std::uint32_t b = 0; b < 256; ++b) {
        std::uint64_t reg = static_cast<std::uint64_t>(b)
                            << (spec_.width - 8);
        for (int k = 0; k < 8; ++k) {
          reg = (reg & topBit()) ? ((reg << 1) ^ spec_.poly) : (reg << 1);
        }
        table_[b] = reg & mask();
      }
    }
  }
}

std::uint64_t CrcEngine::coreInit() const noexcept {
  // Rocksoft model: the left-shift core always starts from `init` as given;
  // input reflection is applied to the data, output reflection to the final
  // register.
  return spec_.init;
}

std::uint64_t CrcEngine::finalize(std::uint64_t reg) const noexcept {
  std::uint64_t out = reg & mask();
  if (spec_.reflectOut) {
    out = reverseBits(out, spec_.width);
  }
  return out ^ spec_.xorOut;
}

std::uint64_t CrcEngine::computeBytes(std::span<const std::uint8_t> data) const {
  const BitVec bits = bytesToBits(data, spec_.reflectIn);
  return computeBits(bits);
}

std::uint64_t CrcEngine::computeBytesTable(
    std::span<const std::uint8_t> data) const {
  RFID_REQUIRE(spec_.width >= 8, "table lookup requires width >= 8");
  if (spec_.reflectIn) {
    // Classic right-shift table algorithm: its register is the bit-reverse
    // of the left-shift core register, so it starts from reflect(init) and
    // is reflected back before finalize().
    std::uint64_t reg = reverseBits(spec_.init, spec_.width);
    for (const std::uint8_t byte : data) {
      reg = table_[(reg ^ byte) & 0xFFu] ^ (reg >> 8);
    }
    reg &= mask();
    return finalize(reverseBits(reg, spec_.width));
  }
  std::uint64_t reg = coreInit();
  for (const std::uint8_t byte : data) {
    const std::uint64_t idx = ((reg >> (spec_.width - 8)) ^ byte) & 0xFFu;
    reg = (table_[idx] ^ (reg << 8)) & mask();
  }
  return finalize(reg);
}

std::uint64_t CrcEngine::computeBits(const BitVec& bits,
                                     SerialOpCount* ops) const {
  std::uint64_t reg = coreInit();
  const std::uint64_t top = topBit();
  const std::size_t n = bits.size();
  for (std::size_t i = 0; i < n; ++i) {
    const bool inBit = bits.test(i);
    const bool doXor = ((reg & top) != 0) != inBit;
    reg = (reg << 1) & mask();
    if (doXor) {
      reg ^= spec_.poly;
    }
    if (ops != nullptr) {
      // shift + input-xor + branch, plus the taken polynomial xor.
      ops->shifts += 1;
      ops->xors += doXor ? 2 : 1;
      ops->branches += 1;
    }
  }
  return finalize(reg);
}

std::uint64_t CrcEngine::computeWords(const std::uint64_t* words,
                                      std::size_t nbits) const noexcept {
  ALLOC_GUARD_HOT();
  // Same serial LFSR core as computeBits, reading packed words directly.
  std::uint64_t reg = coreInit();
  const std::uint64_t top = topBit();
  for (std::size_t i = 0; i < nbits; ++i) {
    const bool inBit = ((words[i / 64] >> (i % 64)) & 1u) != 0;
    const bool doXor = ((reg & top) != 0) != inBit;
    reg = (reg << 1) & mask();
    if (doXor) {
      reg ^= spec_.poly;
    }
  }
  return finalize(reg);
}

BitVec CrcEngine::codeFor(const BitVec& payload) const {
  return BitVec::fromUint(computeBits(payload), spec_.width);
}

}  // namespace rfid::crc
