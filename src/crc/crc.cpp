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

/// One clock of the bit-reversed LFSR, whose input bit has already been
/// xored into bit 0 of `s`: the left-shift core's top bit is S's bit 0.
std::uint64_t reflectedStep(std::uint64_t s, std::uint64_t polyRev) noexcept {
  return (s & 1u) != 0 ? ((s >> 1) ^ polyRev) : (s >> 1);
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
  polyRev_ = reverseBits(spec_.poly, spec_.width);
  initRev_ = reverseBits(spec_.init, spec_.width);
  // T0[b]: eight clocks from S = b. Input bits xored into S ahead of their
  // clock reach bit 0 just in time, so this holds for widths below 8 too.
  // Each further table appends one zero byte to the previous one.
  slices_.resize(8);
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint64_t s = b;
    for (int k = 0; k < 8; ++k) {
      s = reflectedStep(s, polyRev_);
    }
    slices_[0][b] = s;
  }
  for (std::size_t k = 1; k < slices_.size(); ++k) {
    for (std::size_t b = 0; b < 256; ++b) {
      const std::uint64_t prev = slices_[k - 1][b];
      slices_[k][b] = (prev >> 8) ^ slices_[0][prev & 0xFFu];
    }
  }
}

std::uint64_t CrcEngine::finalize(std::uint64_t s) const noexcept {
  // S is the register already bit-reversed, i.e. the reflected output.
  return (spec_.reflectOut ? s : reverseBits(s, spec_.width)) ^ spec_.xorOut;
}

std::uint64_t CrcEngine::computeBytes(std::span<const std::uint8_t> data) const {
  const BitVec bits = bytesToBits(data, spec_.reflectIn);
  return computeBits(bits);
}

std::uint64_t CrcEngine::computeBytesTable(
    std::span<const std::uint8_t> data) const {
  // S takes each byte least-significant bit first, so a byte of a spec
  // without reflectIn (sent most-significant bit first) enters reversed.
  std::uint64_t s = initRev_;
  for (const std::uint8_t byte : data) {
    const std::uint64_t in = spec_.reflectIn ? byte : reverseBits(byte, 8);
    s = (s >> 8) ^ slices_[0][(s ^ in) & 0xFFu];
  }
  return finalize(s);
}

std::uint64_t CrcEngine::computeBits(const BitVec& bits,
                                     SerialOpCount* ops) const {
  // The left-shift LFSR a tag clocks, kept bit-serial for the op census.
  std::uint64_t reg = spec_.init;
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
  return finalize(reverseBits(reg, spec_.width));
}

std::uint64_t CrcEngine::computeWords(const std::uint64_t* words,
                                      std::size_t nbits) const noexcept {
  ALLOC_GUARD_HOT();
  // Stream bit i enters at bit 0 of S, as in BitVec's words, so a whole
  // word is xored in at once and clocked through by eight lookups.
  const auto& t = slices_;
  std::uint64_t s = initRev_;
  const std::size_t whole = nbits / 64;
  for (std::size_t i = 0; i < whole; ++i) {
    const std::uint64_t x = s ^ words[i];
    s = t[7][x & 0xFFu] ^ t[6][(x >> 8) & 0xFFu] ^ t[5][(x >> 16) & 0xFFu] ^
        t[4][(x >> 24) & 0xFFu] ^ t[3][(x >> 32) & 0xFFu] ^
        t[2][(x >> 40) & 0xFFu] ^ t[1][(x >> 48) & 0xFFu] ^ t[0][x >> 56];
  }
  // The last partial word: whole bytes through T0, then single clocks.
  std::size_t rem = nbits % 64;
  std::uint64_t tail = rem != 0 ? words[whole] : 0;
  for (; rem >= 8; rem -= 8, tail >>= 8) {
    s = (s >> 8) ^ t[0][(s ^ tail) & 0xFFu];
  }
  for (; rem > 0; --rem, tail >>= 1) {
    s = reflectedStep(s ^ (tail & 1u), polyRev_);
  }
  return finalize(s);
}

BitVec CrcEngine::codeFor(const BitVec& payload) const {
  return BitVec::fromUint(computeBits(payload), spec_.width);
}

}  // namespace rfid::crc
