// Cyclic-redundancy-check engine.
//
// The paper's baseline collision detector (CRC-CD) has every tag transmit
// `id ⊕ crc(id)`; the reader recomputes the CRC over the superposed signal.
// We therefore need a CRC that operates on arbitrary bit strings (BitVec) in
// transmission order, plus the conventional byte-oriented form so the
// implementation can be validated against published check values.
//
// One engine supports any width in [1, 64], normal or reflected I/O, and
// three implementation strategies:
//   * bit-serial LFSR      — the form a tag's IC would realise in hardware;
//                            instruction-counting variant backs Table IV and
//                            is the oracle the tests compare against;
//   * byte-wise table      — the classic 256-entry lookup (the "1 KB of
//                            memory" the paper charges CRC-CD with);
//   * slicing-by-8         — eight such tables, eight lookups per 64-bit
//                            word (Kounavis & Berry, ISCC 2005): the
//                            reader-side form every detection scheme runs.
// The two table strategies run the LFSR bit-reversed (S = reverse(R), a
// right shift), so BitVec's LSB-first words feed in directly at any width;
// all three are cross-validated in tests.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/bitvec.hpp"

namespace rfid::crc {

/// A CRC algorithm description in Rocksoft/"catalogue" notation.
struct CrcSpec {
  std::string name;
  unsigned width = 0;        ///< register width in bits, 1..64
  std::uint64_t poly = 0;    ///< generator polynomial, normal representation
  std::uint64_t init = 0;    ///< initial register value (unreflected)
  bool reflectIn = false;    ///< feed input bytes least-significant bit first
  bool reflectOut = false;   ///< bit-reverse the register before xorOut
  std::uint64_t xorOut = 0;  ///< final xor mask
  std::uint64_t check = 0;   ///< expected CRC of ASCII "123456789"
};

/// Standard algorithms used by RFID air protocols (plus CRC-32 variants for
/// cross-validation). All entries carry their catalogue check values.
const CrcSpec& crc5Epc();          ///< EPC Gen2 CRC-5 (query commands)
const CrcSpec& crc8Smbus();        ///< CRC-8 (SMBus poly 0x07)
const CrcSpec& crc16CcittFalse();  ///< CRC-16/CCITT-FALSE
const CrcSpec& crc16Genibus();     ///< EPC Gen2 / ISO 18000-6 CRC-16
const CrcSpec& crc32();            ///< reflected CRC-32 (IEEE 802.3)
const CrcSpec& crc32Bzip2();       ///< non-reflected CRC-32

/// Operation census of one bit-serial CRC evaluation; the per-bit loop of a
/// serial LFSR costs a shift, an input xor, a branch and a conditional
/// polynomial xor — this is what makes CRC "more than 100 instructions" for
/// a 96-bit frame on a tag (§V-C, Table IV).
struct SerialOpCount {
  std::uint64_t shifts = 0;
  std::uint64_t xors = 0;
  std::uint64_t branches = 0;
  std::uint64_t total() const noexcept { return shifts + xors + branches; }
};

class CrcEngine {
 public:
  explicit CrcEngine(CrcSpec spec);

  const CrcSpec& spec() const noexcept { return spec_; }

  /// CRC over a byte message (conventional form; honours reflectIn).
  std::uint64_t computeBytes(std::span<const std::uint8_t> data) const;

  /// Same, via the 256-entry byte table T0.
  std::uint64_t computeBytesTable(std::span<const std::uint8_t> data) const;

  /// CRC over an arbitrary bit string fed in transmission order (index 0
  /// first). This is the form used on the air interface: the tag clocks its
  /// ID through the LFSR bit by bit. If `ops` is non-null, the serial
  /// operation census is accumulated into it.
  std::uint64_t computeBits(const common::BitVec& bits,
                            SerialOpCount* ops = nullptr) const;

  /// The CRC of `payload` as a width-bit BitVec, ready to be concatenated
  /// after the payload for transmission (bit i of the register at index i).
  common::BitVec codeFor(const common::BitVec& payload) const;

  /// computeBits over a packed word array by slicing-by-8: feeds `nbits`
  /// bits, where bit i is bit i mod 64 of words[i / 64] (BitVec's word
  /// layout), so computeWords(v.data(), v.size()) == computeBits(v). Bits
  /// past `nbits` are never read, so a packed signal's trailing fields may
  /// share the last word. Every detection scheme computes its CRCs here.
  std::uint64_t computeWords(const std::uint64_t* words,
                             std::size_t nbits) const noexcept;

  /// Size of the byte-wise lookup table in bits (the tag-memory cost the
  /// paper cites: 256 entries × width).
  std::uint64_t tableBits() const noexcept { return 256ull * spec_.width; }

 private:
  std::uint64_t mask() const noexcept {
    return spec_.width == 64 ? ~std::uint64_t{0}
                             : ((std::uint64_t{1} << spec_.width) - 1);
  }
  std::uint64_t topBit() const noexcept {
    return std::uint64_t{1} << (spec_.width - 1);
  }
  /// The CRC from the final bit-reversed register S = reverse(R).
  std::uint64_t finalize(std::uint64_t s) const noexcept;

  CrcSpec spec_;
  std::uint64_t polyRev_ = 0;  ///< reverse(poly): the reversed feedback taps
  std::uint64_t initRev_ = 0;  ///< reverse(init): where S starts
  /// Slicing-by-8 tables: T_k[b] is S after byte b and then 8·k zero bits,
  /// starting from S = 0. T0 is also the byte table.
  std::vector<std::array<std::uint64_t, 256>> slices_;
};

/// Bit-reverses the low `width` bits of v.
std::uint64_t reverseBits(std::uint64_t v, unsigned width);

/// Packs a byte message into a BitVec in the order the serial engine (and
/// the air interface) would see it: per byte, least-significant bit first
/// when `lsbFirst`, most-significant bit first otherwise.
common::BitVec bytesToBits(std::span<const std::uint8_t> data, bool lsbFirst);

}  // namespace rfid::crc
