#include "core/detection_scheme.hpp"

#include "common/alloc_guard.hpp"
#include "common/require.hpp"

namespace rfid::core {

using common::BitVec;
using phy::SlotTiming;
using phy::SlotType;

BitVec DetectionScheme::idFromContention(const BitVec& /*signal*/) const {
  common::throwPrecondition("idIsInContention()",
                            "this scheme has no ID in the contention signal");
}

BitVec DetectionScheme::contentionSignal(const tags::Tag& tag,
                                         common::Rng& tagRng) const {
  BitVec out;
  contentionSignalInto(tag, tagRng, out);
  return out;
}

void DetectionScheme::packedStaticSignal(const tags::Tag& tag,
                                         std::uint64_t* out) const {
  RFID_REQUIRE(packedKind() == PackedKind::kStatic,
               "packedStaticSignal is only valid for kStatic schemes");
  // A kStatic signal consumes no randomness, so a throwaway Rng is safe —
  // and makes that contract load-bearing: a scheme that draws from it would
  // diverge from the scalar path and fail the differential tests.
  common::Rng throwaway(0);
  const BitVec signal = contentionSignal(tag, throwaway);
  RFID_REQUIRE(signal.size() == contentionBits(),
               "contention signal length does not match the scheme");
  const std::size_t words = contentionWords();
  for (std::size_t w = 0; w < words; ++w) {
    out[w] = signal.word(w);
  }
}

void DetectionScheme::packedDraw(common::Rng& /*tagRng*/,
                                 std::uint64_t* /*out*/) const {
  common::throwPrecondition("packedKind() == PackedKind::kPerSlot",
                            "this scheme has no per-slot packed draw");
}

// rfid:noexcept-allow: loops over the virtual packedDraw, whose base
// implementation throws for schemes without per-slot packed support
void DetectionScheme::packedDrawRun(common::Rng& tagRng, std::size_t n,
                                    std::uint64_t* out) const {
  ALLOC_GUARD_HOT();
  const std::size_t stride = contentionWords();
  for (std::size_t i = 0; i < n; ++i) {
    packedDraw(tagRng, out + i * stride);
  }
}

void DetectionScheme::classifyPacked(const std::uint64_t* /*superposed*/,
                                     const std::uint32_t* /*slotOffsets*/,
                                     std::size_t /*count*/,
                                     phy::SlotType* /*out*/) const {
  common::throwPrecondition("packedKind() != PackedKind::kNone",
                            "this scheme does not support packed classify");
}

namespace {

/// Bits [pos, pos + width) of a packed word array as an integer (width ≤ 64).
std::uint64_t extractBits(const std::uint64_t* words, std::size_t pos,
                          unsigned width) noexcept {
  ALLOC_GUARD_HOT();
  const std::size_t wi = pos / 64;
  const unsigned shift = static_cast<unsigned>(pos % 64);
  std::uint64_t v = words[wi] >> shift;
  if (shift != 0 && shift + width > 64) {
    v |= words[wi + 1] << (64u - shift);
  }
  const std::uint64_t mask =
      width == 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << width) - 1);
  return v & mask;
}

bool allWordsZero(const std::uint64_t* words, std::size_t count) noexcept {
  ALLOC_GUARD_HOT();
  std::uint64_t acc = 0;
  for (std::size_t w = 0; w < count; ++w) {
    acc |= words[w];
  }
  return acc == 0;
}

/// The check both CRC schemes run on a superposed signal in BitVec's word
/// layout: the CRC recomputed over bits [0, payloadBits) equals the code in
/// the engine's width bits after them.
bool crcCheckPasses(const crc::CrcEngine& engine, const std::uint64_t* words,
                    std::size_t payloadBits) noexcept {
  ALLOC_GUARD_HOT();
  return engine.computeWords(words, payloadBits) ==
         extractBits(words, payloadBits, engine.spec().width);
}

}  // namespace

// --- CRC-CD ----------------------------------------------------------------

CrcCdScheme::CrcCdScheme(phy::AirInterface air, crc::CrcSpec spec)
    : DetectionScheme(air), engine_(std::move(spec)) {
  RFID_REQUIRE(engine_.spec().width == air.crcBits,
               "CRC width must match the air interface's l_crc");
}

CrcCdScheme::CrcCdScheme(phy::AirInterface air)
    : CrcCdScheme(air, crc::crc32()) {}

std::string CrcCdScheme::name() const {
  return "CRC-CD[" + engine_.spec().name + "]";
}

std::size_t CrcCdScheme::contentionBits() const {
  return air().idBits + engine_.spec().width;
}

// rfid:noexcept-allow: the ID-length REQUIRE is a test-pinned public contract
void CrcCdScheme::contentionSignalInto(const tags::Tag& tag,
                                       common::Rng& /*tagRng*/,
                                       BitVec& out) const {
  ALLOC_GUARD_HOT();
  RFID_REQUIRE(tag.id.size() == air().idBits,
               "tag ID length must match the air interface");
  // In-place copy (not operator=): sliceInto routes any first-call storage
  // growth through BitVec's sanctioned high-water-mark path, so steady
  // state stays guard-clean under RFID_ENFORCE_HOT.
  tag.id.sliceInto(0, tag.id.size(), out);
  out.appendUint(engine_.computeWords(tag.id.data(), tag.id.size()),
                 engine_.spec().width);
}

void CrcCdScheme::packedStaticSignal(const tags::Tag& tag,
                                     std::uint64_t* out) const {
  RFID_REQUIRE(tag.id.size() == air().idBits,
               "tag ID length must match the air interface");
  // The ID's words, then the code from bit l_id on; BitVec's zero padding
  // leaves that space clear in the ID's last word.
  const std::size_t idBits = air().idBits;
  const std::uint64_t code = engine_.computeWords(tag.id.data(), idBits);
  const std::size_t words = contentionWords();
  for (std::size_t w = 0; w < words; ++w) {
    out[w] = w < tag.id.words() ? tag.id.word(w) : 0;
  }
  const std::size_t wi = idBits / 64;
  const unsigned shift = static_cast<unsigned>(idBits % 64);
  out[wi] |= code << shift;
  if (shift != 0 && shift + engine_.spec().width > 64) {
    out[wi + 1] |= code >> (64u - shift);
  }
}

// rfid:noexcept-allow: the signal-length REQUIRE is a test-pinned contract
SlotType CrcCdScheme::classify(const std::optional<BitVec>& signal,
                               std::size_t /*trueResponders*/) const {
  ALLOC_GUARD_HOT();
  if (!signal.has_value() || signal->none()) {
    return SlotType::kIdle;
  }
  RFID_REQUIRE(signal->size() == contentionBits(),
               "signal length does not match the scheme");
  // crc(∨ id_i) == ∨ crc(id_i) ⇒ single (Fig. 1). A coincidence across a
  // real collision is possible with probability ~2^-l_crc.
  return crcCheckPasses(engine_, signal->data(), air().idBits)
             ? SlotType::kSingle
             : SlotType::kCollided;
}

void CrcCdScheme::classifyPacked(const std::uint64_t* superposed,
                                 const std::uint32_t* slotOffsets,
                                 std::size_t count, SlotType* out) const
    noexcept {
  ALLOC_GUARD_HOT();
  const std::size_t words = contentionWords();
  const std::size_t idBits = air().idBits;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t* w = superposed + i * words;
    if (slotOffsets[i + 1] == slotOffsets[i] || allWordsZero(w, words)) {
      out[i] = SlotType::kIdle;
      continue;
    }
    out[i] = crcCheckPasses(engine_, w, idBits) ? SlotType::kSingle
                                                : SlotType::kCollided;
  }
}

BitVec CrcCdScheme::idFromContention(const BitVec& signal) const {
  RFID_REQUIRE(signal.size() == contentionBits(),
               "signal length does not match the scheme");
  return signal.slice(0, air().idBits);
}

SlotTiming CrcCdScheme::timing() const {
  const double bits = static_cast<double>(contentionBits());
  return SlotTiming{bits, bits, bits};
}

// --- QCD ---------------------------------------------------------------------

QcdScheme::QcdScheme(phy::AirInterface air, unsigned strength,
                     bool chargeIdPhase)
    : DetectionScheme(air),
      preamble_(strength),
      chargeIdPhase_(chargeIdPhase) {}

std::string QcdScheme::name() const {
  return "QCD[l=" + std::to_string(preamble_.strength()) + "]";
}

std::size_t QcdScheme::contentionBits() const { return preamble_.bits(); }

// rfid:noexcept-allow: encodeInto carries the r-range REQUIRE
void QcdScheme::contentionSignalInto(const tags::Tag& /*tag*/,
                                     common::Rng& tagRng, BitVec& out) const {
  ALLOC_GUARD_HOT();
  preamble_.encodeInto(preamble_.draw(tagRng), out);
}

// rfid:noexcept-allow: inspect carries the preamble-length REQUIRE
SlotType QcdScheme::classify(const std::optional<BitVec>& signal,
                             std::size_t /*trueResponders*/) const {
  ALLOC_GUARD_HOT();
  if (!signal.has_value() || signal->none()) {
    return SlotType::kIdle;
  }
  return preamble_.inspect(*signal) == QcdPreamble::Verdict::kSingle
             ? SlotType::kSingle
             : SlotType::kCollided;
}

void QcdScheme::packedDraw(common::Rng& tagRng,
                           std::uint64_t* out) const noexcept {
  ALLOC_GUARD_HOT();
  // One draw, exactly like contentionSignalInto; draw() satisfies
  // encodeWords' r-range contract by construction.
  preamble_.encodeWords(preamble_.draw(tagRng), out);
}

void QcdScheme::packedDrawRun(common::Rng& tagRng, std::size_t n,
                              std::uint64_t* out) const noexcept {
  ALLOC_GUARD_HOT();
  preamble_.drawEncodeRun(tagRng, n, out);
}

void QcdScheme::classifyPacked(const std::uint64_t* superposed,
                               const std::uint32_t* slotOffsets,
                               std::size_t count, SlotType* out) const
    noexcept {
  ALLOC_GUARD_HOT();
  preamble_.inspectPacked(superposed, slotOffsets, count, out);
}

SlotTiming QcdScheme::timing() const {
  const double prm = static_cast<double>(preamble_.bits());
  const double id =
      chargeIdPhase_ ? static_cast<double>(air().idBits) : 0.0;
  return SlotTiming{/*idle=*/prm, /*single=*/prm + id, /*collided=*/prm};
}

// --- CRC preamble (equal-budget alternative) ----------------------------------

CrcPreambleScheme::CrcPreambleScheme(phy::AirInterface air,
                                     unsigned randomBits, crc::CrcSpec spec)
    : DetectionScheme(air),
      randomBits_(randomBits),
      maxR_(randomBits >= 64 ? ~std::uint64_t{0}
                             : ((std::uint64_t{1} << randomBits) - 1)),
      engine_(std::move(spec)) {
  RFID_REQUIRE(randomBits >= 1 && randomBits <= 64,
               "random part must be 1..64 bits");
}

std::string CrcPreambleScheme::name() const {
  return "CRC-preamble[r=" + std::to_string(randomBits_) + "+" +
         engine_.spec().name + "]";
}

std::size_t CrcPreambleScheme::contentionBits() const {
  return randomBits_ + engine_.spec().width;
}

// rfid:noexcept-allow: BitVec's word accessors carry range REQUIREs
void CrcPreambleScheme::contentionSignalInto(const tags::Tag& /*tag*/,
                                             common::Rng& tagRng,
                                             BitVec& out) const {
  ALLOC_GUARD_HOT();
  // The CRC is computed over `out` while it still holds only the r part.
  out.assignUint(tagRng.between(1, maxR_), randomBits_);
  out.appendUint(engine_.computeWords(out.data(), randomBits_),
                 engine_.spec().width);
}

// rfid:noexcept-allow: the signal-length REQUIRE is a test-pinned contract
SlotType CrcPreambleScheme::classify(const std::optional<BitVec>& signal,
                                     std::size_t /*trueResponders*/) const {
  ALLOC_GUARD_HOT();
  if (!signal.has_value() || signal->none()) {
    return SlotType::kIdle;
  }
  RFID_REQUIRE(signal->size() == contentionBits(),
               "signal length does not match the scheme");
  return crcCheckPasses(engine_, signal->data(), randomBits_)
             ? SlotType::kSingle
             : SlotType::kCollided;
}

SlotTiming CrcPreambleScheme::timing() const {
  const double prm = static_cast<double>(contentionBits());
  const double id = static_cast<double>(air().idBits);
  return SlotTiming{/*idle=*/prm, /*single=*/prm + id, /*collided=*/prm};
}

// --- Ideal oracle ------------------------------------------------------------

IdealScheme::IdealScheme(phy::AirInterface air) : DetectionScheme(air) {}

std::string IdealScheme::name() const { return "Ideal[oracle]"; }

std::size_t IdealScheme::contentionBits() const { return air().idBits; }

// rfid:noexcept-allow: sliceInto validates the slice range
void IdealScheme::contentionSignalInto(const tags::Tag& tag,
                                       common::Rng& /*tagRng*/,
                                       BitVec& out) const {
  ALLOC_GUARD_HOT();
  // In-place copy (see CrcCdScheme::contentionSignalInto).
  tag.id.sliceInto(0, tag.id.size(), out);
}

SlotType IdealScheme::classify(const std::optional<BitVec>& /*signal*/,
                               std::size_t trueResponders) const {
  if (trueResponders == 0) return SlotType::kIdle;
  return trueResponders == 1 ? SlotType::kSingle : SlotType::kCollided;
}

BitVec IdealScheme::idFromContention(const BitVec& signal) const {
  return signal;
}

void IdealScheme::classifyPacked(const std::uint64_t* /*superposed*/,
                                 const std::uint32_t* slotOffsets,
                                 std::size_t count, SlotType* out) const
    noexcept {
  ALLOC_GUARD_HOT();
  // The oracle ignores the signal: the CSR offsets are the ground truth.
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint32_t n = slotOffsets[i + 1] - slotOffsets[i];
    out[i] = n == 0 ? SlotType::kIdle
                    : (n == 1 ? SlotType::kSingle : SlotType::kCollided);
  }
}

SlotTiming IdealScheme::timing() const {
  return SlotTiming{/*idle=*/0.0,
                    /*single=*/static_cast<double>(air().idBits),
                    /*collided=*/0.0};
}

}  // namespace rfid::core
