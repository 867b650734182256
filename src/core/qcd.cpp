#include "core/qcd.hpp"

#include <cmath>

#include "common/alloc_guard.hpp"
#include "common/require.hpp"
#include "common/simd.hpp"

#if RFID_SIMD_AVX2_COMPILED
#include <immintrin.h>
#endif

namespace rfid::core {

using common::BitVec;

QcdPreamble::QcdPreamble(unsigned strength) : strength_(strength), maxR_(0) {
  // Validate before deriving maxR_: the shift below is UB for strength > 64.
  RFID_REQUIRE(strength >= 1 && strength <= 64,
               "QCD strength must be in [1, 64]");
  maxR_ = strength == 64 ? ~std::uint64_t{0}
                         : ((std::uint64_t{1} << strength) - 1);
}

std::uint64_t QcdPreamble::draw(common::Rng& rng) const {
  return rng.between(1, maxR_);
}

BitVec QcdPreamble::encode(std::uint64_t r) const {
  BitVec out;
  encodeInto(r, out);
  return out;
}

// rfid:noexcept-allow: the r-range REQUIRE is a test-pinned public contract
void QcdPreamble::encodeInto(std::uint64_t r, BitVec& out) const {
  ALLOC_GUARD_HOT();
  RFID_REQUIRE(r >= 1 && r <= maxR_, "r must be a positive l-bit integer");
  // f(r) = ~r restricted to l bits is r ^ maxR_; the whole preamble is one
  // or two word-level stores.
  out.assignUint(r, strength_);
  out.appendUint(r ^ maxR_, strength_);
}

// rfid:noexcept-allow: the length REQUIRE is a test-pinned public contract
QcdPreamble::Verdict QcdPreamble::inspect(const BitVec& superposed) const {
  ALLOC_GUARD_HOT();
  RFID_REQUIRE(superposed.size() == bits(),
               "superposed preamble has the wrong length");
  // r′ occupies bits [0, l), c′ bits [l, 2l); with l ≤ 64 both live in the
  // first two words, so the check c′ == ~r′ is pure word arithmetic.
  const std::uint64_t w0 = superposed.word(0);
  std::uint64_t rp, cp;
  if (strength_ == 64) {
    rp = w0;
    cp = superposed.word(1);
  } else if (2ull * strength_ <= 64) {
    rp = w0 & maxR_;
    cp = (w0 >> strength_) & maxR_;
  } else {
    rp = w0 & maxR_;
    cp = ((w0 >> strength_) | (superposed.word(1) << (64u - strength_))) &
         maxR_;
  }
  return cp == (rp ^ maxR_) ? Verdict::kSingle : Verdict::kCollided;
}

// rfid:noexcept-allow: validates the public r-range contract; packed
// callers pass draw() results that satisfy it by construction
void QcdPreamble::encodeWords(std::uint64_t r, std::uint64_t* out) const {
  ALLOC_GUARD_HOT();
  RFID_REQUIRE(r >= 1 && r <= maxR_, "r must be a positive l-bit integer");
  // Mirrors the word layout of encodeInto: r occupies bits [0, l), the
  // checking code f(r) = r ^ maxR_ bits [l, 2l).
  const std::uint64_t check = r ^ maxR_;
  if (strength_ == 64) {
    out[0] = r;
    out[1] = check;
  } else if (2ull * strength_ <= 64) {
    out[0] = r | (check << strength_);
  } else {
    out[0] = r | (check << strength_);
    out[1] = check >> (64u - strength_);
  }
}

namespace {

/// drawEncodeRun body for a compile-time strength with 2l ≤ 64: the draw
/// bound is a constant, so the compiler replaces Rng::below's hardware
/// divide (the dominant cost of a draw) with a magic-number multiply. The
/// arithmetic is identical to the runtime-strength path — same Lemire
/// rejection, same modulo — so the words and RNG consumption don't change.
template <unsigned kStrength>
void drawEncodeRunFixed(rfid::common::Rng& rng, std::size_t n,
                        std::uint64_t* out) noexcept {
  ALLOC_GUARD_HOT();
  constexpr std::uint64_t kMax = (std::uint64_t{1} << kStrength) - 1;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t r = rng.between(1, kMax);
    out[i] = r | ((r ^ kMax) << kStrength);
  }
}

}  // namespace

void QcdPreamble::drawEncodeRun(common::Rng& rng, std::size_t n,
                                std::uint64_t* out) const noexcept {
  ALLOC_GUARD_HOT();
  // Draw order matches n successive draw()+encodeWords() pairs exactly; the
  // precondition r ∈ [1, maxR] holds by construction of between(), so the
  // loop bodies are pure draw + store.
  switch (strength_) {
    case 4:
      return drawEncodeRunFixed<4>(rng, n, out);
    case 8:  // the paper's recommended strength
      return drawEncodeRunFixed<8>(rng, n, out);
    case 12:
      return drawEncodeRunFixed<12>(rng, n, out);
    case 16:
      return drawEncodeRunFixed<16>(rng, n, out);
    default:
      break;
  }
  const std::uint64_t maxR = maxR_;
  const unsigned l = strength_;
  if (l == 64) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t r = rng.between(1, maxR);
      out[2 * i] = r;
      out[2 * i + 1] = r ^ maxR;
    }
  } else if (2ull * l <= 64) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t r = rng.between(1, maxR);
      out[i] = r | ((r ^ maxR) << l);
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t r = rng.between(1, maxR);
      const std::uint64_t check = r ^ maxR;
      out[2 * i] = r | (check << l);
      out[2 * i + 1] = check >> (64u - l);
    }
  }
}

namespace {

#if RFID_SIMD_AVX2_COMPILED
// Four single-word preambles per iteration: extract r′ and c′ with lane-wise
// shifts/masks, test c′ == r′ ^ maxR, then blend in kIdle for zero-responder
// lanes (responder counts come straight from adjacent CSR offsets).
__attribute__((target("avx2"))) void inspectPackedAvx2(
    const std::uint64_t* superposed, const std::uint32_t* slotOffsets,
    std::size_t count, unsigned strength, std::uint64_t maxR,
    phy::SlotType* out) noexcept {
  ALLOC_GUARD_HOT();
  const __m256i vMax = _mm256_set1_epi64x(static_cast<long long>(maxR));
  const __m256i vZero = _mm256_setzero_si256();
  const __m256i vOne = _mm256_set1_epi64x(1);
  const __m256i vTwo = _mm256_set1_epi64x(2);
  const __m128i vShift = _mm_cvtsi32_si128(static_cast<int>(strength));
  alignas(32) std::uint64_t lanes[4];
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256i s = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(superposed + i));
    const __m256i rp = _mm256_and_si256(s, vMax);
    const __m256i cp = _mm256_and_si256(_mm256_srl_epi64(s, vShift), vMax);
    const __m256i single = _mm256_cmpeq_epi64(cp, _mm256_xor_si256(rp, vMax));
    const __m128i off0 = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(slotOffsets + i));
    const __m128i off1 = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(slotOffsets + i + 1));
    const __m256i counts = _mm256_cvtepu32_epi64(_mm_sub_epi32(off1, off0));
    const __m256i idle = _mm256_cmpeq_epi64(counts, vZero);
    __m256i verdict = _mm256_blendv_epi8(vTwo, vOne, single);
    verdict = _mm256_blendv_epi8(verdict, vZero, idle);
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), verdict);
    out[i + 0] = static_cast<phy::SlotType>(lanes[0]);
    out[i + 1] = static_cast<phy::SlotType>(lanes[1]);
    out[i + 2] = static_cast<phy::SlotType>(lanes[2]);
    out[i + 3] = static_cast<phy::SlotType>(lanes[3]);
  }
  for (; i < count; ++i) {
    if (slotOffsets[i + 1] == slotOffsets[i]) {
      out[i] = phy::SlotType::kIdle;
      continue;
    }
    const std::uint64_t w0 = superposed[i];
    const std::uint64_t rp = w0 & maxR;
    const std::uint64_t cp = (w0 >> strength) & maxR;
    out[i] = cp == (rp ^ maxR) ? phy::SlotType::kSingle
                               : phy::SlotType::kCollided;
  }
}
#endif  // RFID_SIMD_AVX2_COMPILED

}  // namespace

void QcdPreamble::inspectPacked(const std::uint64_t* superposed,
                                const std::uint32_t* slotOffsets,
                                std::size_t count, phy::SlotType* out) const
    noexcept {
  ALLOC_GUARD_HOT();
  if (2ull * strength_ <= 64) {
#if RFID_SIMD_AVX2_COMPILED
    if (common::simd::avx2Enabled()) {
      inspectPackedAvx2(superposed, slotOffsets, count, strength_, maxR_, out);
      return;
    }
#endif
    for (std::size_t i = 0; i < count; ++i) {
      if (slotOffsets[i + 1] == slotOffsets[i]) {
        out[i] = phy::SlotType::kIdle;
        continue;
      }
      const std::uint64_t w0 = superposed[i];
      const std::uint64_t rp = w0 & maxR_;
      const std::uint64_t cp = (w0 >> strength_) & maxR_;
      out[i] = cp == (rp ^ maxR_) ? phy::SlotType::kSingle
                                  : phy::SlotType::kCollided;
    }
    return;
  }
  // Two words per preamble (l > 32): same word extraction as inspect().
  for (std::size_t i = 0; i < count; ++i) {
    if (slotOffsets[i + 1] == slotOffsets[i]) {
      out[i] = phy::SlotType::kIdle;
      continue;
    }
    const std::uint64_t* w = superposed + 2 * i;
    std::uint64_t rp, cp;
    if (strength_ == 64) {
      rp = w[0];
      cp = w[1];
    } else {
      rp = w[0] & maxR_;
      cp = ((w[0] >> strength_) | (w[1] << (64u - strength_))) & maxR_;
    }
    out[i] = cp == (rp ^ maxR_) ? phy::SlotType::kSingle
                                : phy::SlotType::kCollided;
  }
}

double QcdPreamble::evasionProbability(unsigned strength, std::size_t m) {
  RFID_REQUIRE(strength >= 1 && strength <= 64,
               "QCD strength must be in [1, 64]");
  if (m <= 1) return 0.0;
  const double values =
      strength == 64 ? std::ldexp(1.0, 64) - 1.0
                     : static_cast<double>((std::uint64_t{1} << strength) - 1);
  return std::pow(values, -static_cast<double>(m - 1));
}

}  // namespace rfid::core
