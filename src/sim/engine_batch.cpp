// The batched slot kernel: many contention slots per call, superposed at
// 64-bit-word granularity.
//
// The scalar runSlot path pays per responder for virtual dispatch, BitVec
// bookkeeping, and an optional<BitVec> channel round-trip. When the scheme
// speaks the packed API (core::DetectionScheme::PackedKind) and the channel
// is a pure Boolean sum (phy::Channel::isPureOr), none of that machinery
// changes the outcome — the whole slot reduces to OR-ing packed words and a
// word-level classify. The kernel exploits that in four phases over a CSR
// batch (sim::SlotBatch):
//
//   1. encode   — one packed signal per responder, walked in slot order so
//                 per-slot schemes (QCD) consume the RNG exactly as the
//                 scalar loop would; kStatic schemes copy the precomputed
//                 rows from the TagSoA snapshot and blockers get all-ones.
//   2. superpose — segmented OR per slot (AVX2 when signals fit one word).
//   3. classify  — the scheme's batch verdict over all slots at once
//                  (AVX2 inside QcdPreamble::inspectPacked).
//   4. commit    — SlotEngine::commitSlot per slot, the same routine runSlot
//                  ends in. Floating-point airtime is added slot by slot in
//                  the scalar order, keeping the clock bit-identical.
//
// Anything the packed contract cannot express — impairment or capture
// channels, schemes without packed support — routes through a fallback that
// drives runSlot per slot, so runSlotsBatch is *always* bit-identical to
// the scalar loop and the fast path is purely an optimization.
#include <cstdint>
#include <limits>

#include "common/alloc_guard.hpp"
#include "common/require.hpp"
#include "common/simd.hpp"
#include "sim/engine.hpp"
#include "sim/engine_commit.hpp"
#include "sim/tag_soa.hpp"

#if RFID_SIMD_AVX2_COMPILED
#include <immintrin.h>
#endif

namespace rfid::sim {

using phy::SlotType;

namespace {

// rfid:hot begin
/// Phase 2, portable: acc[s] = OR of the packed rows of slot s's responders.
void orSegmentsPortable(const std::uint64_t* tx, const std::uint32_t* offsets,
                        std::size_t slotCount, std::size_t wordsPer,
                        std::uint64_t* acc) noexcept {
  ALLOC_GUARD_HOT();
  if (wordsPer == 1) {
    for (std::size_t s = 0; s < slotCount; ++s) {
      std::uint64_t a = 0;
      for (std::uint32_t k = offsets[s]; k < offsets[s + 1]; ++k) {
        a |= tx[k];
      }
      acc[s] = a;
    }
    return;
  }
  for (std::size_t s = 0; s < slotCount; ++s) {
    std::uint64_t* dst = acc + s * wordsPer;
    for (std::size_t w = 0; w < wordsPer; ++w) {
      dst[w] = 0;
    }
    for (std::uint32_t k = offsets[s]; k < offsets[s + 1]; ++k) {
      const std::uint64_t* src = tx + k * wordsPer;
      for (std::size_t w = 0; w < wordsPer; ++w) {
        dst[w] |= src[w];
      }
    }
  }
}

#if RFID_SIMD_AVX2_COMPILED
/// Phase 2, AVX2, single-word signals: wide OR-reduce for crowded slots
/// (four responders per vector op), scalar tail for the sparse common case.
__attribute__((target("avx2"))) void orSegmentsAvx2(
    const std::uint64_t* tx, const std::uint32_t* offsets,
    std::size_t slotCount, std::uint64_t* acc) noexcept {
  ALLOC_GUARD_HOT();
  for (std::size_t s = 0; s < slotCount; ++s) {
    std::uint32_t k = offsets[s];
    const std::uint32_t end = offsets[s + 1];
    std::uint64_t a = 0;
    if (end - k >= 8) {
      __m256i v = _mm256_setzero_si256();
      for (; k + 4 <= end; k += 4) {
        v = _mm256_or_si256(
            v, _mm256_loadu_si256(
                   reinterpret_cast<const __m256i*>(tx + k)));
      }
      const __m128i half = _mm_or_si128(_mm256_castsi256_si128(v),
                                        _mm256_extracti128_si256(v, 1));
      a = static_cast<std::uint64_t>(_mm_cvtsi128_si64(half)) |
          static_cast<std::uint64_t>(_mm_extract_epi64(half, 1));
    }
    for (; k < end; ++k) {
      a |= tx[k];
    }
    acc[s] = a;
  }
}
#endif  // RFID_SIMD_AVX2_COMPILED
// rfid:hot end

}  // namespace

void SlotEngine::runSlotsBatch(std::span<tags::Tag> tags, const TagSoA& soa,
                               const SlotBatch& batch, common::Rng& rng,
                               std::span<SlotType> detectedOut) {
  const std::size_t slots = batch.slotCount();
  RFID_REQUIRE(detectedOut.empty() || detectedOut.size() == slots,
               "detectedOut must be empty or hold one entry per slot");
  if (slots == 0) {
    return;
  }
  RFID_REQUIRE(batch.offsets.front() == 0 &&
                   batch.offsets.back() == batch.responders.size(),
               "CSR offsets must span exactly the responder array");
  for (std::size_t s = 0; s < slots; ++s) {
    RFID_REQUIRE(batch.offsets[s] <= batch.offsets[s + 1],
                 "CSR offsets must be monotonically non-decreasing");
  }
  RFID_REQUIRE(soa.size() == tags.size(),
               "SoA snapshot does not match the tag population");
  // All throwing validation lives here, outside the hot regions: once a
  // batch passes, the kernels below run noexcept on pre-checked indices.
  for (const std::uint32_t idx : batch.responders) {
    RFID_REQUIRE(idx < tags.size(), "responder index out of range");
  }

  if (scheme_.packedKind() == core::DetectionScheme::PackedKind::kNone ||
      !channel_.isPureOr()) {
    runSlotsBatchFallback(tags, batch, rng, detectedOut);
    return;
  }
  RFID_REQUIRE(
      scheme_.packedKind() != core::DetectionScheme::PackedKind::kStatic ||
          (soa.hasStaticSignals() &&
           soa.signalWords() == scheme_.contentionWords()),
      "SoA snapshot was not gathered under this engine's scheme");
  runSlotsBatchPacked(tags, soa, batch, rng, detectedOut);
}

// rfid:hot begin
// rfid:noexcept-allow: forwards to runSlotsBatch (the throwing validation
// boundary) and carries the test-pinned 32-bit CSR overflow REQUIRE
void SlotEngine::runSlotsBatchBlockers(std::span<tags::Tag> tags,
                                       const TagSoA& soa,
                                       const SlotBatch& honest,
                                       std::span<const std::size_t> blockers,
                                       common::Rng& rng,
                                       std::span<SlotType> detectedOut) {
  ALLOC_GUARD_HOT();
  if (blockers.empty()) {
    // No per-slot append needed: the honest CSR *is* the batch.
    runSlotsBatch(tags, soa, honest, rng, detectedOut);
    return;
  }
  const std::size_t slots = honest.slotCount();
  const std::size_t total =
      honest.responders.size() + slots * blockers.size();
  RFID_REQUIRE(total <= std::numeric_limits<std::uint32_t>::max(),
               "blocker-appended batch exceeds 32-bit CSR indexing");
  if (batchRowResponders_.size() < total) {
    ALLOC_GUARD_ALLOW();
    // rfid:hot-allow: high-water-mark growth; steady state reuses storage
    batchRowResponders_.resize(total);
  }
  if (batchRowOffsets_.size() < slots + 1) {
    ALLOC_GUARD_ALLOW();
    // rfid:hot-allow: high-water-mark growth; steady state reuses storage
    batchRowOffsets_.resize(slots + 1);
  }
  std::size_t w = 0;
  batchRowOffsets_[0] = 0;
  for (std::size_t s = 0; s < slots; ++s) {
    for (std::uint32_t k = honest.offsets[s]; k < honest.offsets[s + 1];
         ++k) {
      batchRowResponders_[w++] = honest.responders[k];
    }
    for (const std::size_t b : blockers) {
      batchRowResponders_[w++] = static_cast<std::uint32_t>(b);
    }
    batchRowOffsets_[s + 1] = static_cast<std::uint32_t>(w);
  }
  runSlotsBatch(tags, soa,
                {{batchRowResponders_.data(), w},
                 {batchRowOffsets_.data(), slots + 1}},
                rng, detectedOut);
}
// rfid:hot end

// rfid:hot begin
void SlotEngine::runSlotsBatchPacked(std::span<tags::Tag> tags,
                                     const TagSoA& soa, const SlotBatch& batch,
                                     common::Rng& rng,
                                     std::span<SlotType> detectedOut) noexcept {
  ALLOC_GUARD_HOT();
  const std::size_t slots = batch.slotCount();
  const std::size_t wordsPer = scheme_.contentionWords();
  const std::size_t nResp = batch.responders.size();
  const bool staticSignals =
      scheme_.packedKind() == core::DetectionScheme::PackedKind::kStatic;
  RFID_ASSERT(!staticSignals ||
              (soa.hasStaticSignals() && soa.signalWords() == wordsPer));

  if (batchTxWords_.size() < nResp * wordsPer) {
    ALLOC_GUARD_ALLOW();
    // rfid:hot-allow: high-water-mark growth; steady state reuses storage
    batchTxWords_.resize(nResp * wordsPer);
  }
  if (batchAccWords_.size() < slots * wordsPer) {
    ALLOC_GUARD_ALLOW();
    // rfid:hot-allow: high-water-mark growth; steady state reuses storage
    batchAccWords_.resize(slots * wordsPer);
  }
  if (batchVerdicts_.size() < slots) {
    ALLOC_GUARD_ALLOW();
    // rfid:hot-allow: high-water-mark growth; steady state reuses storage
    batchVerdicts_.resize(slots);
  }

  const std::size_t bits = scheme_.contentionBits();
  const std::uint64_t lastMask = (bits % 64) == 0
                                     ? ~std::uint64_t{0}
                                     : ((std::uint64_t{1} << (bits % 64)) - 1);

  // Phase 1 — encode. Responders are walked in slot order, so a kPerSlot
  // scheme draws from `rng` in exactly the scalar sequence (blockers and
  // kStatic signals consume nothing, same as contentionSignalInto).
  std::uint64_t* tx = batchTxWords_.data();
  if (staticSignals) {
    for (std::size_t k = 0; k < nResp; ++k) {
      const std::uint32_t idx = batch.responders[k];
      RFID_ASSERT(idx < tags.size());
      std::uint64_t* dst = tx + k * wordsPer;
      if (soa.blocker(idx)) {
        // The all-ones jamming signal (assignFill in the scalar path).
        for (std::size_t w = 0; w < wordsPer; ++w) {
          dst[w] = w + 1 == wordsPer ? lastMask : ~std::uint64_t{0};
        }
      } else {
        const std::uint64_t* src = soa.staticSignal(idx);
        for (std::size_t w = 0; w < wordsPer; ++w) {
          dst[w] = src[w];
        }
      }
    }
  } else {
    // Per-slot draws: each maximal run of consecutive honest responders is
    // encoded through one packedDrawRun call (identical RNG consumption to
    // per-responder packedDraw, without the per-draw virtual dispatch).
    std::size_t k = 0;
    while (k < nResp) {
      const std::uint32_t idx = batch.responders[k];
      RFID_ASSERT(idx < tags.size());
      if (soa.blocker(idx)) {
        std::uint64_t* dst = tx + k * wordsPer;
        for (std::size_t w = 0; w < wordsPer; ++w) {
          dst[w] = w + 1 == wordsPer ? lastMask : ~std::uint64_t{0};
        }
        ++k;
        continue;
      }
      std::size_t runEnd = k + 1;
      while (runEnd < nResp) {
        const std::uint32_t next = batch.responders[runEnd];
        RFID_ASSERT(next < tags.size());
        if (soa.blocker(next)) break;
        ++runEnd;
      }
      scheme_.packedDrawRun(rng, runEnd - k, tx + k * wordsPer);
      k = runEnd;
    }
  }

  // Phase 2 — superpose.
  std::uint64_t* acc = batchAccWords_.data();
  const std::uint32_t* offsets = batch.offsets.data();
#if RFID_SIMD_AVX2_COMPILED
  if (wordsPer == 1 && common::simd::avx2Enabled()) {
    orSegmentsAvx2(tx, offsets, slots, acc);
  } else {
    orSegmentsPortable(tx, offsets, slots, wordsPer, acc);
  }
#else
  orSegmentsPortable(tx, offsets, slots, wordsPer, acc);
#endif

  // Phase 3 — classify every slot.
  scheme_.classifyPacked(acc, offsets, slots, batchVerdicts_.data());

  // Phase 4 — commit, sequential and in slot order. The airtime clock is
  // floating point, so the per-slot adds must happen in the scalar order
  // for the batch to be bit-identical — no bulk accumulate here. A pure-OR
  // channel captures index 0 iff exactly one tag transmitted and never
  // corrupts; those are the only facts commitSlot needs from it.
  for (std::size_t s = 0; s < slots; ++s) {
    const std::span<const std::uint32_t> responders =
        batch.responders.subspan(offsets[s], offsets[s + 1] - offsets[s]);
    const std::optional<std::size_t> captured =
        responders.size() == 1 ? std::optional<std::size_t>{0} : std::nullopt;
    const SlotType effective = commitSlot(tags, responders, batchVerdicts_[s],
                                          captured, /*corrupted=*/false);
    if (!detectedOut.empty()) {
      detectedOut[s] = effective;
    }
  }
}
// rfid:hot end

// rfid:hot begin
// rfid:noexcept-allow: drives the scalar runSlot, which owns the throwing
// per-slot API checks
void SlotEngine::runSlotsBatchFallback(std::span<tags::Tag> tags,
                                       const SlotBatch& batch,
                                       common::Rng& rng,
                                       std::span<SlotType> detectedOut) {
  ALLOC_GUARD_HOT();
  // Slot-exact route for impairment/capture channels and unpacked schemes:
  // trivially bit-identical because it *is* the scalar path, at the cost of
  // one index-width conversion per responder.
  const std::size_t slots = batch.slotCount();
  for (std::size_t s = 0; s < slots; ++s) {
    const std::uint32_t begin = batch.offsets[s];
    const std::uint32_t end = batch.offsets[s + 1];
    const std::size_t n = end - begin;
    if (batchResponders_.size() < n) {
      ALLOC_GUARD_ALLOW();
      // rfid:hot-allow: high-water-mark growth; steady state reuses storage
      batchResponders_.resize(n);
    }
    for (std::size_t k = 0; k < n; ++k) {
      batchResponders_[k] = batch.responders[begin + k];
    }
    const SlotType effective =
        runSlot(tags, {batchResponders_.data(), n}, rng);
    if (!detectedOut.empty()) {
      detectedOut[s] = effective;
    }
  }
}
// rfid:hot end

}  // namespace rfid::sim
