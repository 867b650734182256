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
//                 With no blocker in the population, a kPerSlot batch is one
//                 packedDrawRun call and nothing tests each responder.
//   2. superpose — one masked segmented OR for every signal width: each row
//                 ORs its first few responders under masks, with no branch
//                 on the row length, and loops only past them.
//   3. classify  — the scheme's batch verdict over all slots at once
//                  (AVX2 inside QcdPreamble::inspectPacked).
//   4. commit    — SlotEngine::commitSlots over the whole batch, the same
//                  routine runSlot ends in: a branch-free tally of the
//                  census and the clock, then the identifications of the
//                  single slots (sim/engine_commit.hpp). Floating-point
//                  airtime is added slot by slot in the scalar order,
//                  keeping the clock bit-identical.
//
// Anything the packed contract cannot express — impairment or capture
// channels, schemes without packed support — routes through a fallback that
// drives runSlot per slot, so runSlotsBatch is *always* bit-identical to
// the scalar loop and the fast path is purely an optimization.
#include <cstdint>

#include "common/alloc_guard.hpp"
#include "common/require.hpp"
#include "sim/engine.hpp"
#include "sim/engine_commit.hpp"
#include "sim/tag_soa.hpp"

namespace rfid::sim {

using phy::SlotType;

namespace {

/// Responders every row of a `words`-word signal ORs under a mask (0 is a
/// width known only at run time, three words or more): enough to cover
/// nearly every row of a framed census without a loop.
constexpr std::size_t maskedRows(std::size_t words) noexcept {
  return words == 1 ? 4 : 3;
}

/// Phase 2: acc[s] = the OR of slot s's responder rows, `words` words each
/// (kWords, when nonzero, fixes the width at compile time). The first
/// kMasked responders of a row of n are ORed under the masks 0 - (n > k),
/// so no row branches on its length unless it is longer than kMasked. The
/// masked reads run up to kMasked rows past the last responder: the
/// transmission scratch keeps that many padding rows, and the masks drop
/// whatever they hold.
template <std::size_t kWords>
void orSegments(const std::uint64_t* tx, const std::uint32_t* offsets,
                std::size_t slotCount, std::size_t words,
                std::uint64_t* acc) noexcept {
  ALLOC_GUARD_HOT();
  constexpr std::size_t kMasked = maskedRows(kWords);
  const std::size_t width = kWords != 0 ? kWords : words;
  for (std::size_t s = 0; s < slotCount; ++s) {
    const std::uint32_t n = offsets[s + 1] - offsets[s];
    const std::uint64_t* row = tx + std::size_t{offsets[s]} * width;
    std::uint64_t* dst = acc + s * width;
    for (std::size_t w = 0; w < width; ++w) {
      std::uint64_t a = 0;
      for (std::size_t k = 0; k < kMasked; ++k) {
        a |= row[k * width + w] & (std::uint64_t{0} - std::uint64_t{n > k});
      }
      for (std::size_t k = kMasked; k < n; ++k) {
        a |= row[k * width + w];
      }
      dst[w] = a;
    }
  }
}

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
  // All throwing validation lives here, outside the hot functions: once a
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

  const std::size_t txWords = (nResp + maskedRows(wordsPer)) * wordsPer;
  if (batchTxWords_.size() < txWords) {
    ALLOC_GUARD_ALLOW("high-water-mark growth; steady state reuses storage");
    batchTxWords_.resize(txWords);
  }
  if (batchAccWords_.size() < slots * wordsPer) {
    ALLOC_GUARD_ALLOW("high-water-mark growth; steady state reuses storage");
    batchAccWords_.resize(slots * wordsPer);
  }
  if (detectedOut.empty() && batchVerdicts_.size() < slots) {
    ALLOC_GUARD_ALLOW("high-water-mark growth; steady state reuses storage");
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
  const bool anyBlocker = soa.anyBlocker();
  const auto jam = [wordsPer, lastMask](std::uint64_t* dst) {
    // The all-ones jamming signal (assignFill in the scalar path).
    for (std::size_t w = 0; w < wordsPer; ++w) {
      dst[w] = w + 1 == wordsPer ? lastMask : ~std::uint64_t{0};
    }
  };
  if (staticSignals) {
    for (std::size_t k = 0; k < nResp; ++k) {
      const std::uint32_t idx = batch.responders[k];
      RFID_ASSERT(idx < tags.size());
      std::uint64_t* dst = tx + k * wordsPer;
      if (anyBlocker && soa.blocker(idx)) {
        jam(dst);
      } else {
        const std::uint64_t* src = soa.staticSignal(idx);
        for (std::size_t w = 0; w < wordsPer; ++w) {
          dst[w] = src[w];
        }
      }
    }
  } else if (!anyBlocker) {
    // Every responder is honest: the whole batch is one run.
    if (nResp != 0) {
      scheme_.packedDrawRun(rng, nResp, tx);
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
        jam(tx + k * wordsPer);
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
  switch (wordsPer) {
    case 1:
      orSegments<1>(tx, offsets, slots, wordsPer, acc);
      break;
    case 2:
      orSegments<2>(tx, offsets, slots, wordsPer, acc);
      break;
    default:
      orSegments<0>(tx, offsets, slots, wordsPer, acc);
      break;
  }

  // Phase 3 — classify every slot, into the caller's verdicts when it
  // wants them.
  const std::span<SlotType> verdicts =
      detectedOut.empty() ? std::span<SlotType>(batchVerdicts_.data(), slots)
                          : detectedOut;
  scheme_.classifyPacked(acc, offsets, slots, verdicts.data());

  // Phase 4 — commit the whole batch; it rewrites a rejected verify's
  // verdict. A pure-OR channel captures index 0 iff exactly one tag
  // transmitted and never corrupts; those are the only facts the commit
  // needs from it (reception nullptr).
  commitSlots(tags, batch.responders, offsets, verdicts, nullptr);
}

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
      ALLOC_GUARD_ALLOW("high-water-mark growth; steady state reuses storage");
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

}  // namespace rfid::sim
