// FrameBatcher: the one frame emitter of FSA and DFSA.
//
// Each frame is one sequence of slot draws, in ascending tag order, and
// one of two emitters. The per-slot reference emitter (FrameMode::kScalar)
// buckets the draws into per-slot vectors, appends the blockers, and feeds
// runSlot one slot at a time. The batched emitter produces the identical
// responder sequence via a two-pass counting sort into flat CSR arrays,
// then hands the whole frame to the engine in one runSlotsBatchBlockers
// call. The two stay separate code so the differential tests in
// tests/test_frame_batch.cpp compare independent renderings; bit-identity
// is inherited from the engine's batch contract.
#include "anticollision/protocol.hpp"

#include <algorithm>

#include "common/alloc_guard.hpp"
#include "common/require.hpp"

namespace rfid::anticollision {

void FrameBatcher::beginRound(std::span<const tags::Tag> tags,
                              const sim::SlotEngine& engine,
                              const sim::TagSoA* shared,
                              Protocol::FrameMode mode) {
  mode_ = mode;
  if (shared != nullptr) {
    RFID_REQUIRE(shared->size() == tags.size(),
                 "shared SoA snapshot does not match the tag population");
    soa_ = shared;
  } else {
    ownSoa_.gather(tags, engine.scheme());
    soa_ = &ownSoa_;
  }
  Protocol::blockerIndicesInto(tags, blockers_);
  activeGathered_ = false;
}

std::span<const std::size_t> FrameBatcher::gatherActive(
    std::span<const tags::Tag> tags) {
  if (activeGathered_) {
    Protocol::filterStillActive(tags, active_);
  } else {
    Protocol::activeTagIndicesInto(tags, active_);
    activeGathered_ = true;
  }
  return active_;
}

// rfid:noexcept-allow: the beginRound-ordering and frame-prefix REQUIREs
// are test-pinned API contracts
std::span<const phy::SlotType> FrameBatcher::runFrame(
    sim::SlotEngine& engine, std::span<tags::Tag> tags, std::size_t frameSize,
    std::size_t slotsToRun, common::Rng& rng) {
  ALLOC_GUARD_HOT();
  RFID_REQUIRE(soa_ != nullptr, "beginRound must precede runFrame");
  RFID_REQUIRE(slotsToRun >= 1 && slotsToRun <= frameSize,
               "frame prefix must be non-empty and within the frame");
  if (detected_.size() < slotsToRun) {
    ALLOC_GUARD_ALLOW("high-water-mark growth; steady state reuses storage");
    detected_.resize(slotsToRun);
  }

  if (mode_ == Protocol::FrameMode::kScalar) {
    // The per-slot reference emitter: bucket the draws, then one runSlot
    // per slot with the blockers appended.
    if (buckets_.size() < slotsToRun) {
      ALLOC_GUARD_ALLOW("high-water-mark growth; steady state reuses storage");
      buckets_.resize(slotsToRun);
    }
    for (std::size_t s = 0; s < slotsToRun; ++s) {
      buckets_[s].clear();
    }
    for (const std::size_t idx : active_) {
      const auto slot = static_cast<std::uint32_t>(rng.below(frameSize));
      if (slot < slotsToRun) {
        tags[idx].slotChoice = slot;
        common::pushBackAmortized(buckets_[slot], idx);
      }
    }
    for (std::size_t s = 0; s < slotsToRun; ++s) {
      for (const std::size_t b : blockers_) {
        common::pushBackAmortized(buckets_[s], b);
      }
      detected_[s] = engine.runSlot(tags, buckets_[s], rng);
    }
    return {detected_.data(), slotsToRun};
  }

  const std::size_t nActive = active_.size();
  if (counts_.size() < slotsToRun) {
    ALLOC_GUARD_ALLOW("high-water-mark growth; steady state reuses storage");
    counts_.resize(slotsToRun);
  }
  if (offsets_.size() < slotsToRun + 1) {
    ALLOC_GUARD_ALLOW("high-water-mark growth; steady state reuses storage");
    offsets_.resize(slotsToRun + 1);
  }
  if (draws_.size() < nActive) {
    ALLOC_GUARD_ALLOW("high-water-mark growth; steady state reuses storage");
    draws_.resize(nActive);
  }

  // Pass 1 — every active tag draws its slot (the same draw sequence as
  // the reference emitter); draws inside the running prefix are committed
  // to the tag and counted, the rest never contend this frame.
  std::fill(counts_.begin(),
            counts_.begin() + static_cast<std::ptrdiff_t>(slotsToRun), 0u);
  for (std::size_t k = 0; k < nActive; ++k) {
    const auto slot = static_cast<std::uint32_t>(rng.below(frameSize));
    draws_[k] = slot;
    if (slot < slotsToRun) {
      tags[active_[k]].slotChoice = slot;
      ++counts_[slot];
    }
  }

  // Prefix-sum the counts into CSR row offsets.
  offsets_[0] = 0;
  for (std::size_t s = 0; s < slotsToRun; ++s) {
    offsets_[s + 1] = offsets_[s] + counts_[s];
  }
  const std::size_t nHonest = offsets_[slotsToRun];
  if (responders_.size() < nHonest) {
    ALLOC_GUARD_ALLOW("high-water-mark growth; steady state reuses storage");
    responders_.resize(nHonest);
  }

  // Pass 2 — stable placement: walking the active set in ascending tag
  // order keeps each slot's honest responders in the order the reference
  // emitter's buckets hold them (part of the RNG-order contract).
  for (std::size_t s = 0; s < slotsToRun; ++s) {
    counts_[s] = offsets_[s];
  }
  for (std::size_t k = 0; k < nActive; ++k) {
    const std::uint32_t slot = draws_[k];
    if (slot < slotsToRun) {
      responders_[counts_[slot]++] = static_cast<std::uint32_t>(active_[k]);
    }
  }

  const sim::SlotBatch honest{{responders_.data(), nHonest},
                              {offsets_.data(), slotsToRun + 1}};
  engine.runSlotsBatchBlockers(tags, *soa_, honest, blockers_, rng,
                               {detected_.data(), slotsToRun});
  return {detected_.data(), slotsToRun};
}

}  // namespace rfid::anticollision
