// Protocol::run, the snapshot-gathering entry; FrameBatcher: the slot
// engine's one frame renderer; FramedAloha: the one frame loop of FSA and
// DFSA.
//
// Each frame is one sequence of slot draws, in ascending tag order. The
// draw step (drawFrame) lays the draws out by a two-pass counting sort into
// flat CSR arrays, each row's blocker tail reserved; runFrame hands the
// whole frame to the engine in one runSlotsBatch call, runRow one row at a
// time. The per-slot reference emitter (FrameMode::kScalar) buckets the
// same draws into per-slot vectors, appends the blockers, and feeds runSlot
// one slot at a time. The two stay separate code so the differential tests
// in tests/test_frame_batch.cpp compare independent renderings;
// bit-identity is inherited from the engine's batch contract.
#include "anticollision/protocol.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "common/alloc_guard.hpp"
#include "common/require.hpp"

namespace rfid::anticollision {

bool Protocol::run(sim::SlotEngine& engine, std::span<tags::Tag> tags,
                   common::Rng& rng) {
  ownSoa_.gather(tags, engine.scheme());
  return runWithSnapshot(engine, tags, rng, ownSoa_);
}

void Protocol::requireSnapshot(std::span<const tags::Tag> tags,
                               const sim::TagSoA& soa) {
  RFID_REQUIRE(soa.size() == tags.size(),
               "SoA snapshot does not match the tag population");
  RFID_REQUIRE(tags.size() <= std::numeric_limits<std::uint32_t>::max(),
               "population exceeds 32-bit CSR indexing");
}

void FrameBatcher::beginRound(std::span<const tags::Tag> tags,
                              const sim::TagSoA& soa,
                              Protocol::FrameMode mode) {
  Protocol::requireSnapshot(tags, soa);
  mode_ = mode;
  soa_ = &soa;
  Protocol::blockerIndicesInto(tags, blockers_);
  activeGathered_ = false;
  rows_ = 0;
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

// The beginRound-ordering, frame-prefix and 32-bit CSR REQUIREs are
// test-pinned API contracts of drawFrame and runFrame.
void FrameBatcher::requireFrame(std::size_t frameSize,
                                std::size_t slotsToRun) const {
  RFID_REQUIRE(soa_ != nullptr, "beginRound must precede a frame");
  RFID_REQUIRE(slotsToRun >= 1 && slotsToRun <= frameSize,
               "frame prefix must be non-empty and within the frame");
  // The rows hold at most every active tag plus slotsToRun blocker tails;
  // bound that before any scratch grows for it.
  const std::size_t nActive = active_.size();
  const std::size_t nBlockers = blockers_.size();
  constexpr std::size_t kMaxRows = std::numeric_limits<std::uint32_t>::max();
  RFID_REQUIRE(nActive <= kMaxRows &&
                   (nBlockers == 0 ||
                    slotsToRun <= (kMaxRows - nActive) / nBlockers),
               "frame batch exceeds 32-bit CSR indexing");
}

// rfid:noexcept-allow: requireFrame carries the test-pinned REQUIREs
sim::SlotBatch FrameBatcher::drawFrame(std::size_t frameSize,
                                       std::size_t slotsToRun,
                                       common::Rng& rng) {
  ALLOC_GUARD_HOT();
  requireFrame(frameSize, slotsToRun);
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
  // the reference emitter); draws inside the running prefix are counted,
  // the rest never contend this frame.
  std::fill(counts_.begin(),
            counts_.begin() + static_cast<std::ptrdiff_t>(slotsToRun), 0u);
  for (std::size_t k = 0; k < nActive; ++k) {
    const auto slot = static_cast<std::uint32_t>(rng.below(frameSize));
    draws_[k] = slot;
    if (slot < slotsToRun) {
      ++counts_[slot];
    }
  }

  // Prefix-sum the counts into CSR row offsets, each row sized for its
  // honest drawers plus the blocker tail.
  const auto tail = static_cast<std::uint32_t>(blockers_.size());
  offsets_[0] = 0;
  for (std::size_t s = 0; s < slotsToRun; ++s) {
    offsets_[s + 1] = offsets_[s] + counts_[s] + tail;
  }
  const std::size_t nRows = offsets_[slotsToRun];
  if (responders_.size() < nRows) {
    ALLOC_GUARD_ALLOW("high-water-mark growth; steady state reuses storage");
    responders_.resize(nRows);
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
  // Each cursor now stops at its row's tail: the blockers, in the order
  // the reference emitter appends them.
  if (tail != 0) {
    for (std::size_t s = 0; s < slotsToRun; ++s) {
      std::uint32_t w = counts_[s];
      for (const std::size_t b : blockers_) {
        responders_[w++] = static_cast<std::uint32_t>(b);
      }
    }
  }
  rows_ = slotsToRun;
  return {{responders_.data(), nRows}, {offsets_.data(), slotsToRun + 1}};
}

// rfid:noexcept-allow: the row-range REQUIRE is an API contract, and
// runSlotsBatch validates the row
phy::SlotType FrameBatcher::runRow(sim::SlotEngine& engine,
                                   std::span<tags::Tag> tags,
                                   std::size_t slot, common::Rng& rng) {
  ALLOC_GUARD_HOT();
  RFID_REQUIRE(slot < rows_, "row outside the last drawn frame");
  const std::uint32_t begin = offsets_[slot];
  return runOneSlot(engine, tags, *soa_,
                    {responders_.data() + begin, offsets_[slot + 1] - begin},
                    rng);
}

// rfid:noexcept-allow: requireFrame carries the test-pinned REQUIREs
std::span<const phy::SlotType> FrameBatcher::runFrame(
    sim::SlotEngine& engine, std::span<tags::Tag> tags, std::size_t frameSize,
    std::size_t slotsToRun, common::Rng& rng) {
  ALLOC_GUARD_HOT();
  requireFrame(frameSize, slotsToRun);
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

  engine.runSlotsBatch(tags, *soa_, drawFrame(frameSize, slotsToRun, rng),
                       rng, {detected_.data(), slotsToRun});
  return {detected_.data(), slotsToRun};
}

// rfid:noexcept-allow: beginRound and runFrame carry test-pinned REQUIREs
bool FramedAloha::runWithSnapshot(sim::SlotEngine& engine,
                                  std::span<tags::Tag> tags, common::Rng& rng,
                                  const sim::TagSoA& soa) {
  ALLOC_GUARD_HOT();
  batcher_.beginRound(tags, soa, frameMode());

  // The reader cannot observe the ground truth, so it keeps launching
  // frames until one passes with no response at all — that terminal
  // all-idle frame is part of the identification cost (and is visible in
  // the paper's Table VII idle counts). Frames started with the budget
  // already spent never run and are not counted; a frame truncated by the
  // budget aborts before nextFrame sees its verdicts (DESIGN.md §5e).
  std::size_t frameSize = firstFrame_;
  std::size_t slotsUsed = 0;
  for (;;) {
    if (slotsUsed >= maxSlots()) {
      return false;
    }
    const std::size_t slotsToRun = std::min(frameSize, maxSlots() - slotsUsed);
    engine.metrics().recordFrame();
    const bool anyResponse = !batcher_.gatherActive(tags).empty() ||
                             !batcher_.blockers().empty();
    const std::span<const phy::SlotType> verdicts =
        batcher_.runFrame(engine, tags, frameSize, slotsToRun, rng);
    slotsUsed += slotsToRun;
    if (slotsToRun < frameSize) {
      return false;  // budget exhausted mid-frame
    }
    if (!anyResponse) {
      return true;
    }
    frameSize = nextFrame(verdicts);
  }
}

}  // namespace rfid::anticollision
