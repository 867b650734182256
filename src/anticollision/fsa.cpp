#include "anticollision/fsa.hpp"

#include <algorithm>

#include "common/alloc_guard.hpp"
#include "common/require.hpp"

namespace rfid::anticollision {

FramedSlottedAloha::FramedSlottedAloha(std::size_t frameSize,
                                       std::size_t maxSlots)
    : Protocol(maxSlots), frameSize_(frameSize) {
  RFID_REQUIRE(frameSize >= 1, "frame needs at least one slot");
}

std::string FramedSlottedAloha::name() const {
  return "FSA[F=" + std::to_string(frameSize_) + "]";
}

bool FramedSlottedAloha::run(sim::SlotEngine& engine,
                             std::span<tags::Tag> tags, common::Rng& rng) {
  return runFrames(engine, tags, rng, nullptr);
}

bool FramedSlottedAloha::runWithSnapshot(sim::SlotEngine& engine,
                                         std::span<tags::Tag> tags,
                                         common::Rng& rng,
                                         const sim::TagSoA& soa) {
  return runFrames(engine, tags, rng, &soa);
}

// rfid:noexcept-allow: beginRound and runFrame carry test-pinned REQUIREs
bool FramedSlottedAloha::runFrames(sim::SlotEngine& engine,
                                   std::span<tags::Tag> tags,
                                   common::Rng& rng, const sim::TagSoA* soa) {
  batcher_.beginRound(tags, engine, soa, frameMode());
  // beginRound's private snapshot gather may allocate; the frames may not.
  ALLOC_GUARD_HOT();

  // The reader cannot observe the ground truth, so it keeps launching
  // frames until one passes with no response at all — that terminal
  // all-idle frame is part of the identification cost (and is visible in
  // the paper's Table VII idle counts). Frames started with the budget
  // already spent never run and are not counted (DESIGN.md §5e).
  std::size_t slotsUsed = 0;
  for (;;) {
    if (slotsUsed >= maxSlots()) {
      return false;
    }
    const std::size_t slotsToRun = std::min(frameSize_, maxSlots() - slotsUsed);
    engine.metrics().recordFrame();
    const bool anyResponse = !batcher_.gatherActive(tags).empty() ||
                             !batcher_.blockers().empty();
    batcher_.runFrame(engine, tags, frameSize_, slotsToRun, rng);
    slotsUsed += slotsToRun;
    if (slotsToRun < frameSize_) {
      return false;  // budget exhausted mid-frame
    }
    if (!anyResponse) {
      return true;
    }
  }
}

}  // namespace rfid::anticollision
