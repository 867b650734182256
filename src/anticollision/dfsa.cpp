#include "anticollision/dfsa.hpp"

#include <algorithm>
#include <span>

#include "common/alloc_guard.hpp"
#include "common/require.hpp"

namespace rfid::anticollision {

DynamicFsa::DynamicFsa(EstimatorKind estimator, std::size_t initialFrame,
                       std::size_t minFrame, std::size_t maxFrame,
                       std::size_t maxSlots)
    : Protocol(maxSlots),
      estimator_(estimator),
      initialFrame_(initialFrame),
      minFrame_(minFrame),
      maxFrame_(maxFrame) {
  RFID_REQUIRE(minFrame >= 1, "minimum frame must have at least one slot");
  RFID_REQUIRE(minFrame <= maxFrame, "minFrame must not exceed maxFrame");
  RFID_REQUIRE(initialFrame >= minFrame && initialFrame <= maxFrame,
               "initial frame must lie within [minFrame, maxFrame]");
}

std::string DynamicFsa::name() const {
  return "DFSA[" + toString(estimator_) + "]";
}

bool DynamicFsa::run(sim::SlotEngine& engine, std::span<tags::Tag> tags,
                     common::Rng& rng) {
  return runFrames(engine, tags, rng, nullptr);
}

bool DynamicFsa::runWithSnapshot(sim::SlotEngine& engine,
                                 std::span<tags::Tag> tags, common::Rng& rng,
                                 const sim::TagSoA& soa) {
  return runFrames(engine, tags, rng, &soa);
}

// rfid:hot begin
// rfid:noexcept-allow: beginRound and runFrame carry test-pinned REQUIREs
bool DynamicFsa::runFrames(sim::SlotEngine& engine, std::span<tags::Tag> tags,
                           common::Rng& rng, const sim::TagSoA* soa) {
  batcher_.beginRound(tags, engine, soa, frameMode());
  // beginRound's private snapshot gather may allocate; the frames may not.
  ALLOC_GUARD_HOT();
  std::size_t frameSize = initialFrame_;
  std::size_t slotsUsed = 0;

  // Like FSA, the reader confirms completion with a terminal frame that
  // draws no response (it cannot observe the ground truth). Frames started
  // with the budget already spent never run and are not counted; a frame
  // truncated by the budget aborts before the estimator sees its census
  // (DESIGN.md §5e).
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

    FrameCensus census;
    census.frameSize = frameSize;
    for (const phy::SlotType verdict : verdicts) {
      switch (verdict) {
        case phy::SlotType::kIdle:
          ++census.idle;
          break;
        case phy::SlotType::kSingle:
          ++census.single;
          break;
        case phy::SlotType::kCollided:
          ++census.collided;
          break;
      }
    }
    const std::size_t backlog = estimateBacklog(estimator_, census);
    frameSize = std::clamp(backlog, minFrame_, maxFrame_);
  }
}
// rfid:hot end

}  // namespace rfid::anticollision
