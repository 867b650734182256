#include "anticollision/dfsa.hpp"

#include <algorithm>

#include "common/require.hpp"

namespace rfid::anticollision {

DynamicFsa::DynamicFsa(EstimatorKind estimator, std::size_t initialFrame,
                       std::size_t minFrame, std::size_t maxFrame,
                       std::size_t maxSlots)
    : FramedAloha(initialFrame, maxSlots),
      estimator_(estimator),
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

std::size_t DynamicFsa::nextFrame(
    std::span<const phy::SlotType> verdicts) const {
  FrameCensus census;
  census.frameSize = verdicts.size();
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
  return std::clamp(estimateBacklog(estimator_, census), minFrame_, maxFrame_);
}

}  // namespace rfid::anticollision
