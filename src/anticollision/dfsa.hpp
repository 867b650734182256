// Dynamic Framed Slotted ALOHA (Lee et al., §II).
//
// After each frame the reader estimates the backlog from the observed slot
// census and sizes the next frame to match it (Lemma 1: throughput peaks at
// F = n).
//
// FramedAloha runs the frames; DFSA only counts each frame's verdicts into
// a FrameCensus and sizes the next frame from its estimator, clamped to
// [minFrame, maxFrame].
#pragma once

#include "anticollision/estimators.hpp"
#include "anticollision/protocol.hpp"

namespace rfid::anticollision {

class DynamicFsa final : public FramedAloha {
 public:
  DynamicFsa(EstimatorKind estimator, std::size_t initialFrame = 128,
             std::size_t minFrame = 4, std::size_t maxFrame = 1 << 16,
             std::size_t maxSlots = kDefaultMaxSlots);

  std::string name() const override;

  EstimatorKind estimator() const noexcept { return estimator_; }

 private:
  std::size_t nextFrame(
      std::span<const phy::SlotType> verdicts) const override;

  EstimatorKind estimator_;
  std::size_t minFrame_;
  std::size_t maxFrame_;
};

}  // namespace rfid::anticollision
