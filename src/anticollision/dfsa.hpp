// Dynamic Framed Slotted ALOHA (Lee et al., §II).
//
// After each frame the reader estimates the backlog from the observed slot
// census and sizes the next frame to match it (Lemma 1: throughput peaks at
// F = n).
//
// One frame loop; FrameBatcher emits each frame, as a CSR slot batch by
// default or through the per-slot reference emitter (Protocol::FrameMode),
// and the census that feeds the estimator is read off the frame's per-slot
// verdict span. The two emitters are bit-identical
// (tests/test_frame_batch.cpp).
#pragma once

#include "anticollision/estimators.hpp"
#include "anticollision/protocol.hpp"

namespace rfid::anticollision {

class DynamicFsa final : public Protocol {
 public:
  DynamicFsa(EstimatorKind estimator, std::size_t initialFrame = 128,
             std::size_t minFrame = 4, std::size_t maxFrame = 1 << 16,
             std::size_t maxSlots = kDefaultMaxSlots);

  std::string name() const override;
  bool run(sim::SlotEngine& engine, std::span<tags::Tag> tags,
           common::Rng& rng) override;
  bool runWithSnapshot(sim::SlotEngine& engine, std::span<tags::Tag> tags,
                       common::Rng& rng, const sim::TagSoA& soa) override;

  EstimatorKind estimator() const noexcept { return estimator_; }

 private:
  bool runFrames(sim::SlotEngine& engine, std::span<tags::Tag> tags,
                 common::Rng& rng, const sim::TagSoA* soa);

  EstimatorKind estimator_;
  std::size_t initialFrame_;
  std::size_t minFrame_;
  std::size_t maxFrame_;
  FrameBatcher batcher_;
};

}  // namespace rfid::anticollision
