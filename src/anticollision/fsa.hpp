// Framed Slotted ALOHA (§III-A).
//
// The reader announces a frame of F slots; every unidentified tag draws a
// slot uniformly and transmits there; collided tags re-contend in the next
// frame. Lemma 1: throughput peaks at 1/e ≈ 0.368 when F = n.
//
// One frame loop; FrameBatcher emits each frame, as a CSR slot batch by
// default or through the per-slot reference emitter (Protocol::FrameMode).
// The two emitters are bit-identical (tests/test_frame_batch.cpp).
#pragma once

#include "anticollision/protocol.hpp"

namespace rfid::anticollision {

class FramedSlottedAloha final : public Protocol {
 public:
  explicit FramedSlottedAloha(std::size_t frameSize,
                              std::size_t maxSlots = kDefaultMaxSlots);

  std::string name() const override;
  bool run(sim::SlotEngine& engine, std::span<tags::Tag> tags,
           common::Rng& rng) override;
  bool runWithSnapshot(sim::SlotEngine& engine, std::span<tags::Tag> tags,
                       common::Rng& rng, const sim::TagSoA& soa) override;

  std::size_t frameSize() const noexcept { return frameSize_; }

 private:
  bool runFrames(sim::SlotEngine& engine, std::span<tags::Tag> tags,
                 common::Rng& rng, const sim::TagSoA* soa);

  std::size_t frameSize_;
  FrameBatcher batcher_;
};

}  // namespace rfid::anticollision
