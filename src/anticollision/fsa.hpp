// Framed Slotted ALOHA (§III-A).
//
// The reader announces a frame of F slots; every unidentified tag draws a
// slot uniformly and transmits there; collided tags re-contend in the next
// frame. Lemma 1: throughput peaks at 1/e ≈ 0.368 when F = n.
//
// FramedAloha runs the frames; FSA only keeps every frame at F.
#pragma once

#include "anticollision/protocol.hpp"

namespace rfid::anticollision {

class FramedSlottedAloha final : public FramedAloha {
 public:
  explicit FramedSlottedAloha(std::size_t frameSize,
                              std::size_t maxSlots = kDefaultMaxSlots);

  std::string name() const override;

  std::size_t frameSize() const noexcept { return firstFrame(); }

 private:
  std::size_t nextFrame(std::span<const phy::SlotType>) const override {
    return frameSize();
  }
};

}  // namespace rfid::anticollision
