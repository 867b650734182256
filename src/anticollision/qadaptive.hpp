// Q-Adaptive — the EPC Gen2 slot-count algorithm (§II).
//
// The reader keeps a floating-point Q and announces frames of 2^Q slots.
// Each idle slot nudges Q down by C, each collided slot nudges it up by C;
// when round(Q) changes, the reader cuts the frame short with a QueryAdjust
// and the surviving tags redraw their slots. A tag replies only in the
// slot it drew: one the reader did not acknowledge stays silent until the
// next Query/QueryAdjust, as Gen2's arbitrate state prescribes.
//
// FrameBatcher draws each Query round once; the round's rows then run one
// at a time, because each verdict moves Q and may end the round.
#pragma once

#include "anticollision/protocol.hpp"

namespace rfid::anticollision {

class QAdaptive final : public Protocol {
 public:
  explicit QAdaptive(double initialQ = 4.0, double c = 0.3,
                     double maxQ = 15.0,
                     std::size_t maxSlots = kDefaultMaxSlots);

  std::string name() const override;
  bool runWithSnapshot(sim::SlotEngine& engine, std::span<tags::Tag> tags,
                       common::Rng& rng, const sim::TagSoA& soa) override;

 private:
  double initialQ_;
  double c_;
  double maxQ_;
  FrameBatcher batcher_;
};

}  // namespace rfid::anticollision
