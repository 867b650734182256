// Query Tree (Law et al., §II).
//
// The reader broadcasts a bit-string prefix; exactly the tags whose ID
// starts with that prefix respond. A collided prefix is extended by one bit
// in both directions. Identification is deterministic in the tag IDs —
// QT is starvation-free — but an always-responding blocker tag forces every
// query to collide and stalls the whole tree (Juels et al.'s blocker-tag
// observation, reproduced in the adversarial tests).
#pragma once

#include "anticollision/protocol.hpp"
#include "anticollision/split_walk.hpp"

namespace rfid::anticollision {

class QueryTree final : public Protocol {
 public:
  explicit QueryTree(std::size_t maxSlots = kDefaultMaxSlots);

  std::string name() const override;
  bool runWithSnapshot(sim::SlotEngine& engine, std::span<tags::Tag> tags,
                       common::Rng& rng, const sim::TagSoA& soa) override;

 private:
  SplitWalk walk_;
};

}  // namespace rfid::anticollision
