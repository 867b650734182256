// Binary Tree splitting (§III-B, Fig. 2).
//
// Every tag holds a counter, initially 0, and replies whenever it reaches 0.
// A collided slot splits the replying set by a fair coin (losers add 1, and
// every bystander adds 1); a readable slot (idle or single) lets everybody
// count down. The reader tracks the number of outstanding groups on a
// stack counter and stops when it reaches zero. Lemma 2: the full procedure
// averages 2.885·n slots (1.443·n collided, 0.442·n idle, n single).
#pragma once

#include "anticollision/protocol.hpp"
#include "anticollision/split_walk.hpp"

namespace rfid::anticollision {

class BinaryTree final : public Protocol {
 public:
  explicit BinaryTree(std::size_t maxSlots = kDefaultMaxSlots);

  std::string name() const override;
  bool runWithSnapshot(sim::SlotEngine& engine, std::span<tags::Tag> tags,
                       common::Rng& rng, const sim::TagSoA& soa) override;

 private:
  SplitWalk walk_;
};

}  // namespace rfid::anticollision
