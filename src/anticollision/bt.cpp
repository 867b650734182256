#include "anticollision/bt.hpp"

namespace rfid::anticollision {

BinaryTree::BinaryTree(std::size_t maxSlots) : Protocol(maxSlots) {}

std::string BinaryTree::name() const { return "BT"; }

// The published algorithm is phrased with per-tag counters (see header);
// SplitWalk's depth-first stack is the standard equivalent formulation,
// which avoids scanning every tag on every slot (n = 50000). An empty
// field costs no slot.
bool BinaryTree::run(sim::SlotEngine& engine, std::span<tags::Tag> tags,
                     common::Rng& rng) {
  return walk_.beginRun(tags, maxSlots()) == 0 ||
         walk_.depthFirst(engine, tags, rng);
}

}  // namespace rfid::anticollision
