#include "anticollision/qt.hpp"

namespace rfid::anticollision {

QueryTree::QueryTree(std::size_t maxSlots) : Protocol(maxSlots) {}

std::string QueryTree::name() const { return "QT"; }

// A capture-effect slot can read as single while other tags under the same
// prefix remain: those tags fall out of the current tree walk. The reader
// simply walks the tree again — silenced tags stay quiet, the stragglers
// answer. Walks repeat while they make progress, on one slot budget. The
// root query is issued even over an empty field: the reader pays one idle
// slot to learn there is nothing to read.
bool QueryTree::run(sim::SlotEngine& engine, std::span<tags::Tag> tags,
                    common::Rng& rng) {
  std::size_t contenders = walk_.beginRun(tags, maxSlots());
  for (;;) {
    if (!walk_.breadthFirst(engine, tags, rng)) return false;
    const std::size_t remaining = walk_.gather(tags);
    // Done, or a whole walk made no progress (jamming).
    if (remaining == 0 || remaining == contenders) return remaining == 0;
    contenders = remaining;
  }
}

}  // namespace rfid::anticollision
