#include "anticollision/abs.hpp"

#include <algorithm>

namespace rfid::anticollision {

AdaptiveBinarySplitting::AdaptiveBinarySplitting(std::size_t maxSlots)
    : Protocol(maxSlots) {}

std::string AdaptiveBinarySplitting::name() const { return "ABS"; }

void AdaptiveBinarySplitting::resetAdaptation() {
  nextCounter_.clear();
  lastGroups_ = 0;
}

bool AdaptiveBinarySplitting::runWithSnapshot(sim::SlotEngine& engine,
                                              std::span<tags::Tag> tags,
                                              common::Rng& rng,
                                              const sim::TagSoA& soa) {
  if (walk_.beginRun(tags, soa, maxSlots()) == 0) return true;

  // Initial counters: remembered order for returning tags, a random draw
  // from the previous round's group range for new ones. The walk queries
  // the counter groups in counter order, splits re-entering at the front,
  // exactly like counters incrementing behind the split.
  const std::uint64_t drawRange = std::max<std::uint64_t>(1, lastGroups_);
  walk_.regroup(1, [&](std::size_t idx) {
    const std::uint64_t id = tags[idx].idValue;
    const auto it = std::lower_bound(
        nextCounter_.begin(), nextCounter_.end(), id,
        [](const Reservation& r, std::uint64_t key) { return r.id < key; });
    return static_cast<std::size_t>(
        it != nextCounter_.end() && it->id == id ? it->counter
                                                 : rng.below(drawRange));
  });
  const bool drained = walk_.depthFirst(engine, tags, rng);

  // Reservation index for the next round. Real ABS tags decrement their
  // allocated-slot counter on idle slots, which makes the surviving
  // reservations contiguous; numbering reservations by *identification*
  // order (not by readable-slot order) reproduces exactly that. A walk cut
  // short by the budget still numbers the tags it silenced.
  nextCounter_.clear();
  std::uint64_t nextReservation = 0;
  for (const std::size_t idx : walk_.read()) {
    nextCounter_.push_back({tags[idx].idValue, nextReservation++});
  }
  if (drained) lastGroups_ = std::max<std::uint64_t>(1, nextReservation);
  // Sort by ID; a repeated ID keeps its last (largest) reservation.
  std::sort(nextCounter_.begin(), nextCounter_.end(),
            [](const Reservation& a, const Reservation& b) {
              return a.id != b.id ? a.id < b.id : a.counter > b.counter;
            });
  nextCounter_.erase(
      std::unique(nextCounter_.begin(), nextCounter_.end(),
                  [](const Reservation& a, const Reservation& b) {
                    return a.id == b.id;
                  }),
      nextCounter_.end());
  return drained;
}

}  // namespace rfid::anticollision
