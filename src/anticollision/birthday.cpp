#include "anticollision/birthday.hpp"

#include <algorithm>
#include <cmath>

#include "common/alloc_guard.hpp"
#include "common/require.hpp"

namespace rfid::anticollision {

BirthdayProtocol::BirthdayProtocol(double initialP, double minP,
                                   std::size_t maxSlots)
    : Protocol(maxSlots), initialP_(initialP), minP_(minP) {
  RFID_REQUIRE(initialP > 0.0 && initialP <= 1.0,
               "initial probability must be in (0, 1]");
  RFID_REQUIRE(minP > 0.0 && minP <= initialP,
               "minP must be in (0, initialP]");
}

std::string BirthdayProtocol::name() const { return "Birthday"; }

// rfid:noexcept-allow: requireSnapshot and runSlotsBatch carry test-pinned
// REQUIREs
bool BirthdayProtocol::runWithSnapshot(sim::SlotEngine& engine,
                                       std::span<tags::Tag> tags,
                                       common::Rng& rng,
                                       const sim::TagSoA& soa) {
  ALLOC_GUARD_HOT();
  requireSnapshot(tags, soa);
  blockerIndicesInto(tags, blockers_);
  double p = initialP_;
  std::size_t slotsUsed = 0;
  // A real listener confirms completion by silence: with Bernoulli
  // contention a single idle slot proves nothing, so it waits ceil(4/p)
  // consecutive idles (an undiscovered node stays silent that long with
  // probability (1-p)^(4/p) ~ e^-4). The simulation charges that quiet
  // tail to the timeline but additionally consults the ground truth so a
  // run is never cut short by an unlucky streak — the ~2% false-stop rate
  // would otherwise leak into every protocol-completeness statistic.
  std::size_t consecutiveIdle = 0;

  activeTagIndicesInto(tags, active_);
  while (slotsUsed < maxSlots()) {
    const auto quietTarget =
        static_cast<std::size_t>(std::ceil(4.0 / p));
    if (active_.empty() && blockers_.empty() &&
        consecutiveIdle >= quietTarget) {
      return true;
    }
    ++slotsUsed;
    row_.clear();
    for (const std::size_t idx : active_) {
      if (rng.chance(p)) {
        common::pushBackAmortized(row_, static_cast<std::uint32_t>(idx));
      }
    }
    for (const std::size_t idx : blockers_) {
      common::pushBackAmortized(row_, static_cast<std::uint32_t>(idx));
    }

    switch (runOneSlot(engine, tags, soa, row_, rng)) {
      case phy::SlotType::kIdle:
        ++consecutiveIdle;
        // Idle: the channel is under-used — probe more aggressively.
        p = std::min(1.0, p * 1.1);
        break;
      case phy::SlotType::kCollided:
        consecutiveIdle = 0;
        // Collision: back off multiplicatively.
        p = std::max(minP_, p / 2.0);
        break;
      case phy::SlotType::kSingle:
        consecutiveIdle = 0;
        break;
    }
    // Only a slot with a transmitter can discover a node, and none is
    // ever rediscovered, so dropping the newly silenced keeps the set
    // and its order.
    if (!row_.empty()) {
      filterStillActive(tags, active_);
    }
  }
  return false;
}

double birthdayExpectedSlotsWithSilencing(std::size_t nodes) {
  return std::exp(1.0) * static_cast<double>(nodes);
}

double birthdayExpectedSlotsCouponCollector(std::size_t nodes) {
  if (nodes == 0) return 0.0;
  double harmonic = 0.0;
  for (std::size_t k = 1; k <= nodes; ++k) {
    harmonic += 1.0 / static_cast<double>(k);
  }
  return std::exp(1.0) * static_cast<double>(nodes) * harmonic;
}

}  // namespace rfid::anticollision
