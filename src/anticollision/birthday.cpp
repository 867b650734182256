#include "anticollision/birthday.hpp"

#include <algorithm>
#include <cmath>

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

bool BirthdayProtocol::run(sim::SlotEngine& engine, std::span<tags::Tag> tags,
                           common::Rng& rng) {
  std::vector<std::size_t> blockers;
  blockerIndicesInto(tags, blockers);
  std::vector<std::size_t> responders;
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

  std::vector<std::size_t> active;
  activeTagIndicesInto(tags, active);
  while (slotsUsed < maxSlots()) {
    const auto quietTarget =
        static_cast<std::size_t>(std::ceil(4.0 / p));
    if (active.empty() && blockers.empty() &&
        consecutiveIdle >= quietTarget) {
      return true;
    }
    ++slotsUsed;
    responders.clear();
    for (const std::size_t idx : active) {
      if (rng.chance(p)) {
        responders.push_back(idx);
      }
    }
    responders.insert(responders.end(), blockers.begin(), blockers.end());

    switch (engine.runSlot(tags, responders, rng)) {
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
    if (!responders.empty()) {
      activeTagIndicesInto(tags, active);
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
