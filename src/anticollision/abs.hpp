// Adaptive Binary Splitting (Myung & Lee, §II).
//
// ABS is BT made incremental across inventory rounds: each tag remembers
// the order in which it was identified last round and uses that order as
// its initial counter in the next round. With an unchanged population every
// slot is then a single slot (n slots, zero waste); arriving tags draw a
// random initial counter and are resolved by ordinary binary splitting.
#pragma once

#include <unordered_map>

#include "anticollision/protocol.hpp"
#include "anticollision/split_walk.hpp"

namespace rfid::anticollision {

class AdaptiveBinarySplitting final : public Protocol {
 public:
  explicit AdaptiveBinarySplitting(std::size_t maxSlots = kDefaultMaxSlots);

  std::string name() const override;
  bool run(sim::SlotEngine& engine, std::span<tags::Tag> tags,
           common::Rng& rng) override;

  /// Forgets the reservation state learned from previous rounds.
  void resetAdaptation();

 private:
  SplitWalk walk_;
  /// Next-round initial counter per tag (keyed by ID value), learned from
  /// the identification order of the previous round.
  std::unordered_map<std::uint64_t, std::uint64_t> nextCounter_;
  /// Number of groups the previous round terminated with (the counter range
  /// newly arrived tags draw from).
  std::uint64_t lastGroups_ = 0;
};

}  // namespace rfid::anticollision
