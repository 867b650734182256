// Adaptive Binary Splitting (Myung & Lee, §II).
//
// ABS is BT made incremental across inventory rounds: each tag remembers
// the order in which it was identified last round and uses that order as
// its initial counter in the next round. With an unchanged population every
// slot is then a single slot (n slots, zero waste); arriving tags draw a
// random initial counter and are resolved by ordinary binary splitting.
#pragma once

#include <cstdint>
#include <vector>

#include "anticollision/protocol.hpp"
#include "anticollision/split_walk.hpp"

namespace rfid::anticollision {

class AdaptiveBinarySplitting final : public Protocol {
 public:
  explicit AdaptiveBinarySplitting(std::size_t maxSlots = kDefaultMaxSlots);

  std::string name() const override;
  bool runWithSnapshot(sim::SlotEngine& engine, std::span<tags::Tag> tags,
                       common::Rng& rng, const sim::TagSoA& soa) override;

  /// Forgets the reservation state learned from previous rounds.
  void resetAdaptation();

 private:
  struct Reservation {
    std::uint64_t id;       ///< the tag's ID value
    std::uint64_t counter;  ///< its next-round initial counter
  };

  SplitWalk walk_;
  /// Next-round initial counter per tag, learned from the identification
  /// order of the previous round: sorted by ID, one entry per ID (the
  /// last reservation of a repeated ID), binary-searched. Cleared and
  /// refilled every round, so it grows to a high-water mark only.
  std::vector<Reservation> nextCounter_;
  /// Number of groups the previous round terminated with (the counter range
  /// newly arrived tags draw from).
  std::uint64_t lastGroups_ = 0;
};

}  // namespace rfid::anticollision
