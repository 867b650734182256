// Adaptive Query Splitting (Myung & Lee, §II).
//
// AQS is QT made incremental: instead of restarting from the root, a new
// inventory round starts from the previous round's readable leaf queries
// (the singles and idles), so an unchanged population is re-identified with
// no collision slots at all. Sibling idle leaves are merged back into their
// parent (query deletion) to keep the candidate set tight.
#pragma once

#include <vector>

#include "anticollision/protocol.hpp"
#include "anticollision/split_walk.hpp"

namespace rfid::anticollision {

class AdaptiveQuerySplitting final : public Protocol {
 public:
  explicit AdaptiveQuerySplitting(std::size_t maxSlots = kDefaultMaxSlots);

  std::string name() const override;
  bool runWithSnapshot(sim::SlotEngine& engine, std::span<tags::Tag> tags,
                       common::Rng& rng, const sim::TagSoA& soa) override;

  /// Forgets the candidate queries learned from previous rounds.
  void resetAdaptation();

  /// The candidate queries the next round will start from (sorted by value;
  /// exposed for tests).
  const std::vector<Prefix>& candidates() const noexcept { return candidates_; }

 private:
  /// Turns the last walk's readable leaves into the candidates.
  void learnCandidates();

  SplitWalk walk_;
  std::vector<Prefix> candidates_;
  /// learnCandidates scratch, kept to reuse its storage: the walk's idle
  /// leaves deepest first, one level's merged idle prefixes, and the
  /// parents its sibling pairs merge into.
  std::vector<Prefix> idle_;
  std::vector<Prefix> level_;
  std::vector<Prefix> parents_;
};

}  // namespace rfid::anticollision
