#include "anticollision/aqs.hpp"

#include <algorithm>
#include <utility>

namespace rfid::anticollision {

namespace {

const auto byLengthThenValue = [](const Prefix& a, const Prefix& b) {
  return std::pair(a.length, a.value) < std::pair(b.length, b.value);
};
const auto deepestFirst = [](const Prefix& a, const Prefix& b) {
  return std::pair(b.length, a.value) < std::pair(a.length, b.value);
};

/// The index of the candidate that prefixes `id`, or candidates.size().
/// The candidates partition the ID space (they are the readable leaves of
/// a full binary split), so at most one matches; sorted by length, then
/// value, each length is one run to binary-search. A query asked twice in
/// one walk (a root query for unmatched tags re-asks candidates) is a
/// candidate twice, and its tags join the later copy.
std::size_t candidateOf(std::span<const Prefix> candidates, std::uint64_t id,
                        std::size_t idBits) {
  for (auto run = candidates.begin(); run != candidates.end();) {
    const unsigned length = run->length;
    const auto runEnd = std::partition_point(
        run, candidates.end(),
        [length](const Prefix& p) { return p.length == length; });
    const Prefix key{length == 0 ? 0 : id >> (idBits - length), length};
    const auto it = std::upper_bound(run, runEnd, key, byLengthThenValue);
    if (it != run && *std::prev(it) == key) {
      return static_cast<std::size_t>(std::prev(it) - candidates.begin());
    }
    run = runEnd;
  }
  return candidates.size();
}

}  // namespace

AdaptiveQuerySplitting::AdaptiveQuerySplitting(std::size_t maxSlots)
    : Protocol(maxSlots) {}

std::string AdaptiveQuerySplitting::name() const { return "AQS"; }

void AdaptiveQuerySplitting::resetAdaptation() { candidates_.clear(); }

bool AdaptiveQuerySplitting::runWithSnapshot(sim::SlotEngine& engine,
                                             std::span<tags::Tag> tags,
                                             common::Rng& rng,
                                             const sim::TagSoA& soa) {
  const std::size_t idBits = engine.scheme().air().idBits;
  std::size_t contenders = walk_.beginRun(tags, soa, maxSlots());
  for (;;) {
    // One group per candidate query (the root when there are none yet); a
    // tag no candidate matches, only possible after a jammed round, joins
    // a root query after them.
    walk_.regroup(std::max<std::size_t>(1, candidates_.size()),
                  [&](std::size_t idx) {
                    return candidateOf(candidates_, tags[idx].idValue, idBits);
                  });
    if (!walk_.breadthFirst(engine, tags, rng, candidates_)) return false;
    learnCandidates();
    // Capture-effect stragglers fell out of this walk (their prefix read as
    // single): walk again from the fresh candidates, on the run's one slot
    // budget, until all are read or a walk makes no progress (jamming).
    const std::size_t remaining = walk_.gather(tags);
    if (remaining == 0 || remaining == contenders) return remaining == 0;
    contenders = remaining;
  }
}

// Query deletion: sibling idle leaves merge into their parent, level by
// level, deepest first. A level's idle prefixes are its idle leaves merged
// with the parents the level below produced, both ascending, repeats
// dropped (a re-asked root query can repeat a leaf). In ascending order an
// even prefix's sibling is the next entry, so each adjacent pair merges
// into a parent of the next level up and every other prefix (the root
// too) becomes a candidate.
void AdaptiveQuerySplitting::learnCandidates() {
  // No more candidates, or idle leaves, than readable leaves.
  candidates_.clear();
  candidates_.reserve(walk_.leaves().size());
  idle_.clear();
  idle_.reserve(walk_.leaves().size());
  for (const SplitWalk::Leaf& leaf : walk_.leaves()) {
    if (leaf.type == phy::SlotType::kIdle) {
      idle_.push_back(leaf.prefix);
    } else {
      candidates_.push_back(leaf.prefix);
    }
  }
  std::sort(idle_.begin(), idle_.end(), deepestFirst);
  parents_.clear();
  for (auto next = idle_.begin(); next != idle_.end() || !parents_.empty();) {
    // The deepest pending level: the parents' (always one shallower than
    // the level that made them) or the next idle leaf's.
    const unsigned length =
        next == idle_.end() ||
                (!parents_.empty() && parents_.front().length > next->length)
            ? parents_.front().length
            : next->length;
    const auto levelEnd =
        std::find_if(next, idle_.end(),
                     [length](const Prefix& p) { return p.length != length; });
    level_.resize(static_cast<std::size_t>(levelEnd - next) +
                  parents_.size());
    level_.erase(std::unique(level_.begin(),
                             std::merge(next, levelEnd, parents_.begin(),
                                        parents_.end(), level_.begin(),
                                        byLengthThenValue)),
                 level_.end());
    next = levelEnd;
    parents_.clear();
    for (std::size_t k = 0; k < level_.size(); ++k) {
      const Prefix p = level_[k];
      if (p.length > 0 && (p.value & 1u) == 0 && k + 1 < level_.size() &&
          level_[k + 1].value == (p.value | 1u)) {
        parents_.push_back(p.parent());
        ++k;
      } else {
        candidates_.push_back(p);
      }
    }
  }
  std::sort(candidates_.begin(), candidates_.end(), byLengthThenValue);
}

}  // namespace rfid::anticollision
