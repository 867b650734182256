#include "anticollision/aqs.hpp"

#include <algorithm>
#include <set>
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

bool AdaptiveQuerySplitting::run(sim::SlotEngine& engine,
                                 std::span<tags::Tag> tags,
                                 common::Rng& rng) {
  const std::size_t idBits = engine.scheme().air().idBits;
  std::size_t contenders = walk_.beginRun(tags, maxSlots());
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

// Query deletion: sibling idle leaves merge into their parent. Deepest
// first, a popped leaf's sibling can only be in the set already, and a
// merged parent is popped after every leaf deeper than it.
void AdaptiveQuerySplitting::learnCandidates() {
  candidates_.clear();
  std::set<Prefix, decltype(deepestFirst)> idle;
  for (const SplitWalk::Leaf& leaf : walk_.leaves()) {
    if (leaf.type == phy::SlotType::kIdle) {
      idle.insert(leaf.prefix);
    } else {
      candidates_.push_back(leaf.prefix);
    }
  }
  while (!idle.empty()) {
    const Prefix p = *idle.begin();
    idle.erase(idle.begin());
    const auto sibling = p.length > 0
                             ? idle.find(Prefix{p.value ^ 1u, p.length})
                             : idle.end();
    if (sibling == idle.end()) {
      candidates_.push_back(p);
    } else {
      idle.erase(sibling);
      idle.insert(p.parent());
    }
  }
  std::sort(candidates_.begin(), candidates_.end(), byLengthThenValue);
}

}  // namespace rfid::anticollision
