// SplitWalk: the two walks of the tree family.
//
// The depth-first stack's top is the arena's front. Split survivors end
// where their group ended, so every group ends where the group below it
// begins; a readable slot's capture losers are rotated behind the next
// group's members and re-contend in its slot (the counter formulation: they
// sit at counter 0, like the group that pops next). The breadth-first queue
// keeps its groups' spans inside the arena, since a split never moves
// members out of their group's span, and drops its consumed groups as it
// goes.
#include "anticollision/split_walk.hpp"

#include "anticollision/protocol.hpp"
#include "common/alloc_guard.hpp"
#include "common/require.hpp"

namespace rfid::anticollision {

std::size_t SplitWalk::beginRun(std::span<const tags::Tag> tags,
                                std::size_t maxSlots) {
  Protocol::blockerIndicesInto(tags, blockers_);
  slotsUsed_ = 0;
  maxSlots_ = maxSlots;
  return gather(tags);
}

std::size_t SplitWalk::gather(std::span<const tags::Tag> tags) {
  Protocol::activeTagIndicesInto(tags, arena_);
  groups_.assign(1, Group{0, arena_.size(), {}});
  return arena_.size();
}

phy::SlotType SplitWalk::query(sim::SlotEngine& engine,
                               std::span<tags::Tag> tags, const Group& group,
                               common::Rng& rng) {
  responders_.clear();
  for (std::size_t k = group.begin; k < group.end; ++k) {
    common::pushBackAmortized(responders_, arena_[k]);
  }
  for (const std::size_t idx : blockers_) {
    common::pushBackAmortized(responders_, idx);
  }
  return engine.runSlot(tags, responders_, rng);
}

// Members that fell silent join the read list; the rest keep their order,
// the zero half compacting forward while the one half waits in scratch.
// The survivors then end where the group ended, zero half first, and
// `group` shrinks to them. Returns the start of the one half.
template <typename BitOf>
std::size_t SplitWalk::split(std::span<const tags::Tag> tags, Group& group,
                             BitOf bitOf) {
  std::size_t* const arena = arena_.data();
  std::size_t zeros = group.begin;
  scratch_.clear();
  for (std::size_t k = group.begin; k < group.end; ++k) {
    const std::size_t idx = arena[k];
    if (tags[idx].believesIdentified) {
      common::pushBackAmortized(read_, idx);
    } else if (bitOf(idx)) {
      common::pushBackAmortized(scratch_, idx);
    } else {
      arena[zeros++] = idx;
    }
  }
  const std::size_t mid = group.end - scratch_.size();
  std::rotate(arena + group.begin, arena + zeros, arena + mid);
  std::copy(scratch_.begin(), scratch_.end(), arena + mid);
  group.begin = mid - (zeros - group.begin);
  return mid;
}

// rfid:noexcept-allow: runSlot's responder-range REQUIRE is a test-pinned
// API contract
bool SplitWalk::depthFirst(sim::SlotEngine& engine, std::span<tags::Tag> tags,
                           common::Rng& rng) {
  ALLOC_GUARD_HOT();
  read_.clear();
  std::reverse(groups_.begin(), groups_.end());
  while (!groups_.empty()) {
    if (slotsUsed_++ >= maxSlots_) return false;
    Group group = groups_.back();
    groups_.pop_back();
    const bool collided =
        query(engine, tags, group, rng) == phy::SlotType::kCollided;
    // A readable slot leaves its capture losers all in the zero half.
    const std::size_t mid = split(tags, group, [&rng, collided](std::size_t) {
      return collided && rng.below(2) != 0;
    });
    if (collided) {
      common::pushBackAmortized(groups_, Group{mid, group.end, {}});
      common::pushBackAmortized(groups_, Group{group.begin, mid, {}});
    } else if (!groups_.empty()) {
      std::size_t* const arena = arena_.data();
      std::rotate(arena + group.begin, arena + group.end,
                  arena + groups_.back().end);
      groups_.back().begin = group.begin;
    } else if (group.begin < group.end) {
      common::pushBackAmortized(groups_, group);
    }
  }
  return true;
}

// rfid:noexcept-allow: runSlot's responder-range REQUIRE is a test-pinned
// API contract
bool SplitWalk::breadthFirst(sim::SlotEngine& engine,
                             std::span<tags::Tag> tags, common::Rng& rng,
                             std::span<const Prefix> roots) {
  ALLOC_GUARD_HOT();
  RFID_ASSERT(roots.size() <= groups_.size());
  for (std::size_t g = 0; g < roots.size(); ++g) groups_[g].prefix = roots[g];
  const std::size_t idBits = engine.scheme().air().idBits;
  leaves_.clear();
  for (std::size_t head = 0; head < groups_.size();) {
    if (slotsUsed_++ >= maxSlots_) return false;
    Group group = groups_[head++];
    const phy::SlotType detected = query(engine, tags, group, rng);
    if (detected != phy::SlotType::kCollided) {
      common::pushBackAmortized(leaves_, Leaf{group.prefix, detected});
    } else if (group.prefix.length < idBits) {
      const std::size_t bit = idBits - group.prefix.length - 1;
      const std::size_t mid = split(tags, group, [&tags, bit](std::size_t idx) {
        return ((tags[idx].idValue >> bit) & 1u) != 0;
      });
      common::pushBackAmortized(
          groups_, Group{group.begin, mid, group.prefix.child(0)});
      common::pushBackAmortized(groups_,
                                Group{mid, group.end, group.prefix.child(1)});
    }
    if (2 * head > groups_.size()) {
      groups_.erase(groups_.begin(),
                    groups_.begin() + static_cast<std::ptrdiff_t>(head));
      head = 0;
    }
  }
  return true;
}

}  // namespace rfid::anticollision
