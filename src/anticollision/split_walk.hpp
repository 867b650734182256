// The split walker of the tree family (§III-B, Fig. 2): BT, ABS, QT, AQS.
//
// A tree protocol queries a group of tags; a collided group splits in two,
// and both halves are queried in turn, even an empty one (the idle slot a
// bad split costs). BT and ABS split by a fair coin and walk depth-first,
// the stack formulation of the paper's tag counters: a tag's counter is its
// group's depth on the stack. QT and AQS split by the ID bit after the
// query prefix and walk breadth-first. SplitWalk holds both walks.
//
// It keeps a round's contenders in one index arena, where every outstanding
// group is a span, and splits a collided group in place and stably: members
// keep their order, so the coin is drawn for them in group order, and
// members that fell silent drop out. Each query lays its group out, the
// blockers appended, as a one-row sim::SlotBatch over the run's TagSoA
// snapshot and hands it to SlotEngine::runSlotsBatch, so a query on a pure
// OR channel runs the packed kernel (CRC-CD reads the snapshot's static
// rows) and any other query takes the engine's per-slot fallback. All walks
// of one run draw on one slot budget. Buffers grow to high-water marks
// only, so a warmed-up walk allocates nothing.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "phy/timing.hpp"
#include "sim/engine.hpp"
#include "sim/tag_soa.hpp"
#include "tags/tag.hpp"

namespace rfid::anticollision {

/// A query prefix: the most-significant `length` bits of an ID.
struct Prefix {
  std::uint64_t value = 0;  ///< right-aligned prefix bits
  unsigned length = 0;

  Prefix child(unsigned bit) const noexcept {
    return Prefix{(value << 1) | bit, length + 1};
  }
  Prefix parent() const noexcept { return Prefix{value >> 1, length - 1}; }
  bool operator==(const Prefix&) const = default;
};

class SplitWalk {
 public:
  /// A readable query of the last breadth-first walk.
  struct Leaf {
    Prefix prefix;
    phy::SlotType type;
  };

  /// Starts a run: binds `soa`, a snapshot of `tags` gathered under the
  /// engine's scheme, that every query of the run batches over; caches the
  /// blockers, sets the slot budget that every walk of the run draws on,
  /// and gathers. The snapshot must outlive the run, and blocker flags and
  /// tag IDs must stay fixed until it ends. Throws PreconditionError as
  /// Protocol::requireSnapshot does.
  std::size_t beginRun(std::span<const tags::Tag> tags, const sim::TagSoA& soa,
                       std::size_t maxSlots);

  /// Lays the still-contending honest tags out as one group, in index
  /// order (the root query, or counter 0), and returns how many there are.
  std::size_t gather(std::span<const tags::Tag> tags);

  /// Regroups the gathered tags by key, a stable counting sort: keyOf(idx)
  /// is called once per tag, in gather order. There are max(minGroups,
  /// largest key + 1) groups, in key order; the walks query every one of
  /// them, empty ones too.
  template <typename KeyOf>
  void regroup(std::size_t minGroups, KeyOf keyOf) {
    keys_.resize(arena_.size());
    for (std::size_t k = 0; k < arena_.size(); ++k) {
      keys_[k] = keyOf(arena_[k]);
      minGroups = std::max(minGroups, keys_[k] + 1);
    }
    // Each group's end counts its members, then is its placement cursor.
    groups_.assign(minGroups, Group{});
    for (const std::size_t key : keys_) ++groups_[key].end;
    std::size_t at = 0;
    for (Group& group : groups_) {
      group.begin = at;
      at += std::exchange(group.end, at);
    }
    scratch_.resize(arena_.size());
    for (std::size_t k = 0; k < arena_.size(); ++k) {
      scratch_[groups_[keys_[k]].end++] = arena_[k];
    }
    arena_.swap(scratch_);
  }

  /// Walks the groups depth-first, first group first, splitting collided
  /// groups by a fair coin: heads reply in the next slot, tails after them.
  /// A readable slot's capture losers re-contend with the next group.
  /// Returns false when the budget runs out first; every tag is silent
  /// otherwise.
  bool depthFirst(sim::SlotEngine& engine, std::span<tags::Tag> tags,
                  common::Rng& rng);

  /// Walks the groups breadth-first; group g queries roots[g], or the root
  /// past the end of `roots`. A collided group splits by the ID bit after
  /// its prefix, zero half first; a collided full-length prefix is dropped,
  /// and so are a readable slot's capture losers. Returns false when the
  /// budget runs out first.
  bool breadthFirst(sim::SlotEngine& engine, std::span<tags::Tag> tags,
                    common::Rng& rng, std::span<const Prefix> roots = {});

  /// Tags the last depth-first walk silenced, in the order it did.
  std::span<const std::size_t> read() const noexcept { return read_; }
  /// Readable queries of the last breadth-first walk, in query order.
  std::span<const Leaf> leaves() const noexcept { return leaves_; }

 private:
  struct Group {
    std::size_t begin = 0, end = 0;
    Prefix prefix;
  };

  phy::SlotType query(sim::SlotEngine& engine, std::span<tags::Tag> tags,
                      const Group& group, common::Rng& rng);
  template <typename BitOf>
  std::size_t split(std::span<const tags::Tag> tags, Group& group,
                    BitOf bitOf);

  std::size_t slotsUsed_ = 0;
  std::size_t maxSlots_ = 0;
  const sim::TagSoA* soa_ = nullptr;
  std::vector<std::size_t> blockers_;
  /// The round's contenders; every outstanding group is a span of it.
  std::vector<std::size_t> arena_;
  /// Depth-first: a stack whose top is at the back. Breadth-first: a queue.
  std::vector<Group> groups_;
  std::vector<std::size_t> keys_;
  std::vector<std::size_t> scratch_;
  /// The query's one CSR row: the group's members, then the blockers.
  std::vector<std::uint32_t> row_;
  std::vector<std::size_t> read_;
  std::vector<Leaf> leaves_;
};

}  // namespace rfid::anticollision
