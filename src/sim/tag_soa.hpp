// Structure-of-arrays tag snapshot for the batch slot kernel.
//
// The scalar slot path touches tags::Tag (array-of-structs) one responder at
// a time; the batch kernel (SlotEngine::runSlotsBatch) instead streams the
// only two per-tag columns it reads — blocker flags and, for kStatic
// detection schemes (CRC-CD, the ideal oracle), every honest tag's packed
// contention signal — from contiguous arrays gathered once per census.
// Precomputing the static signals moves the only per-responder work with
// any real cost (the CRC) off the hot path entirely.
//
// The snapshot is deliberately read-only during a batch: identification
// bookkeeping (believesIdentified &c.) stays on the Tag AoS, because the
// commit phase touches at most one tag per slot and the protocol layers
// read those fields between frames. Everything gathered here is immutable
// while an inventory round runs, so the snapshot cannot go stale.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/detection_scheme.hpp"
#include "tags/tag.hpp"

namespace rfid::sim {

class TagSoA {
 public:
  TagSoA() = default;

  /// Gathers `tags` under `scheme`. Storage is reused across calls (grown at
  /// high-water only). For kStatic schemes the packed contention words of
  /// every honest tag are rendered here via packedStaticSignal; blocker rows
  /// stay zero — the batch kernel substitutes the all-ones jamming signal
  /// itself, so the snapshot never encodes it.
  void gather(std::span<const tags::Tag> tags,
              const core::DetectionScheme& scheme);

  std::size_t size() const noexcept { return blocker_.size(); }

  /// Words per packed signal row (the scheme's contentionWords()).
  std::size_t signalWords() const noexcept { return signalWords_; }
  /// True when gather() precomputed packed signals (kStatic scheme).
  bool hasStaticSignals() const noexcept { return hasStaticSignals_; }

  bool blocker(std::size_t i) const noexcept { return blocker_[i] != 0; }
  /// True when any gathered tag is a blocker; false lets the kernel skip
  /// its per-responder blocker test.
  bool anyBlocker() const noexcept { return anyBlocker_; }
  /// Row of signalWords() packed words; all-zero for blockers.
  const std::uint64_t* staticSignal(std::size_t i) const noexcept {
    return staticSignals_.data() + i * signalWords_;
  }

 private:
  std::size_t signalWords_ = 0;
  bool hasStaticSignals_ = false;
  bool anyBlocker_ = false;
  std::vector<std::uint64_t> staticSignals_;  ///< size() × signalWords_
  std::vector<std::uint8_t> blocker_;
};

}  // namespace rfid::sim
