#include "sim/engine.hpp"

#include "common/alloc_guard.hpp"
#include "common/require.hpp"
#include "sim/engine_commit.hpp"

namespace rfid::sim {

using phy::SlotType;

SlotEngine::SlotEngine(const core::DetectionScheme& scheme,
                       phy::Channel& channel, Metrics& metrics)
    : scheme_(scheme), channel_(channel), metrics_(metrics) {
  const phy::SlotTiming timing = scheme.timing();
  for (const SlotType type :
       {SlotType::kIdle, SlotType::kSingle, SlotType::kCollided}) {
    slotMicros_[static_cast<std::size_t>(type)] =
        scheme.air().bitsToMicros(timing.bitsFor(type));
  }
  setRecoveryPolicy(recovery_);  // the default policy's verify airtime
}

// rfid:hot begin
// rfid:noexcept-allow: the responder-index REQUIRE throws PreconditionError
// (a test-pinned API contract)
SlotType SlotEngine::runSlot(std::span<tags::Tag> tags,
                             std::span<const std::size_t> responders,
                             common::Rng& rng) {
  ALLOC_GUARD_HOT();
  // Announce the slot index first so stateful channels (the impairment
  // layer) key their per-slot randomness to it — idle slots included, which
  // keeps the schedule aligned even though they never reach the channel.
  channel_.beginSlot(slotIndex_);
  // Grow the scratch only at a new high-water mark; existing elements keep
  // their word storage and are overwritten in place.
  if (txScratch_.size() < responders.size()) {
    ALLOC_GUARD_ALLOW();
    // rfid:hot-allow: high-water-mark growth; steady state reuses storage
    txScratch_.resize(responders.size());
  }
  std::size_t txCount = 0;
  for (const std::size_t idx : responders) {
    RFID_REQUIRE(idx < tags.size(), "responder index out of range");
    const tags::Tag& tag = tags[idx];
    common::BitVec& tx = txScratch_[txCount++];
    if (tag.blocker) {
      // A blocker jams the contention phase with all-ones, so any slot it
      // joins superposes to a signal no detector reads as single.
      tx.assignFill(scheme_.contentionBits(), true);
    } else {
      scheme_.contentionSignalInto(tag, rng, tx);
    }
  }

  // An idle slot never reaches the channel: superposeInto would disengage
  // the scratch signal and drop its storage, forcing the next busy slot to
  // reallocate it.
  static const std::optional<common::BitVec> kNoSignal;
  const std::optional<common::BitVec>* signal = &kNoSignal;
  if (responders.empty()) {
    rxScratch_.capturedIndex.reset();
    rxScratch_.erased = false;
    rxScratch_.corrupted = false;
  } else {
    channel_.superposeInto({txScratch_.data(), txCount}, rng, rxScratch_);
    if (rxScratch_.erased) {
      // A deep fade (or every reply dropped) — the reader sees no energy.
      // rxScratch_.signal is engaged-but-stale by contract; classify from
      // the no-signal sentinel instead.
      rxScratch_.capturedIndex.reset();
    } else {
      signal = &rxScratch_.signal;
    }
  }
  const SlotType detected = scheme_.classify(*signal, responders.size());
  return commitSlot(tags, responders, detected, rxScratch_.capturedIndex,
                    rxScratch_.corrupted);
}
// rfid:hot end

}  // namespace rfid::sim
