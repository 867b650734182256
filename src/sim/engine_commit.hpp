// SlotEngine::commitSlot, the one slot commit (declared in engine.hpp).
//
// A private header: only engine.cpp (runSlot) and engine_batch.cpp (the
// packed kernel's commit phase) include it, so the member template is
// defined where both callers can inline it and nowhere else.
#pragma once

#include "common/alloc_guard.hpp"
#include "sim/engine.hpp"

namespace rfid::sim {

// rfid:noexcept-allow: an observer's exception (or the delay log's
// amortized growth failing) propagates out of runSlot, as it always has
template <typename Index>
phy::SlotType SlotEngine::commitSlot(std::span<tags::Tag> tags,
                                     std::span<const Index> responders,
                                     phy::SlotType detected,
                                     std::optional<std::size_t> capturedIndex,
                                     bool corrupted) {
  ALLOC_GUARD_HOT();
  using phy::SlotType;
  const SlotType trueType = responders.empty()       ? SlotType::kIdle
                            : responders.size() == 1 ? SlotType::kSingle
                                                     : SlotType::kCollided;
  const double slotStart = metrics_.nowMicros();
  const std::uint64_t identifiedBefore = metrics_.identified();
  metrics_.recordSlot(trueType, detected,
                      slotMicros_[static_cast<std::size_t>(detected)]);

  const auto identify = [this](tags::Tag& tag, bool correct) {
    const double now = metrics_.nowMicros();
    tag.believesIdentified = true;
    tag.correctlyIdentified = correct;
    tag.identifiedAtMicros = now;
    metrics_.recordIdentification(correct, now);
  };
  SlotType effective = detected;
  if (detected == SlotType::kSingle) {
    tags::Tag* captured =
        capturedIndex.has_value() ? &tags[responders[*capturedIndex]] : nullptr;
    if (recovery_.ackVerify) {
      // ACK-verify exchange: the reader echoes the ID it decoded and waits
      // for the tag's confirmation. Costs airtime every time; fails when
      // the read was corrupted in flight, when no single signal was
      // actually captured (a misdetected collision — no tag recognizes the
      // echoed OR-mixture), or when a blocker jammed the slot. A failed
      // verify is treated as a collision: nobody falls silent, and the
      // protocol re-queues the responders.
      metrics_.chargeVerify(verifyMicros_);
      const bool accepted =
          captured != nullptr && !corrupted && !captured->blocker;
      metrics_.recordVerify(accepted);
      if (accepted) {
        identify(*captured, /*correct=*/true);
      } else {
        effective = SlotType::kCollided;
      }
    } else if (captured != nullptr) {
      // Exactly one signal was demodulated cleanly (a lone responder, or a
      // capture-effect winner): the reader ACKs and reads the ID. If the
      // channel flipped bits of that reply, the ACK still silences the tag
      // but the reader has logged a wrong ID — a misread.
      if (!captured->blocker) {
        identify(*captured, /*correct=*/!corrupted);
        if (corrupted) metrics_.recordMisread();
      }
    } else {
      // Misdetected collision (e.g. all QCD responders drew the same r).
      // The reader ACKs; every honest responder takes the ACK and falls
      // silent, while the reader logs one phantom ID — the OR of the real
      // ones (Theorem 1).
      std::uint64_t silenced = 0;
      for (const Index idx : responders) {
        tags::Tag& tag = tags[idx];
        if (tag.blocker) continue;
        identify(tag, /*correct=*/false);
        ++silenced;
      }
      metrics_.recordPhantom(silenced);
    }
  }

  if (observer_ != nullptr) {
    // Test observers log events into vectors.
    ALLOC_GUARD_ALLOW(
        "observers own their allocation budget; the engine contract covers "
        "engine allocations");
    SlotEvent event;
    event.index = slotIndex_;
    event.trueType = trueType;
    event.detectedType = detected;
    event.responders = responders.size();
    event.startMicros = slotStart;
    event.durationMicros = metrics_.nowMicros() - slotStart;
    event.identified = metrics_.identified() - identifiedBefore;
    observer_->onSlot(event);
  }
  ++slotIndex_;
  // The confusion matrix and the observer saw the raw detection; the
  // protocol is told the *effective* type (a rejected verify reads as a
  // collision so the responders are re-queued).
  return effective;
}

}  // namespace rfid::sim
