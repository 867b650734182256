// SlotEngine::commitSlots, the one slot commit (declared in engine.hpp).
//
// A private header: only engine.cpp (runSlot) and engine_batch.cpp (the
// packed kernel's commit phase) include it, so the member templates are
// defined where both callers can inline them and nowhere else. commitSlots
// is forced inline: runSlot's one-slot call then folds the chunk loop and
// the reception test away, so a lone slot pays little for the batch form.
//
// The commit runs two passes over each chunk of up to kCommitChunk slots:
//
//   1. tally — the slot census, the confusion matrix, the airtime and the
//      clock stay in locals. Each slot adds its airtime in slot order (and,
//      under ACK-verify, a single slot's verify airtime as its own second
//      addition), so the floating-point sums equal per-slot recording. The
//      slots read as single are compacted, each with the clock after it.
//      Without ACK-verify nothing in this pass branches on the data.
//   2. identify — only the compacted singles: identifications, misreads,
//      phantom ACKs and verify outcomes, in slot order, each stamped with
//      its stored clock. With an observer attached it walks every slot
//      instead, rebuilding each event's start and duration by repeating
//      pass 1's additions from the chunk's start clock.
//
// Pass 1 reads no tag state and pass 2 writes tags in slot order, so the
// result is bit-identical to committing one slot at a time.
#pragma once

#include <algorithm>
#include <array>

#include "common/alloc_guard.hpp"
#include "sim/engine.hpp"

namespace rfid::sim {

template <bool kAckVerify>
std::size_t SlotEngine::tallySlots(const std::uint32_t* offsets,
                                   const phy::SlotType* detected,
                                   std::size_t slots,
                                   Metrics::Confusion& counts,
                                   double& airtime, double& now) noexcept {
  ALLOC_GUARD_HOT();
  constexpr auto kSingle = static_cast<std::size_t>(phy::SlotType::kSingle);
  // Locals: the compacted stores below could otherwise alias the members.
  const std::array<double, 3> slotMicros = slotMicros_;
  const double verifyMicros = verifyMicros_;
  SingleSlot* singles = singles_.data();
  double a = airtime;
  double t = now;
  std::size_t found = 0;
  for (std::size_t s = 0; s < slots; ++s) {
    const std::uint32_t n = offsets[s + 1] - offsets[s];
    const std::size_t trueType = n < 2 ? n : 2;
    const auto d = static_cast<std::size_t>(detected[s]);
    ++counts[trueType][d];
    a += slotMicros[d];
    t += slotMicros[d];
    if constexpr (kAckVerify) {
      if (d == kSingle) {
        a += verifyMicros;
        t += verifyMicros;
      }
    }
    singles[found] = {t, static_cast<std::uint32_t>(s)};
    found += static_cast<std::size_t>(d == kSingle);
  }
  airtime = a;
  now = t;
  return found;
}

// rfid:noexcept-allow: the delay log's amortized growth failing
// propagates out of runSlot, as it always has
template <typename Index>
phy::SlotType SlotEngine::identifySingle(std::span<tags::Tag> tags,
                                         std::span<const Index> row,
                                         const phy::Reception* reception,
                                         double clock) {
  ALLOC_GUARD_HOT();
  using phy::SlotType;
  const auto identify = [this, clock](tags::Tag& tag, bool correct) {
    tag.believesIdentified = true;
    tag.correctlyIdentified = correct;
    tag.identifiedAtMicros = clock;
    metrics_.recordIdentification(correct, clock);
  };
  std::optional<std::size_t> capturedIndex;
  bool corrupted = false;
  if (reception != nullptr) {
    capturedIndex = reception->capturedIndex;
    corrupted = reception->corrupted;
  } else if (row.size() == 1) {
    capturedIndex = 0;
  }
  tags::Tag* captured =
      capturedIndex.has_value() ? &tags[row[*capturedIndex]] : nullptr;
  if (recovery_.ackVerify) {
    // ACK-verify exchange: the reader echoes the ID it decoded and waits
    // for the tag's confirmation. Costs airtime every time (the tally
    // charged it); fails when the read was corrupted in flight, when no
    // single signal was actually captured (a misdetected collision — no
    // tag recognizes the echoed OR-mixture), or when a blocker jammed the
    // slot. A failed verify is treated as a collision: nobody falls
    // silent, and the protocol re-queues the responders.
    const bool accepted =
        captured != nullptr && !corrupted && !captured->blocker;
    metrics_.recordVerify(accepted);
    if (!accepted) {
      return SlotType::kCollided;
    }
    identify(*captured, /*correct=*/true);
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
    for (const Index idx : row) {
      tags::Tag& tag = tags[idx];
      if (tag.blocker) continue;
      identify(tag, /*correct=*/false);
      ++silenced;
    }
    metrics_.recordPhantom(silenced);
  }
  return SlotType::kSingle;
}

// rfid:noexcept-allow: an observer's exception (or the delay log's
// amortized growth failing) propagates out of runSlot, as it always has
template <typename Index>
[[gnu::always_inline]] inline void SlotEngine::commitSlots(
    std::span<tags::Tag> tags, std::span<const Index> responders,
    const std::uint32_t* offsets, std::span<phy::SlotType> verdicts,
    const phy::Reception* reception) {
  ALLOC_GUARD_HOT();
  using phy::SlotType;
  constexpr auto kSingle = static_cast<std::size_t>(SlotType::kSingle);
  const bool ackVerify = recovery_.ackVerify;
  // The confusion matrix and the observer see the raw detection; the
  // protocol is told the *effective* type, so a rejected verify rewrites
  // the slot's verdict to collided and its responders are re-queued.
  const auto commitSingle = [&](std::size_t s, double clock) {
    verdicts[s] = identifySingle(
        tags, responders.subspan(offsets[s], offsets[s + 1] - offsets[s]),
        reception, clock);
  };

  // Both passes run per chunk of kCommitChunk slots, so the singles list
  // stays small and is still in cache when pass 2 reads it back.
  for (std::size_t first = 0; first < verdicts.size(); first += kCommitChunk) {
    const std::size_t slots = std::min(kCommitChunk, verdicts.size() - first);
    const SlotType* detected = verdicts.data() + first;

    // Pass 1 — tally. The singles list holds the chunk's slots plus the
    // one spare entry the compaction writes past the last single: a bound
    // the first full chunk reaches, where a high-water mark of singles
    // would keep growing with the draws.
    if (singles_.size() < slots + 1) {
      ALLOC_GUARD_ALLOW("high-water-mark growth; steady state reuses storage");
      singles_.resize(slots + 1);
    }
    const double startMicros = metrics_.nowMicros();
    Metrics::Confusion counts{};
    double airtime = metrics_.totalAirtimeMicros();
    double now = startMicros;
    const std::size_t found =
        ackVerify ? tallySlots<true>(offsets + first, detected, slots, counts,
                                     airtime, now)
                  : tallySlots<false>(offsets + first, detected, slots,
                                      counts, airtime, now);
    metrics_.recordSlots(counts, ackVerify ? found : 0, airtime, now);

    // Pass 2 — identify.
    if (observer_ == nullptr) {
      for (std::size_t k = 0; k < found; ++k) {
        const SingleSlot single = singles_[k];
        commitSingle(first + single.slot, single.clockMicros);
      }
    } else {
      double clock = startMicros;
      for (std::size_t j = 0; j < slots; ++j) {
        const std::size_t s = first + j;
        const SlotType type = detected[j];  // before the commit rewrites it
        const auto d = static_cast<std::size_t>(type);
        const double slotStart = clock;
        clock += slotMicros_[d];
        if (ackVerify && d == kSingle) {
          clock += verifyMicros_;
        }
        const std::uint64_t identifiedBefore = metrics_.identified();
        if (d == kSingle) {
          commitSingle(s, clock);
        }
        const std::uint32_t n = offsets[s + 1] - offsets[s];
        SlotEvent event;
        event.index = slotIndex_ + s;
        event.trueType = n == 0   ? SlotType::kIdle
                         : n == 1 ? SlotType::kSingle
                                  : SlotType::kCollided;
        event.detectedType = type;
        event.responders = n;
        event.startMicros = slotStart;
        event.durationMicros = clock - slotStart;
        event.identified = metrics_.identified() - identifiedBefore;
        // Test observers log events into vectors.
        ALLOC_GUARD_ALLOW(
            "observers own their allocation budget; the engine contract "
            "covers engine allocations");
        observer_->onSlot(event);
      }
    }
  }
  slotIndex_ += verdicts.size();
}

}  // namespace rfid::sim
