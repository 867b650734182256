#include "anticollision/qadaptive.hpp"

#include <algorithm>
#include <cmath>

#include "common/require.hpp"

namespace rfid::anticollision {

QAdaptive::QAdaptive(double initialQ, double c, double maxQ,
                     std::size_t maxSlots)
    : Protocol(maxSlots), initialQ_(initialQ), c_(c), maxQ_(maxQ) {
  RFID_REQUIRE(initialQ >= 0.0 && initialQ <= maxQ,
               "initial Q must lie in [0, maxQ]");
  RFID_REQUIRE(c > 0.0 && c <= 1.0, "C must lie in (0, 1]");
  RFID_REQUIRE(maxQ <= 15.0, "Gen2 caps Q at 15");
}

std::string QAdaptive::name() const { return "Q-Adaptive[C=" + std::to_string(c_) + "]"; }

bool QAdaptive::run(sim::SlotEngine& engine, std::span<tags::Tag> tags,
                    common::Rng& rng) {
  std::vector<std::size_t> blockers;
  blockerIndicesInto(tags, blockers);
  std::vector<std::size_t> responders;
  double qFp = initialQ_;
  std::size_t slotsUsed = 0;

  // Q-adaptive cannot emit frames as slot batches: slot s's verdict feeds
  // slot s+1's responder set (collisions silence their responders until the
  // next Query, and a Q nudge aborts the frame early), so the frame is not
  // known at frame start. It stays on the scalar runSlot path and ignores
  // Protocol::FrameMode; only the budget-consistent frame accounting below
  // is shared with the batched protocols.
  std::vector<std::size_t> active;
  activeTagIndicesInto(tags, active);
  while (!active.empty()) {
    // A round whose budget is already spent starts no frame (and records
    // none) — same accounting as FSA/DFSA (DESIGN.md §5e).
    if (slotsUsed >= maxSlots()) {
      return false;
    }
    // Query / QueryAdjust: every active tag (including previously collided,
    // silent ones) redraws its slot counter in [0, 2^Q).
    engine.metrics().recordFrame();
    const auto q = static_cast<unsigned>(std::lround(qFp));
    const std::uint64_t frame = std::uint64_t{1} << q;
    for (const std::size_t idx : active) {
      tags[idx].slotChoice = static_cast<std::uint32_t>(rng.below(frame));
    }

    std::uint64_t slotsLeft = frame;
    bool qChanged = false;
    while (slotsLeft > 0 && !qChanged) {
      if (slotsUsed++ >= maxSlots()) {
        return false;
      }
      responders.clear();
      for (const std::size_t idx : active) {
        if (!tags[idx].believesIdentified && tags[idx].slotChoice == 0) {
          responders.push_back(idx);
        }
      }
      responders.insert(responders.end(), blockers.begin(), blockers.end());

      const phy::SlotType detected = engine.runSlot(tags, responders, rng);
      switch (detected) {
        case phy::SlotType::kIdle:
          qFp = std::max(0.0, qFp - c_);
          break;
        case phy::SlotType::kCollided:
          qFp = std::min(maxQ_, qFp + c_);
          // Unacknowledged responders arbitrate: silent until the next
          // Query/QueryAdjust.
          for (const std::size_t idx : responders) {
            if (!tags[idx].blocker && !tags[idx].believesIdentified) {
              tags[idx].slotChoice = tags::kSlotSilent;
            }
          }
          break;
        case phy::SlotType::kSingle:
          break;  // the engine already silenced the acknowledged tag(s)
      }

      // QueryRep: surviving tags decrement their counters.
      for (const std::size_t idx : active) {
        tags::Tag& t = tags[idx];
        if (!t.believesIdentified && t.slotChoice != tags::kSlotSilent &&
            t.slotChoice > 0) {
          --t.slotChoice;
        }
      }
      --slotsLeft;
      qChanged = static_cast<unsigned>(std::lround(qFp)) != q;
    }
    activeTagIndicesInto(tags, active);
  }
  return true;
}

}  // namespace rfid::anticollision
