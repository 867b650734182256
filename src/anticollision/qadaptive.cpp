#include "anticollision/qadaptive.hpp"

#include <algorithm>
#include <cmath>

#include "common/alloc_guard.hpp"
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

// rfid:noexcept-allow: beginRound, drawFrame and runRow carry test-pinned
// REQUIREs
bool QAdaptive::runWithSnapshot(sim::SlotEngine& engine,
                                std::span<tags::Tag> tags, common::Rng& rng,
                                const sim::TagSoA& soa) {
  ALLOC_GUARD_HOT();
  batcher_.beginRound(tags, soa);
  double qFp = initialQ_;
  std::size_t slotsUsed = 0;
  while (!batcher_.gatherActive(tags).empty()) {
    // A round whose budget is already spent starts no frame (and records
    // none) — same accounting as FSA/DFSA (DESIGN.md §5e).
    if (slotsUsed >= maxSlots()) {
      return false;
    }
    // Query / QueryAdjust: every active tag (including previously collided,
    // silent ones) redraws its slot in [0, 2^Q).
    engine.metrics().recordFrame();
    const auto q = static_cast<unsigned>(std::lround(qFp));
    const std::size_t frame = std::size_t{1} << q;
    const std::size_t slotsToRun = std::min(frame, maxSlots() - slotsUsed);
    batcher_.drawFrame(frame, slotsToRun, rng);

    // QueryRep through the drawn rows until round(Q) moves. Collided and
    // unacknowledged responders need no bookkeeping: they drew this slot,
    // so they stay silent for the rest of the round.
    bool qChanged = false;
    std::size_t slot = 0;
    while (slot < slotsToRun && !qChanged) {
      const phy::SlotType verdict = batcher_.runRow(engine, tags, slot, rng);
      ++slot;
      switch (verdict) {
        case phy::SlotType::kIdle:
          qFp = std::max(0.0, qFp - c_);
          break;
        case phy::SlotType::kCollided:
          qFp = std::min(maxQ_, qFp + c_);
          break;
        case phy::SlotType::kSingle:
          break;  // the engine already silenced the acknowledged tag(s)
      }
      qChanged = static_cast<unsigned>(std::lround(qFp)) != q;
    }
    slotsUsed += slot;
    if (!qChanged && slotsToRun < frame) {
      return false;  // budget exhausted mid-round
    }
  }
  return true;
}

}  // namespace rfid::anticollision
