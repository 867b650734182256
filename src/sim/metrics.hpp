// Per-round measurement collection.
//
// One Metrics instance records a single identification procedure: the slot
// census (idle/single/collided, both ground truth and as the detector saw
// them), the detection confusion matrix, total airtime, per-tag
// identification delays, frame count, and the phantom-identification
// accounting that QCD misdetections can cause. All of the paper's metrics
// (throughput §III, accuracy §VI-B, UR §VI-C, delay §VI-D, EI §VI-E) are
// derived views over this record.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/alloc_guard.hpp"
#include "phy/impairments/impairment.hpp"
#include "phy/timing.hpp"

namespace rfid::sim {

struct SlotCensus {
  std::uint64_t idle = 0;
  std::uint64_t single = 0;
  std::uint64_t collided = 0;

  std::uint64_t total() const noexcept { return idle + single + collided; }
  void bump(phy::SlotType t) noexcept {
    switch (t) {
      case phy::SlotType::kIdle:
        ++idle;
        break;
      case phy::SlotType::kSingle:
        ++single;
        break;
      case phy::SlotType::kCollided:
        ++collided;
        break;
    }
  }
};

class Metrics {
 public:
  /// Slot counts indexed [true type][detected type] by SlotType's
  /// underlying value.
  using Confusion = std::array<std::array<std::uint64_t, 3>, 3>;

  // --- clock -------------------------------------------------------------
  double nowMicros() const noexcept { return nowMicros_; }
  void advanceMicros(double dt) noexcept { nowMicros_ += dt; }

  // --- recording (called by the slot engine / protocols) ------------------
  // The recorders are defined inline: the slot engine's commit calls them
  // on every batch and every identification. recordSlot records one slot
  // on its own; the commit records its slots in bulk with recordSlots.
  void recordSlot(phy::SlotType trueType, phy::SlotType detectedType,
                  double airtimeMicros) noexcept {
    ++confusion_[static_cast<std::size_t>(trueType)]
                [static_cast<std::size_t>(detectedType)];
    airtimeMicros_ += airtimeMicros;
    nowMicros_ += airtimeMicros;
  }
  /// Bulk form of recordSlot for a run of slots committed in one pass:
  /// adds `slots` to the confusion matrix, counts `verifies` ACK-verify
  /// exchanges, and stores the airtime and the clock that the run reached.
  /// The caller starts both sums from totalAirtimeMicros() and nowMicros()
  /// and adds each slot's airtime (and its verify airtime) in slot order, so
  /// the floating-point values equal those of per-slot recording.
  void recordSlots(const Confusion& slots, std::uint64_t verifies,
                   double airtimeMicros, double nowMicros) noexcept {
    for (std::size_t t = 0; t < 3; ++t) {
      for (std::size_t d = 0; d < 3; ++d) {
        confusion_[t][d] += slots[t][d];
      }
    }
    verifies_ += verifies;
    airtimeMicros_ = airtimeMicros;
    nowMicros_ = nowMicros;
  }
  void recordFrame() noexcept { ++frames_; }
  /// A tag fell silent at `atMicros`; `correct` is false when it was
  /// silenced by a phantom ACK (misdetected collision). Allocation-free as
  /// long as reserveIdentifications covered the identification count.
  void recordIdentification(bool correct, double atMicros) {
    ++identified_;
    if (correct) {
      ++correct_;
    }
    // Amortized delay-log growth; reserveIdentifications pre-sizes it on
    // measured runs so steady state stays guard-clean.
    common::pushBackAmortized(delays_, atMicros);
  }
  /// A misdetected collision silenced `tagsLost` tags with one phantom ID.
  void recordPhantom(std::uint64_t tagsLost) noexcept {
    ++phantoms_;
    lostTags_ += tagsLost;
  }
  /// Outcome of an ACK-verify: `accepted` is false when the reader rejected
  /// the read (corrupted/ambiguous) and re-queued the responders.
  void recordVerify(bool accepted) noexcept {
    if (!accepted) ++verifyRejects_;
  }
  /// A corrupted single slipped past (no verify): the tag was silenced but
  /// the reader logged a wrong ID.
  void recordMisread() noexcept { ++misreads_; }
  /// Attaches the channel impairment layer's accumulated counters (copied;
  /// called once at end of round).
  void setChannelStats(const phy::ImpairmentStats& stats) noexcept {
    channelStats_ = stats;
  }

  /// Pre-sizes the per-tag delay log so that up to `expected`
  /// identifications record without reallocating — lets a long-running slot
  /// loop stay allocation-free (everything else in Metrics is plain
  /// counters).
  void reserveIdentifications(std::size_t expected) {
    delays_.reserve(expected);
  }

  // --- views ---------------------------------------------------------------
  /// The ground-truth and the detected slot census: the confusion matrix's
  /// row and column sums.
  SlotCensus trueCensus() const noexcept {
    const auto row = [this](std::size_t t) {
      return confusion_[t][0] + confusion_[t][1] + confusion_[t][2];
    };
    return {row(0), row(1), row(2)};
  }
  SlotCensus detectedCensus() const noexcept {
    const auto column = [this](std::size_t d) {
      return confusion_[0][d] + confusion_[1][d] + confusion_[2][d];
    };
    return {column(0), column(1), column(2)};
  }
  /// confusion()[true][detected], indexed by SlotType's underlying value.
  const Confusion& confusion() const noexcept { return confusion_; }
  std::uint64_t frames() const noexcept { return frames_; }
  double totalAirtimeMicros() const noexcept { return airtimeMicros_; }
  std::uint64_t identified() const noexcept { return identified_; }
  std::uint64_t correctlyIdentified() const noexcept { return correct_; }
  std::uint64_t phantoms() const noexcept { return phantoms_; }
  std::uint64_t lostTags() const noexcept { return lostTags_; }
  std::uint64_t verifies() const noexcept { return verifies_; }
  std::uint64_t verifyRejects() const noexcept { return verifyRejects_; }
  std::uint64_t misreads() const noexcept { return misreads_; }
  const phy::ImpairmentStats& channelStats() const noexcept {
    return channelStats_;
  }
  const std::vector<double>& delaysMicros() const noexcept { return delays_; }

  /// λ = N₁ / (N₀ + N₁ + N_c) over the detected census (§III).
  double throughput() const noexcept;
  /// Fraction of true collision slots the detector flagged as collided
  /// (the accuracy metric of §VI-B / Fig. 5). Returns 1 when there were no
  /// true collisions.
  double collisionDetectionAccuracy() const noexcept;
  /// UR (§VI-C): time spent on successfully transmitted IDs over total
  /// identification time. `idBits`/`tauMicros` describe the air interface.
  double utilizationRate(double idBits, double tauMicros) const noexcept;

 private:
  Confusion confusion_{};
  std::uint64_t frames_ = 0;
  double airtimeMicros_ = 0.0;
  double nowMicros_ = 0.0;
  std::uint64_t identified_ = 0;
  std::uint64_t correct_ = 0;
  std::uint64_t phantoms_ = 0;
  std::uint64_t lostTags_ = 0;
  std::uint64_t verifies_ = 0;
  std::uint64_t verifyRejects_ = 0;
  std::uint64_t misreads_ = 0;
  phy::ImpairmentStats channelStats_;
  std::vector<double> delays_;
};

}  // namespace rfid::sim
