// Mobile-tag scenario (§VI-D motivation).
//
// "The tag may move out of the reader's range before it is identified by
// the reader if the identification is slow." This module models exactly
// that: tags arrive as a Poisson process, stay for a fixed dwell time, and
// the reader runs continuous FSA inventory frames, each drawn by
// FrameBatcher over the tags present when it starts. A tag that departs
// before being read is a miss — the metric that makes identification speed
// (and hence the detection scheme) operationally visible.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/rng.hpp"
#include "core/detection_scheme.hpp"
#include "phy/air_interface.hpp"

namespace rfid::anticollision {

struct MobileConfig {
  /// Mean arrivals per millisecond (Poisson).
  double arrivalsPerMs = 1.0;
  /// How long each tag stays in range, in microseconds.
  double dwellMicros = 2000.0;
  /// Simulated duration, in microseconds.
  double horizonMicros = 1.0e6;
  /// Inventory frame length (slots); re-used for every frame.
  std::size_t frameSize = 16;
};

struct MobileResult {
  std::size_t arrived = 0;
  std::size_t identified = 0;
  std::size_t missed = 0;  ///< departed before being read
  double meanTimeToReadMicros = 0.0;

  double missRate() const {
    const std::size_t resolved = identified + missed;
    return resolved == 0
               ? 0.0
               : static_cast<double>(missed) / static_cast<double>(resolved);
  }
};

/// Runs the continuous-inventory scenario under `scheme` (which fixes the
/// per-slot airtime and therefore how many inventory frames fit into each
/// tag's dwell window).
MobileResult runMobileScenario(const core::DetectionScheme& scheme,
                               const MobileConfig& config, common::Rng& rng);

}  // namespace rfid::anticollision
