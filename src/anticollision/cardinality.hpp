// Probe-based cardinality estimation (the paper's citations [15][16]:
// Kodialam & Nandagopal; Qian et al.).
//
// A reader often only needs to know *how many* tags are present, not which
// ones. Estimation needs nothing but the slot-type census of short probe
// frames — exactly the information a collision-detection scheme provides —
// so QCD shrinks every probe slot from l_id + l_crc bits to 2·l bits and
// the whole estimate becomes ~6× cheaper at identical statistical quality.
//
// Estimators over a probe frame of F slots holding n tags:
//   * Zero Estimator (ZE):      E[N0] = F·e^(−n/F)   → n̂ = F·ln(F/N0)
//   * Singleton Estimator (SE): E[N1] = n·e^(−n/F)   → n̂ via inversion
//   * Collision Estimator (CE): E[Nc] = F·(1 − e^(−ρ)(1+ρ)), ρ = n/F
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/rng.hpp"
#include "core/detection_scheme.hpp"
#include "phy/channel.hpp"
#include "sim/metrics.hpp"
#include "tags/tag.hpp"

namespace rfid::anticollision {

enum class CardinalityEstimator { kZero, kSingleton, kCollision };

std::string toString(CardinalityEstimator kind);

struct CardinalityConfig {
  CardinalityEstimator estimator = CardinalityEstimator::kZero;
  std::size_t frameSize = 128;   ///< probe frame length
  std::size_t probeFrames = 16;  ///< number of probe frames to average
};

struct CardinalityEstimate {
  double estimate = 0.0;       ///< n̂
  double stddev = 0.0;         ///< spread of the per-frame estimates
  double airtimeMicros = 0.0;  ///< what the probing cost on air
  std::uint64_t probeSlots = 0;
};

/// Inverts the chosen census statistic of one probe frame into an estimate
/// of the contender count. Exposed for tests; returns a best-effort clamp
/// (e.g. an all-idle frame estimates 0, an all-collided frame estimates the
/// inversion ceiling).
double invertCensus(CardinalityEstimator kind, std::size_t frameSize,
                    std::uint64_t idle, std::uint64_t single,
                    std::uint64_t collided);

/// Runs `probeFrames` probe frames over the (unidentified) population and
/// averages the per-frame estimates. FrameBatcher draws every probe frame,
/// so a blocker tag answers every probe slot, as it answers every
/// inventory slot. Tags are not identified or silenced — estimation is
/// read-only. The returned airtime and slot count are what the probing
/// cost, so the comparison against full identification is direct.
CardinalityEstimate estimateCardinality(const core::DetectionScheme& scheme,
                                        phy::Channel& channel,
                                        std::span<tags::Tag> tags,
                                        const CardinalityConfig& config,
                                        common::Rng& rng);

}  // namespace rfid::anticollision
