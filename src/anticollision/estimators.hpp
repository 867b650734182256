// Tag-cardinality estimators for Dynamic FSA frame sizing.
//
// DFSA (Lee et al., §II) resizes each frame to the estimated number of
// still-unidentified tags, since Lemma 1 says throughput peaks at F = n.
// The reader only observes the (idle, single, collided) census of the
// previous frame, so it estimates:
//
//   * lower bound  — every collision hides ≥ 2 tags:       n̂ = 2·c
//   * Schoute      — expected collision multiplicity 2.39:  n̂ = 2.39·c
//   * Vogt         — χ² fit of the expected census over n
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "phy/timing.hpp"

namespace rfid::anticollision {

enum class EstimatorKind { kLowerBound, kSchoute, kVogt };

std::string toString(EstimatorKind kind);

/// Census of one completed frame.
struct FrameCensus {
  std::size_t frameSize = 0;
  std::uint64_t idle = 0;
  std::uint64_t single = 0;
  std::uint64_t collided = 0;
};

/// The census of a frame whose effective per-slot verdicts are `verdicts`
/// (one per slot, so its frame size is verdicts.size()).
FrameCensus tallyFrame(std::span<const phy::SlotType> verdicts);

/// Estimated number of tags that remain unidentified after the frame
/// (identified singles are already excluded).
std::size_t estimateBacklog(EstimatorKind kind, const FrameCensus& census);

/// Vogt's estimate of how many tags *contended* in the frame: the n
/// minimising the squared distance between the expected census
/// (F·e₀, F·e₁, F·e_c) and the observed one. The scan starts at the
/// deterministic floor single + 2·collided and runs to `searchCeiling`,
/// but does not silently stop there: when the minimum lands on the
/// boundary (the error surface is still descending, i.e. the true backlog
/// lies beyond the window) the window doubles and the scan continues,
/// until the minimum is interior, the fit stops improving measurably, or
/// the 2¹⁶ hard cap (DFSA's maximum frame) is reached. A fully collided
/// census is uninformative beyond saturation, so the improvement cutoff is
/// what keeps that case from running to the cap.
std::size_t vogtContenderEstimate(const FrameCensus& census,
                                  std::size_t searchCeiling);

}  // namespace rfid::anticollision
