#include "anticollision/estimators.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/require.hpp"

namespace rfid::anticollision {

std::string toString(EstimatorKind kind) {
  switch (kind) {
    case EstimatorKind::kLowerBound:
      return "lower-bound";
    case EstimatorKind::kSchoute:
      return "schoute";
    case EstimatorKind::kVogt:
      return "vogt";
  }
  return "?";
}

FrameCensus tallyFrame(std::span<const phy::SlotType> verdicts) {
  // Sums of comparisons, with no branch on the verdicts.
  FrameCensus census;
  census.frameSize = verdicts.size();
  for (const phy::SlotType verdict : verdicts) {
    census.idle +=
        static_cast<std::uint64_t>(verdict == phy::SlotType::kIdle);
    census.single +=
        static_cast<std::uint64_t>(verdict == phy::SlotType::kSingle);
    census.collided +=
        static_cast<std::uint64_t>(verdict == phy::SlotType::kCollided);
  }
  return census;
}

std::size_t estimateBacklog(EstimatorKind kind, const FrameCensus& census) {
  if (census.collided == 0) {
    // No collision slot means every contender was identified: the frame is
    // conclusive regardless of the estimator.
    return 0;
  }
  switch (kind) {
    case EstimatorKind::kLowerBound:
      return static_cast<std::size_t>(2 * census.collided);
    case EstimatorKind::kSchoute:
      return static_cast<std::size_t>(
          std::llround(2.39 * static_cast<double>(census.collided)));
    case EstimatorKind::kVogt: {
      // Vogt estimates the number of contenders; the backlog excludes the
      // tags that were identified in single slots.
      const std::size_t contenders = vogtContenderEstimate(
          census, /*searchCeiling=*/16 * census.frameSize + 16);
      const std::size_t singles = static_cast<std::size_t>(census.single);
      return contenders > singles ? contenders - singles : 0;
    }
  }
  return 0;
}

std::size_t vogtContenderEstimate(const FrameCensus& census,
                                  std::size_t searchCeiling) {
  RFID_REQUIRE(census.frameSize >= 1, "frame size must be positive");
  const double F = static_cast<double>(census.frameSize);
  const auto floorN =
      static_cast<std::size_t>(census.single + 2 * census.collided);
  std::size_t ceilN = searchCeiling > floorN ? searchCeiling : floorN;
  // A small frame facing a large population drives the χ² minimum past any
  // fixed ceiling; the window is extended (doubled) while the minimum sits
  // on the boundary, bounded by a hard cap. Two cutoffs stop the doubling:
  // a saturated all-collided census has no interior minimum — its error
  // only decays asymptotically towards zero — so once the fit error is
  // already negligible (kNegligibleErr, ~1e-3 slots per census component)
  // further doubling chases the asymptote without adding information and
  // the boundary value stands; the relative-improvement guard handles
  // errors that plateau at a nonzero level instead.
  const std::size_t hardCap = std::max<std::size_t>(ceilN, std::size_t{1} << 16);
  constexpr double kMinImprovement = 1e-12;
  constexpr double kNegligibleErr = 1e-6;

  double bestErr = std::numeric_limits<double>::infinity();
  std::size_t bestN = floorN;
  const double q = 1.0 - 1.0 / F;
  // (1 - 1/F)^(n-1), advanced incrementally so the scan is O(ceil - floor);
  // only consulted for n >= 1.
  double qPowNm1 = floorN <= 1 ? 1.0 : std::pow(q, static_cast<double>(floorN) - 1.0);
  std::size_t n = floorN;
  for (;;) {
    const double windowBestErr = bestErr;
    for (; n <= ceilN; ++n) {
      const double nd = static_cast<double>(n);
      const double pEmpty = n == 0 ? 1.0 : qPowNm1 * q;
      const double pSingle = n == 0 ? 0.0 : nd / F * qPowNm1;
      if (n >= 1) qPowNm1 *= q;
      const double e0 = F * pEmpty;
      const double e1 = F * pSingle;
      const double ec = F - e0 - e1;
      const double d0 = e0 - static_cast<double>(census.idle);
      const double d1 = e1 - static_cast<double>(census.single);
      const double dc = ec - static_cast<double>(census.collided);
      const double err = d0 * d0 + d1 * d1 + dc * dc;
      if (err < bestErr) {
        bestErr = err;
        bestN = n;
      }
    }
    const bool boundaryMin = bestN == ceilN;
    const bool improving = windowBestErr - bestErr >
                           kMinImprovement * (1.0 + bestErr);
    if (!boundaryMin || !improving || bestErr <= kNegligibleErr ||
        ceilN >= hardCap) {
      return bestN;
    }
    ceilN = ceilN <= hardCap / 2 ? ceilN * 2 : hardCap;
  }
}

}  // namespace rfid::anticollision
