#include "anticollision/cardinality.hpp"

#include <cmath>

#include "anticollision/estimators.hpp"
#include "anticollision/protocol.hpp"
#include "common/require.hpp"
#include "common/stats.hpp"
#include "sim/engine.hpp"

namespace rfid::anticollision {

std::string toString(CardinalityEstimator kind) {
  switch (kind) {
    case CardinalityEstimator::kZero:
      return "zero-estimator";
    case CardinalityEstimator::kSingleton:
      return "singleton-estimator";
    case CardinalityEstimator::kCollision:
      return "collision-estimator";
  }
  return "?";
}

namespace {

/// Solves statistic(rho) = target for rho = n/F by bisection over a
/// monotone statistic on [0, rhoMax].
template <typename Fn>
double bisectRho(Fn statistic, double target, double rhoMax, bool increasing) {
  double lo = 0.0;
  double hi = rhoMax;
  for (int iter = 0; iter < 80; ++iter) {
    const double mid = 0.5 * (lo + hi);
    const double value = statistic(mid);
    const bool goRight = increasing ? (value < target) : (value > target);
    if (goRight) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

}  // namespace

double invertCensus(CardinalityEstimator kind, std::size_t frameSize,
                    std::uint64_t idle, std::uint64_t single,
                    std::uint64_t collided) {
  RFID_REQUIRE(frameSize >= 1, "frame size must be positive");
  RFID_REQUIRE(idle + single + collided == frameSize,
               "census must cover the whole frame");
  const double F = static_cast<double>(frameSize);
  constexpr double kRhoMax = 64.0;  // inversion ceiling: n̂ <= 64·F

  switch (kind) {
    case CardinalityEstimator::kZero: {
      // E[N0]/F = e^-rho → rho = ln(F/N0).
      if (idle == 0) return kRhoMax * F;
      return std::log(F / static_cast<double>(idle)) * F;
    }
    case CardinalityEstimator::kSingleton: {
      // E[N1]/F = rho·e^-rho — unimodal with maximum 1/e at rho = 1; use
      // the ascending branch (rho <= 1), which matches probe frames sized
      // at or above the expected population.
      const double target =
          std::min(static_cast<double>(single) / F, 1.0 / std::exp(1.0));
      const double rho = bisectRho(
          [](double r) { return r * std::exp(-r); }, target, 1.0,
          /*increasing=*/true);
      return rho * F;
    }
    case CardinalityEstimator::kCollision: {
      // E[Nc]/F = 1 − e^-rho(1+rho), increasing in rho.
      const double target = static_cast<double>(collided) / F;
      const double rho = bisectRho(
          [](double r) { return 1.0 - std::exp(-r) * (1.0 + r); }, target,
          kRhoMax, /*increasing=*/true);
      return rho * F;
    }
  }
  return 0.0;
}

CardinalityEstimate estimateCardinality(const core::DetectionScheme& scheme,
                                        phy::Channel& channel,
                                        std::span<tags::Tag> tags,
                                        const CardinalityConfig& config,
                                        common::Rng& rng) {
  RFID_REQUIRE(config.frameSize >= 1, "probe frame needs at least one slot");
  RFID_REQUIRE(config.probeFrames >= 1, "need at least one probe frame");

  sim::Metrics metrics;
  sim::SlotEngine engine(scheme, channel, metrics);
  common::RunningStats perFrame;

  FrameBatcher batcher;
  batcher.beginRound(tags, engine, nullptr);
  const std::span<const std::size_t> contenders = batcher.gatherActive(tags);
  for (std::size_t f = 0; f < config.probeFrames; ++f) {
    const FrameCensus census = tallyFrame(batcher.runFrame(
        engine, tags, config.frameSize, config.frameSize, rng));
    // Undo any identification the engine applied — estimation is read-only
    // (the reader sends no ACK after a probe).
    for (const std::size_t idx : contenders) {
      tags[idx].believesIdentified = false;
      tags[idx].correctlyIdentified = false;
      tags[idx].identifiedAtMicros = 0.0;
    }
    perFrame.add(invertCensus(config.estimator, config.frameSize,
                              census.idle, census.single, census.collided));
  }

  CardinalityEstimate out;
  out.estimate = perFrame.mean();
  out.stddev = perFrame.stddev();
  out.airtimeMicros = metrics.totalAirtimeMicros();
  out.probeSlots = metrics.detectedCensus().total();
  return out;
}

}  // namespace rfid::anticollision
