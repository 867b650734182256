// Pure helpers of the benchmark harness: tail percentiles, the quiet-block
// estimators, the SLO rate search, and census digests. Nothing here reads a
// clock, so the self-tests drive every function with synthetic inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "anticollision/experiment.hpp"
#include "sim/metrics.hpp"

namespace rfidbench {

/// Fewest samples that must lie beyond a reported percentile.
inline constexpr std::size_t kMinTailSamples = 10;

/// Linear-interpolation percentile (p in [0, 100]) of ascending `sorted`.
double interpolatedPercentile(const std::vector<double>& sorted, double p);

/// The p-th percentile of `samples`, or nullopt when fewer than
/// kMinTailSamples samples lie beyond it: p99 needs 1000 samples, p50 20.
std::optional<double> reportablePercentile(std::vector<double> samples,
                                           double p);

/// Other tenants of a shared host only ever slow a run down, for stretches
/// of a fraction of a second to several seconds, and a census's own inputs
/// barely move its time. So the quiet-block estimators cut a run (in time
/// order) into `blocks` consecutive near-equal blocks and keep the least
/// disturbed one.
///
/// The lowest block median of `values`.
double quietMedian(const std::vector<double>& values, std::size_t blocks);
/// The highest block rate Σwork ÷ Σseconds, where work[i] was done in
/// seconds[i].
double quietRate(const std::vector<double>& work,
                 const std::vector<double>& seconds, std::size_t blocks);

/// One offered-load point measured on the service.
struct LoadPoint {
  /// Sojourn of every submitted request (ms); a rejected request is +inf.
  std::vector<double> sojournMs;
  std::size_t rejected = 0;
  /// Requests submitted ÷ time from the first to the last due arrival.
  double offeredPerSec = 0.0;
  /// Requests completed by the last due arrival ÷ the same time.
  double completedPerSec = 0.0;
};

/// The SLO every offered-load point is held to: no rejection, p99 sojourn
/// within `sloMs`, and completions keeping up with arrivals (at least 98%
/// of the offered rate, so at most 2% of the requests are still queued
/// when the last one arrives).
bool meetsSlo(const LoadPoint& point, double sloMs);

/// Highest rate in [lo, hi] at which `meets` holds, by geometric bisection
/// until hi/lo <= 1 + resolution. `meets` must be monotone: true up to a
/// threshold, false beyond it. `loMeets` is the caller's verdict at `lo`
/// when already measured. If `lo` fails, the bracket moves down by halves
/// (at most four times); when every probe fails, the lowest rate probed is
/// returned.
double maxRateUnderSlo(double lo, double hi, double resolution,
                       const std::function<bool(double)>& meets,
                       std::optional<bool> loMeets = std::nullopt);

/// The outcome fields of one census (one Monte-Carlo round) that the
/// correctness gate compares: slot census by detected type, frames,
/// airtime, completion, correct identifications, phantoms and lost tags,
/// plus the noise-defense counters.
struct CensusSummary {
  std::uint64_t idle = 0;
  std::uint64_t single = 0;
  std::uint64_t collided = 0;
  std::uint64_t frames = 0;
  double airtimeMicros = 0.0;
  bool complete = false;  ///< every tag fell silent within the slot budget
  std::uint64_t correct = 0;
  std::uint64_t phantoms = 0;
  std::uint64_t lost = 0;
  std::uint64_t misreads = 0;
  std::uint64_t verifyRejects = 0;
  std::uint64_t recoveryPasses = 0;
  double throughput = 0.0;  ///< λ, derived from the census (not digested)

  std::uint64_t slots() const noexcept { return idle + single + collided; }
  /// FNV-1a over every field but throughput, as 16 hex digits.
  std::string digest() const;

  /// From a one-round runExperiment result.
  static CensusSummary of(const rfid::anticollision::AggregateResult& result);
  /// From a round's own Metrics (the traced path).
  static CensusSummary of(const rfid::sim::Metrics& metrics,
                          std::size_t tagCount, unsigned recoveryPasses);
};

}  // namespace rfidbench
