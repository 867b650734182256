#include "bench_stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

namespace rfidbench {

double interpolatedPercentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return std::numeric_limits<double>::quiet_NaN();
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  // Equal neighbours short-circuit so two +inf samples do not give NaN.
  if (frac == 0.0 || sorted[lo] == sorted[hi]) return sorted[lo];
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

std::optional<double> reportablePercentile(std::vector<double> samples,
                                           double p) {
  const double beyond =
      std::floor(static_cast<double>(samples.size()) * (100.0 - p) / 100.0 +
                 1e-9);
  if (beyond < static_cast<double>(kMinTailSamples)) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  return interpolatedPercentile(samples, p);
}

namespace {

/// Calls f(begin, end) for each of `blocks` consecutive near-equal blocks
/// of [0, n); fewer blocks when n is smaller.
template <typename F>
void forEachBlock(std::size_t n, std::size_t blocks, F&& f) {
  blocks = std::max<std::size_t>(1, std::min(blocks, n));
  for (std::size_t b = 0; b < blocks; ++b) f(b * n / blocks, (b + 1) * n / blocks);
}

}  // namespace

double quietMedian(const std::vector<double>& values, std::size_t blocks) {
  double best = std::numeric_limits<double>::quiet_NaN();
  forEachBlock(values.size(), blocks, [&](std::size_t begin, std::size_t end) {
    std::vector<double> part(values.begin() + begin, values.begin() + end);
    std::sort(part.begin(), part.end());
    best = std::fmin(best, interpolatedPercentile(part, 50.0));
  });
  return best;
}

double quietRate(const std::vector<double>& work,
                 const std::vector<double>& seconds, std::size_t blocks) {
  double best = std::numeric_limits<double>::quiet_NaN();
  forEachBlock(work.size(), blocks, [&](std::size_t begin, std::size_t end) {
    double w = 0.0, s = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      w += work[i];
      s += seconds[i];
    }
    best = std::fmax(best, w / s);
  });
  return best;
}

bool meetsSlo(const LoadPoint& point, double sloMs) {
  if (point.rejected > 0 || point.sojournMs.empty()) return false;
  std::vector<double> sorted = point.sojournMs;
  std::sort(sorted.begin(), sorted.end());
  return interpolatedPercentile(sorted, 99.0) <= sloMs &&
         point.completedPerSec >= 0.98 * point.offeredPerSec;
}

double maxRateUnderSlo(double lo, double hi, double resolution,
                       const std::function<bool(double)>& meets,
                       std::optional<bool> loMeets) {
  bool ok = loMeets.has_value() ? *loMeets : meets(lo);
  bool hiFails = false;
  for (int i = 0; !ok && i < 4; ++i) {
    hi = lo;
    hiFails = true;
    lo /= 2.0;
    ok = meets(lo);
  }
  if (!ok) return lo;
  if (!hiFails && meets(hi)) return hi;
  while (hi / lo > 1.0 + resolution) {
    const double mid = std::sqrt(lo * hi);
    if (meets(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

namespace {

void fnvMix(std::uint64_t& h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xffu;
    h *= 0x100000001b3ull;
  }
}

std::uint64_t only(const rfid::common::SampleSet& s) {
  return static_cast<std::uint64_t>(s.samples().at(0));
}

}  // namespace

std::string CensusSummary::digest() const {
  std::uint64_t airtimeBits = 0;
  std::memcpy(&airtimeBits, &airtimeMicros, sizeof airtimeBits);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint64_t v :
       {idle, single, collided, frames, airtimeBits,
        std::uint64_t{complete}, correct, phantoms, lost, misreads,
        verifyRejects, recoveryPasses}) {
    fnvMix(h, v);
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

CensusSummary CensusSummary::of(
    const rfid::anticollision::AggregateResult& r) {
  CensusSummary s;
  s.idle = only(r.idleSlots);
  s.single = only(r.singleSlots);
  s.collided = only(r.collidedSlots);
  s.frames = only(r.frames);
  s.airtimeMicros = r.airtimeMicros.samples().at(0);
  s.complete = r.completedRounds == 1;
  s.correct = only(r.correctTags);
  s.phantoms = only(r.phantoms);
  s.lost = only(r.lostTags);
  s.misreads = only(r.misreads);
  s.verifyRejects = only(r.verifyRejects);
  s.recoveryPasses = only(r.recoveryPasses);
  s.throughput = r.throughput.samples().at(0);
  return s;
}

CensusSummary CensusSummary::of(const rfid::sim::Metrics& m,
                                std::size_t tagCount,
                                unsigned recoveryPasses) {
  CensusSummary s;
  s.idle = m.detectedCensus().idle;
  s.single = m.detectedCensus().single;
  s.collided = m.detectedCensus().collided;
  s.frames = m.frames();
  s.airtimeMicros = m.totalAirtimeMicros();
  s.complete = m.identified() >= tagCount;
  s.correct = m.correctlyIdentified();
  s.phantoms = m.phantoms();
  s.lost = m.lostTags();
  s.misreads = m.misreads();
  s.verifyRejects = m.verifyRejects();
  s.recoveryPasses = recoveryPasses;
  s.throughput = m.throughput();
  return s;
}

}  // namespace rfidbench
