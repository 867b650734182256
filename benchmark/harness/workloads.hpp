// The benchmark's five workloads and what one run of each measures.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "anticollision/experiment.hpp"

namespace rfidbench {

inline constexpr std::uint64_t kDefaultSeed = 20100913;
/// Digests of this many leading timed censuses (or requests) are returned
/// for the golden-file comparison.
inline constexpr std::size_t kGoldenDigests = 10;

struct Metric {
  std::string name;
  std::optional<double> value;  ///< nullopt: too few samples to report
  std::string unit;
  std::size_t samples = 0;  ///< samples behind a percentile, else 0
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

struct RunOptions {
  std::uint64_t seed = kDefaultSeed;
  /// About 2% of every count, all checks still on.
  bool quick = false;
  /// Per-layer run: 1/10 of each count (at least 100), decorators on,
  /// trace written.
  bool trace = false;
  std::string traceOut = "trace.json";
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Check> checks;
  std::vector<Metric> metrics;
  std::vector<std::string> digests;
};

/// Every census configuration the workloads run, labelled (service_mix
/// contributes its two request kinds), for the self-tests.
std::vector<std::pair<std::string, rfid::anticollision::ExperimentConfig>>
censusConfigs();

/// Runs one workload in this process. Throws std::invalid_argument for an
/// unknown name.
RunResult runWorkload(const std::string& name, const RunOptions& options);

}  // namespace rfidbench
