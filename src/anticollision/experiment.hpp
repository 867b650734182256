// High-level experiment runner: protocol × detection scheme × population,
// repeated over Monte-Carlo rounds with aggregation. This is the API the
// bench binaries and examples drive; everything in the paper's evaluation
// section is a configuration of runExperiment().
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "anticollision/protocol.hpp"
#include "common/stats.hpp"
#include "core/detection_scheme.hpp"
#include "phy/air_interface.hpp"
#include "phy/impairments/impairment.hpp"
#include "sim/montecarlo.hpp"
#include "sim/trace.hpp"

namespace rfid::anticollision {

enum class SchemeKind { kCrcCd, kQcd, kIdeal };
enum class ProtocolKind {
  kFsa,
  kDfsaLowerBound,
  kDfsaSchoute,
  kDfsaVogt,
  kQAdaptive,
  kBt,
  kAbs,
  kQt,
  kAqs,
};

std::string toString(SchemeKind kind);
std::string toString(ProtocolKind kind);

struct ExperimentConfig {
  ProtocolKind protocol = ProtocolKind::kFsa;
  SchemeKind scheme = SchemeKind::kQcd;
  /// QCD strength l (preamble is 2·l bits); ignored by other schemes.
  unsigned qcdStrength = 8;
  /// Charge the l_id-bit ID phase of a QCD single slot to the timeline
  /// (physically complete accounting). See QcdScheme.
  bool qcdChargeIdPhase = true;
  std::size_t tagCount = 50;
  /// FSA frame size / DFSA initial frame. Q-adaptive ignores it:
  /// makeProtocol always opens a Q-adaptive round at Q = 4 (16 slots).
  std::size_t frameSize = 30;
  phy::AirInterface air{};
  /// 0 = the paper's pure OR channel; > 0 enables the capture extension.
  double captureProbability = 0.0;
  /// Channel impairments (phy/impairments/): kNone leaves the channel
  /// untouched and the round bit-identical to pre-impairment builds. Round
  /// k's impairment stream is impairmentStreamSeed(seed, k) — disjoint from
  /// the round stream, so a BER-0 model also reproduces the noiseless run
  /// exactly.
  phy::ImpairmentConfig impairment{};
  /// Reader-side noise defense (see sim::RecoveryPolicy).
  sim::RecoveryPolicy recovery{};
  /// After the protocol's own run, up to this many extra census passes over
  /// the tags still contending (fresh protocol instance each; stops early
  /// when a pass silences nobody). A safety net for protocols whose
  /// termination can strand tags under erasures; 0 = off (the default, and
  /// the pre-impairment behavior).
  unsigned recoveryMaxPasses = 0;
  /// Frame emission mode for the framed-ALOHA protocols (FSA/DFSA):
  /// kBatched (the default) renders whole frames as CSR slot batches on the
  /// SIMD kernel; kScalar pins the per-slot reference loop. Bit-identical by
  /// contract (tests/test_frame_batch.cpp); tree protocols and Q-adaptive
  /// ignore the mode.
  Protocol::FrameMode frameMode = Protocol::FrameMode::kBatched;
  std::size_t rounds = 100;
  std::uint64_t seed = 42;
  unsigned threads = 0;
  std::size_t maxSlots = Protocol::kDefaultMaxSlots;
  /// Attached to every round's slot engine when non-null (not owned). Slot
  /// observers are single-threaded sinks, so a set observer forces the
  /// rounds to run serially; results stay bit-identical either way.
  sim::SlotObserver* observer = nullptr;
  /// Wall-clock instrumentation accumulated across runExperiment calls
  /// (not owned; see sim::MonteCarloStats).
  sim::MonteCarloStats* stats = nullptr;
};

/// Per-round samples of every paper metric, aggregated over the rounds of
/// one configuration.
struct AggregateResult {
  common::SampleSet idleSlots;
  common::SampleSet singleSlots;
  common::SampleSet collidedSlots;
  common::SampleSet totalSlots;
  common::SampleSet frames;
  common::SampleSet throughput;          ///< λ (§III)
  common::SampleSet airtimeMicros;       ///< total identification time
  common::SampleSet meanDelayMicros;     ///< D_avg (§VI-D)
  common::SampleSet delayStddevMicros;   ///< spread of per-tag delays
  common::SampleSet detectionAccuracy;   ///< Fig. 5 metric
  common::SampleSet utilizationRate;     ///< UR (§VI-C)
  common::SampleSet phantoms;
  common::SampleSet lostTags;
  common::SampleSet correctTags;     ///< per-round correctly identified tags
  common::SampleSet misreads;        ///< corrupted singles accepted unverified
  common::SampleSet verifyRejects;   ///< ACK-verify exchanges that failed
  common::SampleSet recoveryPasses;  ///< extra census passes actually run
  std::size_t completedRounds = 0;  ///< rounds that finished within maxSlots
  /// Detection confusion matrix [true][detected] summed over all rounds.
  std::array<std::array<std::uint64_t, 3>, 3> confusionTotal{};
  /// Channel impairment counters summed over all rounds.
  phy::ImpairmentStats channelTotals;
};

/// Builds a detection scheme.
std::unique_ptr<core::DetectionScheme> makeScheme(
    SchemeKind kind, unsigned qcdStrength, const phy::AirInterface& air,
    bool qcdChargeIdPhase = true);

/// Builds a protocol instance.
std::unique_ptr<Protocol> makeProtocol(ProtocolKind kind,
                                       std::size_t frameSize,
                                       std::size_t maxSlots);

/// Runs `config.rounds` independent identification procedures and aggregates
/// the per-round metrics. Deterministic in (config.seed); thread-count
/// independent.
AggregateResult runExperiment(const ExperimentConfig& config);

}  // namespace rfid::anticollision
