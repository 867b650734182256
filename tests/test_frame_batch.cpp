// Differential tests for frame-batched FSA/DFSA: a protocol run with
// FrameMode::kBatched (whole frames rendered as CSR slot batches through
// SlotEngine::runSlotsBatch) must be bit-identical to the same run
// with FrameMode::kScalar (the per-slot runSlot reference loop) — same
// metrics (including the floating-point airtime clock), same tag state,
// same observer events, same RNG consumption, same return value — across
// estimators, blockers, capture/impaired-channel fallbacks, ackVerify,
// budget truncation, and SIMD dispatch modes. Running a drawn frame row by
// row (Q-adaptive's path) must match running it whole. The budget-
// consistent frame accounting (no frame recorded once the budget is spent,
// no tag contending past a truncation point) is pinned here too, as is a
// vogtContenderEstimate regression over a census read off batched verdicts.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "anticollision/dfsa.hpp"
#include "anticollision/estimators.hpp"
#include "anticollision/experiment.hpp"
#include "anticollision/fsa.hpp"
#include "anticollision/protocol.hpp"
#include "common/require.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "core/detection_scheme.hpp"
#include "phy/channel.hpp"
#include "phy/impairments/impaired_channel.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "sim/tag_soa.hpp"
#include "sim/trace.hpp"
#include "tags/population.hpp"

namespace {

using rfid::anticollision::DynamicFsa;
using rfid::anticollision::EstimatorKind;
using rfid::anticollision::FrameBatcher;
using rfid::anticollision::FrameCensus;
using rfid::anticollision::FramedSlottedAloha;
using rfid::anticollision::Protocol;
using rfid::common::PreconditionError;
using rfid::common::Rng;
using rfid::core::DetectionScheme;
using rfid::core::QcdScheme;
using rfid::phy::AirInterface;
using rfid::phy::CaptureChannel;
using rfid::phy::Channel;
using rfid::phy::ImpairedChannel;
using rfid::phy::ImpairmentConfig;
using rfid::phy::ImpairmentModel;
using rfid::phy::OrChannel;
using rfid::phy::SlotType;
using rfid::sim::Metrics;
using rfid::sim::RecordingObserver;
using rfid::sim::SlotEngine;
using rfid::sim::TagSoA;
using rfid::tags::Tag;

using SchemeFactory = std::function<std::unique_ptr<DetectionScheme>()>;
using ProtocolFactory = std::function<std::unique_ptr<Protocol>()>;

/// `channel` is what the engine drives; `inner` keeps a wrapped channel
/// (e.g. the OR inside an ImpairedChannel) alive.
struct ChannelPair {
  std::unique_ptr<Channel> inner;
  std::unique_ptr<Channel> channel;
};
using ChannelFactory = std::function<ChannelPair()>;

ChannelPair orChannel() { return {nullptr, std::make_unique<OrChannel>()}; }

SchemeFactory qcd(unsigned strength) {
  return [strength] {
    return std::make_unique<QcdScheme>(AirInterface{}, strength);
  };
}

struct Rig {
  Rig(const SchemeFactory& makeScheme, const ChannelFactory& makeChannel,
      std::size_t tagCount, std::uint64_t seed, std::size_t blockerCount,
      bool ackVerify)
      : rng(seed),
        scheme(makeScheme()),
        channels(makeChannel()),
        engine(*scheme, *channels.channel, metrics),
        tags(rfid::tags::makeUniformPopulation(tagCount, scheme->air().idBits,
                                               rng)) {
    for (std::size_t i = 0; i < blockerCount && i < tags.size(); ++i) {
      tags[i].blocker = true;
    }
    if (ackVerify) {
      engine.setRecoveryPolicy({/*ackVerify=*/true, /*verifyBits=*/16.0});
    }
  }

  Rng rng;
  std::unique_ptr<DetectionScheme> scheme;
  ChannelPair channels;
  Metrics metrics;
  SlotEngine engine;
  std::vector<Tag> tags;
};

// --- equality (exact, including doubles: the contract is bit-identity) -------

bool metricsEqual(const Metrics& a, const Metrics& b) {
  const auto censusEqual = [](const rfid::sim::SlotCensus& x,
                              const rfid::sim::SlotCensus& y) {
    return x.idle == y.idle && x.single == y.single &&
           x.collided == y.collided;
  };
  return censusEqual(a.trueCensus(), b.trueCensus()) &&
         censusEqual(a.detectedCensus(), b.detectedCensus()) &&
         a.confusion() == b.confusion() && a.frames() == b.frames() &&
         a.totalAirtimeMicros() == b.totalAirtimeMicros() &&
         a.nowMicros() == b.nowMicros() && a.identified() == b.identified() &&
         a.correctlyIdentified() == b.correctlyIdentified() &&
         a.phantoms() == b.phantoms() && a.lostTags() == b.lostTags() &&
         a.verifies() == b.verifies() &&
         a.verifyRejects() == b.verifyRejects() &&
         a.misreads() == b.misreads() &&
         a.delaysMicros() == b.delaysMicros();
}

bool tagsEqual(const std::vector<Tag>& a, const std::vector<Tag>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].believesIdentified != b[i].believesIdentified ||
        a[i].correctlyIdentified != b[i].correctlyIdentified ||
        a[i].identifiedAtMicros != b[i].identifiedAtMicros) {
      return false;
    }
  }
  return true;
}

bool eventsEqual(const RecordingObserver& a, const RecordingObserver& b) {
  if (a.events().size() != b.events().size()) return false;
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    const auto& x = a.events()[i];
    const auto& y = b.events()[i];
    if (x.index != y.index || x.trueType != y.trueType ||
        x.detectedType != y.detectedType || x.responders != y.responders ||
        x.startMicros != y.startMicros ||
        x.durationMicros != y.durationMicros ||
        x.identified != y.identified) {
      return false;
    }
  }
  return true;
}

// --- the differential harness ------------------------------------------------

struct DiffConfig {
  std::size_t tagCount = 40;
  std::size_t blockerCount = 0;
  bool ackVerify = false;
};

/// Runs the same protocol end to end under kScalar and kBatched and checks
/// every observable output matches, twice: with a RecordingObserver on both
/// engines (every slot event compared), and with none (the path every
/// census without a trace takes).
void expectModesMatch(const ProtocolFactory& makeProtocol,
                      const SchemeFactory& makeScheme,
                      const ChannelFactory& makeChannel, std::uint64_t seed,
                      const DiffConfig& cfg = {}) {
  for (const bool observe : {true, false}) {
    Rig scalar(makeScheme, makeChannel, cfg.tagCount, seed, cfg.blockerCount,
               cfg.ackVerify);
    Rig batch(makeScheme, makeChannel, cfg.tagCount, seed, cfg.blockerCount,
              cfg.ackVerify);
    RecordingObserver scalarObs;
    RecordingObserver batchObs;
    if (observe) {
      scalar.engine.setObserver(&scalarObs);
      batch.engine.setObserver(&batchObs);
    }

    auto scalarProtocol = makeProtocol();
    scalarProtocol->setFrameMode(Protocol::FrameMode::kScalar);
    const bool scalarDone =
        scalarProtocol->run(scalar.engine, scalar.tags, scalar.rng);

    auto batchProtocol = makeProtocol();
    batchProtocol->setFrameMode(Protocol::FrameMode::kBatched);
    const bool batchDone =
        batchProtocol->run(batch.engine, batch.tags, batch.rng);

    const char* mode = observe ? "observed" : "unobserved";
    EXPECT_EQ(scalarDone, batchDone) << "seed " << seed << ", " << mode;
    EXPECT_TRUE(metricsEqual(scalar.metrics, batch.metrics))
        << "seed " << seed << ", " << mode;
    EXPECT_TRUE(tagsEqual(scalar.tags, batch.tags))
        << "seed " << seed << ", " << mode;
    EXPECT_TRUE(eventsEqual(scalarObs, batchObs))
        << "seed " << seed << ", " << mode;
    // Identical next draw ⇒ both paths consumed the RNG identically.
    EXPECT_EQ(scalar.rng(), batch.rng()) << "seed " << seed << ", " << mode;
  }
}

ProtocolFactory fsa(std::size_t frameSize,
                    std::size_t maxSlots = Protocol::kDefaultMaxSlots) {
  return [frameSize, maxSlots] {
    return std::make_unique<FramedSlottedAloha>(frameSize, maxSlots);
  };
}

ProtocolFactory dfsa(EstimatorKind estimator, std::size_t initialFrame,
                     std::size_t maxSlots = Protocol::kDefaultMaxSlots) {
  return [estimator, initialFrame, maxSlots] {
    return std::make_unique<DynamicFsa>(estimator, initialFrame, 4,
                                        std::size_t{1} << 16, maxSlots);
  };
}

// --- packed fast path --------------------------------------------------------

TEST(FrameBatch, FsaMatchesScalarAcrossSeeds) {
  for (const std::uint64_t seed : {1ull, 7ull, 42ull, 2026ull}) {
    expectModesMatch(fsa(32), qcd(8), orChannel, seed);
  }
}

TEST(FrameBatch, FsaWithBlockersMatchesScalar) {
  // Blocker runs never terminate on their own; a tight budget that lands
  // exactly on a frame boundary exercises the truncation-free abort.
  expectModesMatch(fsa(16, /*maxSlots=*/16 * 6), qcd(8), orChannel, 9,
                   {.blockerCount = 3});
}

TEST(FrameBatch, DfsaAllEstimatorsMatchScalar) {
  for (const EstimatorKind estimator :
       {EstimatorKind::kLowerBound, EstimatorKind::kSchoute,
        EstimatorKind::kVogt}) {
    for (const std::uint64_t seed : {3ull, 11ull, 29ull}) {
      expectModesMatch(dfsa(estimator, 16), qcd(8), orChannel, seed,
                       {.tagCount = 120});
    }
  }
}

TEST(FrameBatch, DfsaWithBlockersMatchesScalar) {
  expectModesMatch(dfsa(EstimatorKind::kSchoute, 16, /*maxSlots=*/400), qcd(8),
                   orChannel, 13, {.blockerCount = 2});
}

TEST(FrameBatch, AckVerifyMatchesScalar) {
  // l = 2 keeps misdetections frequent so the verify-reject branch fires.
  expectModesMatch(fsa(16), qcd(2), orChannel, 17, {.ackVerify = true});
  expectModesMatch(dfsa(EstimatorKind::kSchoute, 16), qcd(2), orChannel, 19,
                   {.ackVerify = true});
}

// --- fallback paths ----------------------------------------------------------

TEST(FrameBatch, CaptureChannelFallsBackBitIdentical) {
  // isPureOr() == false: the batch routes through slot-exact runSlot calls.
  const ChannelFactory capture = [] {
    return ChannelPair{nullptr, std::make_unique<CaptureChannel>(0.7)};
  };
  expectModesMatch(fsa(16), qcd(8), capture, 23);
  expectModesMatch(dfsa(EstimatorKind::kVogt, 16), qcd(8), capture, 27);
}

TEST(FrameBatch, ImpairedChannelFallsBackBitIdentical) {
  // The impairment decorator keys per-slot noise streams to beginSlot,
  // which the fallback preserves by driving runSlot itself.
  const ChannelFactory impaired = [] {
    ChannelPair pair;
    pair.inner = std::make_unique<OrChannel>();
    auto outer = std::make_unique<ImpairedChannel>(*pair.inner, 77);
    ImpairmentConfig config;
    config.model = ImpairmentModel::kBsc;
    config.tagToReaderBer = 0.02;
    config.detectionBer = 0.01;
    outer->addImpairment(config);
    pair.channel = std::move(outer);
    return pair;
  };
  expectModesMatch(fsa(16), qcd(8), impaired, 31);
  expectModesMatch(dfsa(EstimatorKind::kSchoute, 16), qcd(8), impaired, 37);
}

// --- budget truncation -------------------------------------------------------

TEST(FrameBatch, MaxSlotsTruncationMidFrameMatchesScalar) {
  // 40 tags, frame 32, budget 50: the second frame runs only 18 of its 32
  // slots and the run aborts — tag state and metrics must still agree.
  expectModesMatch(fsa(32, /*maxSlots=*/50), qcd(8), orChannel, 41);
  expectModesMatch(dfsa(EstimatorKind::kSchoute, 32, /*maxSlots=*/50), qcd(8),
                   orChannel, 43, {.tagCount = 120});
  expectModesMatch(fsa(32, /*maxSlots=*/50), qcd(8), orChannel, 47,
                   {.blockerCount = 2});
}

TEST(FrameBatch, TruncatedRunReportsFalseInBothModes) {
  for (const Protocol::FrameMode mode :
       {Protocol::FrameMode::kScalar, Protocol::FrameMode::kBatched}) {
    Rig rig(qcd(8), orChannel, 40, 53, 0, false);
    FramedSlottedAloha protocol(32, /*maxSlots=*/50);
    protocol.setFrameMode(mode);
    EXPECT_FALSE(protocol.run(rig.engine, rig.tags, rig.rng));
    EXPECT_EQ(rig.metrics.detectedCensus().total(), 50u);
  }
}

// --- budget-consistent frame accounting (the PR 7 bugfix, pinned) ------------

TEST(FrameBatch, NoFrameRecordedOnceBudgetIsSpent) {
  // A blocker jams every slot, so the run can only end on the budget. With
  // budget = 2 whole frames, exactly 2 frames must be recorded: the old
  // loop recorded a 3rd frame, then noticed the budget at its first slot.
  for (const Protocol::FrameMode mode :
       {Protocol::FrameMode::kScalar, Protocol::FrameMode::kBatched}) {
    Rig rig(qcd(8), orChannel, 8, 59, /*blockerCount=*/1, false);
    FramedSlottedAloha protocol(8, /*maxSlots=*/16);
    protocol.setFrameMode(mode);
    EXPECT_FALSE(protocol.run(rig.engine, rig.tags, rig.rng));
    EXPECT_EQ(rig.metrics.frames(), 2u);
    EXPECT_EQ(rig.metrics.detectedCensus().total(), 16u);
  }
}

TEST(FrameBatch, NoStaleSlotChoicePastTruncationPoint) {
  // Frame 16 truncated to a 3-slot budget: a tag whose draw lands past
  // slot 2 never contends. Replaying the frame's draws on a copy of the
  // RNG says how many tags respond in the 3 slots that run.
  for (const Protocol::FrameMode mode :
       {Protocol::FrameMode::kScalar, Protocol::FrameMode::kBatched}) {
    Rig rig(qcd(8), orChannel, 12, 61, 0, false);
    Rng replay = rig.rng;
    std::size_t inPrefix = 0;
    for (std::size_t k = 0; k < rig.tags.size(); ++k) {
      if (replay.below(16) < 3) {
        ++inPrefix;
      }
    }
    ASSERT_GT(inPrefix, 0u);
    ASSERT_LT(inPrefix, rig.tags.size());
    RecordingObserver observer;
    rig.engine.setObserver(&observer);
    FramedSlottedAloha protocol(16, /*maxSlots=*/3);
    protocol.setFrameMode(mode);
    EXPECT_FALSE(protocol.run(rig.engine, rig.tags, rig.rng));
    ASSERT_EQ(observer.events().size(), 3u);
    std::size_t responders = 0;
    for (const auto& event : observer.events()) {
      responders += event.responders;
    }
    EXPECT_EQ(responders, inPrefix);
    EXPECT_LE(rfid::tags::countBelievedIdentified(rig.tags), inPrefix);
  }
}

TEST(FrameBatch, RowByRowMatchesWholeFrame) {
  // Q-adaptive's path: one frame's draws run row by row through runRow
  // must match the same draws run as one batch through runFrame — on the
  // packed OR path and the capture fallback, per-slot and static schemes,
  // with and without a blocker in every row, and a budget-truncated
  // prefix (40 of 48 slots).
  const ChannelFactory capture = [] {
    return ChannelPair{nullptr, std::make_unique<CaptureChannel>(0.5)};
  };
  const SchemeFactory crcCd = [] {
    return std::make_unique<rfid::core::CrcCdScheme>(AirInterface{});
  };
  for (const ChannelFactory& channel : {ChannelFactory{orChannel}, capture}) {
    for (const SchemeFactory& scheme : {qcd(8), crcCd}) {
      for (const std::size_t blockers : {0u, 1u}) {
        Rig whole(scheme, channel, 60, 107, blockers, false);
        Rig rows(scheme, channel, 60, 107, blockers, false);
        RecordingObserver wholeObs;
        RecordingObserver rowsObs;
        whole.engine.setObserver(&wholeObs);
        rows.engine.setObserver(&rowsObs);

        FrameBatcher wholeBatcher;
        wholeBatcher.beginRound(whole.tags, whole.engine, nullptr);
        wholeBatcher.gatherActive(whole.tags);
        const auto verdicts =
            wholeBatcher.runFrame(whole.engine, whole.tags, 48, 40, whole.rng);

        FrameBatcher rowBatcher;
        rowBatcher.beginRound(rows.tags, rows.engine, nullptr);
        rowBatcher.gatherActive(rows.tags);
        ASSERT_EQ(rowBatcher.drawFrame(48, 40, rows.rng).slotCount(), 40u);
        for (std::size_t slot = 0; slot < 40; ++slot) {
          EXPECT_EQ(rowBatcher.runRow(rows.engine, rows.tags, slot, rows.rng),
                    verdicts[slot])
              << "slot " << slot;
        }
        EXPECT_THROW(rowBatcher.runRow(rows.engine, rows.tags, 40, rows.rng),
                     PreconditionError);

        EXPECT_TRUE(metricsEqual(whole.metrics, rows.metrics));
        EXPECT_TRUE(tagsEqual(whole.tags, rows.tags));
        EXPECT_TRUE(eventsEqual(wholeObs, rowsObs));
        EXPECT_EQ(whole.rng(), rows.rng());
        if (blockers == 0) {
          EXPECT_GT(whole.metrics.identified(), 0u);
        }
      }
    }
  }
}

// --- input checks ------------------------------------------------------------

TEST(FrameBatch, RunFrameRejectsBadCalls) {
  for (const Protocol::FrameMode mode :
       {Protocol::FrameMode::kScalar, Protocol::FrameMode::kBatched}) {
    Rig rig(qcd(8), orChannel, 12, 79, 0, false);
    FrameBatcher batcher;
    EXPECT_THROW(batcher.runFrame(rig.engine, rig.tags, 8, 8, rig.rng),
                 PreconditionError)
        << "runFrame before beginRound";
    batcher.beginRound(rig.tags, rig.engine, nullptr, mode);
    batcher.gatherActive(rig.tags);
    EXPECT_THROW(batcher.runFrame(rig.engine, rig.tags, 8, 0, rig.rng),
                 PreconditionError);
    EXPECT_THROW(batcher.runFrame(rig.engine, rig.tags, 8, 9, rig.rng),
                 PreconditionError);
    EXPECT_EQ(rig.metrics.trueCensus().total(), 0u);
  }
}

TEST(FrameBatch, BeginRoundRejectsMismatchedSnapshot) {
  Rig rig(qcd(8), orChannel, 12, 83, 0, false);
  TagSoA stale;  // gathered over a smaller population
  const std::vector<Tag> fewer(rig.tags.begin(), rig.tags.begin() + 5);
  stale.gather(fewer, *rig.scheme);
  FrameBatcher batcher;
  EXPECT_THROW(batcher.beginRound(rig.tags, rig.engine, &stale),
               PreconditionError);
}

TEST(FrameBatch, FrameRowsBeyond32BitCsrAreRejectedUpFront) {
  // 2^22 slots × 1025 blocker tails is 4 299 161 600 rows, past 2^32 − 1.
  // The bound is checked before the 100 honest tags draw their slots or
  // any scratch grows, so the RNG is untouched and no slot runs.
  for (const Protocol::FrameMode mode :
       {Protocol::FrameMode::kScalar, Protocol::FrameMode::kBatched}) {
    Rig rig(qcd(8), orChannel, 1125, 89, /*blockerCount=*/1025, false);
    FramedSlottedAloha protocol(std::size_t{1} << 22);
    protocol.setFrameMode(mode);
    Rng untouched = rig.rng;
    EXPECT_THROW((void)protocol.run(rig.engine, rig.tags, rig.rng),
                 PreconditionError);
    EXPECT_EQ(rig.rng(), untouched());
    EXPECT_EQ(rig.metrics.trueCensus().total(), 0u);
  }
}

// --- SIMD dispatch -----------------------------------------------------------

TEST(FrameBatch, PortableAndAvx2DispatchBitIdentical) {
  using rfid::common::simd::SimdMode;
  // Both modes diff against the same scalar oracle, so agreement with it
  // proves the two kernel families agree with each other.
  rfid::common::simd::setSimdMode(SimdMode::kForcePortable);
  expectModesMatch(dfsa(EstimatorKind::kSchoute, 64), qcd(8), orChannel, 67,
                   {.tagCount = 300});
  rfid::common::simd::setSimdMode(SimdMode::kAuto);
  expectModesMatch(dfsa(EstimatorKind::kSchoute, 64), qcd(8), orChannel, 67,
                   {.tagCount = 300});
}

// --- estimator regression over batched verdicts ------------------------------

TEST(FrameBatch, VogtEstimateFromBatchedCensusMatchesScalar) {
  // One frame, rendered both ways; the census read off the batch's verdict
  // span must equal the scalar per-slot census, and feed Vogt identically.
  constexpr std::size_t kFrame = 24;
  Rig scalar(qcd(8), orChannel, 60, 71, 0, false);
  Rig batch(qcd(8), orChannel, 60, 71, 0, false);

  FrameBatcher batcher;
  batcher.beginRound(batch.tags, batch.engine, nullptr);
  batcher.gatherActive(batch.tags);
  const FrameCensus batchCensus = rfid::anticollision::tallyFrame(
      batcher.runFrame(batch.engine, batch.tags, kFrame, kFrame, batch.rng));
  EXPECT_EQ(batchCensus.frameSize, kFrame);

  // Scalar reference: same draws, slot by slot.
  std::vector<std::vector<std::size_t>> buckets(kFrame);
  for (std::size_t i = 0; i < scalar.tags.size(); ++i) {
    buckets[scalar.rng.below(kFrame)].push_back(i);
  }
  FrameCensus scalarCensus;
  scalarCensus.frameSize = kFrame;
  for (std::size_t s = 0; s < kFrame; ++s) {
    switch (scalar.engine.runSlot(scalar.tags, buckets[s], scalar.rng)) {
      case SlotType::kIdle:
        ++scalarCensus.idle;
        break;
      case SlotType::kSingle:
        ++scalarCensus.single;
        break;
      case SlotType::kCollided:
        ++scalarCensus.collided;
        break;
    }
  }

  EXPECT_EQ(batchCensus.idle, scalarCensus.idle);
  EXPECT_EQ(batchCensus.single, scalarCensus.single);
  EXPECT_EQ(batchCensus.collided, scalarCensus.collided);
  EXPECT_GT(batchCensus.collided, 0u) << "test wants a collided census";
  EXPECT_EQ(
      rfid::anticollision::vogtContenderEstimate(batchCensus, 2 * kFrame),
      rfid::anticollision::vogtContenderEstimate(scalarCensus, 2 * kFrame));
}

// --- Monte-Carlo plumbing ----------------------------------------------------

void expectAggregatesEqual(const rfid::anticollision::AggregateResult& a,
                           const rfid::anticollision::AggregateResult& b) {
  EXPECT_EQ(a.totalSlots.samples(), b.totalSlots.samples());
  EXPECT_EQ(a.frames.samples(), b.frames.samples());
  EXPECT_EQ(a.airtimeMicros.samples(), b.airtimeMicros.samples());
  EXPECT_EQ(a.throughput.samples(), b.throughput.samples());
  EXPECT_EQ(a.correctTags.samples(), b.correctTags.samples());
  EXPECT_EQ(a.phantoms.samples(), b.phantoms.samples());
  EXPECT_EQ(a.meanDelayMicros.samples(), b.meanDelayMicros.samples());
  EXPECT_EQ(a.confusionTotal, b.confusionTotal);
  EXPECT_EQ(a.completedRounds, b.completedRounds);
}

TEST(FrameBatchMonteCarlo, ExperimentAggregatesMatchScalarMode) {
  for (const auto protocol :
       {rfid::anticollision::ProtocolKind::kFsa,
        rfid::anticollision::ProtocolKind::kDfsaSchoute}) {
    rfid::anticollision::ExperimentConfig config;
    config.protocol = protocol;
    config.tagCount = 60;
    config.frameSize = 32;
    config.rounds = 8;
    config.seed = 97;
    config.threads = 2;
    config.frameMode = Protocol::FrameMode::kBatched;
    const auto batched = rfid::anticollision::runExperiment(config);
    config.frameMode = Protocol::FrameMode::kScalar;
    const auto scalar = rfid::anticollision::runExperiment(config);
    expectAggregatesEqual(batched, scalar);
  }
}

TEST(FrameBatchMonteCarlo, RecoveryPassesShareTheSnapshot) {
  // Impaired channel + ackVerify + recovery passes: the shared SoA snapshot
  // must survive across the initial census and every retry.
  rfid::anticollision::ExperimentConfig config;
  config.protocol = rfid::anticollision::ProtocolKind::kDfsaSchoute;
  config.tagCount = 50;
  config.frameSize = 16;
  config.rounds = 6;
  config.seed = 101;
  config.threads = 2;
  config.impairment.model = ImpairmentModel::kBsc;
  config.impairment.tagToReaderBer = 0.01;
  config.recovery.ackVerify = true;
  config.recoveryMaxPasses = 3;
  config.frameMode = Protocol::FrameMode::kBatched;
  const auto batched = rfid::anticollision::runExperiment(config);
  config.frameMode = Protocol::FrameMode::kScalar;
  const auto scalar = rfid::anticollision::runExperiment(config);
  expectAggregatesEqual(batched, scalar);
  EXPECT_EQ(batched.recoveryPasses.samples(), scalar.recoveryPasses.samples());
}

TEST(FrameBatchMonteCarlo, ThreadCountIndependent) {
  rfid::anticollision::ExperimentConfig config;
  config.protocol = rfid::anticollision::ProtocolKind::kDfsaSchoute;
  config.tagCount = 40;
  config.frameSize = 16;
  config.rounds = 8;
  config.seed = 103;
  config.frameMode = Protocol::FrameMode::kBatched;
  config.threads = 1;
  const auto serial = rfid::anticollision::runExperiment(config);
  config.threads = 4;
  const auto parallel = rfid::anticollision::runExperiment(config);
  expectAggregatesEqual(serial, parallel);
}

}  // namespace
