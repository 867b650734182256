#include "anticollision/experiment.hpp"

#include "anticollision/abs.hpp"
#include "anticollision/aqs.hpp"
#include "anticollision/bt.hpp"
#include "anticollision/dfsa.hpp"
#include "anticollision/fsa.hpp"
#include "anticollision/qadaptive.hpp"
#include "anticollision/qt.hpp"
#include "common/require.hpp"
#include "common/stats.hpp"
#include "phy/channel.hpp"
#include "phy/impairments/impaired_channel.hpp"
#include "sim/montecarlo.hpp"
#include "sim/tag_soa.hpp"
#include "tags/population.hpp"

namespace rfid::anticollision {

std::string toString(SchemeKind kind) {
  switch (kind) {
    case SchemeKind::kCrcCd:
      return "CRC-CD";
    case SchemeKind::kQcd:
      return "QCD";
    case SchemeKind::kIdeal:
      return "Ideal";
  }
  return "?";
}

std::string toString(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kFsa:
      return "FSA";
    case ProtocolKind::kDfsaLowerBound:
      return "DFSA/lower-bound";
    case ProtocolKind::kDfsaSchoute:
      return "DFSA/Schoute";
    case ProtocolKind::kDfsaVogt:
      return "DFSA/Vogt";
    case ProtocolKind::kQAdaptive:
      return "Q-Adaptive";
    case ProtocolKind::kBt:
      return "BT";
    case ProtocolKind::kAbs:
      return "ABS";
    case ProtocolKind::kQt:
      return "QT";
    case ProtocolKind::kAqs:
      return "AQS";
  }
  return "?";
}

std::unique_ptr<core::DetectionScheme> makeScheme(
    SchemeKind kind, unsigned qcdStrength, const phy::AirInterface& air,
    bool qcdChargeIdPhase) {
  switch (kind) {
    case SchemeKind::kCrcCd:
      return std::make_unique<core::CrcCdScheme>(air);
    case SchemeKind::kQcd:
      return std::make_unique<core::QcdScheme>(air, qcdStrength,
                                               qcdChargeIdPhase);
    case SchemeKind::kIdeal:
      return std::make_unique<core::IdealScheme>(air);
  }
  RFID_REQUIRE(false, "unknown scheme kind");
  return nullptr;
}

std::unique_ptr<Protocol> makeProtocol(ProtocolKind kind,
                                       std::size_t frameSize,
                                       std::size_t maxSlots) {
  switch (kind) {
    case ProtocolKind::kFsa:
      return std::make_unique<FramedSlottedAloha>(frameSize, maxSlots);
    case ProtocolKind::kDfsaLowerBound:
      return std::make_unique<DynamicFsa>(EstimatorKind::kLowerBound,
                                          frameSize, 4, std::size_t{1} << 16,
                                          maxSlots);
    case ProtocolKind::kDfsaSchoute:
      return std::make_unique<DynamicFsa>(EstimatorKind::kSchoute, frameSize,
                                          4, std::size_t{1} << 16, maxSlots);
    case ProtocolKind::kDfsaVogt:
      return std::make_unique<DynamicFsa>(EstimatorKind::kVogt, frameSize, 4,
                                          std::size_t{1} << 16, maxSlots);
    case ProtocolKind::kQAdaptive:
      return std::make_unique<QAdaptive>(4.0, 0.3, 15.0, maxSlots);
    case ProtocolKind::kBt:
      return std::make_unique<BinaryTree>(maxSlots);
    case ProtocolKind::kAbs:
      return std::make_unique<AdaptiveBinarySplitting>(maxSlots);
    case ProtocolKind::kQt:
      return std::make_unique<QueryTree>(maxSlots);
    case ProtocolKind::kAqs:
      return std::make_unique<AdaptiveQuerySplitting>(maxSlots);
  }
  RFID_REQUIRE(false, "unknown protocol kind");
  return nullptr;
}

AggregateResult runExperiment(const ExperimentConfig& config) {
  RFID_REQUIRE(config.rounds >= 1, "need at least one round");

  // Extra-census-pass counts, indexed by round so parallel workers never
  // share an element.
  std::vector<unsigned> passesByRound(config.rounds, 0);

  std::vector<sim::Metrics> rounds = sim::runMonteCarloIndexed(
      config.rounds, config.seed,
      [&config, &passesByRound](std::size_t roundIndex, common::Rng& rng,
                                sim::Metrics& metrics) {
        // Per-round: fresh population, scheme, channel, protocol.
        auto scheme = makeScheme(config.scheme, config.qcdStrength,
                                 config.air, config.qcdChargeIdPhase);
        std::unique_ptr<phy::Channel> channel;
        if (config.captureProbability > 0.0) {
          channel =
              std::make_unique<phy::CaptureChannel>(config.captureProbability);
        } else {
          channel = std::make_unique<phy::OrChannel>();
        }
        // The impairment layer wraps the inner channel only when a model is
        // configured; its randomness is keyed outside the round stream so
        // this wrapping (or its absence) never shifts a tag decision.
        phy::ImpairedChannel impaired(
            *channel, phy::impairmentStreamSeed(config.seed, roundIndex));
        const bool impairmentsOn = impaired.addImpairment(config.impairment);
        phy::Channel& liveChannel =
            impairmentsOn ? static_cast<phy::Channel&>(impaired) : *channel;
        auto protocol =
            makeProtocol(config.protocol, config.frameSize, config.maxSlots);
        std::vector<tags::Tag> population = tags::makeUniformPopulation(
            config.tagCount, config.air.idBits, rng);

        metrics.reserveIdentifications(config.tagCount);
        sim::SlotEngine engine(*scheme, liveChannel, metrics);
        engine.setRecoveryPolicy(config.recovery);
        engine.setObserver(config.observer);
        // One SoA snapshot per round, shared by the initial census and
        // every recovery pass (it holds only blocker flags and ID-derived
        // signals, which are round-constant).
        sim::TagSoA soa;
        soa.gather(population, *scheme);
        protocol->setFrameMode(config.frameMode);
        // A round that hits the slot cap leaves tags unidentified; the
        // aggregation detects that via Metrics::identified().
        (void)protocol->runWithSnapshot(engine, population, rng, soa);

        // Recovery: noise (erasures, rejected verifies) can leave a
        // protocol's own termination condition satisfied while honest tags
        // still contend. Re-census the stragglers with fresh protocol
        // instances until everyone is silenced, nobody new is, or the pass
        // budget runs out.
        for (unsigned pass = 0; pass < config.recoveryMaxPasses; ++pass) {
          bool anyActive = false;
          for (const tags::Tag& tag : population) {
            if (!tag.blocker && !tag.believesIdentified) {
              anyActive = true;
              break;
            }
          }
          if (!anyActive) break;
          const std::uint64_t identifiedBefore = metrics.identified();
          auto retry = makeProtocol(config.protocol, config.frameSize,
                                    config.maxSlots);
          retry->setFrameMode(config.frameMode);
          ++passesByRound[roundIndex];
          (void)retry->runWithSnapshot(engine, population, rng, soa);
          if (metrics.identified() == identifiedBefore) break;
        }
        if (impairmentsOn) {
          metrics.setChannelStats(impaired.stats());
        }
      },
      // An observer is a single-threaded sink shared by every round, so its
      // presence forces serial execution (round results are thread-count
      // independent by construction).
      config.observer != nullptr ? 1u : config.threads, config.stats);

  AggregateResult agg;
  for (std::size_t k = 0; k < rounds.size(); ++k) {
    const sim::Metrics& m = rounds[k];
    agg.idleSlots.add(static_cast<double>(m.detectedCensus().idle));
    agg.singleSlots.add(static_cast<double>(m.detectedCensus().single));
    agg.collidedSlots.add(static_cast<double>(m.detectedCensus().collided));
    agg.totalSlots.add(static_cast<double>(m.detectedCensus().total()));
    agg.frames.add(static_cast<double>(m.frames()));
    agg.throughput.add(m.throughput());
    agg.airtimeMicros.add(m.totalAirtimeMicros());
    agg.detectionAccuracy.add(m.collisionDetectionAccuracy());
    agg.utilizationRate.add(m.utilizationRate(
        static_cast<double>(config.air.idBits), config.air.tauMicros));
    agg.phantoms.add(static_cast<double>(m.phantoms()));
    agg.lostTags.add(static_cast<double>(m.lostTags()));
    agg.correctTags.add(static_cast<double>(m.correctlyIdentified()));
    agg.misreads.add(static_cast<double>(m.misreads()));
    agg.verifyRejects.add(static_cast<double>(m.verifyRejects()));
    agg.recoveryPasses.add(static_cast<double>(passesByRound[k]));
    for (std::size_t t = 0; t < 3; ++t) {
      for (std::size_t d = 0; d < 3; ++d) {
        agg.confusionTotal[t][d] += m.confusion()[t][d];
      }
    }
    agg.channelTotals += m.channelStats();

    common::RunningStats delays;
    for (const double d : m.delaysMicros()) {
      delays.add(d);
    }
    agg.meanDelayMicros.add(delays.mean());
    agg.delayStddevMicros.add(delays.stddev());

    if (m.identified() >= config.tagCount) {
      ++agg.completedRounds;
    }
  }
  return agg;
}

}  // namespace rfid::anticollision
