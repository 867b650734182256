// Recovery policy: the ACK-verify exchange accepts clean singles, rejects
// corrupted ones (returning the slot as collided so the protocol re-queues),
// and bounded re-census passes complete the census under noise. Plus the
// cross-topology determinism acceptance checks: a noisy experiment is
// bit-identical at any thread count, and a noisy census through the
// inventory service is bit-identical at any shard/worker topology.
#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <vector>

#include "anticollision/experiment.hpp"
#include "common/rng.hpp"
#include "core/detection_scheme.hpp"
#include "phy/channel.hpp"
#include "phy/impairments/fault_injector.hpp"
#include "phy/impairments/impaired_channel.hpp"
#include "service/census.hpp"
#include "service/inventory_service.hpp"
#include "sim/metrics.hpp"
#include "sim/tag_soa.hpp"
#include "tags/population.hpp"

namespace {

using rfid::anticollision::AggregateResult;
using rfid::anticollision::ExperimentConfig;
using rfid::anticollision::ProtocolKind;
using rfid::anticollision::runExperiment;
using rfid::anticollision::SchemeKind;
using rfid::common::Rng;
using rfid::core::QcdScheme;
using rfid::phy::Fault;
using rfid::phy::FaultInjector;
using rfid::phy::ImpairedChannel;
using rfid::phy::ImpairmentModel;
using rfid::phy::OrChannel;
using rfid::phy::SlotType;
using rfid::sim::Metrics;
using rfid::sim::RecoveryPolicy;
using rfid::sim::SlotEngine;
using rfid::tags::Tag;

constexpr unsigned kStrength = 8;

/// Faults that flip a full complementary pair of the QCD preamble: the
/// c == ~r check still passes (both halves moved together), so the reader
/// reads a *corrupted* single — exactly the read ACK-verify must catch.
std::vector<Fault> pairFlip(std::uint64_t slot) {
  return {Fault::flipTransmissionBit(slot, 0, 3),
          Fault::flipTransmissionBit(slot, 0, 3 + kStrength)};
}

TEST(RecoveryPolicy, VerifyAcceptsCleanSingle) {
  const rfid::phy::AirInterface air{};
  const QcdScheme scheme(air, kStrength);
  OrChannel channel;
  Metrics metrics;
  SlotEngine engine(scheme, channel, metrics);
  engine.setRecoveryPolicy({.ackVerify = true, .verifyBits = 16.0});

  Rng popRng(1);
  std::vector<Tag> tags =
      rfid::tags::makeUniformPopulation(1, air.idBits, popRng);
  Rng rng(2);
  const std::vector<std::size_t> responders = {0};
  EXPECT_EQ(engine.runSlot(tags, responders, rng), SlotType::kSingle);
  EXPECT_TRUE(tags[0].believesIdentified);
  EXPECT_TRUE(tags[0].correctlyIdentified);
  EXPECT_EQ(metrics.verifies(), 1u);
  EXPECT_EQ(metrics.verifyRejects(), 0u);
  EXPECT_EQ(metrics.misreads(), 0u);
}

TEST(RecoveryPolicy, VerifyChargesAirtime) {
  const rfid::phy::AirInterface air{};
  const QcdScheme scheme(air, kStrength);
  OrChannel channel;
  Metrics plain, verified;
  SlotEngine engineA(scheme, channel, plain);
  SlotEngine engineB(scheme, channel, verified);
  engineB.setRecoveryPolicy({.ackVerify = true, .verifyBits = 16.0});

  Rng popRng(3);
  std::vector<Tag> tagsA =
      rfid::tags::makeUniformPopulation(2, air.idBits, popRng);
  std::vector<Tag> tagsB = tagsA;
  Rng rngA(4), rngB(4);
  const std::vector<std::size_t> responders = {0};
  engineA.runSlot(tagsA, responders, rngA);
  engineB.runSlot(tagsB, responders, rngB);
  EXPECT_DOUBLE_EQ(verified.nowMicros(),
                   plain.nowMicros() + air.bitsToMicros(16.0));

  // A policy changed mid-run charges its new verify cost from the next
  // slot on, here on the packed batch path.
  engineB.setRecoveryPolicy({.ackVerify = true, .verifyBits = 40.0});
  rfid::sim::TagSoA soaA, soaB;
  soaA.gather(tagsA, scheme);
  soaB.gather(tagsB, scheme);
  const std::vector<std::uint32_t> lone = {1};
  const std::vector<std::uint32_t> offsets = {0, 1};
  engineA.runSlotsBatch(tagsA, soaA, {lone, offsets}, rngA);
  engineB.runSlotsBatch(tagsB, soaB, {lone, offsets}, rngB);
  EXPECT_TRUE(tagsB[1].correctlyIdentified);
  EXPECT_EQ(verified.verifies(), 2u);
  EXPECT_DOUBLE_EQ(verified.nowMicros(), plain.nowMicros() +
                                             air.bitsToMicros(16.0) +
                                             air.bitsToMicros(40.0));
}

TEST(RecoveryPolicy, VerifyRejectsCorruptedSingleAndKeepsTagActive) {
  const rfid::phy::AirInterface air{};
  const QcdScheme scheme(air, kStrength);
  OrChannel inner;
  ImpairedChannel channel(inner, 1);
  channel.addImpairment(std::make_unique<FaultInjector>(pairFlip(0)));
  Metrics metrics;
  SlotEngine engine(scheme, channel, metrics);
  engine.setRecoveryPolicy({.ackVerify = true, .verifyBits = 16.0});

  Rng popRng(5);
  std::vector<Tag> tags =
      rfid::tags::makeUniformPopulation(1, air.idBits, popRng);
  Rng rng(6);
  const std::vector<std::size_t> responders = {0};
  // The slot *reads* single (the pair flip preserves complementarity) but
  // the verify fails on the corruption: effective type collided, nobody
  // silenced, ready for re-query.
  EXPECT_EQ(engine.runSlot(tags, responders, rng), SlotType::kCollided);
  EXPECT_FALSE(tags[0].believesIdentified);
  EXPECT_EQ(metrics.verifies(), 1u);
  EXPECT_EQ(metrics.verifyRejects(), 1u);
  EXPECT_EQ(metrics.misreads(), 0u);
  // The raw detection, not the effective type, lands in the confusion
  // matrix: a true single read as single.
  EXPECT_EQ(metrics.confusion()[1][1], 1u);

  // Re-query the same tag on the now-clean channel (the fault script only
  // covered slot 0): the verify passes and the census completes.
  EXPECT_EQ(engine.runSlot(tags, responders, rng), SlotType::kSingle);
  EXPECT_TRUE(tags[0].correctlyIdentified);
  EXPECT_EQ(metrics.verifyRejects(), 1u);
}

TEST(RecoveryPolicy, WithoutVerifyCorruptedSingleIsMisread) {
  const rfid::phy::AirInterface air{};
  const QcdScheme scheme(air, kStrength);
  OrChannel inner;
  ImpairedChannel channel(inner, 1);
  channel.addImpairment(std::make_unique<FaultInjector>(pairFlip(0)));
  Metrics metrics;
  SlotEngine engine(scheme, channel, metrics);

  Rng popRng(7);
  std::vector<Tag> tags =
      rfid::tags::makeUniformPopulation(1, air.idBits, popRng);
  Rng rng(8);
  const std::vector<std::size_t> responders = {0};
  // No verify: the ACK silences the tag but the reader logged a wrong ID.
  EXPECT_EQ(engine.runSlot(tags, responders, rng), SlotType::kSingle);
  EXPECT_TRUE(tags[0].believesIdentified);
  EXPECT_FALSE(tags[0].correctlyIdentified);
  EXPECT_EQ(metrics.misreads(), 1u);
  EXPECT_EQ(metrics.verifies(), 0u);
}

// --- experiment-level recovery ---------------------------------------------

ExperimentConfig noisyConfig(unsigned threads, double ber = 5e-3) {
  ExperimentConfig cfg;
  cfg.protocol = ProtocolKind::kFsa;
  cfg.scheme = SchemeKind::kQcd;
  cfg.qcdStrength = kStrength;
  cfg.tagCount = 30;
  cfg.frameSize = 32;
  cfg.rounds = 6;
  cfg.seed = 20100913;
  cfg.threads = threads;
  cfg.impairment.model = ImpairmentModel::kBsc;
  cfg.impairment.tagToReaderBer = ber;
  cfg.impairment.detectionBer = ber;
  cfg.recovery.ackVerify = true;
  cfg.recoveryMaxPasses = 3;
  return cfg;
}

void expectIdentical(const AggregateResult& a, const AggregateResult& b) {
  EXPECT_EQ(a.totalSlots.samples(), b.totalSlots.samples());
  EXPECT_EQ(a.airtimeMicros.samples(), b.airtimeMicros.samples());
  EXPECT_EQ(a.correctTags.samples(), b.correctTags.samples());
  EXPECT_EQ(a.verifyRejects.samples(), b.verifyRejects.samples());
  EXPECT_EQ(a.recoveryPasses.samples(), b.recoveryPasses.samples());
  EXPECT_EQ(a.confusionTotal, b.confusionTotal);
  EXPECT_EQ(a.channelTotals.slots, b.channelTotals.slots);
  EXPECT_EQ(a.channelTotals.bitsFlippedTagToReader,
            b.channelTotals.bitsFlippedTagToReader);
  EXPECT_EQ(a.channelTotals.bitsFlippedDetection,
            b.channelTotals.bitsFlippedDetection);
  EXPECT_EQ(a.channelTotals.transmissionsDropped,
            b.channelTotals.transmissionsDropped);
}

TEST(Recovery, CensusCompletesCorrectlyUnderNoise) {
  // BER 2e-2 is high enough that some corrupted reads survive QCD's
  // preamble check (a full complementary pair flips) and only the verify
  // exchange catches them.
  ExperimentConfig cfg = noisyConfig(/*threads=*/1, /*ber=*/2e-2);
  cfg.rounds = 12;
  const AggregateResult res = runExperiment(cfg);
  ASSERT_EQ(res.completedRounds, 12u);
  // Every round identifies every tag correctly: the verify layer filters
  // corrupted reads and the re-queried tags eventually get clean slots.
  EXPECT_DOUBLE_EQ(res.correctTags.mean(), 30.0);
  EXPECT_DOUBLE_EQ(res.misreads.mean(), 0.0);
  // At this BER the noise actually bit: some verifies failed.
  EXPECT_GT(res.verifyRejects.mean(), 0.0);
  EXPECT_GT(res.channelTotals.bitsFlipped(), 0u);
}

TEST(Recovery, NoisyExperimentIsThreadCountInvariant) {
  const AggregateResult serial = runExperiment(noisyConfig(/*threads=*/1));
  const AggregateResult parallel = runExperiment(noisyConfig(/*threads=*/4));
  expectIdentical(serial, parallel);
}

// --- service-level determinism under noise ---------------------------------

TEST(Recovery, NoisyCensusIsServiceTopologyInvariant) {
  rfid::service::CensusRequest req;
  req.protocol = ProtocolKind::kFsa;
  req.scheme = SchemeKind::kQcd;
  req.tagCount = 25;
  req.frameSize = 32;
  req.rounds = 2;
  req.seed = 99;
  req.impairment.model = ImpairmentModel::kBsc;
  req.impairment.tagToReaderBer = 5e-3;
  req.impairment.detectionBer = 5e-3;
  req.recovery.ackVerify = true;
  req.recoveryMaxPasses = 2;

  constexpr std::size_t kRequests = 4;
  std::vector<rfid::service::CensusResponse> small, large;
  {
    rfid::service::InventoryService service(
        rfid::service::ServiceConfig{.shards = 1, .workersPerShard = 1,
                                     .seed = 7});
    std::vector<std::future<rfid::service::CensusResponse>> futures;
    for (std::size_t i = 0; i < kRequests; ++i) {
      futures.push_back(service.submit(req));
    }
    for (auto& f : futures) small.push_back(f.get());
  }
  {
    rfid::service::InventoryService service(
        rfid::service::ServiceConfig{.shards = 2, .workersPerShard = 2,
                                     .seed = 7});
    std::vector<std::future<rfid::service::CensusResponse>> futures;
    for (std::size_t i = 0; i < kRequests; ++i) {
      futures.push_back(service.submit(req));
    }
    for (auto& f : futures) large.push_back(f.get());
  }
  for (std::size_t i = 0; i < kRequests; ++i) {
    ASSERT_EQ(small[i].outcome, rfid::service::CensusOutcome::kCompleted);
    ASSERT_EQ(large[i].outcome, rfid::service::CensusOutcome::kCompleted);
    ASSERT_EQ(small[i].streamSeed, large[i].streamSeed) << "request " << i;
    expectIdentical(small[i].result, large[i].result);
    // And standalone replay reproduces the same noisy census bit-for-bit.
    const auto replay = rfid::service::runStandalone(
        req, /*serviceSeed=*/7, small[i].requestId);
    expectIdentical(small[i].result, replay.result);
  }
}

}  // namespace
