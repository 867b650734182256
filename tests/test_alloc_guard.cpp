// common::AllocGuard — the runtime half of the zero-alloc hot-path
// contract (the static half is RFID-HOT-002 / RFID-EXC-008 in
// scripts/analyze, which read the same ALLOC_GUARD_HOT() macros).
//
// The unit tests pin the guard semantics: per-scope counting, nesting,
// the ALLOC_GUARD_ALLOW escape hatch, pushBackAmortized's
// capacity-exhausted sanction, and that a genuine violation is counted
// (then cleared with resetProcessViolationsForTest so the deliberate
// violation does not fail the binary's exit check).
//
// The integration tests then drive full DFSA censuses — QCD and CRC-CD,
// scalar and frame-batched, clean and impaired channels, on one thread
// and on four pool threads — and the tree family's split walks (BT, ABS,
// QT, AQS), and assert the process-wide violation count stays zero: every
// ALLOC_GUARD_HOT() region in the real slot path is allocation-free beyond
// its sanctioned high-water growth. One more counts every allocation of a
// whole runExperiment census, population build included, and asserts the
// count does not grow with the population.
//
// Everything is gated on AllocGuard::enforced(): in default builds the
// operator new/delete hooks are not linked and the counters never move,
// so the suite SKIPs instead of asserting on dead counters.
#include "common/alloc_guard.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "anticollision/abs.hpp"
#include "anticollision/aqs.hpp"
#include "anticollision/bt.hpp"
#include "anticollision/dfsa.hpp"
#include "anticollision/experiment.hpp"
#include "anticollision/protocol.hpp"
#include "anticollision/qadaptive.hpp"
#include "anticollision/qt.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/detection_scheme.hpp"
#include "phy/channel.hpp"
#include "phy/impairments/impaired_channel.hpp"
#include "phy/impairments/impairment.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "sim/tag_soa.hpp"
#include "tags/population.hpp"

namespace {

using rfid::anticollision::Protocol;
using rfid::common::AllocGuard;
using rfid::common::AllocGuardAllow;
using rfid::common::Rng;
using rfid::tags::Tag;

#define SKIP_UNLESS_ENFORCED()                                        \
  do {                                                                \
    if (!AllocGuard::enforced()) {                                    \
      GTEST_SKIP() << "RFID_ENFORCE_HOT off: allocator hooks not "    \
                      "linked, counters never move";                  \
    }                                                                 \
  } while (0)

// Defeats allocation elision (C++14 allows the compiler to drop paired
// new/delete even with a replaced operator new): the pointer is published
// through a volatile global, making the allocation observable.
int* volatile gHeapSink = nullptr;

void touchHeap() {
  gHeapSink = new int(42);
  delete gHeapSink;
}

TEST(AllocGuardUnit, CountsAllocationsInScope) {
  SKIP_UNLESS_ENFORCED();
  AllocGuard::resetProcessViolationsForTest();
  {
    const AllocGuard guard("CountsAllocationsInScope");
    EXPECT_EQ(guard.allocations(), 0u);
    {
      const AllocGuardAllow allow;
      touchHeap();
    }
    EXPECT_EQ(guard.allocations(), 1u);
    EXPECT_EQ(guard.violations(), 0u);
  }
  EXPECT_EQ(AllocGuard::processViolations(), 0u);
}

TEST(AllocGuardUnit, ViolationIsCountedAndClearable) {
  SKIP_UNLESS_ENFORCED();
  AllocGuard::resetProcessViolationsForTest();
  {
    const AllocGuard guard("ViolationIsCountedAndClearable");
    touchHeap();  // no allow scope: this is the violation under test
    EXPECT_EQ(guard.violations(), 1u);
  }
  EXPECT_EQ(AllocGuard::processViolations(), 1u);
  AllocGuard::resetProcessViolationsForTest();
  EXPECT_EQ(AllocGuard::processViolations(), 0u);
}

TEST(AllocGuardUnit, NestedGuardsCompose) {
  SKIP_UNLESS_ENFORCED();
  AllocGuard::resetProcessViolationsForTest();
  {
    const AllocGuard outer("outer");
    {
      const AllocGuard inner("inner");
      touchHeap();
      EXPECT_EQ(inner.violations(), 1u);
    }
    // Leaving the inner scope must not disarm the outer one.
    touchHeap();
    EXPECT_EQ(outer.violations(), 2u);
  }
  // And leaving all guards disarms enforcement entirely.
  touchHeap();
  EXPECT_EQ(AllocGuard::processViolations(), 2u);
  AllocGuard::resetProcessViolationsForTest();
}

TEST(AllocGuardUnit, AllowScopeNests) {
  SKIP_UNLESS_ENFORCED();
  AllocGuard::resetProcessViolationsForTest();
  {
    const AllocGuard guard("AllowScopeNests");
    const AllocGuardAllow outer;
    {
      const AllocGuardAllow inner;
      touchHeap();
    }
    touchHeap();  // outer allow still open
    EXPECT_EQ(guard.violations(), 0u);
    EXPECT_EQ(guard.allocations(), 2u);
  }
  EXPECT_EQ(AllocGuard::processViolations(), 0u);
}

TEST(AllocGuardUnit, PushBackAmortizedSanctionsGrowth) {
  SKIP_UNLESS_ENFORCED();
  AllocGuard::resetProcessViolationsForTest();
  std::vector<int> warm;
  warm.reserve(8);
  std::vector<int> cold;
  {
    const AllocGuard guard("PushBackAmortizedSanctionsGrowth");
    for (int i = 0; i < 8; ++i) {
      rfid::common::pushBackAmortized(warm, i);  // within capacity
    }
    for (int i = 0; i < 8; ++i) {
      rfid::common::pushBackAmortized(cold, i);  // grows, allow-scoped
    }
    EXPECT_EQ(guard.violations(), 0u);
  }
  EXPECT_EQ(warm.size(), 8u);
  EXPECT_EQ(cold.size(), 8u);
  EXPECT_EQ(AllocGuard::processViolations(), 0u);
}

TEST(AllocGuardUnit, GuardsAreThreadLocal) {
  SKIP_UNLESS_ENFORCED();
  AllocGuard::resetProcessViolationsForTest();
  // The thread (and its control block) is created before the guard opens;
  // it then allocates while this thread's guard is armed. A guard polices
  // only its own thread's heap, so no violation may be recorded.
  std::atomic<bool> go{false};
  std::thread other([&go] {
    while (!go.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    touchHeap();
  });
  {
    const AllocGuard guard("GuardsAreThreadLocal");
    go.store(true, std::memory_order_release);
    other.join();
    EXPECT_EQ(guard.violations(), 0u);
  }
  EXPECT_EQ(AllocGuard::processViolations(), 0u);
}

// --- integration: the real slot path is guard-clean ----------------------

enum class ChannelKind { kClean, kImpaired };

/// DFSA/Schoute, emitting its frames in `mode`.
std::unique_ptr<Protocol> dfsa(Protocol::FrameMode mode) {
  auto protocol = std::make_unique<rfid::anticollision::DynamicFsa>(
      rfid::anticollision::EstimatorKind::kSchoute, /*initialFrame=*/64);
  protocol->setFrameMode(mode);
  return protocol;
}

/// Three full censuses by one `protocol` instance over `tagCount` tags: the
/// first reaches the high-water marks, the others reuse them. The caller
/// asserts on the process violation count; this just runs.
void runCensus(Protocol& protocol, const rfid::core::DetectionScheme& scheme,
               ChannelKind channelKind, std::size_t tagCount,
               std::uint64_t seed) {
  Rng setupRng(seed);
  std::vector<Tag> tags = rfid::tags::makeUniformPopulation(
      tagCount, scheme.air().idBits, setupRng);
  rfid::phy::OrChannel inner;
  std::unique_ptr<rfid::phy::ImpairedChannel> impaired;
  rfid::phy::Channel* channel = &inner;
  if (channelKind == ChannelKind::kImpaired) {
    impaired = std::make_unique<rfid::phy::ImpairedChannel>(inner, seed);
    rfid::phy::ImpairmentConfig noisy;
    noisy.model = rfid::phy::ImpairmentModel::kBsc;
    noisy.tagToReaderBer = 1e-3;
    noisy.detectionBer = 1e-3;
    impaired->addImpairment(noisy);
    channel = impaired.get();
  }
  rfid::sim::Metrics metrics;
  metrics.reserveIdentifications(8 * tagCount);
  rfid::sim::SlotEngine engine(scheme, *channel, metrics);
  rfid::sim::TagSoA soa;
  soa.gather(tags, scheme);
  Rng rng(seed);
  for (int round = 0; round < 3; ++round) {
    for (Tag& tag : tags) {
      tag.resetForRound();
    }
    ASSERT_TRUE(protocol.runWithSnapshot(engine, tags, rng, soa));
  }
  EXPECT_GT(metrics.correctlyIdentified(), 0u);
}

class AllocGuardCensus : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!AllocGuard::enforced()) {
      GTEST_SKIP() << "RFID_ENFORCE_HOT off";
    }
    AllocGuard::resetProcessViolationsForTest();
  }
  void TearDown() override {
    if (AllocGuard::enforced()) {
      EXPECT_EQ(AllocGuard::processViolations(), 0u)
          << "a guarded hot region allocated outside an allow scope";
    }
  }
  const rfid::phy::AirInterface air_{};
};

TEST_F(AllocGuardCensus, QcdScalarAndBatchedSingleThread) {
  const rfid::core::QcdScheme qcd(air_, 8);
  runCensus(*dfsa(Protocol::FrameMode::kScalar), qcd, ChannelKind::kClean,
            /*tagCount=*/400, /*seed=*/20100913);
  runCensus(*dfsa(Protocol::FrameMode::kBatched), qcd, ChannelKind::kClean,
            /*tagCount=*/400, /*seed=*/20100913);
}

TEST_F(AllocGuardCensus, CrcScalarAndBatchedSingleThread) {
  const rfid::core::CrcCdScheme crc(air_);
  runCensus(*dfsa(Protocol::FrameMode::kScalar), crc, ChannelKind::kClean,
            /*tagCount=*/400, /*seed=*/20100913);
  runCensus(*dfsa(Protocol::FrameMode::kBatched), crc, ChannelKind::kClean,
            /*tagCount=*/400, /*seed=*/20100913);
}

TEST_F(AllocGuardCensus, ImpairedChannelSingleThread) {
  const rfid::core::QcdScheme qcd(air_, 8);
  const rfid::core::CrcCdScheme crc(air_);
  runCensus(*dfsa(Protocol::FrameMode::kScalar), qcd, ChannelKind::kImpaired,
            /*tagCount=*/300, /*seed=*/7);
  runCensus(*dfsa(Protocol::FrameMode::kBatched), crc, ChannelKind::kImpaired,
            /*tagCount=*/300, /*seed=*/7);
}

TEST_F(AllocGuardCensus, TreeWalkersSingleThread) {
  // Depth-first (BT, ABS) and breadth-first (QT, AQS) walks, clean and
  // impaired; ABS and AQS also carry their reservations and candidates
  // from round to round.
  const rfid::core::QcdScheme qcd(air_, 8);
  const rfid::core::CrcCdScheme crc(air_);
  rfid::anticollision::BinaryTree bt;
  rfid::anticollision::AdaptiveBinarySplitting abs;
  rfid::anticollision::QueryTree qt;
  rfid::anticollision::AdaptiveQuerySplitting aqs;
  Protocol* const trees[] = {&bt, &abs, &qt, &aqs};
  for (Protocol* protocol : trees) {
    runCensus(*protocol, qcd, ChannelKind::kClean, /*tagCount=*/300,
              /*seed=*/11);
    runCensus(*protocol, crc, ChannelKind::kImpaired, /*tagCount=*/300,
              /*seed=*/12);
  }
}

TEST_F(AllocGuardCensus, QAdaptiveSingleThread) {
  // Q-adaptive draws each Query round once and runs its rows one at a
  // time, clean and impaired.
  const rfid::core::QcdScheme qcd(air_, 8);
  const rfid::core::CrcCdScheme crc(air_);
  rfid::anticollision::QAdaptive qAdaptive;
  runCensus(qAdaptive, qcd, ChannelKind::kClean, /*tagCount=*/300,
            /*seed=*/13);
  runCensus(qAdaptive, crc, ChannelKind::kImpaired, /*tagCount=*/300,
            /*seed=*/14);
}

TEST_F(AllocGuardCensus, FourPoolThreadsStayGuardClean) {
  // Guards are thread-local, the violation count process-wide: four
  // concurrent censuses (mixed schemes, modes, and channels) must leave
  // it at zero.
  rfid::common::ThreadPool pool(4);
  const rfid::core::QcdScheme qcd(air_, 8);
  const rfid::core::CrcCdScheme crc(air_);
  std::vector<std::future<void>> done;
  for (int worker = 0; worker < 4; ++worker) {
    done.push_back(pool.submit([&, worker] {
      const rfid::core::DetectionScheme& scheme =
          (worker % 2 == 0)
              ? static_cast<const rfid::core::DetectionScheme&>(qcd)
              : crc;
      runCensus(*dfsa((worker / 2 == 0) ? Protocol::FrameMode::kScalar
                                        : Protocol::FrameMode::kBatched),
                scheme,
                (worker % 2 == 0) ? ChannelKind::kClean
                                  : ChannelKind::kImpaired,
                /*tagCount=*/250,
                /*seed=*/1000 + static_cast<std::uint64_t>(worker));
    }));
  }
  for (auto& fut : done) {
    fut.get();
  }
}

/// Heap allocations of one whole census — population, scheme, channel,
/// protocol, engine, snapshot, metrics and the aggregate — over `tagCount`
/// tags, on this thread, after a warm-up census of the same configuration.
std::uint64_t censusAllocations(rfid::anticollision::ExperimentConfig config,
                                std::size_t tagCount) {
  config.tagCount = tagCount;
  config.frameSize = tagCount * 3 / 5;
  config.rounds = 1;
  config.threads = 1;
  (void)rfid::anticollision::runExperiment(config);
  const std::uint64_t before = AllocGuard::processAllocations();
  const auto result = rfid::anticollision::runExperiment(config);
  const std::uint64_t after = AllocGuard::processAllocations();
  EXPECT_EQ(result.completedRounds, 1u) << tagCount << " tags";
  return after - before;
}

TEST_F(AllocGuardCensus, WholeCensusAllocationsStayFlat) {
  // No allocation per tag: under 100 for a 500-tag census, and at most 32
  // more for 5 000 tags. ABS and AQS are out of scope: their cross-round
  // state (ABS's reservations, AQS's idle prefixes) still allocates per tag.
  using rfid::anticollision::ExperimentConfig;
  using rfid::anticollision::ProtocolKind;
  using rfid::anticollision::SchemeKind;
  const auto config = [](ProtocolKind protocol, SchemeKind scheme) {
    ExperimentConfig c;
    c.protocol = protocol;
    c.scheme = scheme;
    c.qcdStrength = 8;
    c.seed = 29;
    return c;
  };
  ExperimentConfig bsc = config(ProtocolKind::kDfsaSchoute, SchemeKind::kQcd);
  bsc.impairment.model = rfid::phy::ImpairmentModel::kBsc;
  bsc.impairment.tagToReaderBer = 1e-3;
  bsc.impairment.detectionBer = 1e-3;
  bsc.recovery.ackVerify = true;
  bsc.recoveryMaxPasses = 2;
  const struct {
    const char* name;
    ExperimentConfig config;
  } cases[] = {
      {"FSA QCD-8", config(ProtocolKind::kFsa, SchemeKind::kQcd)},
      {"DFSA/Schoute CRC-CD",
       config(ProtocolKind::kDfsaSchoute, SchemeKind::kCrcCd)},
      {"Q-adaptive QCD-8", config(ProtocolKind::kQAdaptive, SchemeKind::kQcd)},
      {"BT CRC-CD", config(ProtocolKind::kBt, SchemeKind::kCrcCd)},
      {"QT CRC-CD", config(ProtocolKind::kQt, SchemeKind::kCrcCd)},
      {"DFSA/Schoute QCD-8, BSC 1e-3, ACK-verify, 2 recovery passes", bsc},
  };
  for (const auto& c : cases) {
    const std::uint64_t small = censusAllocations(c.config, 500);
    const std::uint64_t large = censusAllocations(c.config, 5000);
    EXPECT_LT(small, 100u) << c.name;
    EXPECT_LE(large, small + 32) << c.name << ": " << small << " allocations"
                                 << " at 500 tags, " << large << " at 5000";
  }
}

}  // namespace
