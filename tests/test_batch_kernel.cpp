// Differential tests for the batched slot kernel: SlotEngine::runSlotsBatch
// must be bit-identical to the scalar runSlot loop — same metrics (including
// the floating-point airtime clock), same tag state, same observer events,
// same RNG consumption, same effective slot types — across detection
// schemes, channels, recovery policies, blockers, SIMD modes, batch
// chunkings, and thread counts. The packed word-level primitives
// (QcdPreamble::encodeWords / inspectPacked, CrcEngine::computeWords,
// TagSoA::gather) are additionally pinned against their BitVec equivalents.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "core/detection_scheme.hpp"
#include "crc/crc.hpp"
#include "phy/channel.hpp"
#include "phy/impairments/impaired_channel.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "sim/tag_soa.hpp"
#include "sim/trace.hpp"
#include "tags/population.hpp"

namespace {

using rfid::common::BitVec;
using rfid::common::PreconditionError;
using rfid::common::Rng;
using rfid::core::CrcCdScheme;
using rfid::core::CrcPreambleScheme;
using rfid::core::DetectionScheme;
using rfid::core::IdealScheme;
using rfid::core::QcdPreamble;
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
using rfid::sim::SlotBatch;
using rfid::sim::SlotEngine;
using rfid::sim::TagSoA;
using rfid::tags::Tag;

// --- schedule construction ---------------------------------------------------

/// One randomized contention schedule rendered in both shapes: per-slot
/// index vectors for the scalar loop and the CSR arrays for the batch.
struct Schedule {
  std::vector<std::vector<std::size_t>> slots;
  std::vector<std::uint32_t> responders;
  std::vector<std::uint32_t> offsets;
};

Schedule makeSchedule(std::size_t tagCount, std::size_t slotCount,
                      std::uint64_t seed) {
  Rng rng(seed);
  Schedule sched;
  sched.slots.resize(slotCount);
  // Roughly a third of the tags sit the frame out, the rest land uniformly —
  // a healthy mix of idle, single, and crowded slots.
  for (std::size_t t = 0; t < tagCount; ++t) {
    const std::uint64_t pick = rng.below(slotCount + slotCount / 2);
    if (pick < slotCount) {
      sched.slots[pick].push_back(t);
    }
  }
  sched.offsets.push_back(0);
  for (const auto& slot : sched.slots) {
    for (const std::size_t idx : slot) {
      sched.responders.push_back(static_cast<std::uint32_t>(idx));
    }
    sched.offsets.push_back(
        static_cast<std::uint32_t>(sched.responders.size()));
  }
  return sched;
}

// --- rig: one complete simulation setup --------------------------------------

using SchemeFactory = std::function<std::unique_ptr<DetectionScheme>()>;

/// `channel` is what the engine drives; `inner` keeps a wrapped channel
/// (e.g. the OR inside an ImpairedChannel) alive.
struct ChannelPair {
  std::unique_ptr<Channel> inner;
  std::unique_ptr<Channel> channel;
};
using ChannelFactory = std::function<ChannelPair()>;

ChannelPair orChannel() { return {nullptr, std::make_unique<OrChannel>()}; }

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
  std::size_t tagCount = 48;
  std::size_t slotCount = 32;
  std::size_t blockerCount = 0;
  bool ackVerify = false;
  std::size_t chunks = 1;  ///< split the batch over this many calls
};

/// Runs `sched` through the scalar loop and the batch kernel and returns
/// whether every observable output matched: the verdicts, the metrics, the
/// tags, the next draw and, when `observe` attaches a RecordingObserver to
/// both engines, every slot event. Quiet (no gtest assertions) so it can
/// run off the main thread.
bool scheduleMatchesScalar(const SchemeFactory& makeScheme,
                           const ChannelFactory& makeChannel,
                           std::uint64_t seed, const Schedule& sched,
                           const DiffConfig& cfg, bool observe) {
  const std::size_t slotCount = sched.slots.size();
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

  std::vector<SlotType> scalarTypes;
  for (const auto& slot : sched.slots) {
    scalarTypes.push_back(scalar.engine.runSlot(scalar.tags, slot, scalar.rng));
  }

  TagSoA soa;
  soa.gather(batch.tags, *batch.scheme);
  std::vector<SlotType> batchTypes(slotCount);
  const std::size_t per = (slotCount + cfg.chunks - 1) / cfg.chunks;
  for (std::size_t c = 0; c < slotCount; c += per) {
    const std::size_t n = std::min(per, slotCount - c);
    const std::uint32_t base = sched.offsets[c];
    std::vector<std::uint32_t> offs(sched.offsets.begin() +
                                        static_cast<std::ptrdiff_t>(c),
                                    sched.offsets.begin() +
                                        static_cast<std::ptrdiff_t>(c + n + 1));
    for (std::uint32_t& o : offs) o -= base;
    const SlotBatch slice{
        {sched.responders.data() + base, sched.offsets[c + n] - base}, offs};
    batch.engine.runSlotsBatch(batch.tags, soa, slice, batch.rng,
                               {batchTypes.data() + c, n});
  }

  // Identical next draw ⇒ both paths consumed the RNG identically.
  return scalarTypes == batchTypes &&
         metricsEqual(scalar.metrics, batch.metrics) &&
         tagsEqual(scalar.tags, batch.tags) &&
         eventsEqual(scalarObs, batchObs) && scalar.rng() == batch.rng();
}

/// Runs a random schedule through the scalar loop and the batch kernel
/// twice: with an observer on both engines, and with none (the path every
/// census without a trace takes).
bool batchMatchesScalar(const SchemeFactory& makeScheme,
                        const ChannelFactory& makeChannel, std::uint64_t seed,
                        const DiffConfig& cfg = {}) {
  const Schedule sched =
      makeSchedule(cfg.tagCount, cfg.slotCount, seed ^ 0x5bd1e995ull);
  return scheduleMatchesScalar(makeScheme, makeChannel, seed, sched, cfg,
                               /*observe=*/true) &&
         scheduleMatchesScalar(makeScheme, makeChannel, seed, sched, cfg,
                               /*observe=*/false);
}

void expectBatchMatchesScalar(const SchemeFactory& makeScheme,
                              const ChannelFactory& makeChannel,
                              std::uint64_t seed, const DiffConfig& cfg = {}) {
  EXPECT_TRUE(batchMatchesScalar(makeScheme, makeChannel, seed, cfg))
      << "batch diverged from scalar (seed " << seed << ")";
}

SchemeFactory qcd(unsigned strength) {
  return [strength] {
    return std::make_unique<QcdScheme>(AirInterface{}, strength);
  };
}

// --- packed fast path: QCD --------------------------------------------------

TEST(BatchKernel, QcdMatchesScalarAcrossSeeds) {
  for (const std::uint64_t seed : {1ull, 7ull, 42ull, 2026ull}) {
    expectBatchMatchesScalar(qcd(8), orChannel, seed);
  }
}

TEST(BatchKernel, QcdCrowdedSlotsExerciseWideOr) {
  // ~9 responders per slot on average: the masked OR's loop past the
  // masked responders runs.
  expectBatchMatchesScalar(qcd(8), orChannel, 3,
                           {.tagCount = 600, .slotCount = 64});
}

TEST(BatchKernel, QcdTwoWordPreamblesMatchScalar) {
  for (const unsigned strength : {33u, 40u, 64u}) {
    expectBatchMatchesScalar(qcd(strength), orChannel, 11 + strength);
  }
}

TEST(BatchKernel, QcdWeakStrengthPhantomHeavyMatchesScalar) {
  // l = 1 forces every responder to draw r = 1, so every true collision is
  // misdetected as single — the phantom-ACK commit path dominates.
  expectBatchMatchesScalar(qcd(1), orChannel, 5);
  expectBatchMatchesScalar(qcd(2), orChannel, 6);
}

TEST(BatchKernel, QcdWithBlockersMatchesScalar) {
  expectBatchMatchesScalar(qcd(8), orChannel, 9, {.blockerCount = 4});
}

TEST(BatchKernel, QcdAckVerifyMatchesScalar) {
  // l = 2 keeps misdetections frequent so the verify-reject branch fires.
  expectBatchMatchesScalar(qcd(2), orChannel, 13, {.ackVerify = true});
  expectBatchMatchesScalar(qcd(8), orChannel, 14,
                           {.blockerCount = 3, .ackVerify = true});
}

TEST(BatchKernel, ChunkedBatchesMatchOneBigBatch) {
  // Chunking exercises slot-index continuity across runSlotsBatch calls.
  for (const std::size_t chunks : {2ull, 5ull, 32ull}) {
    expectBatchMatchesScalar(qcd(8), orChannel, 17, {.chunks = chunks});
  }
}

// --- packed fast path: static-signal schemes ---------------------------------

TEST(BatchKernel, CrcCdMatchesScalar) {
  const SchemeFactory crcCd = [] {
    return std::make_unique<CrcCdScheme>(AirInterface{});
  };
  for (const std::uint64_t seed : {3ull, 21ull}) {
    expectBatchMatchesScalar(crcCd, orChannel, seed);
  }
  expectBatchMatchesScalar(crcCd, orChannel, 23, {.blockerCount = 2});
  expectBatchMatchesScalar(crcCd, orChannel, 25, {.ackVerify = true});
}

TEST(BatchKernel, IdealMatchesScalar) {
  const SchemeFactory ideal = [] {
    return std::make_unique<IdealScheme>(AirInterface{});
  };
  expectBatchMatchesScalar(ideal, orChannel, 31);
  expectBatchMatchesScalar(ideal, orChannel, 33, {.blockerCount = 2});
}

// --- every row length, every signal width -----------------------------------

/// A test-local kStatic scheme of any width: `words` words, the last one
/// 22 bits wide, each a different mix of the tag's ID. It is a leaky
/// detector: a superposition reads as single when its popcount is a
/// multiple of three. So the verdict of a crowded row depends on every bit
/// the OR produces (a wrong word flips it about two times in three), and
/// such rows often read as single and take the phantom ACK. Three words
/// is wider than any shipped scheme.
class LeakyStatic final : public DetectionScheme {
 public:
  /// `words` is 1, 2 or 3.
  explicit LeakyStatic(std::size_t words)
      : DetectionScheme(AirInterface{}), words_(words) {}

  std::string name() const override { return "leaky-static"; }
  std::size_t contentionBits() const override { return 64 * words_ - 42; }
  void contentionSignalInto(const Tag& tag, Rng& /*tagRng*/,
                            BitVec& out) const override {
    out.assignUint(0, 0);
    for (std::size_t w = 0; w < words_; ++w) {
      const std::uint64_t word = mix(tag.idValue + w);
      if (w + 1 < words_) {
        out.appendUint(word, 64);
      } else {
        out.appendUint(word & kLastMask, 22);
      }
    }
  }
  SlotType classify(const std::optional<BitVec>& signal,
                    std::size_t /*trueResponders*/) const override {
    if (!signal.has_value()) return SlotType::kIdle;
    std::array<std::uint64_t, 3> words{};
    for (std::size_t w = 0; w < words_; ++w) words[w] = signal->word(w);
    return verdict(words.data());
  }
  bool idIsInContention() const override { return true; }
  rfid::phy::SlotTiming timing() const override {
    return {/*idle=*/7.0, /*single=*/150.0, /*collided=*/96.0};
  }
  PackedKind packedKind() const noexcept override {
    return PackedKind::kStatic;
  }
  void classifyPacked(const std::uint64_t* superposed,
                      const std::uint32_t* slotOffsets, std::size_t count,
                      SlotType* out) const noexcept override {
    for (std::size_t i = 0; i < count; ++i) {
      out[i] = slotOffsets[i + 1] == slotOffsets[i]
                   ? SlotType::kIdle
                   : verdict(superposed + i * words_);
    }
  }

 private:
  static constexpr std::uint64_t kLastMask = (std::uint64_t{1} << 22) - 1;
  static std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }
  SlotType verdict(const std::uint64_t* words) const {
    int ones = 0;
    for (std::size_t w = 0; w < words_; ++w) ones += std::popcount(words[w]);
    if (ones == 0) return SlotType::kIdle;
    return ones % 3 == 0 ? SlotType::kSingle : SlotType::kCollided;
  }

  std::size_t words_;
};

/// Rows holding every responder count from 0 to 12, three of each, in a
/// fixed shuffled order; each honest tag responds once. With `blocker`,
/// tag 0 is the population's blocker and takes the middle place of every
/// third non-empty row, so rows keep their lengths.
Schedule everyRowLength(bool blocker) {
  std::vector<std::size_t> lengths;
  for (int copy = 0; copy < 3; ++copy) {
    for (std::size_t n = 0; n <= 12; ++n) lengths.push_back(n);
  }
  Rng shuffle(97);
  for (std::size_t i = lengths.size() - 1; i > 0; --i) {
    std::swap(lengths[i], lengths[shuffle.below(i + 1)]);
  }
  Schedule sched;
  sched.offsets.push_back(0);
  std::size_t nextTag = 1;
  std::size_t busyRows = 0;
  for (const std::size_t n : lengths) {
    std::vector<std::size_t> row;
    for (std::size_t k = 0; k < n; ++k) row.push_back(nextTag++);
    if (blocker && n != 0 && busyRows++ % 3 == 0) row[n / 2] = 0;
    for (const std::size_t idx : row) {
      sched.responders.push_back(static_cast<std::uint32_t>(idx));
    }
    sched.offsets.push_back(
        static_cast<std::uint32_t>(sched.responders.size()));
    sched.slots.push_back(std::move(row));
  }
  return sched;
}

TEST(BatchKernel, EveryRowLengthMatchesScalar) {
  // The masked OR reads a fixed number of responders per row and loops
  // past them, so every row length from 0 to 12 runs at every signal width
  // a scheme ships (one word: QCD l=8; two words: CRC-CD and QCD l=40) and
  // at three words. The leaky test scheme runs at all three widths: its
  // verdicts show a wrong OR in rows the shipped detectors read as
  // collided either way.
  const auto leaky = [](std::size_t words) -> SchemeFactory {
    return [words] { return std::make_unique<LeakyStatic>(words); };
  };
  const struct {
    const char* name;
    SchemeFactory make;
  } schemes[] = {
      {"QCD l=8", qcd(8)},
      {"QCD l=40", qcd(40)},
      {"CRC-CD",
       [] { return std::make_unique<CrcCdScheme>(AirInterface{}); }},
      {"leaky static, one word", leaky(1)},
      {"leaky static, two words", leaky(2)},
      {"leaky static, three words", leaky(3)},
  };
  const struct {
    bool blocker;
    bool ackVerify;
  } setups[] = {{false, false}, {true, false}, {false, true}, {true, true}};
  for (const auto& scheme : schemes) {
    for (const auto& setup : setups) {
      const Schedule sched = everyRowLength(setup.blocker);
      const DiffConfig cfg{.tagCount = sched.responders.size() + 1,
                           .blockerCount = setup.blocker ? 1u : 0u,
                           .ackVerify = setup.ackVerify};
      for (const bool observe : {true, false}) {
        EXPECT_TRUE(scheduleMatchesScalar(scheme.make, orChannel, 101, sched,
                                          cfg, observe))
            << scheme.name << (setup.blocker ? ", one blocker" : "")
            << (setup.ackVerify ? ", ACK-verify" : "")
            << (observe ? ", observed" : ", unobserved");
      }
    }
  }
}

// --- fallback path -----------------------------------------------------------

TEST(BatchKernel, CrcPreambleSchemeFallsBackBitIdentical) {
  // packedKind() == kNone: the batch must route through runSlot unchanged.
  const SchemeFactory crcPreamble = [] {
    return std::make_unique<CrcPreambleScheme>(AirInterface{}, 8,
                                               rfid::crc::crc8Smbus());
  };
  expectBatchMatchesScalar(crcPreamble, orChannel, 37);
}

TEST(BatchKernel, CaptureChannelFallsBackBitIdentical) {
  // isPureOr() == false: capture draws randomness per collision.
  const ChannelFactory capture = [] {
    return ChannelPair{nullptr, std::make_unique<CaptureChannel>(0.7)};
  };
  expectBatchMatchesScalar(qcd(8), capture, 41);
  expectBatchMatchesScalar(qcd(8), capture, 43, {.ackVerify = true});
}

TEST(BatchKernel, ImpairedChannelFallsBackBitIdentical) {
  // The impairment decorator keys per-slot noise streams to beginSlot, which
  // the fallback preserves by driving runSlot itself.
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
  expectBatchMatchesScalar(qcd(8), impaired, 47);
}

// --- SIMD dispatch -----------------------------------------------------------

TEST(BatchKernel, PortableAndAvx2KernelsBitIdentical) {
  using rfid::common::simd::SimdMode;
  // Both modes are compared against the same scalar oracle, so agreement
  // with it proves the two kernel families agree with each other.
  rfid::common::simd::setSimdMode(SimdMode::kForcePortable);
  expectBatchMatchesScalar(qcd(8), orChannel, 53,
                           {.tagCount = 300, .slotCount = 48});
  rfid::common::simd::setSimdMode(SimdMode::kAuto);
  expectBatchMatchesScalar(qcd(8), orChannel, 53,
                           {.tagCount = 300, .slotCount = 48});
}

// --- thread counts -----------------------------------------------------------

TEST(BatchKernel, DeterministicAcrossThreadCounts) {
  // Independent engines on independent streams must each stay bit-identical
  // regardless of how many run concurrently (no hidden shared state in the
  // kernel or the SIMD dispatch).
  for (const unsigned nThreads : {1u, 2u, 4u}) {
    std::atomic<int> failures{0};
    std::vector<std::thread> workers;
    workers.reserve(nThreads);
    for (unsigned t = 0; t < nThreads; ++t) {
      workers.emplace_back([&failures, t] {
        if (!batchMatchesScalar(qcd(8), orChannel, 1000 + t)) {
          ++failures;
        }
      });
    }
    for (std::thread& w : workers) w.join();
    EXPECT_EQ(failures.load(), 0) << "with " << nThreads << " threads";
  }
}

// --- API preconditions -------------------------------------------------------

TEST(BatchKernel, EmptyBatchIsANoOp) {
  Rig rig(qcd(8), orChannel, 4, 61, 0, false);
  TagSoA soa;
  soa.gather(rig.tags, *rig.scheme);
  rig.engine.runSlotsBatch(rig.tags, soa, SlotBatch{}, rig.rng);
  EXPECT_EQ(rig.metrics.trueCensus().total(), 0u);
  EXPECT_EQ(rig.metrics.totalAirtimeMicros(), 0.0);
}

TEST(BatchKernel, RejectsMalformedInput) {
  Rig rig(qcd(8), orChannel, 4, 67, 0, false);
  TagSoA soa;
  soa.gather(rig.tags, *rig.scheme);
  const std::vector<std::uint32_t> responders{0, 1};
  const std::vector<std::uint32_t> goodOffsets{0, 1, 2};
  std::vector<SlotType> out(1);  // wrong size: batch has 2 slots
  EXPECT_THROW(rig.engine.runSlotsBatch(rig.tags, soa,
                                        {responders, goodOffsets}, rig.rng,
                                        out),
               PreconditionError);
  const std::vector<std::uint32_t> badFront{1, 2};
  EXPECT_THROW(
      rig.engine.runSlotsBatch(rig.tags, soa, {responders, badFront}, rig.rng),
      PreconditionError);
  TagSoA stale;  // gathered over a different population size
  const std::vector<Tag> fewer(2);
  stale.gather(fewer, *rig.scheme);
  EXPECT_THROW(rig.engine.runSlotsBatch(rig.tags, stale,
                                        {responders, goodOffsets}, rig.rng),
               PreconditionError);
}

TEST(BatchKernel, RejectsMalformedRows) {
  // Each malformed batch throws before any slot runs.
  Rig rig(qcd(8), orChannel, 4, 73, 0, false);
  TagSoA soa;
  soa.gather(rig.tags, *rig.scheme);
  const std::vector<std::uint32_t> outOfRange{0, 4};
  const std::vector<std::uint32_t> twoSlots{0, 1, 2};
  EXPECT_THROW(rig.engine.runSlotsBatch(rig.tags, soa,
                                        {outOfRange, twoSlots}, rig.rng),
               PreconditionError);
  const std::vector<std::uint32_t> responders{0, 1, 2};
  const std::vector<std::uint32_t> nonMonotone{0, 2, 1, 3};
  EXPECT_THROW(rig.engine.runSlotsBatch(rig.tags, soa,
                                        {responders, nonMonotone}, rig.rng),
               PreconditionError);
  const std::vector<std::uint32_t> shortLast{0, 1, 2};
  EXPECT_THROW(rig.engine.runSlotsBatch(rig.tags, soa,
                                        {responders, shortLast}, rig.rng),
               PreconditionError);
  EXPECT_EQ(rig.metrics.trueCensus().total(), 0u);
}

// --- packed primitives vs their BitVec equivalents ---------------------------

TEST(PackedPrimitives, EncodeWordsMatchesEncode) {
  Rng rng(71);
  for (const unsigned strength : {1u, 8u, 31u, 32u, 33u, 40u, 63u, 64u}) {
    const QcdPreamble preamble(strength);
    for (int trial = 0; trial < 50; ++trial) {
      const std::uint64_t r = preamble.draw(rng);
      std::uint64_t words[2] = {0, 0};
      preamble.encodeWords(r, words);
      const BitVec reference = preamble.encode(r);
      EXPECT_EQ(words[0], reference.word(0)) << "l=" << strength;
      if (preamble.words() == 2) {
        EXPECT_EQ(words[1], reference.word(1)) << "l=" << strength;
      }
    }
  }
}

TEST(PackedPrimitives, InspectPackedMatchesInspect) {
  Rng rng(73);
  for (const unsigned strength : {8u, 40u, 64u}) {
    const QcdPreamble preamble(strength);
    for (std::uint32_t responders = 0; responders <= 5; ++responders) {
      for (int trial = 0; trial < 40; ++trial) {
        std::uint64_t acc[2] = {0, 0};
        for (std::uint32_t k = 0; k < responders; ++k) {
          std::uint64_t one[2] = {0, 0};
          preamble.encodeWords(preamble.draw(rng), one);
          acc[0] |= one[0];
          acc[1] |= one[1];
        }
        const std::uint32_t offsets[2] = {0, responders};
        SlotType packed{};
        preamble.inspectPacked(acc, offsets, 1, &packed);
        if (responders == 0) {
          EXPECT_EQ(packed, SlotType::kIdle);
          continue;
        }
        BitVec superposed;
        if (preamble.bits() <= 64) {
          superposed.assignUint(acc[0], preamble.bits());
        } else {
          superposed.assignUint(acc[0], 64);
          superposed.appendUint(acc[1],
                                static_cast<unsigned>(preamble.bits() - 64));
        }
        const auto expected = preamble.inspect(superposed);
        EXPECT_EQ(packed, expected == QcdPreamble::Verdict::kSingle
                              ? SlotType::kSingle
                              : SlotType::kCollided)
            << "l=" << strength << " m=" << responders;
      }
    }
  }
}

TEST(PackedPrimitives, ComputeWordsMatchesComputeBits) {
  // Slicing-by-8 against the serial LFSR for every width class (1-bit
  // parity through CRC-64, reflected and not) at every length through
  // three words. The padding past nbits is all ones: when l_id < 64,
  // CRC-CD's code shares the ID's last word, so computeWords must read
  // exactly nbits bits.
  using rfid::crc::CrcEngine;
  using rfid::crc::CrcSpec;
  const CrcSpec crc64Ecma{"CRC-64/ECMA-182", 64, 0x42F0E1EBA9EA3693ull, 0,
                          false, false, 0, 0x6C40DF5F0B497347ull};
  const CrcSpec crc64Xz{"CRC-64/XZ", 64, 0x42F0E1EBA9EA3693ull,
                        ~std::uint64_t{0}, true, true, ~std::uint64_t{0},
                        0x995DC9BBDF1939FAull};
  const CrcSpec parity{"CRC-1/PARITY", 1, 0x1, 0, false, false, 0, 0};
  const std::uint8_t checkInput[] = {'1', '2', '3', '4', '5',
                                     '6', '7', '8', '9'};
  for (const CrcSpec* spec : {&crc64Ecma, &crc64Xz}) {
    const CrcEngine engine(*spec);
    EXPECT_EQ(engine.computeBytes(checkInput), spec->check) << spec->name;
    EXPECT_EQ(engine.computeBytesTable(checkInput), spec->check)
        << spec->name;
  }

  Rng rng(79);
  for (const CrcSpec* spec :
       {&rfid::crc::crc5Epc(), &rfid::crc::crc8Smbus(),
        &rfid::crc::crc16CcittFalse(), &rfid::crc::crc16Genibus(),
        &rfid::crc::crc32(), &rfid::crc::crc32Bzip2(), &crc64Ecma, &crc64Xz,
        &parity}) {
    const CrcEngine engine(*spec);
    for (std::size_t nbits = 0; nbits <= 130; ++nbits) {
      for (int trial = 0; trial < 20; ++trial) {
        const BitVec v = rng.bitvec(nbits);
        std::vector<std::uint64_t> words(nbits / 64 + 1, ~std::uint64_t{0});
        for (std::size_t w = 0; w < v.words(); ++w) {
          words[w] = v.word(w);
        }
        words[nbits / 64] |= ~std::uint64_t{0} << (nbits % 64);
        EXPECT_EQ(engine.computeWords(words.data(), nbits),
                  engine.computeBits(v))
            << spec->name << " nbits=" << nbits;
      }
    }
  }
}

TEST(PackedPrimitives, TagSoAGatherSnapshotsTagState) {
  Rng rng(83);
  auto tags = rfid::tags::makeUniformPopulation(12, 64, rng);
  tags[0].blocker = true;
  tags[3].blocker = true;

  const CrcCdScheme crcCd{AirInterface{}};
  TagSoA soa;
  soa.gather(tags, crcCd);
  ASSERT_EQ(soa.size(), tags.size());
  EXPECT_TRUE(soa.hasStaticSignals());
  EXPECT_EQ(soa.signalWords(), crcCd.contentionWords());
  Rng unused(0);
  for (std::size_t i = 0; i < tags.size(); ++i) {
    EXPECT_EQ(soa.blocker(i), tags[i].blocker);
    if (tags[i].blocker) {
      for (std::size_t w = 0; w < soa.signalWords(); ++w) {
        EXPECT_EQ(soa.staticSignal(i)[w], 0u) << "blocker rows stay zero";
      }
    } else {
      const BitVec signal = crcCd.contentionSignal(tags[i], unused);
      for (std::size_t w = 0; w < soa.signalWords(); ++w) {
        EXPECT_EQ(soa.staticSignal(i)[w], signal.word(w));
      }
    }
  }

  // Per-slot schemes gather no signal rows.
  const QcdScheme qcdScheme{AirInterface{}, 8};
  soa.gather(tags, qcdScheme);
  EXPECT_FALSE(soa.hasStaticSignals());
}

}  // namespace
