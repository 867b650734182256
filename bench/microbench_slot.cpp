// Slot hot-path microbench: SlotEngine::runSlot vs the batched kernel on an
// identical slot schedule, plus end-to-end frame-emission census sweeps.
//
// Six claims are checked, not just measured:
//   1. steady-state slots through the engine perform ZERO heap allocations
//      (counted by replacing global operator new/delete) — the process exits
//      nonzero if any slip in;
//   2. the same holds with a RegistryObserver attached (the observability
//      layer must not reintroduce allocations into the hot path);
//   3. the same holds with the channel-impairment layer engaged (an
//      ImpairedChannel wrapping the OR channel with a BSC flipping bits on
//      both legs) — the impairment apply path reuses high-water-mark
//      scratch after warmup;
//   4. the batched kernel (SlotEngine::runSlotsBatch over a TagSoA snapshot
//      and CSR slot batches) is likewise allocation-free at steady state;
//   5. the batch pass produces metrics BIT-IDENTICAL to the per-slot hot
//      pass on the same schedule and seed (the equivalence contract);
//   6. an end-to-end DFSA census at paper scale (5000 tags, Schoute
//      estimator) run frame-batched (Protocol::FrameMode::kBatched — whole
//      frames rendered as CSR batches by FrameBatcher) reproduces the
//      per-slot reference emitter's metrics bit-for-bit and is
//      allocation-free at steady state, under BOTH detection schemes swept
//      (QCD l=8 and CRC-CD).
// Only the allocation counts and the bit-identity checks gate the exit
// status. The speed ratios (batch_speedup_vs_hot, frame_batch_speedup) are
// reported against their closed-form bars, not enforced: CRC-CD is where
// frame batching pays most, since the TagSoA snapshot precomputes the
// static CRC contention signals the per-slot emitter recomputes per
// response; the QCD sweep's frame_census_qcd_* numbers carry no bar.
// Results land in BENCH_slot.json (rfid-run-report/1 schema) in the working
// directory; RFID_JSON overrides the path.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <optional>
#include <span>
#include <vector>

#include "anticollision/dfsa.hpp"
#include "anticollision/protocol.hpp"
#include "bench_support.hpp"
#include "common/alloc_guard.hpp"
#include "common/rng.hpp"
#include "core/detection_scheme.hpp"
#include "phy/channel.hpp"
#include "phy/impairments/impaired_channel.hpp"
#include "phy/impairments/impairment.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "sim/tag_soa.hpp"
#include "sim/trace.hpp"
#include "tags/population.hpp"

#ifdef RFID_ENFORCE_HOT
// The RFID_ENFORCE_HOT build already replaces global operator new/delete
// (src/common/alloc_guard_hooks.cpp); a second replacement in this TU would
// be a duplicate definition. Count through the guard's process-wide tally
// instead — same claims, one allocator.
namespace {
std::uint64_t currentAllocCount() {
  return rfid::common::AllocGuard::processAllocations();
}
}  // namespace
#else
namespace {
std::atomic<std::uint64_t> gAllocCount{0};
std::uint64_t currentAllocCount() {
  return gAllocCount.load(std::memory_order_relaxed);
}
}  // namespace

void* operator new(std::size_t n) {
  gAllocCount.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) {
    return p;
  }
  throw std::bad_alloc{};
}

void* operator new[](std::size_t n) { return ::operator new(n); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace {

using rfid::common::Rng;
using rfid::core::QcdScheme;
using rfid::phy::OrChannel;
using rfid::sim::Metrics;
using rfid::sim::SlotEngine;
using rfid::tags::Tag;

double secondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Exact equality of everything two passes over the same schedule must
/// share — the batch-vs-scalar equivalence contract, doubles included.
bool metricsMatch(const Metrics& a, const Metrics& b) {
  const auto censusEqual = [](const rfid::sim::SlotCensus& x,
                              const rfid::sim::SlotCensus& y) {
    return x.idle == y.idle && x.single == y.single &&
           x.collided == y.collided;
  };
  return censusEqual(a.trueCensus(), b.trueCensus()) &&
         censusEqual(a.detectedCensus(), b.detectedCensus()) &&
         a.confusion() == b.confusion() &&
         a.totalAirtimeMicros() == b.totalAirtimeMicros() &&
         a.nowMicros() == b.nowMicros() && a.identified() == b.identified() &&
         a.correctlyIdentified() == b.correctlyIdentified() &&
         a.phantoms() == b.phantoms() && a.lostTags() == b.lostTags() &&
         a.delaysMicros() == b.delaysMicros();
}

}  // namespace

int main() {
  rfid::bench::initObservability(
      "microbench_slot",
      "slot hot path: zero steady-state heap allocations (with and without "
      "the metrics registry attached), and a batched kernel >= 3x over the "
      "per-slot hot path with bit-identical metrics",
      /*defaultJsonPath=*/"BENCH_slot.json");
  // A mixed schedule: idle slots, lone responders, small and large
  // collisions — the shapes every protocol produces.
  const std::vector<std::vector<std::size_t>> kSchedule = {
      {},  {0}, {1, 2},  {3, 4, 5, 6, 7}, {8},
      {9}, {},  {10, 11}, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, {12},
  };
  constexpr std::size_t kMeasuredSlots = 1'000'000;
  constexpr std::uint64_t kSeed = 20100913;

  const rfid::phy::AirInterface air{};
  const QcdScheme scheme(air, 8);
  OrChannel channel;

  Rng setupRng(kSeed);
  const std::vector<Tag> initialTags =
      rfid::tags::makeUniformPopulation(16, air.idBits, setupRng);

  // --- engine hot path ----------------------------------------------------
  // hotMetrics outlives the block: the batch pass below must reproduce it
  // bit-for-bit (same schedule, same seed, same RNG draw order).
  double hotSlotsPerSec = 0.0;
  std::uint64_t hotAllocs = 0;
  Metrics hotMetrics;
  {
    std::vector<Tag> tags = initialTags;
    Metrics& metrics = hotMetrics;
    metrics.reserveIdentifications(2 * kMeasuredSlots);
    SlotEngine engine(scheme, channel, metrics);
    Rng rng(kSeed);
    for (const auto& responders : kSchedule) {  // warmup to high-water marks
      engine.runSlot(tags, responders, rng);
    }
    const std::uint64_t allocsBefore =
        currentAllocCount();
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t s = 0; s < kMeasuredSlots; ++s) {
      engine.runSlot(tags, kSchedule[s % kSchedule.size()], rng);
    }
    const double elapsed = secondsSince(t0);
    hotAllocs = currentAllocCount() - allocsBefore;
    hotSlotsPerSec = static_cast<double>(kMeasuredSlots) / elapsed;
  }

  // --- engine hot path with the metrics registry attached ------------------
  // The observability layer must not reintroduce allocations: the
  // RegistryObserver resolves its instruments at construction, so every
  // onSlot is pure counter/histogram arithmetic.
  double observedSlotsPerSec = 0.0;
  std::uint64_t observedAllocs = 0;
  {
    std::vector<Tag> tags = initialTags;
    Metrics metrics;
    metrics.reserveIdentifications(2 * kMeasuredSlots);
    SlotEngine engine(scheme, channel, metrics);
    rfid::sim::RegistryObserver observer(rfid::bench::registry(), "slots");
    engine.setObserver(&observer);
    Rng rng(kSeed);
    for (const auto& responders : kSchedule) {  // warmup to high-water marks
      engine.runSlot(tags, responders, rng);
    }
    const std::uint64_t allocsBefore =
        currentAllocCount();
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t s = 0; s < kMeasuredSlots; ++s) {
      engine.runSlot(tags, kSchedule[s % kSchedule.size()], rng);
    }
    const double elapsed = secondsSince(t0);
    observedAllocs =
        currentAllocCount() - allocsBefore;
    observedSlotsPerSec = static_cast<double>(kMeasuredSlots) / elapsed;
  }

  // --- engine hot path through the impairment layer -----------------------
  // The noisy-channel wrapper copies each transmission into reusable
  // scratch, flips bits, and superposes via the inner channel; after the
  // warmup grows the high-water marks, steady-state impaired slots must be
  // allocation-free too (RFID-HOT-002 extends to the apply path).
  double impairedSlotsPerSec = 0.0;
  std::uint64_t impairedAllocs = 0;
  {
    std::vector<Tag> tags = initialTags;
    Metrics metrics;
    metrics.reserveIdentifications(2 * kMeasuredSlots);
    rfid::phy::ImpairedChannel impaired(channel, kSeed);
    rfid::phy::ImpairmentConfig noisy;
    noisy.model = rfid::phy::ImpairmentModel::kBsc;
    noisy.tagToReaderBer = 1e-3;
    noisy.detectionBer = 1e-3;
    impaired.addImpairment(noisy);
    SlotEngine engine(scheme, impaired, metrics);
    Rng rng(kSeed);
    for (const auto& responders : kSchedule) {  // warmup to high-water marks
      engine.runSlot(tags, responders, rng);
    }
    const std::uint64_t allocsBefore =
        currentAllocCount();
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t s = 0; s < kMeasuredSlots; ++s) {
      engine.runSlot(tags, kSchedule[s % kSchedule.size()], rng);
    }
    const double elapsed = secondsSince(t0);
    impairedAllocs =
        currentAllocCount() - allocsBefore;
    impairedSlotsPerSec = static_cast<double>(kMeasuredSlots) / elapsed;
  }

  // --- batched kernel ------------------------------------------------------
  // Same schedule, same seed, but driven through runSlotsBatch: the TagSoA
  // snapshot is gathered once, the schedule is tiled into a CSR batch, and
  // each kernel call superposes/classifies a couple thousand slots at word
  // granularity before the sequential commit loop. The resulting Metrics
  // must equal the per-slot hot pass exactly — speed with a proof of
  // equivalence attached.
  double batchSlotsPerSec = 0.0;
  std::uint64_t batchAllocs = 0;
  bool batchMatchesHot = false;
  {
    std::vector<Tag> tags = initialTags;
    Metrics metrics;
    metrics.reserveIdentifications(2 * kMeasuredSlots);
    SlotEngine engine(scheme, channel, metrics);
    Rng rng(kSeed);
    rfid::sim::TagSoA soa;
    soa.gather(tags, scheme);

    // CSR tile: kTileReps repetitions of the schedule per kernel call.
    constexpr std::size_t kTileReps = 200;  // 2000 slots per call
    std::vector<std::uint32_t> responders;
    std::vector<std::uint32_t> offsets;
    offsets.push_back(0);
    for (std::size_t rep = 0; rep < kTileReps; ++rep) {
      for (const auto& slot : kSchedule) {
        for (const std::size_t idx : slot) {
          responders.push_back(static_cast<std::uint32_t>(idx));
        }
        offsets.push_back(static_cast<std::uint32_t>(responders.size()));
      }
    }
    const std::size_t slotsPerTile = kSchedule.size() * kTileReps;
    if (kMeasuredSlots % slotsPerTile != 0) {
      std::fprintf(stderr, "FAIL: tile size must divide kMeasuredSlots\n");
      return 1;
    }
    const rfid::sim::SlotBatch tile{responders, offsets};
    // Warmup: exactly the 10-slot prefix the per-slot passes run, so the
    // metrics streams stay aligned (and the engine scratch reaches its
    // high-water marks before counting allocations).
    const rfid::sim::SlotBatch warmupTile{
        std::span<const std::uint32_t>(responders)
            .first(offsets[kSchedule.size()]),
        std::span<const std::uint32_t>(offsets).first(kSchedule.size() + 1)};
    engine.runSlotsBatch(tags, soa, warmupTile, rng);
    // The first full tile grows the engine scratch to its high-water marks;
    // it still counts toward the 1M-slot total (keeping metrics parity with
    // the hot pass) but sits outside the timed/alloc-counted window.
    engine.runSlotsBatch(tags, soa, tile, rng);
    const std::size_t timedSlots = kMeasuredSlots - slotsPerTile;
    const std::uint64_t allocsBefore =
        currentAllocCount();
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t call = 1; call < kMeasuredSlots / slotsPerTile; ++call) {
      engine.runSlotsBatch(tags, soa, tile, rng);
    }
    const double elapsed = secondsSince(t0);
    batchAllocs = currentAllocCount() - allocsBefore;
    batchSlotsPerSec = static_cast<double>(timedSlots) / elapsed;
    batchMatchesHot = metricsMatch(metrics, hotMetrics);
  }

  // --- frame-batched DFSA census at paper scale ----------------------------
  // End to end through the protocol layer: a 5000-tag census under
  // DFSA/Schoute, once through the per-slot reference emitter
  // (FrameMode::kScalar) and once with frames emitted as CSR batches
  // (FrameMode::kBatched). Every census in
  // both passes consumes the RNG identically (the frame-batch equivalence
  // contract), so the two accumulated Metrics must match bit-for-bit at the
  // end — the throughput ratio comes with its own proof of equivalence.
  //
  // Two schemes are swept. CRC-CD carries the >= 2x closed-form bar: its
  // contention signal is a per-tag static CRC the per-slot path recomputes
  // for every response, while the batched path reads it from the TagSoA
  // snapshot — the paper-realistic configuration and the one batching is
  // for. QCD l=8 (draw-based signals, already lean per slot) is reported
  // alongside as informative numbers without a closed-form bar.
  constexpr std::size_t kCensusTags = 5000;
  constexpr std::size_t kCensusReps = 12;
  Rng censusSetupRng(kSeed);
  const std::vector<Tag> censusTags = rfid::tags::makeUniformPopulation(
      kCensusTags, air.idBits, censusSetupRng);
  struct CensusPass {
    double slotsPerSec = 0.0;
    std::uint64_t allocs = 0;
    std::uint64_t slots = 0;
    Metrics metrics;
  };
  const auto runCensusPass =
      [&](const rfid::core::DetectionScheme& censusScheme,
          rfid::anticollision::Protocol::FrameMode mode) {
        CensusPass pass;
        std::vector<Tag> tags = censusTags;
        pass.metrics.reserveIdentifications(2 * (kCensusReps + 1) *
                                            kCensusTags);
        SlotEngine engine(censusScheme, channel, pass.metrics);
        rfid::anticollision::DynamicFsa protocol(
            rfid::anticollision::EstimatorKind::kSchoute, /*initialFrame=*/128);
        protocol.setFrameMode(mode);
        rfid::sim::TagSoA soa;
        soa.gather(tags, censusScheme);
        Rng rng(kSeed);
        // Warmup census: protocol and engine scratch grow to their
        // high-water marks (the first batched census sees the largest
        // frames, so later censuses only reuse storage).
        protocol.runWithSnapshot(engine, tags, rng, soa);
        const std::uint64_t warmupSlots = pass.metrics.detectedCensus().total();
        const std::uint64_t allocsBefore =
            currentAllocCount();
        const auto t0 = std::chrono::steady_clock::now();
        for (std::size_t rep = 0; rep < kCensusReps; ++rep) {
          for (Tag& tag : tags) {
            tag.resetForRound();
          }
          protocol.runWithSnapshot(engine, tags, rng, soa);
        }
        const double elapsed = secondsSince(t0);
        pass.allocs = currentAllocCount() -
                      allocsBefore;
        pass.slots = pass.metrics.detectedCensus().total() - warmupSlots;
        pass.slotsPerSec = static_cast<double>(pass.slots) / elapsed;
        return pass;
      };
  struct CensusSweep {
    CensusPass scalar;
    CensusPass batch;
    bool matches = false;
    double speedup = 0.0;
  };
  const auto runCensusSweep =
      [&](const rfid::core::DetectionScheme& censusScheme) {
        CensusSweep sweep;
        sweep.scalar = runCensusPass(
            censusScheme, rfid::anticollision::Protocol::FrameMode::kScalar);
        sweep.batch = runCensusPass(
            censusScheme, rfid::anticollision::Protocol::FrameMode::kBatched);
        sweep.matches =
            metricsMatch(sweep.batch.metrics, sweep.scalar.metrics) &&
            sweep.batch.metrics.frames() == sweep.scalar.metrics.frames() &&
            sweep.batch.slots == sweep.scalar.slots;
        sweep.speedup = sweep.batch.slotsPerSec / sweep.scalar.slotsPerSec;
        return sweep;
      };
  const CensusSweep qcdCensus = runCensusSweep(scheme);
  const rfid::core::CrcCdScheme crcCensusScheme(air);
  const CensusSweep crcCensus = runCensusSweep(crcCensusScheme);

  std::printf("engine : %12.0f slots/sec  (%llu allocs / %zu slots)\n",
              hotSlotsPerSec, static_cast<unsigned long long>(hotAllocs),
              kMeasuredSlots);
  std::printf("engine+registry: %4.0f slots/sec  (%llu allocs / %zu slots)\n",
              observedSlotsPerSec,
              static_cast<unsigned long long>(observedAllocs), kMeasuredSlots);
  std::printf("engine+impair : %5.0f slots/sec  (%llu allocs / %zu slots)\n",
              impairedSlotsPerSec,
              static_cast<unsigned long long>(impairedAllocs), kMeasuredSlots);
  const double batchSpeedup = batchSlotsPerSec / hotSlotsPerSec;
  std::printf("batch  : %12.0f slots/sec  (%llu allocs / %zu slots, "
              "metrics %s hot path)\n",
              batchSlotsPerSec, static_cast<unsigned long long>(batchAllocs),
              kMeasuredSlots, batchMatchesHot ? "==" : "!=");
  std::printf("batch speedup vs hot: %.2fx\n", batchSpeedup);
  const auto printCensusSweep = [](const char* label,
                                   const CensusSweep& sweep) {
    std::printf("census %-7s scalar : %12.0f slots/sec  (%llu allocs / %llu "
                "slots)\n",
                label, sweep.scalar.slotsPerSec,
                static_cast<unsigned long long>(sweep.scalar.allocs),
                static_cast<unsigned long long>(sweep.scalar.slots));
    std::printf("census %-7s batched: %12.0f slots/sec  (%llu allocs / %llu "
                "slots, metrics %s scalar)\n",
                label, sweep.batch.slotsPerSec,
                static_cast<unsigned long long>(sweep.batch.allocs),
                static_cast<unsigned long long>(sweep.batch.slots),
                sweep.matches ? "==" : "!=");
    std::printf("census %-7s frame batch speedup: %.2fx\n", label,
                sweep.speedup);
  };
  printCensusSweep("QCD", qcdCensus);
  printCensusSweep("CRC-CD", crcCensus);

  auto& rep = rfid::bench::report();
  rep.addResult("hot_slots_per_sec", std::nullopt, std::nullopt,
                   hotSlotsPerSec);
  rep.addResult("observed_slots_per_sec", std::nullopt, std::nullopt,
                   observedSlotsPerSec);
  rep.addResult("steady_state_allocs", std::nullopt, /*closedForm=*/0.0,
                   static_cast<double>(hotAllocs));
  rep.addResult("steady_state_allocs_with_registry", std::nullopt,
                   /*closedForm=*/0.0, static_cast<double>(observedAllocs));
  rep.addResult("steady_state_allocs_with_impairments", std::nullopt,
                   /*closedForm=*/0.0, static_cast<double>(impairedAllocs));
  rep.addResult("impaired_slots_per_sec", std::nullopt, std::nullopt,
                   impairedSlotsPerSec);
  rep.addResult("batch_slots_per_sec", std::nullopt, std::nullopt,
                   batchSlotsPerSec);
  rep.addResult("batch_speedup_vs_hot", /*paper=*/std::nullopt,
                   /*closedForm=*/3.0, batchSpeedup);
  rep.addResult("steady_state_allocs_batch", std::nullopt,
                   /*closedForm=*/0.0, static_cast<double>(batchAllocs));
  rep.addResult("batch_matches_hot_metrics", std::nullopt,
                   /*closedForm=*/1.0, batchMatchesHot ? 1.0 : 0.0);
  rep.addResult("slots_measured", std::nullopt, std::nullopt,
                   static_cast<double>(kMeasuredSlots));
  // CRC-CD sweep carries the acceptance bars; QCD entries are informative.
  rep.addResult("frame_census_slots_per_sec", std::nullopt, std::nullopt,
                   crcCensus.scalar.slotsPerSec);
  rep.addResult("frame_census_batch_slots_per_sec", std::nullopt,
                   std::nullopt, crcCensus.batch.slotsPerSec);
  rep.addResult("frame_batch_speedup", /*paper=*/std::nullopt,
                   /*closedForm=*/2.0, crcCensus.speedup);
  rep.addResult("steady_state_allocs_frame_batch", std::nullopt,
                   /*closedForm=*/0.0,
                   static_cast<double>(crcCensus.batch.allocs));
  rep.addResult("frame_batch_matches_scalar", std::nullopt,
                   /*closedForm=*/1.0, crcCensus.matches ? 1.0 : 0.0);
  rep.addResult("frame_census_slots", std::nullopt, std::nullopt,
                   static_cast<double>(crcCensus.batch.slots));
  rep.addResult("frame_census_qcd_slots_per_sec", std::nullopt, std::nullopt,
                   qcdCensus.scalar.slotsPerSec);
  rep.addResult("frame_census_qcd_batch_slots_per_sec", std::nullopt,
                   std::nullopt, qcdCensus.batch.slotsPerSec);
  rep.addResult("frame_batch_qcd_speedup", std::nullopt, std::nullopt,
                   qcdCensus.speedup);
  rep.addResult("steady_state_allocs_frame_batch_qcd", std::nullopt,
                   /*closedForm=*/0.0,
                   static_cast<double>(qcdCensus.batch.allocs));
  rep.addResult("frame_batch_qcd_matches_scalar", std::nullopt,
                   /*closedForm=*/1.0, qcdCensus.matches ? 1.0 : 0.0);
  rfid::bench::printFooter();

  if (hotAllocs != 0 || observedAllocs != 0 || impairedAllocs != 0 ||
      batchAllocs != 0) {
    std::fprintf(stderr,
                 "FAIL: engine hot path performed %llu (+%llu with registry, "
                 "+%llu with impairments, +%llu batched) heap allocations at "
                 "steady state (expected 0)\n",
                 static_cast<unsigned long long>(hotAllocs),
                 static_cast<unsigned long long>(observedAllocs),
                 static_cast<unsigned long long>(impairedAllocs),
                 static_cast<unsigned long long>(batchAllocs));
    return 1;
  }
  if (!batchMatchesHot) {
    std::fprintf(stderr,
                 "FAIL: batched kernel metrics diverged from the per-slot hot "
                 "path on the same schedule and seed\n");
    return 1;
  }
  if (qcdCensus.batch.allocs != 0 || crcCensus.batch.allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: frame-batched census performed %llu (QCD) / %llu "
                 "(CRC-CD) heap allocations at steady state (expected 0)\n",
                 static_cast<unsigned long long>(qcdCensus.batch.allocs),
                 static_cast<unsigned long long>(crcCensus.batch.allocs));
    return 1;
  }
  if (!qcdCensus.matches || !crcCensus.matches) {
    std::fprintf(stderr,
                 "FAIL: frame-batched census metrics diverged from the scalar "
                 "frame loop on the same seed (QCD match=%d, CRC-CD "
                 "match=%d)\n",
                 qcdCensus.matches ? 1 : 0, crcCensus.matches ? 1 : 0);
    return 1;
  }
  return 0;
}
