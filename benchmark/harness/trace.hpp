// Tracing for the benchmark's per-layer run: an in-memory span recorder,
// forwarding decorators that time every call into the detection scheme and
// the channel, and a census rebuilt from the library's public calls so each
// layer gets its own span. The library itself stays clock-free; all timing
// lives here.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "anticollision/experiment.hpp"
#include "bench_stats.hpp"
#include "core/detection_scheme.hpp"
#include "phy/channel.hpp"
#include "tags/tag.hpp"

namespace rfidbench {

/// Heap allocations (operator new calls) made so far by this process.
std::uint64_t allocationCount() noexcept;

/// Fine-grained calls the decorators fold into their enclosing span as one
/// (calls, units, time) record instead of a span each.
enum class Op : std::uint8_t {
  kStaticSignal,   ///< packedStaticSignal (SoA gather, kStatic schemes)
  kDraw,           ///< packedDraw / packedDrawRun (units: signals drawn)
  kSignal,         ///< contentionSignal(Into), the per-slot scalar path
  kClassify,       ///< classify (units: slots, one per call)
  kClassifyPacked, ///< classifyPacked (units: slots in the batch)
  kSuperpose,      ///< Channel::superposeInto
};
inline constexpr std::size_t kOpCount = 6;
const char* opName(Op op);

struct Fold {
  std::uint64_t calls = 0;
  std::uint64_t units = 0;
  std::int64_t ns = 0;
};

struct Span {
  std::string name;
  std::int64_t parent = -1;  ///< index of the parent span; -1 for a root
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  std::array<Fold, kOpCount> folds{};

  std::int64_t durationNs() const noexcept { return endNs - startNs; }
  std::int64_t foldedNs() const noexcept;
};

/// Records spans in memory; open()/close() nest, fold() charges a timed call
/// to the innermost open span. At construction the tracer measures the cost
/// of one clock read, which fold() subtracts from every call, and the whole
/// cost a decorator adds per call, which correctedNs() takes off the span.
class Tracer {
 public:
  Tracer();

  /// Nanoseconds since the tracer was created (steady clock).
  std::int64_t now() const noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  std::size_t open(std::string name);
  void close() noexcept;
  /// A finished span with explicit bounds, outside the open/close nesting.
  std::size_t add(std::string name, std::int64_t parent, std::int64_t startNs,
                  std::int64_t endNs);
  /// Charges the call that started at `startNs` (and ends now) to `op`.
  void fold(Op op, std::uint64_t units, std::int64_t startNs) noexcept;

  const std::vector<Span>& spans() const noexcept { return spans_; }
  /// A span's duration less the decorator cost of the calls folded into it
  /// (its own folds; a child span's are in the child's duration).
  double correctedNs(const Span& s) const noexcept;

  /// Chrome trace-event JSON (one "X" event per span, folds in its args).
  void writeChromeTrace(std::ostream& out, const std::string& process) const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::int64_t timerCostNs_ = 0;
  /// Wall time one folded call adds to its span beyond the call itself.
  double callCostNs_ = 0.0;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// Forwards every call to `inner`, timing the per-slot and gather-time ones.
class TimedScheme final : public rfid::core::DetectionScheme {
 public:
  TimedScheme(const rfid::core::DetectionScheme& inner, Tracer& tracer);

  std::string name() const override { return inner_.name(); }
  std::size_t contentionBits() const override {
    return inner_.contentionBits();
  }
  rfid::common::BitVec contentionSignal(
      const rfid::tags::Tag& tag, rfid::common::Rng& tagRng) const override;
  void contentionSignalInto(const rfid::tags::Tag& tag,
                            rfid::common::Rng& tagRng,
                            rfid::common::BitVec& out) const override;
  rfid::phy::SlotType classify(
      const std::optional<rfid::common::BitVec>& signal,
      std::size_t trueResponders) const override;
  bool idIsInContention() const override { return inner_.idIsInContention(); }
  rfid::common::BitVec idFromContention(
      const rfid::common::BitVec& signal) const override {
    return inner_.idFromContention(signal);
  }
  rfid::phy::SlotTiming timing() const override { return inner_.timing(); }
  PackedKind packedKind() const noexcept override {
    return inner_.packedKind();
  }
  void packedStaticSignal(const rfid::tags::Tag& tag,
                          std::uint64_t* out) const override;
  void packedDraw(rfid::common::Rng& tagRng,
                  std::uint64_t* out) const override;
  void packedDrawRun(rfid::common::Rng& tagRng, std::size_t n,
                     std::uint64_t* out) const override;
  void classifyPacked(const std::uint64_t* superposed,
                      const std::uint32_t* slotOffsets, std::size_t count,
                      rfid::phy::SlotType* out) const override;

 private:
  const rfid::core::DetectionScheme& inner_;
  Tracer& tracer_;
};

/// Forwards every call to `inner`, timing superposeInto.
class TimedChannel final : public rfid::phy::Channel {
 public:
  TimedChannel(rfid::phy::Channel& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  void beginSlot(std::uint64_t slotIndex) override {
    inner_.beginSlot(slotIndex);
  }
  bool isPureOr() const noexcept override { return inner_.isPureOr(); }
  void superposeInto(std::span<const rfid::common::BitVec> transmissions,
                     rfid::common::Rng& rng,
                     rfid::phy::Reception& out) override;

 private:
  rfid::phy::Channel& inner_;
  Tracer& tracer_;
};

struct TracedCensus {
  CensusSummary summary;
  rfid::phy::ImpairmentStats channel;
};

/// Round 0 of runExperiment(config) with config.seed = censusSeed and
/// rounds = 1, rebuilt from public calls (makeScheme, makeProtocol,
/// makeUniformPopulation, TagSoA::gather, Protocol::runWithSnapshot) with
/// the scheme and channel wrapped in the timed decorators. Records a root
/// span `label` with children tags.population, core.scheme_build,
/// sim.gather, anticollision.run and anticollision.recovery. The outcome is
/// bit-identical to the untraced census (the self-tests check it).
TracedCensus runTracedCensus(const rfid::anticollision::ExperimentConfig& config,
                             std::uint64_t censusSeed, Tracer& tracer,
                             std::string label);

}  // namespace rfidbench
