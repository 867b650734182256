#include "trace.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "anticollision/protocol.hpp"
#include "phy/impairments/impaired_channel.hpp"
#include "sim/engine.hpp"
#include "sim/tag_soa.hpp"
#include "tags/population.hpp"

namespace rfidbench {

namespace ac = rfid::anticollision;

const char* opName(Op op) {
  switch (op) {
    case Op::kStaticSignal:
      return "core.static_signal";
    case Op::kDraw:
      return "core.draw";
    case Op::kSignal:
      return "core.signal";
    case Op::kClassify:
      return "core.classify";
    case Op::kClassifyPacked:
      return "core.classify_packed";
    case Op::kSuperpose:
      return "phy.superpose";
  }
  return "?";
}

std::int64_t Span::foldedNs() const noexcept {
  std::int64_t total = 0;
  for (const Fold& f : folds) total += f.ns;
  return total;
}

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {
  // Median cost of one clock read, taken between back-to-back reads.
  std::vector<std::int64_t> gaps(2001);
  for (std::int64_t& gap : gaps) {
    const std::int64_t a = now();
    gap = now() - a;
  }
  std::nth_element(gaps.begin(), gaps.begin() + 1000, gaps.end());
  timerCostNs_ = gaps[1000];

  // Wall cost a decorator adds around each call it folds, charged to the
  // enclosing span; measured on empty calls into a scratch span.
  constexpr int kCalls = 20000;
  open("calibration");
  const std::int64_t start = now();
  for (int i = 0; i < kCalls; ++i) fold(Op::kDraw, 1, now());
  callCostNs_ = static_cast<double>(now() - start) / kCalls;
  close();
  spans_.clear();
}

std::size_t Tracer::open(std::string name) {
  const std::int64_t parent =
      stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
  spans_.push_back(Span{std::move(name), parent, now(), 0, {}});
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::close() noexcept {
  spans_[stack_.back()].endNs = now();
  stack_.pop_back();
}

std::size_t Tracer::add(std::string name, std::int64_t parent,
                        std::int64_t startNs, std::int64_t endNs) {
  spans_.push_back(Span{std::move(name), parent, startNs, endNs, {}});
  return spans_.size() - 1;
}

void Tracer::fold(Op op, std::uint64_t units, std::int64_t startNs) noexcept {
  const std::int64_t elapsed = now() - startNs - timerCostNs_;
  if (stack_.empty()) return;
  Fold& f = spans_[stack_.back()].folds[static_cast<std::size_t>(op)];
  ++f.calls;
  f.units += units;
  f.ns += std::max<std::int64_t>(elapsed, 0);
}

double Tracer::correctedNs(const Span& s) const noexcept {
  std::uint64_t calls = 0;
  for (const Fold& f : s.folds) calls += f.calls;
  return static_cast<double>(s.durationNs()) -
         static_cast<double>(calls) * callCostNs_;
}

void Tracer::writeChromeTrace(std::ostream& out,
                              const std::string& process) const {
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
         "\"args\":{\"name\":\""
      << process << "\"}}";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << ",\n{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,"
        << "\"tid\":1,\"ts\":" << static_cast<double>(s.startNs) / 1000.0
        << ",\"dur\":" << static_cast<double>(s.durationNs()) / 1000.0
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent;
    out << ",\"self_ns\":"
        << std::llround(correctedNs(s) - static_cast<double>(s.foldedNs()));
    for (std::size_t k = 0; k < kOpCount; ++k) {
      const Fold& f = s.folds[k];
      if (f.calls == 0) continue;
      out << ",\"" << opName(static_cast<Op>(k)) << "\":{\"calls\":"
          << f.calls << ",\"units\":" << f.units << ",\"ns\":" << f.ns << "}";
    }
    out << "}}";
  }
  out << "\n]}\n";
}

TimedScheme::TimedScheme(const rfid::core::DetectionScheme& inner,
                         Tracer& tracer)
    : DetectionScheme(inner.air()), inner_(inner), tracer_(tracer) {}

rfid::common::BitVec TimedScheme::contentionSignal(
    const rfid::tags::Tag& tag, rfid::common::Rng& tagRng) const {
  const std::int64_t t0 = tracer_.now();
  rfid::common::BitVec v = inner_.contentionSignal(tag, tagRng);
  tracer_.fold(Op::kSignal, 1, t0);
  return v;
}

void TimedScheme::contentionSignalInto(const rfid::tags::Tag& tag,
                                       rfid::common::Rng& tagRng,
                                       rfid::common::BitVec& out) const {
  const std::int64_t t0 = tracer_.now();
  inner_.contentionSignalInto(tag, tagRng, out);
  tracer_.fold(Op::kSignal, 1, t0);
}

rfid::phy::SlotType TimedScheme::classify(
    const std::optional<rfid::common::BitVec>& signal,
    std::size_t trueResponders) const {
  const std::int64_t t0 = tracer_.now();
  const rfid::phy::SlotType t = inner_.classify(signal, trueResponders);
  tracer_.fold(Op::kClassify, 1, t0);
  return t;
}

void TimedScheme::packedStaticSignal(const rfid::tags::Tag& tag,
                                     std::uint64_t* out) const {
  const std::int64_t t0 = tracer_.now();
  inner_.packedStaticSignal(tag, out);
  tracer_.fold(Op::kStaticSignal, 1, t0);
}

void TimedScheme::packedDraw(rfid::common::Rng& tagRng,
                             std::uint64_t* out) const {
  const std::int64_t t0 = tracer_.now();
  inner_.packedDraw(tagRng, out);
  tracer_.fold(Op::kDraw, 1, t0);
}

void TimedScheme::packedDrawRun(rfid::common::Rng& tagRng, std::size_t n,
                                std::uint64_t* out) const {
  const std::int64_t t0 = tracer_.now();
  inner_.packedDrawRun(tagRng, n, out);
  tracer_.fold(Op::kDraw, n, t0);
}

void TimedScheme::classifyPacked(const std::uint64_t* superposed,
                                 const std::uint32_t* slotOffsets,
                                 std::size_t count,
                                 rfid::phy::SlotType* out) const {
  const std::int64_t t0 = tracer_.now();
  inner_.classifyPacked(superposed, slotOffsets, count, out);
  tracer_.fold(Op::kClassifyPacked, count, t0);
}

void TimedChannel::superposeInto(
    std::span<const rfid::common::BitVec> transmissions,
    rfid::common::Rng& rng, rfid::phy::Reception& out) {
  const std::int64_t t0 = tracer_.now();
  inner_.superposeInto(transmissions, rng, out);
  tracer_.fold(Op::kSuperpose, 1, t0);
}

TracedCensus runTracedCensus(const ac::ExperimentConfig& config,
                             std::uint64_t censusSeed, Tracer& tracer,
                             std::string label) {
  if (config.captureProbability > 0.0 || config.observer != nullptr) {
    throw std::invalid_argument(
        "traced census supports the plain OR channel without observers");
  }
  TracedCensus out;
  tracer.open(std::move(label));
  // runExperiment hands round 0 this stream; only the population draws and
  // the protocol consume it, in the same order as below.
  rfid::common::Rng rng = rfid::common::Rng::forStream(censusSeed, 0);

  tracer.open("tags.population");
  std::vector<rfid::tags::Tag> population =
      rfid::tags::makeUniformPopulation(config.tagCount, config.air.idBits,
                                        rng);
  tracer.close();

  tracer.open("core.scheme_build");
  const std::unique_ptr<rfid::core::DetectionScheme> scheme =
      ac::makeScheme(config.scheme, config.qcdStrength, config.air,
                     config.qcdChargeIdPhase);
  tracer.close();
  const TimedScheme timedScheme(*scheme, tracer);

  rfid::phy::OrChannel orChannel;
  rfid::phy::ImpairedChannel impaired(
      orChannel, rfid::phy::impairmentStreamSeed(censusSeed, 0));
  const bool impairmentsOn = impaired.addImpairment(config.impairment);
  TimedChannel timedChannel(
      impairmentsOn ? static_cast<rfid::phy::Channel&>(impaired) : orChannel,
      tracer);

  rfid::sim::Metrics metrics;
  rfid::sim::SlotEngine engine(timedScheme, timedChannel, metrics);
  engine.setRecoveryPolicy(config.recovery);

  tracer.open("sim.gather");
  rfid::sim::TagSoA soa;
  soa.gather(population, timedScheme);
  tracer.close();

  tracer.open("anticollision.run");
  const std::unique_ptr<ac::Protocol> protocol =
      ac::makeProtocol(config.protocol, config.frameSize, config.maxSlots);
  protocol->setFrameMode(config.frameMode);
  (void)protocol->runWithSnapshot(engine, population, rng, soa);
  tracer.close();

  // The same re-census loop runExperiment runs after the protocol.
  tracer.open("anticollision.recovery");
  unsigned passes = 0;
  for (unsigned pass = 0; pass < config.recoveryMaxPasses; ++pass) {
    const bool anyActive = std::any_of(
        population.begin(), population.end(),
        [](const rfid::tags::Tag& t) {
          return !t.blocker && !t.believesIdentified;
        });
    if (!anyActive) break;
    const std::uint64_t identifiedBefore = metrics.identified();
    const std::unique_ptr<ac::Protocol> retry =
        ac::makeProtocol(config.protocol, config.frameSize, config.maxSlots);
    retry->setFrameMode(config.frameMode);
    ++passes;
    (void)retry->runWithSnapshot(engine, population, rng, soa);
    if (metrics.identified() == identifiedBefore) break;
  }
  tracer.close();
  if (impairmentsOn) metrics.setChannelStats(impaired.stats());

  tracer.close();
  out.channel = metrics.channelStats();
  out.summary = CensusSummary::of(metrics, config.tagCount, passes);
  return out;
}

}  // namespace rfidbench
