#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <fstream>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>

#include "anticollision/experiment.hpp"
#include "bench_stats.hpp"
#include "common/rng.hpp"
#include "crc/crc.hpp"
#include "service/inventory_service.hpp"
#include "service/loadgen.hpp"
#include "tags/population.hpp"
#include "trace.hpp"

namespace rfidbench {
namespace {

namespace ac = rfid::anticollision;
namespace svc = rfid::service;
using rfid::common::Rng;
using Clock = std::chrono::steady_clock;

// --- run shape ------------------------------------------------------------
constexpr std::size_t kWarmupCensuses = 10;
constexpr std::size_t kWarmupRequests = 200;
/// Set-up is repeated this many times and its median reported.
constexpr std::size_t kSetupRepeats = 5;
/// p90 with ten samples beyond it, so traced percentiles are p50 and p90.
constexpr std::size_t kMinTracedCount = 100;
constexpr double kQuickShare = 0.02;
/// Censuses per block of the quiet-block estimators (bench_stats.hpp): the
/// host's quiet stretches are often shorter than a second, and on recorded
/// runs blocks of 5 censuses (about 10-80 ms) spread less from run to run than
/// blocks of 20 or more.
constexpr std::size_t kBlockCensuses = 5;

// --- service_mix ------------------------------------------------------------
constexpr double kNominalPerSec = 2000.0;
/// Requests of the nominal phase (5 s at the nominal rate) and of each SLO
/// probe.
constexpr std::size_t kNominalRequests = 10000;
constexpr std::size_t kProbeRequests = 2500;
constexpr double kRateCeilingPerSec = 16000.0;
constexpr double kServiceResolution = 0.05;
constexpr double kServiceSloMs = 20.0;
constexpr std::size_t kReplayChecks = 20;
/// One request in this many is heavy (5%).
constexpr std::size_t kMixGroup = 20;

// Stream indices under --seed. Timed census k uses stream k.
constexpr std::uint64_t kWarmupStream = 1ull << 40;
constexpr std::uint64_t kServiceStream = 3ull << 40;
constexpr std::uint64_t kMixStream = 4ull << 40;
constexpr std::uint64_t kArrivalStream = 5ull << 40;

std::uint64_t streamSeed(std::uint64_t seed, std::uint64_t stream) {
  Rng rng = Rng::forStream(seed, stream);
  return rng();
}

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Peak resident set of this process image. Linux carries ru_maxrss across
/// fork and exec, so getrusage would report the launching interpreter's
/// peak when it is larger; VmHWM belongs to this image alone.
double peakRssMb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return interpolatedPercentile(v, 50.0);
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4g", v);
  return buf;
}

std::string countCheck(std::size_t bad, std::size_t of, const char* what) {
  return std::to_string(bad) + " of " + std::to_string(of) + " " + what;
}

// --- metric tables ----------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics; every workload reports all. The two p99s,
/// sojourn_ms_p50 and max_rate_under_slo are not in BENCHMARK.json: on a
/// shared host their run-to-run spread is wider than any bound it allows, so
/// they are printed and compared but not gated.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"census_per_s", "census/s"},
    {"slots_per_s", "slots/s"},
    {"census_ms_p50", "ms"},
    {"census_ms_p99", "ms"},
    {"sojourn_ms_p50", "ms"},
    {"sojourn_ms_p99", "ms"},
    {"max_rate_under_slo", "req/s"},
    {"peak_rss_mb", "MB"},
    {"success_frac", "ratio"},
};

/// Per-layer metrics of the traced run, in BENCHMARK.json order. Every
/// workload reports all: census workloads also push their censuses through
/// a closed-loop service, and service_mix also traces its censuses.
constexpr MetricDef kPerLayer[] = {
    {"tags.population_ms", "ms"},
    {"common.allocs_per_census", "count"},
    {"core.scheme_build_us", "us"},
    {"core.static_signal_calls", "count"},
    {"core.draw_calls", "count"},
    {"core.signal_calls", "count"},
    {"core.encode_ms", "ms"},
    {"core.classify_slots", "count"},
    {"core.classify_ms", "ms"},
    {"crc.ns_per_id", "ns"},
    {"phy.superpose_calls", "count"},
    {"phy.bits_flipped", "count"},
    {"phy.slots_erased", "count"},
    {"sim.gather_ms", "ms"},
    {"sim.slots", "count"},
    {"sim.batched_slot_frac", "ratio"},
    {"sim.slots_per_batch", "count"},
    {"anticollision.run_ms", "ms"},
    {"anticollision.run_self_ms", "ms"},
    {"anticollision.frames", "count"},
    {"anticollision.recovery_passes", "count"},
    {"anticollision.throughput", "ratio"},
    {"service.submit_us_p90", "us"},
    {"service.queue_wait_ms_p50", "ms"},
    {"service.queue_wait_ms_p90", "ms"},
    {"service.census_ms_p50", "ms"},
    {"service.census_ms_p90", "ms"},
    {"service.max_queue_depth", "count"},
    {"loadgen.lag_ms_p90", "ms"},
    {"trace.overhead_frac", "ratio"},
};

/// Values by name plus the sample count behind each percentile.
struct Values {
  std::map<std::string, std::optional<double>> value;
  std::map<std::string, std::size_t> samples;

  void set(const std::string& name, std::optional<double> v,
           std::size_t n = 0) {
    value[name] = v;
    samples[name] = n;
  }
  void setPct(const std::string& name, const std::vector<double>& v,
              double p) {
    set(name, reportablePercentile(v, p), v.size());
  }
};

template <std::size_t N>
std::vector<Metric> emit(const MetricDef (&defs)[N], const Values& values) {
  std::vector<Metric> out;
  for (const MetricDef& d : defs) {
    const auto it = values.value.find(d.name);
    if (it == values.value.end()) {
      throw std::logic_error(std::string("metric not measured: ") + d.name);
    }
    out.push_back(Metric{d.name, it->second, d.unit, values.samples.at(d.name)});
  }
  return out;
}

std::size_t tracedCount(std::size_t count) {
  return std::min(count, std::max(kMinTracedCount, count / 10));
}

std::size_t quickCount(std::size_t full, const RunOptions& o) {
  if (!o.quick) return full;
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::llround(static_cast<double>(full) * kQuickShare)));
}

void writeTrace(const Tracer& tracer, const std::string& name,
                const RunOptions& o) {
  std::ofstream out(o.traceOut);
  tracer.writeChromeTrace(out, name);
  if (!out) throw std::runtime_error("cannot write " + o.traceOut);
}

// --- service plumbing -------------------------------------------------------

struct Sent {
  std::int64_t dueNs = 0;
  std::int64_t submitNs = 0;
  std::int64_t returnNs = 0;
  svc::CensusResponse response;

  bool completed() const {
    return response.outcome == svc::CensusOutcome::kCompleted;
  }
  /// The service's queue clock starts inside submit(), so completion is the
  /// submit time plus its queue wait and census time.
  std::int64_t doneNs() const {
    return submitNs + std::llround((response.queueWaitMicros +
                                    response.serviceMicros) * 1e3);
  }
  /// Due time to completion, so generator lateness counts.
  double sojournMs() const {
    return static_cast<double>(doneNs() - dueNs) / 1e6;
  }
};

struct Phase {
  std::int64_t startNs = 0;
  std::vector<Sent> sent;
};

std::string digestOf(const Sent& s) {
  return CensusSummary::of(s.response.result).digest();
}

/// Open loop: each request is submitted at its Poisson due time, whatever
/// the service is doing. Returns once every request resolved. The generator
/// spins between arrivals: a sleep overshoots by tens of microseconds, as
/// much as a light request's census, and lets its CPU go cold.
Phase drive(svc::InventoryService& service,
            const std::vector<svc::CensusRequest>& requests, double rate,
            std::uint64_t arrivalSeed, const Tracer& clock) {
  Rng arrivalRng = Rng::forStream(arrivalSeed, 0);
  const std::vector<double> arrivals =
      svc::poissonArrivalsSeconds(requests.size(), rate, arrivalRng);
  Phase p;
  p.sent.resize(requests.size());
  std::vector<std::future<svc::CensusResponse>> futures;
  futures.reserve(requests.size());
  p.startNs = clock.now() + 1'000'000;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    Sent& s = p.sent[i];
    s.dueNs = p.startNs + std::llround(arrivals[i] * 1e9);
    while (clock.now() < s.dueNs) {
    }
    s.submitNs = clock.now();
    futures.push_back(service.submit(requests[i]));
    s.returnNs = clock.now();
  }
  for (std::size_t i = 0; i < requests.size(); ++i) {
    p.sent[i].response = futures[i].get();
  }
  service.drain();
  return p;
}

/// Closed loop with one client: each request is due when the previous
/// response arrives.
Phase closedLoop(svc::InventoryService& service,
                 const std::vector<svc::CensusRequest>& requests,
                 const Tracer& clock) {
  Phase p;
  p.sent.resize(requests.size());
  p.startNs = clock.now();
  std::int64_t due = p.startNs;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    Sent& s = p.sent[i];
    s.dueNs = due;
    s.submitNs = clock.now();
    std::future<svc::CensusResponse> f = service.submit(requests[i]);
    s.returnNs = clock.now();
    s.response = f.get();
    due = clock.now();
  }
  return p;
}

LoadPoint loadPoint(const Phase& p) {
  LoadPoint lp;
  std::int64_t lastDue = p.startNs;
  for (const Sent& s : p.sent) lastDue = std::max(lastDue, s.dueNs);
  std::size_t doneByLastDue = 0;
  for (const Sent& s : p.sent) {
    if (!s.completed()) {
      ++lp.rejected;
      lp.sojournMs.push_back(std::numeric_limits<double>::infinity());
      continue;
    }
    doneByLastDue += s.doneNs() <= lastDue;
    lp.sojournMs.push_back(s.sojournMs());
  }
  const double window = static_cast<double>(lastDue - p.startNs) / 1e9;
  lp.offeredPerSec = static_cast<double>(p.sent.size()) / window;
  lp.completedPerSec = static_cast<double>(doneByLastDue) / window;
  return lp;
}

void countOutcomes(const Phase& p, RunResult& res) {
  res.attempted = p.sent.size();
  for (const Sent& s : p.sent) {
    if (!s.completed()) {
      ++res.failed;
    } else if (res.digests.size() < kGoldenDigests) {
      res.digests.push_back(digestOf(s));
    }
  }
  res.checks.push_back({"requests_completed", res.failed == 0,
                        countCheck(res.failed, p.sent.size(), "rejected")});
}

/// Service-layer metrics of a phase, and each request's spans.
void serviceLayers(const Phase& p, std::uint64_t maxQueueDepth,
                   const std::string& label, Tracer& tracer, Values& v) {
  std::vector<double> submitUs, lagMs, waitMs, censusMs;
  for (std::size_t i = 0; i < p.sent.size(); ++i) {
    const Sent& s = p.sent[i];
    const auto root = static_cast<std::int64_t>(tracer.add(
        label + ":" + std::to_string(i), -1, s.dueNs, s.doneNs()));
    const std::int64_t dequeued =
        s.submitNs + std::llround(s.response.queueWaitMicros * 1e3);
    tracer.add("loadgen.lag", root, s.dueNs, s.submitNs);
    tracer.add("service.submit", root, s.submitNs, s.returnNs);
    tracer.add("service.queue_wait", root, s.submitNs, dequeued);
    tracer.add("service.census", root, dequeued, s.doneNs());
    submitUs.push_back(static_cast<double>(s.returnNs - s.submitNs) / 1e3);
    lagMs.push_back(static_cast<double>(s.submitNs - s.dueNs) / 1e6);
    if (!s.completed()) continue;
    waitMs.push_back(s.response.queueWaitMicros / 1e3);
    censusMs.push_back(s.response.serviceMicros / 1e3);
  }
  v.setPct("service.submit_us_p90", submitUs, 90.0);
  v.setPct("service.queue_wait_ms_p50", waitMs, 50.0);
  v.setPct("service.queue_wait_ms_p90", waitMs, 90.0);
  v.setPct("service.census_ms_p50", censusMs, 50.0);
  v.setPct("service.census_ms_p90", censusMs, 90.0);
  v.set("service.max_queue_depth", static_cast<double>(maxQueueDepth));
  v.setPct("loadgen.lag_ms_p90", lagMs, 90.0);
}

// --- the traced census pass -------------------------------------------------

/// Sums over the spans of a traced pass.
struct SpanTotals {
  double populationNs = 0, schemeNs = 0, gatherNs = 0, runNs = 0,
         runCoreNs = 0;
  std::array<Fold, kOpCount> folds{};

  explicit SpanTotals(const Tracer& tracer) {
    for (const Span& s : tracer.spans()) {
      for (std::size_t k = 0; k < kOpCount; ++k) {
        folds[k].calls += s.folds[k].calls;
        folds[k].units += s.folds[k].units;
        folds[k].ns += s.folds[k].ns;
      }
      const double d = tracer.correctedNs(s);
      if (s.name == "tags.population") populationNs += d;
      if (s.name == "core.scheme_build") schemeNs += d;
      if (s.name == "sim.gather") gatherNs += d;
      if (s.name == "anticollision.run" ||
          s.name == "anticollision.recovery") {
        runNs += d;
        runCoreNs += static_cast<double>(
            s.foldedNs() - s.folds[static_cast<std::size_t>(Op::kSuperpose)].ns);
      }
    }
  }
  const Fold& operator[](Op op) const {
    return folds[static_cast<std::size_t>(op)];
  }
};

/// Keeps the timed CRC loop's result observable.
volatile std::uint64_t gCrcSink = 0;

/// Median ns per ID of CrcEngine::computeBits over the IDs of `config`'s
/// population, drawn as its census draws them, and at least 20 000 of
/// them: the serial CRC branches on every bit, and a few IDs timed over
/// and over would let the branch predictor learn them.
double crcNsPerId(const ac::ExperimentConfig& config) {
  Rng rng = Rng::forStream(config.seed, 0);
  const std::vector<rfid::tags::Tag> population =
      rfid::tags::makeUniformPopulation(
          std::max<std::size_t>(config.tagCount, 20000), config.air.idBits,
          rng);
  const rfid::crc::CrcEngine engine(rfid::crc::crc32());
  std::vector<double> perId;
  std::uint64_t acc = 0;
  for (int pass = 0; pass < 5; ++pass) {
    const auto t0 = Clock::now();
    for (const rfid::tags::Tag& t : population) acc ^= engine.computeBits(t.id);
    perId.push_back(secondsSince(t0) * 1e9 /
                    static_cast<double>(population.size()));
  }
  gCrcSink = acc;
  return median(perId);
}

/// Runs each census twice: plainly through runExperiment (timed, its heap
/// allocations counted), then rebuilt through the decorators, and gathers
/// the census-layer metrics.
class LayerProbe {
 public:
  explicit LayerProbe(Tracer& tracer) : tracer_(tracer) {}

  /// Returns the plain census of `config` (one round under config.seed).
  CensusSummary run(const ac::ExperimentConfig& config, std::string label) {
    if (plainMs_.empty()) first_ = config;
    const std::uint64_t a0 = allocationCount();
    auto t0 = Clock::now();
    const CensusSummary plain = CensusSummary::of(ac::runExperiment(config));
    plainMs_.push_back(secondsSince(t0) * 1e3);
    allocs_ += allocationCount() - a0;

    t0 = Clock::now();
    const TracedCensus tc =
        runTracedCensus(config, config.seed, tracer_, std::move(label));
    tracedMs_.push_back(secondsSince(t0) * 1e3);
    mismatches_ += tc.summary.digest() != plain.digest();
    slots_ += static_cast<double>(tc.summary.slots());
    frames_ += static_cast<double>(tc.summary.frames);
    passes_ += static_cast<double>(tc.summary.recoveryPasses);
    lambda_ += tc.summary.throughput;
    flipped_ += static_cast<double>(tc.channel.bitsFlipped());
    erased_ += static_cast<double>(tc.channel.slotsErased);
    return plain;
  }

  void report(Values& v, RunResult& res) const {
    res.checks.push_back({"traced_digests_match_untraced", mismatches_ == 0,
                          countCheck(mismatches_, plainMs_.size(), "differ")});
    const SpanTotals t(tracer_);
    const auto n = static_cast<double>(plainMs_.size());
    const auto per = [n](double v) { return v / n; };
    const auto msPer = [n](double ns) { return ns / n / 1e6; };
    const auto units = [&](Op op) { return static_cast<double>(t[op].units); };
    const auto ns = [&](Op op) { return static_cast<double>(t[op].ns); };
    const double classified = units(Op::kClassify) + units(Op::kClassifyPacked);

    v.set("tags.population_ms", msPer(t.populationNs));
    v.set("common.allocs_per_census", per(static_cast<double>(allocs_)));
    v.set("core.scheme_build_us", t.schemeNs / n / 1e3);
    // packedDrawRun(n) is specified as n packedDraw calls.
    v.set("core.static_signal_calls", per(units(Op::kStaticSignal)));
    v.set("core.draw_calls", per(units(Op::kDraw)));
    v.set("core.signal_calls", per(units(Op::kSignal)));
    v.set("core.encode_ms",
          msPer(ns(Op::kStaticSignal) + ns(Op::kDraw) + ns(Op::kSignal)));
    v.set("core.classify_slots", per(classified));
    v.set("core.classify_ms", msPer(ns(Op::kClassify) + ns(Op::kClassifyPacked)));
    v.set("crc.ns_per_id", crcNsPerId(first_));
    v.set("phy.superpose_calls", per(units(Op::kSuperpose)));
    v.set("phy.bits_flipped", per(flipped_));
    v.set("phy.slots_erased", per(erased_));
    v.set("sim.gather_ms", msPer(t.gatherNs));
    v.set("sim.slots", per(slots_));
    v.set("sim.batched_slot_frac", units(Op::kClassifyPacked) / slots_);
    const Fold& packed = t[Op::kClassifyPacked];
    v.set("sim.slots_per_batch",
          packed.calls == 0 ? 0.0
                            : units(Op::kClassifyPacked) /
                                  static_cast<double>(packed.calls));
    v.set("anticollision.run_ms", msPer(t.runNs));
    v.set("anticollision.run_self_ms", msPer(t.runNs - t.runCoreNs));
    v.set("anticollision.frames", per(frames_));
    v.set("anticollision.recovery_passes", per(passes_));
    v.set("anticollision.throughput", per(lambda_));
    v.set("trace.overhead_frac", median(tracedMs_) / median(plainMs_) - 1.0);
  }

 private:
  Tracer& tracer_;
  ac::ExperimentConfig first_;
  std::vector<double> plainMs_, tracedMs_;
  std::uint64_t allocs_ = 0;
  std::size_t mismatches_ = 0;
  double slots_ = 0, frames_ = 0, passes_ = 0, lambda_ = 0, flipped_ = 0,
         erased_ = 0;
};

// --- census workloads -------------------------------------------------------

struct CensusSpec {
  std::string name;
  ac::ExperimentConfig config;
  /// Timed censuses, the same on every commit: at least 1000, so that a p99
  /// has ten samples beyond it, and about run_seconds of BENCHMARK.json on
  /// the reference host (fsa_qcd_50k takes longer, at the 1000 floor).
  std::size_t count;
  /// Paper tolerance on mean λ; NaN when the paper gives none.
  double lambdaLo;
  double lambdaHi;
};

ac::ExperimentConfig oneRound(ac::ProtocolKind protocol, ac::SchemeKind scheme,
                              std::size_t tags, std::size_t frame) {
  ac::ExperimentConfig c;
  c.protocol = protocol;
  c.scheme = scheme;
  c.qcdStrength = 8;
  c.tagCount = tags;
  c.frameSize = frame;
  c.rounds = 1;
  c.threads = 1;
  return c;
}

const std::vector<CensusSpec>& censusSpecs() {
  static const std::vector<CensusSpec> specs = [] {
    constexpr double kNone = std::numeric_limits<double>::quiet_NaN();
    ac::ExperimentConfig bsc = oneRound(ac::ProtocolKind::kDfsaSchoute,
                                        ac::SchemeKind::kQcd, 5000, 3000);
    bsc.impairment.model = rfid::phy::ImpairmentModel::kBsc;
    bsc.impairment.tagToReaderBer = 1e-3;
    bsc.impairment.detectionBer = 1e-3;
    bsc.recovery.ackVerify = true;
    bsc.recoveryMaxPasses = 2;
    return std::vector<CensusSpec>{
        {"fsa_qcd_50k",
         oneRound(ac::ProtocolKind::kFsa, ac::SchemeKind::kQcd, 50000, 30000),
         1000, 0.18, 0.21},
        {"dfsa_crc_5k",
         oneRound(ac::ProtocolKind::kDfsaSchoute, ac::SchemeKind::kCrcCd, 5000,
                  3000),
         1000, kNone, kNone},
        {"bt_crc_500",
         oneRound(ac::ProtocolKind::kBt, ac::SchemeKind::kCrcCd, 500, 300),
         1500, 0.337, 0.357},
        {"dfsa_qcd_bsc", bsc, 2000, kNone, kNone},
    };
  }();
  return specs;
}

CensusSummary runCensus(ac::ExperimentConfig config, std::uint64_t seed) {
  config.seed = seed;
  return CensusSummary::of(ac::runExperiment(config));
}

void warmUp(const CensusSpec& spec, const RunOptions& o) {
  for (std::size_t j = 0; j < kWarmupCensuses; ++j) {
    (void)runCensus(spec.config, streamSeed(o.seed, kWarmupStream + j));
  }
}

/// Outcome checks shared by the timed and the traced pass.
void checkCensuses(const CensusSpec& spec,
                   const std::vector<CensusSummary>& out, RunResult& res) {
  res.attempted = out.size();
  double lambda = 0;
  for (const CensusSummary& s : out) {
    res.failed += !s.complete;
    lambda += s.throughput;
  }
  lambda /= static_cast<double>(out.size());
  for (std::size_t k = 0; k < std::min(out.size(), kGoldenDigests); ++k) {
    res.digests.push_back(out[k].digest());
  }
  res.checks.push_back({"census_complete", res.failed == 0,
                        countCheck(res.failed, out.size(), "incomplete")});
  if (!std::isnan(spec.lambdaLo)) {
    res.checks.push_back(
        {"paper_throughput", lambda >= spec.lambdaLo && lambda <= spec.lambdaHi,
         "mean lambda " + fmt(lambda) + " in [" + fmt(spec.lambdaLo) + ", " +
             fmt(spec.lambdaHi) + "]"});
  }
}

/// The census request the service maps back to `c`.
svc::CensusRequest requestFor(const ac::ExperimentConfig& c) {
  svc::CensusRequest r;
  r.protocol = c.protocol;
  r.scheme = c.scheme;
  r.qcdStrength = c.qcdStrength;
  r.tagCount = c.tagCount;
  r.frameSize = c.frameSize;
  r.rounds = c.rounds;
  r.impairment = c.impairment;
  r.recovery = c.recovery;
  r.recoveryMaxPasses = c.recoveryMaxPasses;
  return r;
}

/// Per-layer run: a tenth of the timed count, each census run plainly and
/// through the decorators, then as many requests through a closed-loop
/// 1 × 1 service for the service layers.
RunResult traceCensusWorkload(const CensusSpec& spec, std::size_t count,
                              const RunOptions& o) {
  RunResult res;
  Tracer tracer;
  warmUp(spec, o);
  count = tracedCount(count);
  LayerProbe probe(tracer);
  std::vector<CensusSummary> out;
  for (std::size_t k = 0; k < count; ++k) {
    ac::ExperimentConfig config = spec.config;
    config.seed = streamSeed(o.seed, k);
    out.push_back(probe.run(config, spec.name + ":" + std::to_string(k)));
  }
  checkCensuses(spec, out, res);
  Values v;
  probe.report(v, res);

  svc::ServiceConfig sc;
  sc.queueCapacity = 1;
  sc.seed = streamSeed(o.seed, kServiceStream);
  svc::InventoryService service(sc);
  std::vector<svc::CensusRequest> requests(count, requestFor(spec.config));
  for (std::size_t i = 0; i < count; ++i) requests[i].seed = i;
  const Phase p = closedLoop(service, requests, tracer);
  std::size_t rejected = 0;
  for (const Sent& s : p.sent) rejected += !s.completed();
  res.checks.push_back({"closed_loop_requests_completed", rejected == 0,
                        countCheck(rejected, count, "rejected")});
  serviceLayers(p, service.counters().maxQueueDepth, spec.name + "/service",
                tracer, v);
  res.metrics = emit(kPerLayer, v);
  writeTrace(tracer, spec.name, o);
  return res;
}

RunResult runCensusWorkload(const CensusSpec& spec, const RunOptions& o) {
  const std::size_t count = quickCount(spec.count, o);
  if (o.trace) return traceCensusWorkload(spec, count, o);

  RunResult res;
  // Closed loop, one client: the next census starts when the last returns.
  // The set-up (the warm-up censuses) is timed kSetupRepeats times, spread
  // over the run: the host's speed changes from one second to the next, so
  // back-to-back set-ups would all sample the same state.
  std::vector<std::uint64_t> seeds;
  for (std::size_t k = 0; k < count; ++k) seeds.push_back(streamSeed(o.seed, k));
  const std::size_t setupEvery = std::max<std::size_t>(1, count / kSetupRepeats);
  std::vector<double> setupS, ms, gapS, slots, ones(count, 1.0);
  std::vector<CensusSummary> out;
  ms.reserve(count);
  gapS.reserve(count);
  slots.reserve(count);
  out.reserve(count);
  auto last = Clock::now();
  for (std::size_t k = 0; k < count; ++k) {
    if (k % setupEvery == 0 && setupS.size() < kSetupRepeats) {
      const auto s0 = Clock::now();
      warmUp(spec, o);
      setupS.push_back(secondsSince(s0));
      last = Clock::now();
    }
    const auto t0 = Clock::now();
    out.push_back(runCensus(spec.config, seeds[k]));
    const auto t1 = Clock::now();
    ms.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
    gapS.push_back(std::chrono::duration<double>(t1 - last).count());
    slots.push_back(static_cast<double>(out.back().slots()));
    last = t1;
  }

  checkCensuses(spec, out, res);
  res.checks.push_back(
      {"rerun_first_census",
       runCensus(spec.config, seeds[0]).digest() == out[0].digest(),
       "census 0 repeated at the end"});

  // The census_per_s and medians come from the least disturbed stretch of
  // the run; the p99 needs every sample. One client means no queue: a
  // request's sojourn is its census, and the loop is only ever offered the
  // rate it completes.
  const std::size_t blocks = count / kBlockCensuses;
  const double p50 = quietMedian(ms, blocks);
  const double rate = quietRate(ones, gapS, blocks);
  double correct = 0;
  for (const CensusSummary& s : out) correct += static_cast<double>(s.correct);
  Values v;
  v.set("setup_s", median(setupS));
  v.set("census_per_s", rate);
  v.set("slots_per_s", quietRate(slots, gapS, blocks));
  v.set("census_ms_p50", p50, count);
  v.setPct("census_ms_p99", ms, 99.0);
  v.set("sojourn_ms_p50", p50, count);
  v.setPct("sojourn_ms_p99", ms, 99.0);
  v.set("max_rate_under_slo", rate);
  v.set("peak_rss_mb", peakRssMb());
  v.set("success_frac",
        correct / (static_cast<double>(count) *
                   static_cast<double>(spec.config.tagCount)));
  res.metrics = emit(kEndToEnd, v);
  return res;
}

// --- service_mix --------------------------------------------------------------

svc::ServiceConfig serviceConfig(std::uint64_t seed) {
  svc::ServiceConfig c;
  c.shards = 1;
  c.workersPerShard = 2;
  c.queueCapacity = 1024;
  c.seed = streamSeed(seed, kServiceStream);
  return c;
}

/// A light request: FSA/QCD 50-tag census (case I).
svc::CensusRequest lightRequest() {
  return requestFor(
      oneRound(ac::ProtocolKind::kFsa, ac::SchemeKind::kQcd, 50, 30));
}

/// A heavy request: BT/CRC-CD 500-tag census (case II).
svc::CensusRequest heavyRequest() {
  return requestFor(
      oneRound(ac::ProtocolKind::kBt, ac::SchemeKind::kCrcCd, 500, 300));
}

/// One heavy request at a seeded random position in every kMixGroup, light
/// ones elsewhere, each with its own client seed. The fixed share keeps the
/// amount of work equal across seeds, and each mix is a prefix of every
/// longer one under the same seed.
std::vector<svc::CensusRequest> mixRequests(std::size_t n,
                                            std::uint64_t mixSeed) {
  Rng rng = Rng::forStream(mixSeed, 0);
  std::vector<svc::CensusRequest> out;
  out.reserve(n);
  std::size_t heavyAt = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i % kMixGroup == 0) heavyAt = i + rng.below(kMixGroup);
    out.push_back(i == heavyAt ? heavyRequest() : lightRequest());
    out.back().seed = i;
  }
  return out;
}

/// Replays sampled completed requests with runStandalone: the service must
/// have computed exactly what a standalone census computes.
Check replayCheck(const Phase& p,
                  const std::vector<svc::CensusRequest>& requests,
                  std::uint64_t serviceSeed) {
  std::size_t checked = 0, differ = 0;
  const std::size_t picks = std::min(kReplayChecks, p.sent.size());
  for (std::size_t j = 0; j < picks; ++j) {
    const std::size_t i = j * p.sent.size() / picks;
    const Sent& s = p.sent[i];
    if (!s.completed()) continue;
    const svc::CensusResponse replay = svc::runStandalone(
        requests[i], serviceSeed, s.response.requestId);
    ++checked;
    differ += CensusSummary::of(replay.result).digest() != digestOf(s);
  }
  return {"service_matches_standalone_replay", differ == 0 && checked > 0,
          countCheck(differ, checked, "replays differ")};
}

/// Per-layer run: a tenth of the nominal phase, then every completed
/// request's census replayed plainly and through the decorators.
RunResult traceServiceWorkload(const RunOptions& o, std::size_t count) {
  RunResult res;
  Tracer tracer;
  const svc::ServiceConfig config = serviceConfig(o.seed);
  const auto requests =
      mixRequests(tracedCount(count), streamSeed(o.seed, kMixStream));
  svc::InventoryService service(config);
  (void)drive(service,
              mixRequests(kWarmupRequests, streamSeed(o.seed, kWarmupStream)),
              kNominalPerSec, streamSeed(o.seed, kWarmupStream), tracer);
  const Phase p = drive(service, requests, kNominalPerSec,
                        streamSeed(o.seed, kArrivalStream), tracer);
  countOutcomes(p, res);

  Values v;
  LayerProbe probe(tracer);
  std::size_t replayed = 0, differ = 0;
  for (std::size_t i = 0; i < p.sent.size(); ++i) {
    const Sent& s = p.sent[i];
    if (!s.completed()) continue;
    const CensusSummary plain =
        probe.run(svc::censusConfig(requests[i], s.response.streamSeed),
                  "service_mix:" + std::to_string(i));
    ++replayed;
    differ += plain.digest() != digestOf(s);
  }
  res.checks.push_back({"service_matches_standalone_replay", differ == 0,
                        countCheck(differ, replayed, "replays differ")});
  probe.report(v, res);
  serviceLayers(p, service.counters().maxQueueDepth, "service_mix", tracer, v);
  res.metrics = emit(kPerLayer, v);
  writeTrace(tracer, "service_mix", o);
  return res;
}

RunResult runServiceWorkload(const RunOptions& o) {
  const std::size_t nominalCount = quickCount(kNominalRequests, o);
  if (o.trace) return traceServiceWorkload(o, nominalCount);
  RunResult res;
  const Tracer clock;
  const svc::ServiceConfig config = serviceConfig(o.seed);
  const auto warmup =
      mixRequests(kWarmupRequests, streamSeed(o.seed, kWarmupStream));

  // Set-up: start the service and push the paced warm-up through it. The
  // pacing takes most of that time, so back-to-back repeats suffice.
  std::unique_ptr<svc::InventoryService> service;
  std::vector<double> setupS;
  for (std::size_t r = 0; r < kSetupRepeats; ++r) {
    service.reset();
    const auto t0 = Clock::now();
    service = std::make_unique<svc::InventoryService>(config);
    (void)drive(*service, warmup, kNominalPerSec,
                streamSeed(o.seed, kWarmupStream), clock);
    setupS.push_back(secondsSince(t0));
  }

  const auto requests =
      mixRequests(nominalCount, streamSeed(o.seed, kMixStream));
  const Phase nominal = drive(*service, requests, kNominalPerSec,
                              streamSeed(o.seed, kArrivalStream), clock);
  const LoadPoint point = loadPoint(nominal);

  // SLO search: every probe offers the same request mix and arrival
  // pattern, only time-scaled, so the verdict is monotone in the rate.
  const auto probes =
      mixRequests(quickCount(kProbeRequests, o),
                  streamSeed(o.seed, kMixStream + 1));
  const double maxRate = maxRateUnderSlo(
      kNominalPerSec, kRateCeilingPerSec, kServiceResolution,
      [&](double rate) {
        return meetsSlo(loadPoint(drive(*service, probes, rate,
                                        streamSeed(o.seed, kArrivalStream + 1),
                                        clock)),
                        kServiceSloMs);
      },
      meetsSlo(point, kServiceSloMs));

  countOutcomes(nominal, res);
  res.checks.push_back(replayCheck(nominal, requests, config.seed));

  // The median census is a light one and uses plain statistics: a light
  // census lasts about as long as a worker's wake-up, and on recorded runs
  // blocks of 20 requests spread about as much as a plain median. Slots per
  // worker second are mostly the heavy censuses', so they take the quietest
  // block of one mix group, which holds exactly one heavy request.
  std::vector<double> censusMs, slots, busyS;
  std::int64_t lastDone = nominal.startNs;
  for (const Sent& s : nominal.sent) {
    if (!s.completed()) continue;
    censusMs.push_back(s.response.serviceMicros / 1e3);
    slots.push_back(s.response.result.totalSlots.samples().at(0));
    busyS.push_back(s.response.serviceMicros / 1e6);
    lastDone = std::max(lastDone, s.doneNs());
  }
  const auto completed = static_cast<double>(censusMs.size());
  Values v;
  v.set("setup_s", median(setupS));
  v.set("census_per_s",
        completed / (static_cast<double>(lastDone - nominal.startNs) / 1e9));
  v.set("slots_per_s", quietRate(slots, busyS, slots.size() / kMixGroup));
  v.setPct("census_ms_p50", censusMs, 50.0);
  v.setPct("census_ms_p99", censusMs, 99.0);
  v.setPct("sojourn_ms_p50", point.sojournMs, 50.0);
  v.setPct("sojourn_ms_p99", point.sojournMs, 99.0);
  v.set("max_rate_under_slo", maxRate);
  v.set("peak_rss_mb", peakRssMb());
  v.set("success_frac", completed / static_cast<double>(nominal.sent.size()));
  res.metrics = emit(kEndToEnd, v);
  return res;
}

}  // namespace

std::vector<std::pair<std::string, ac::ExperimentConfig>> censusConfigs() {
  std::vector<std::pair<std::string, ac::ExperimentConfig>> out;
  for (const CensusSpec& s : censusSpecs()) out.emplace_back(s.name, s.config);
  out.emplace_back("service_mix/light", svc::censusConfig(lightRequest(), 0));
  out.emplace_back("service_mix/heavy", svc::censusConfig(heavyRequest(), 0));
  return out;
}

RunResult runWorkload(const std::string& name, const RunOptions& options) {
  if (name == "service_mix") return runServiceWorkload(options);
  for (const CensusSpec& s : censusSpecs()) {
    if (s.name == name) return runCensusWorkload(s, options);
  }
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace rfidbench
