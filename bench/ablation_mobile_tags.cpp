// Ablation — mobile tags (§VI-D motivation): "the tag may move out of the
// reader's range before it is identified if the identification is slow."
// Continuous FSA inventory over a Poisson stream of tags with a fixed dwell
// window; the detection scheme determines how many inventory frames fit
// into each dwell, and therefore the miss rate.
#include "anticollision/mobile.hpp"
#include "bench_support.hpp"
#include "common/table.hpp"
#include "core/detection_scheme.hpp"

using namespace rfid;

namespace {

anticollision::MobileResult runWith(const core::DetectionScheme& scheme,
                                    double dwellMicros, std::uint64_t seed) {
  anticollision::MobileConfig cfg;
  cfg.arrivalsPerMs = 2.0;
  cfg.dwellMicros = dwellMicros;
  cfg.horizonMicros = 4.0e5;
  cfg.frameSize = 8;
  common::Rng rng(seed);
  return anticollision::runMobileScenario(scheme, cfg, rng);
}

}  // namespace

int main() {
  bench::printHeader(
      "Ablation — mobile tags: miss rate vs detection scheme",
      "faster slots => more inventory attempts per dwell => fewer tags "
      "leave unread (the paper's motivation for fast identification)");

  const phy::AirInterface air;
  const core::CrcCdScheme crcCd{air};
  const core::QcdScheme qcd8{air, 8};
  const core::IdealScheme ideal{air};

  common::TextTable table({"dwell (us)", "scheme", "arrived", "identified",
                           "missed", "miss rate", "mean time-to-read (us)"});
  for (const double dwell : {400.0, 800.0, 1600.0, 3200.0}) {
    const struct {
      const char* name;
      const core::DetectionScheme& scheme;
    } rows[] = {{"CRC-CD", crcCd}, {"QCD[l=8]", qcd8}, {"Ideal", ideal}};
    for (const auto& row : rows) {
      const auto r = runWith(row.scheme, dwell, 404);
      table.addRow({common::fmtDouble(dwell, 0), row.name,
                    common::fmtCount(r.arrived),
                    common::fmtCount(r.identified),
                    common::fmtCount(r.missed),
                    common::fmtPercent(r.missRate()),
                    common::fmtDouble(r.meanTimeToReadMicros, 0)});
    }
    table.addRule();
  }
  std::cout << table;
  bench::printFooter();
  return 0;
}
