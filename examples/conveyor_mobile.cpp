// Conveyor belt — mobile tags passing a fixed reader (§VI-D's motivation:
// "the tag may move out of the reader's range before it is identified").
// Tagged items arrive as a Poisson stream and stay in the read window for a
// fixed dwell; whatever is not read in that window is gone. Compare how the
// detection scheme changes the miss rate at the same belt speed.
//
//   $ ./conveyor_mobile [--rate 2.0] [--dwell 800] [--horizon 500000]
//                       [--frame 8] [--strength 8] [--seed 11]
#include <iostream>

#include "anticollision/mobile.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/detection_scheme.hpp"

using namespace rfid;

int main(int argc, char** argv) {
  common::ArgParser args(
      "conveyor_mobile",
      "mobile tags on a conveyor: miss rate by detection scheme");
  args.addDouble("rate", 2.0, "tag arrivals per millisecond")
      .addDouble("dwell", 800.0, "read-window dwell per tag (us)")
      .addDouble("horizon", 500000.0, "simulated duration (us)")
      .addInt("frame", 8, "inventory frame length (slots)")
      .addInt("strength", 8, "QCD strength l")
      .addInt("seed", 11, "random seed");
  if (!args.parse(argc, argv)) {
    return 0;
  }

  anticollision::MobileConfig cfg;
  cfg.arrivalsPerMs = args.getDouble("rate");
  cfg.dwellMicros = args.getDouble("dwell");
  cfg.horizonMicros = args.getDouble("horizon");
  cfg.frameSize = static_cast<std::size_t>(args.getInt("frame"));
  const auto strength = static_cast<unsigned>(args.getInt("strength"));
  const auto seed = static_cast<std::uint64_t>(args.getInt("seed"));

  const phy::AirInterface air;
  const core::CrcCdScheme crcCd{air};
  const core::QcdScheme qcd{air, strength};
  const core::IdealScheme ideal{air};

  std::cout << "Belt: " << cfg.arrivalsPerMs << " tags/ms, dwell "
            << cfg.dwellMicros << " us, frame " << cfg.frameSize
            << " slots, horizon " << cfg.horizonMicros / 1000.0 << " ms\n\n";

  common::TextTable table({"scheme", "arrived", "read", "missed",
                           "miss rate", "mean time-to-read (us)"});
  const struct {
    const char* label;
    const core::DetectionScheme& scheme;
  } rows[] = {{"CRC-CD", crcCd},
              {"QCD", qcd},
              {"Ideal (oracle bound)", ideal}};
  for (const auto& row : rows) {
    common::Rng rng(seed);
    const anticollision::MobileResult r =
        anticollision::runMobileScenario(row.scheme, cfg, rng);
    table.addRow({row.label, common::fmtCount(r.arrived),
                  common::fmtCount(r.identified), common::fmtCount(r.missed),
                  common::fmtPercent(r.missRate()),
                  common::fmtDouble(r.meanTimeToReadMicros, 0)});
  }
  std::cout << table;
  std::cout << "\nShorten --dwell (faster belt) to widen the gap between "
               "the schemes; at some speed CRC-CD misses most items while "
               "QCD still reads nearly all of them.\n";
  return 0;
}
