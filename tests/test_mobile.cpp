// Mobile-tag scenario: arrival accounting, miss-rate behaviour vs dwell and
// scheme, and progress guarantees (including the zero-airtime oracle).
#include "anticollision/mobile.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <ios>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "core/detection_scheme.hpp"

namespace {

using rfid::common::PreconditionError;
using rfid::common::Rng;
using rfid::core::CrcCdScheme;
using rfid::core::IdealScheme;
using rfid::core::QcdScheme;
using rfid::phy::AirInterface;
using rfid::anticollision::MobileConfig;
using rfid::anticollision::MobileResult;
using rfid::anticollision::runMobileScenario;

MobileConfig baseConfig() {
  MobileConfig cfg;
  cfg.arrivalsPerMs = 2.0;
  cfg.dwellMicros = 800.0;
  cfg.horizonMicros = 100000.0;
  cfg.frameSize = 8;
  return cfg;
}

TEST(Mobile, AccountingIdentity) {
  const QcdScheme scheme{AirInterface{}, 8};
  Rng rng(1);
  const MobileResult r = runMobileScenario(scheme, baseConfig(), rng);
  EXPECT_GT(r.arrived, 0u);
  // Every resolved tag is either read or missed; some arrivals may still be
  // in their dwell window at the horizon.
  EXPECT_LE(r.identified + r.missed, r.arrived);
  EXPECT_GE(r.identified + r.missed,
            r.arrived > 10 ? r.arrived - 10 : 0u);
  EXPECT_GE(r.missRate(), 0.0);
  EXPECT_LE(r.missRate(), 1.0);
}

TEST(Mobile, ArrivalCountTracksRate) {
  const QcdScheme scheme{AirInterface{}, 8};
  MobileConfig cfg = baseConfig();
  Rng rng(2);
  const MobileResult r = runMobileScenario(scheme, cfg, rng);
  // 2 arrivals/ms over 100 ms → ~200 expected.
  EXPECT_NEAR(static_cast<double>(r.arrived), 200.0, 50.0);
}

TEST(Mobile, QcdMissesFewerThanCrcCd) {
  MobileConfig cfg = baseConfig();
  cfg.dwellMicros = 600.0;
  const CrcCdScheme crc{AirInterface{}};
  const QcdScheme qcd{AirInterface{}, 8};
  Rng r1(3), r2(3);
  const MobileResult mCrc = runMobileScenario(crc, cfg, r1);
  const MobileResult mQcd = runMobileScenario(qcd, cfg, r2);
  EXPECT_LT(mQcd.missRate(), mCrc.missRate());
  EXPECT_LT(mQcd.meanTimeToReadMicros, mCrc.meanTimeToReadMicros);
}

TEST(Mobile, LongerDwellLowersMissRate) {
  const CrcCdScheme crc{AirInterface{}};
  MobileConfig shortDwell = baseConfig();
  shortDwell.dwellMicros = 400.0;
  MobileConfig longDwell = baseConfig();
  longDwell.dwellMicros = 3200.0;
  Rng r1(4), r2(4);
  const double missShort = runMobileScenario(crc, shortDwell, r1).missRate();
  const double missLong = runMobileScenario(crc, longDwell, r2).missRate();
  EXPECT_GT(missShort, missLong);
}

TEST(Mobile, OracleTerminatesDespiteZeroCostIdleSlots) {
  // Regression: IdealScheme's idle/collided slots cost 0 µs; the scenario
  // must still make progress through its fast-forward guard.
  const IdealScheme ideal{AirInterface{}};
  MobileConfig cfg = baseConfig();
  cfg.horizonMicros = 50000.0;
  Rng rng(5);
  const MobileResult r = runMobileScenario(ideal, cfg, rng);
  EXPECT_GT(r.arrived, 0u);
  EXPECT_EQ(r.missed, 0u);  // free detection reads everything in time
}

TEST(Mobile, SparseTrafficIsMostlyRead) {
  const QcdScheme qcd{AirInterface{}, 8};
  MobileConfig cfg = baseConfig();
  cfg.arrivalsPerMs = 0.1;  // one tag every 10 ms
  cfg.dwellMicros = 5000.0;
  Rng rng(6);
  const MobileResult r = runMobileScenario(qcd, cfg, rng);
  EXPECT_LT(r.missRate(), 0.02);
}

TEST(Mobile, Validation) {
  const QcdScheme qcd{AirInterface{}, 8};
  Rng rng(7);
  MobileConfig cfg = baseConfig();
  cfg.arrivalsPerMs = 0.0;
  EXPECT_THROW(runMobileScenario(qcd, cfg, rng), PreconditionError);
  cfg = baseConfig();
  cfg.dwellMicros = 0.0;
  EXPECT_THROW(runMobileScenario(qcd, cfg, rng), PreconditionError);
  cfg = baseConfig();
  cfg.frameSize = 0;
  EXPECT_THROW(runMobileScenario(qcd, cfg, rng), PreconditionError);
  cfg = baseConfig();
  cfg.horizonMicros = -1.0;
  EXPECT_THROW(runMobileScenario(qcd, cfg, rng), PreconditionError);
}

TEST(Mobile, ResultsArePinned) {
  // Generated by the per-slot inventory loop that FrameBatcher's frames
  // replaced. The counts must stay exact. The time-to-read terms are now
  // summed in tag order rather than slot order, so the mean may move in
  // its last bits.
  struct Pinned {
    const char* scheme;
    std::size_t arrived;
    std::size_t identified;
    std::size_t missed;
    double meanTimeToReadMicros;
  };
  const CrcCdScheme crc{AirInterface{}};
  const QcdScheme qcd{AirInterface{}, 8};
  const IdealScheme ideal{AirInterface{}};
  const rfid::core::DetectionScheme* schemes[] = {&crc, &qcd, &ideal};
  const Pinned pinned[] = {
      {"CRC-CD", 203, 127, 76, 0x1.75a38b314fd26p+9},
      {"QCD-8", 192, 192, 0, 0x1.cd40dd0f464e9p+7},
      {"Ideal", 186, 186, 0, 0x1.0b729d017e2e4p+6},
  };
  for (std::size_t k = 0; k < 3; ++k) {
    MobileConfig cfg = baseConfig();
    cfg.dwellMicros = 600.0;
    Rng rng(11);
    const MobileResult r = runMobileScenario(*schemes[k], cfg, rng);
    const Pinned& p = pinned[k];
    EXPECT_EQ(r.arrived, p.arrived) << p.scheme;
    EXPECT_EQ(r.identified, p.identified) << p.scheme;
    EXPECT_EQ(r.missed, p.missed) << p.scheme;
    EXPECT_NEAR(r.meanTimeToReadMicros, p.meanTimeToReadMicros,
                1e-12 * std::abs(p.meanTimeToReadMicros))
        << p.scheme << ": " << std::hexfloat << r.meanTimeToReadMicros;
  }
}

TEST(Mobile, DeterministicGivenSeed) {
  const QcdScheme qcd{AirInterface{}, 8};
  Rng r1(8), r2(8);
  const MobileResult a = runMobileScenario(qcd, baseConfig(), r1);
  const MobileResult b = runMobileScenario(qcd, baseConfig(), r2);
  EXPECT_EQ(a.arrived, b.arrived);
  EXPECT_EQ(a.identified, b.identified);
  EXPECT_EQ(a.missed, b.missed);
}

}  // namespace
