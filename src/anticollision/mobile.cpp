#include "anticollision/mobile.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "anticollision/protocol.hpp"
#include "common/require.hpp"
#include "phy/channel.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "sim/tag_soa.hpp"
#include "tags/tag.hpp"

namespace rfid::anticollision {

namespace {

double nextExponential(double ratePerMicro, common::Rng& rng) {
  // Inverse-CDF sampling; real() < 1 so the log argument is positive.
  return -std::log(1.0 - rng.real()) / ratePerMicro;
}

}  // namespace

MobileResult runMobileScenario(const core::DetectionScheme& scheme,
                               const MobileConfig& config, common::Rng& rng) {
  RFID_REQUIRE(config.arrivalsPerMs > 0.0, "arrival rate must be positive");
  RFID_REQUIRE(config.dwellMicros > 0.0, "dwell time must be positive");
  RFID_REQUIRE(config.horizonMicros > 0.0, "horizon must be positive");
  RFID_REQUIRE(config.frameSize >= 1, "frame needs at least one slot");

  const double ratePerMicro = config.arrivalsPerMs / 1000.0;

  phy::OrChannel channel;
  sim::Metrics metrics;
  sim::SlotEngine engine(scheme, channel, metrics);
  sim::TagSoA soa;
  FrameBatcher batcher;
  MobileResult result;

  // The working set of tags currently in range. Population is unbounded
  // over the horizon, so tags are created on arrival with sequential IDs
  // (uniqueness is what matters; the ID distribution is irrelevant here).
  std::vector<tags::Tag> present;
  std::vector<double> departsAt;
  std::uint64_t nextId = 1;
  double nextArrival = nextExponential(ratePerMicro, rng);
  double timeToReadSum = 0.0;

  const std::size_t idBits = scheme.air().idBits;

  while (metrics.nowMicros() < config.horizonMicros) {
    const double now = metrics.nowMicros();

    // Admit every tag that has arrived by now.
    while (nextArrival <= now) {
      tags::Tag t;
      t.idValue = nextId++;
      t.id = common::BitVec::fromUint(t.idValue, idBits);
      present.push_back(std::move(t));
      departsAt.push_back(nextArrival + config.dwellMicros);
      ++result.arrived;
      nextArrival += nextExponential(ratePerMicro, rng);
    }

    // Expire tags whose dwell window closed; a tag read before it left was
    // already counted.
    for (std::size_t i = 0; i < present.size();) {
      if (departsAt[i] <= now) {
        if (!present[i].believesIdentified) {
          ++result.missed;
        }
        present[i] = std::move(present.back());
        present.pop_back();
        departsAt[i] = departsAt.back();
        departsAt.pop_back();
      } else {
        ++i;
      }
    }

    // One inventory frame over the unidentified tags currently present; an
    // empty field still costs the reader one idle frame. Tags arrive and
    // depart between frames, so every frame gathers its own snapshot.
    soa.gather(present, scheme);
    batcher.beginRound(present, soa);
    const std::span<const std::size_t> contenders =
        batcher.gatherActive(present);
    (void)batcher.runFrame(engine, present, config.frameSize,
                           config.frameSize, rng);
    if (contenders.empty()) {
      if (metrics.nowMicros() <= now) {
        // Zero-cost idle slots (the free-detection oracle): fast-forward to
        // the next arrival so the loop always makes progress.
        metrics.advanceMicros(
            std::max(1.0, nextArrival - metrics.nowMicros()));
      }
      continue;
    }
    // Count the frame's reads. Every read lands within the tags' dwell
    // windows up to frame granularity: a read completing after departure
    // would be a miss in reality, but that window error is at most one
    // frame.
    for (const std::size_t idx : contenders) {
      const tags::Tag& tag = present[idx];
      if (!tag.believesIdentified) {
        continue;
      }
      if (tag.correctlyIdentified) {
        ++result.identified;
        timeToReadSum +=
            tag.identifiedAtMicros - (departsAt[idx] - config.dwellMicros);
      } else {
        // Phantom ACK: the tag fell silent but its ID never reached the
        // reader — operationally a miss.
        ++result.missed;
      }
    }
    if (metrics.nowMicros() <= now) {
      // All slots were free under the oracle timing: charge one bit-time so
      // simulated time always moves forward.
      metrics.advanceMicros(std::max(1.0, scheme.air().tauMicros));
    }
  }

  result.meanTimeToReadMicros =
      result.identified == 0 ? 0.0
                             : timeToReadSum /
                                   static_cast<double>(result.identified);
  return result;
}

}  // namespace rfid::anticollision
