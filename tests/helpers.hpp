// Shared fixtures for protocol tests: a bundled engine + population, a
// one-call "identify everything" harness, and the slot-sequence digest the
// pinned-census tests hash runs into.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "core/detection_scheme.hpp"
#include "phy/channel.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "sim/trace.hpp"
#include "tags/population.hpp"

namespace rfid::testing {

/// Owns everything a protocol run needs; schemes default to the paper's
/// QCD l = 8 over the pure OR channel.
struct Harness {
  explicit Harness(std::size_t tagCount, std::uint64_t seed = 1,
                   std::unique_ptr<core::DetectionScheme> customScheme = {},
                   std::unique_ptr<phy::Channel> customChannel = {})
      : rng(seed),
        scheme(customScheme ? std::move(customScheme)
                            : std::make_unique<core::QcdScheme>(
                                  phy::AirInterface{}, 8)),
        channel(customChannel ? std::move(customChannel)
                              : std::make_unique<phy::OrChannel>()),
        engine(*scheme, *channel, metrics),
        tags(tags::makeUniformPopulation(tagCount, scheme->air().idBits,
                                         rng)) {}

  common::Rng rng;
  std::unique_ptr<core::DetectionScheme> scheme;
  std::unique_ptr<phy::Channel> channel;
  sim::Metrics metrics;
  sim::SlotEngine engine;
  std::vector<tags::Tag> tags;

  std::size_t believed() const {
    return tags::countBelievedIdentified(tags);
  }
  std::size_t correct() const {
    return tags::countCorrectlyIdentified(tags);
  }
};

/// FNV-1a over 64-bit words.
class Fnv {
 public:
  void add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// Hashes every field of every SlotEvent, in slot order.
class DigestObserver final : public sim::SlotObserver {
 public:
  void onSlot(const sim::SlotEvent& event) override {
    fnv.add(event.index);
    fnv.add(static_cast<std::uint64_t>(event.trueType));
    fnv.add(static_cast<std::uint64_t>(event.detectedType));
    fnv.add(static_cast<std::uint64_t>(event.responders));
    fnv.add(event.startMicros);
    fnv.add(event.durationMicros);
    fnv.add(event.identified);
    ++slots;
  }

  Fnv fnv;
  std::uint64_t slots = 0;
};

}  // namespace rfid::testing
