// Channel impairments — the noise/fault axis the paper leaves out.
//
// The paper evaluates CRC-CD and QCD on a *perfect* OR channel: the only
// failure mode it analyzes is all colliding tags drawing the same r (§IV-C).
// Real backscatter links flip and erase bits, which breaks both QCD's
// c == ~r check and CRC-CD's recompute-and-compare in ways the paper never
// quantifies. An Impairment perturbs the signals of one slot in up to three
// places:
//
//   1. erasesSlot()       — a deep fade swallows the whole slot (the reader
//                           sees no energy even though tags transmitted);
//   2. transmissionPass() — the tag→reader leg: per-transmission bit flips,
//                           or the transmission dropped entirely;
//   3. receptionPass()    — the reader's energy-detection leg: bit flips in
//                           the superposed signal.
//
// Determinism contract (RFID-DET-001): impairments draw only from the
// per-slot common::Rng stream the ImpairedChannel derives as
// Rng::forStream(impairmentSeed, slotIndex) — never from the round stream
// the tags consume. Two consequences: (a) the same seed replays the same
// flip/erasure schedule bit-identically under any thread topology, and
// (b) a model configured to zero rates perturbs *nothing*, so a BER-0 run
// is bit-identical to a run with no impairment layer at all.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "common/alloc_guard.hpp"
#include "common/bitvec.hpp"
#include "common/rng.hpp"

namespace rfid::phy {

/// What the impairment layer did to the signals it saw (accumulated across
/// slots by the ImpairedChannel; plain counters, so recording is
/// allocation-free).
struct ImpairmentStats {
  std::uint64_t slots = 0;                   ///< busy slots seen
  std::uint64_t slotsErased = 0;             ///< whole-slot fades
  std::uint64_t transmissions = 0;           ///< tag→reader transmissions seen
  std::uint64_t transmissionsDropped = 0;    ///< replies erased in flight
  std::uint64_t bitsFlippedTagToReader = 0;  ///< flips on individual replies
  std::uint64_t bitsFlippedDetection = 0;    ///< flips on the superposition
  std::uint64_t faultsApplied = 0;           ///< scripted FaultInjector hits

  std::uint64_t bitsFlipped() const noexcept {
    return bitsFlippedTagToReader + bitsFlippedDetection;
  }
  ImpairmentStats& operator+=(const ImpairmentStats& o) noexcept {
    slots += o.slots;
    slotsErased += o.slotsErased;
    transmissions += o.transmissions;
    transmissionsDropped += o.transmissionsDropped;
    bitsFlippedTagToReader += o.bitsFlippedTagToReader;
    bitsFlippedDetection += o.bitsFlippedDetection;
    faultsApplied += o.faultsApplied;
    return *this;
  }
};

/// One impairment model. All hooks default to "no effect" so a model
/// overrides only the legs it perturbs; every hook must be allocation-free
/// (the ImpairedChannel calls them inside the slot hot path).
class Impairment {
 public:
  virtual ~Impairment() = default;

  virtual std::string name() const = 0;

  /// Deep-fade decision for one busy slot, taken before any per-transmission
  /// work. Returning true erases the whole slot (the reader reads idle).
  virtual bool erasesSlot(std::uint64_t slotIndex, common::Rng& slotRng,
                          ImpairmentStats& stats);

  /// Tag→reader leg: may flip bits of `tx` in place. Returning false drops
  /// the transmission entirely (per-reply fade). `txIndex` is the reply's
  /// position within the slot's transmission span.
  virtual bool transmissionPass(std::uint64_t slotIndex, std::size_t txIndex,
                                common::BitVec& tx, common::Rng& slotRng,
                                ImpairmentStats& stats);

  /// Reader leg: may flip bits of the superposed `signal` in place
  /// (energy-detection errors — ghost energy and missed energy).
  virtual void receptionPass(std::uint64_t slotIndex, common::BitVec& signal,
                             common::Rng& slotRng, ImpairmentStats& stats);
};

/// Flips each bit of `v` independently with probability `p`; returns the
/// number of flips. The p <= 0 early-out draws nothing, so a zero-rate
/// model consumes no randomness (the BER-0 bit-identity guarantee).
inline std::uint64_t flipBitsIid(common::BitVec& v, double p,
                                 common::Rng& rng) noexcept {
  ALLOC_GUARD_HOT();
  if (p <= 0.0) return 0;
  std::uint64_t flips = 0;
  const std::size_t n = v.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.chance(p)) {
      v.set(i, !v.test(i));
      ++flips;
    }
  }
  return flips;
}

/// Which stochastic model an ImpairmentConfig selects.
enum class ImpairmentModel : std::uint8_t {
  kNone,
  kBsc,             ///< i.i.d. bit flips (binary symmetric channel)
  kGilbertElliott,  ///< two-state bursty bit flips
  kErasure,         ///< dropped replies / whole-slot fades
};

std::string toString(ImpairmentModel model);
/// Parses "none" / "bsc" / "ge" (or "gilbert-elliott") / "erasure".
std::optional<ImpairmentModel> parseImpairmentModel(std::string_view name);

/// Declarative impairment selection, carried by ExperimentConfig and
/// CensusRequest so a whole experiment (or service request) names its
/// channel conditions. Only the fields of the selected model are read.
struct ImpairmentConfig {
  ImpairmentModel model = ImpairmentModel::kNone;

  // kBsc: independent error rates for the two legs.
  double tagToReaderBer = 0.0;  ///< per-bit flip rate on each tag's reply
  double detectionBer = 0.0;    ///< per-bit flip rate on the superposition

  // kGilbertElliott: two-state Markov burst model over the tag→reader leg.
  double geGoodToBad = 0.0;  ///< per-bit P(good → bad)
  double geBadToGood = 0.0;  ///< per-bit P(bad → good)
  double geBerGood = 0.0;    ///< flip rate while in the good state
  double geBerBad = 0.0;     ///< flip rate while in the bad state

  // kErasure: reply drops and whole-slot fades.
  double transmissionLoss = 0.0;  ///< P(one reply erased in flight)
  double slotFade = 0.0;          ///< P(whole slot swallowed by a deep fade)

  bool enabled() const noexcept { return model != ImpairmentModel::kNone; }
};

/// Builds the configured model; nullptr for kNone.
std::unique_ptr<Impairment> makeImpairment(const ImpairmentConfig& config);

/// The impairment layer's seed for Monte-Carlo round `round` of a run with
/// master seed `masterSeed`. Deliberately NOT drawn from the round's own
/// Rng stream: consuming a round-stream draw would shift every subsequent
/// tag decision and break the "BER 0 reproduces the noiseless run exactly"
/// guarantee. The salt keeps the impairment streams disjoint from the
/// round streams Rng::forStream(masterSeed, k) hands the simulation.
inline std::uint64_t impairmentStreamSeed(std::uint64_t masterSeed,
                                          std::uint64_t round) noexcept {
  constexpr std::uint64_t kSalt = 0x1a9e4b7c35d20f68ull;
  common::Rng stream = common::Rng::forStream(masterSeed ^ kSalt, round);
  return stream();
}

}  // namespace rfid::phy
