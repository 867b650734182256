#include "phy/impairments/gilbert_elliott.hpp"

#include "common/alloc_guard.hpp"
#include "common/require.hpp"

namespace rfid::phy {

namespace {
bool isProbability(double p) { return p >= 0.0 && p <= 1.0; }
}  // namespace

GilbertElliottImpairment::GilbertElliottImpairment(double goodToBad,
                                                   double badToGood,
                                                   double berGood,
                                                   double berBad)
    : goodToBad_(goodToBad),
      badToGood_(badToGood),
      berGood_(berGood),
      berBad_(berBad) {
  RFID_REQUIRE(isProbability(goodToBad_) && isProbability(badToGood_),
               "Gilbert-Elliott transition rates must be in [0, 1]");
  RFID_REQUIRE(isProbability(berGood_) && isProbability(berBad_),
               "Gilbert-Elliott error rates must be in [0, 1]");
}

std::string GilbertElliottImpairment::name() const { return "ge"; }

bool GilbertElliottImpairment::transmissionPass(std::uint64_t /*slotIndex*/,
                                                std::size_t /*txIndex*/,
                                                common::BitVec& tx,
                                                common::Rng& slotRng,
                                                ImpairmentStats& stats) noexcept {
  ALLOC_GUARD_HOT();
  // A fully-zero parameterization is a no-op channel; skip the per-bit walk
  // entirely so it costs (and draws) nothing.
  if (goodToBad_ <= 0.0 && berGood_ <= 0.0 && !bad_) {
    return true;
  }
  const std::size_t n = tx.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (bad_ ? slotRng.chance(badToGood_) : slotRng.chance(goodToBad_)) {
      bad_ = !bad_;
    }
    if (slotRng.chance(bad_ ? berBad_ : berGood_)) {
      tx.set(i, !tx.test(i));
      ++stats.bitsFlippedTagToReader;
    }
  }
  return true;
}

}  // namespace rfid::phy
