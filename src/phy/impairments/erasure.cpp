#include "phy/impairments/erasure.hpp"

#include "common/alloc_guard.hpp"
#include "common/require.hpp"

namespace rfid::phy {

ErasureImpairment::ErasureImpairment(double transmissionLoss, double slotFade)
    : transmissionLoss_(transmissionLoss), slotFade_(slotFade) {
  RFID_REQUIRE(transmissionLoss_ >= 0.0 && transmissionLoss_ <= 1.0,
               "transmission loss probability must be in [0, 1]");
  RFID_REQUIRE(slotFade_ >= 0.0 && slotFade_ <= 1.0,
               "slot fade probability must be in [0, 1]");
}

std::string ErasureImpairment::name() const { return "erasure"; }

bool ErasureImpairment::erasesSlot(std::uint64_t /*slotIndex*/,
                                   common::Rng& slotRng,
                                   ImpairmentStats& /*stats*/) noexcept {
  ALLOC_GUARD_HOT();
  if (slotFade_ <= 0.0) return false;
  return slotRng.chance(slotFade_);
}

bool ErasureImpairment::transmissionPass(std::uint64_t /*slotIndex*/,
                                         std::size_t /*txIndex*/,
                                         common::BitVec& /*tx*/,
                                         common::Rng& slotRng,
                                         ImpairmentStats& /*stats*/) noexcept {
  ALLOC_GUARD_HOT();
  if (transmissionLoss_ <= 0.0) return true;
  return !slotRng.chance(transmissionLoss_);
}

}  // namespace rfid::phy
