#include "phy/impairments/bsc.hpp"

#include "common/alloc_guard.hpp"
#include "common/require.hpp"

namespace rfid::phy {

BscImpairment::BscImpairment(double tagToReaderBer, double detectionBer)
    : tagToReaderBer_(tagToReaderBer), detectionBer_(detectionBer) {
  RFID_REQUIRE(tagToReaderBer_ >= 0.0 && tagToReaderBer_ <= 1.0,
               "tag-to-reader BER must be in [0, 1]");
  RFID_REQUIRE(detectionBer_ >= 0.0 && detectionBer_ <= 1.0,
               "detection BER must be in [0, 1]");
}

std::string BscImpairment::name() const { return "bsc"; }

bool BscImpairment::transmissionPass(std::uint64_t /*slotIndex*/,
                                     std::size_t /*txIndex*/,
                                     common::BitVec& tx,
                                     common::Rng& slotRng,
                                     ImpairmentStats& stats) noexcept {
  ALLOC_GUARD_HOT();
  stats.bitsFlippedTagToReader += flipBitsIid(tx, tagToReaderBer_, slotRng);
  return true;
}

void BscImpairment::receptionPass(std::uint64_t /*slotIndex*/,
                                  common::BitVec& signal,
                                  common::Rng& slotRng,
                                  ImpairmentStats& stats) noexcept {
  ALLOC_GUARD_HOT();
  stats.bitsFlippedDetection += flipBitsIid(signal, detectionBer_, slotRng);
}

}  // namespace rfid::phy
