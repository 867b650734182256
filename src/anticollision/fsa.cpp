#include "anticollision/fsa.hpp"

#include "common/require.hpp"

namespace rfid::anticollision {

FramedSlottedAloha::FramedSlottedAloha(std::size_t frameSize,
                                       std::size_t maxSlots)
    : FramedAloha(frameSize, maxSlots) {
  RFID_REQUIRE(frameSize >= 1, "frame needs at least one slot");
}

std::string FramedSlottedAloha::name() const {
  return "FSA[F=" + std::to_string(frameSize()) + "]";
}

}  // namespace rfid::anticollision
