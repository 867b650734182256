// Fixture: RFID-EXC-008 — a literal throw inside a function that opens
// ALLOC_GUARD_HOT(). The function is noexcept, so the only finding is the
// unwind path itself (which would terminate at runtime anyway).
#include <stdexcept>

#include "common/alloc_guard.hpp"

namespace rfid::fixture {

inline int classifySlot(int responders) noexcept {
  ALLOC_GUARD_HOT();
  if (responders < 0) {
    throw std::invalid_argument("negative responders");  // RFID-EXC-008
  }
  return responders == 0 ? 0 : (responders == 1 ? 1 : 2);
}

}  // namespace rfid::fixture
