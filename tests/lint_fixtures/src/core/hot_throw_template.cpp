// Fixture: RFID-EXC-008 — a literal throw inside a guarded function
// template with a defaulted template argument. A scanner that reads that
// `=` as an initializer never sees the definition, reports its guard as a
// stray, and leaves the body unchecked.
#include <stdexcept>

#include "common/alloc_guard.hpp"

namespace rfid::fixture {

template <typename Count = int>
inline Count checkResponders(Count responders) noexcept {
  ALLOC_GUARD_HOT();
  if (responders < 0) {
    throw std::invalid_argument("negative responders");  // RFID-EXC-008
  }
  return responders;
}

}  // namespace rfid::fixture
