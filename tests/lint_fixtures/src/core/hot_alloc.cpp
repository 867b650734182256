// Fixture: RFID-HOT-002 — container growth inside a function that opens
// ALLOC_GUARD_HOT(). The function is noexcept, so the only finding is the
// unsanctioned growth itself.
#include <vector>

#include "common/alloc_guard.hpp"

namespace rfid::fixture {

void slotPath(std::vector<int>& scratch, int value) noexcept {
  ALLOC_GUARD_HOT();
  scratch.push_back(value);  // RFID-HOT-002
}

}  // namespace rfid::fixture
