// Fixture: RFID-HOT-002 — growth after an ALLOC_GUARD_ALLOW scope closed.
// The allow covers its own block, as the runtime guard does; the push_back
// below it runs under the armed ALLOC_GUARD_HOT() scope again.
#include <cstddef>
#include <vector>

#include "common/alloc_guard.hpp"

namespace rfid::fixture {

void growThenPush(std::vector<int>& scratch, std::size_t n) noexcept {
  ALLOC_GUARD_HOT();
  if (scratch.size() < n) {
    ALLOC_GUARD_ALLOW("high-water-mark growth; steady state reuses storage");
    scratch.resize(n);
  }
  scratch.push_back(1);  // RFID-HOT-002
}

}  // namespace rfid::fixture
