// Fixture: RFID-HOT-002 — an impairment apply path that grows its
// transmission-copy buffer per slot instead of reusing high-water-mark
// scratch (the mistake the real ImpairedChannel::superposeInto avoids with
// its ALLOC_GUARD_ALLOW-scoped growth).
#include <cstddef>
#include <vector>

#include "common/alloc_guard.hpp"

namespace rfid::fixture {

std::size_t applyImpairments(const std::vector<int>& transmissions,
                             std::vector<int>& scratch) noexcept {
  ALLOC_GUARD_HOT();
  scratch.clear();
  for (const int tx : transmissions) {
    scratch.push_back(tx);  // RFID-HOT-002
  }
  return scratch.size();
}

}  // namespace rfid::fixture
