// Fixture: RFID-HOT-002 — container growth after a C++14 digit separator.
// A lexer that reads the lone `'` in `50'000` as the opening of a character
// literal loses the rest of the file, and this growth lints clean.
#include <vector>

#include "common/alloc_guard.hpp"

namespace rfid::fixture {

constexpr int kSlots = 50'000;

void fillSlots(std::vector<int>& scratch) noexcept {
  ALLOC_GUARD_HOT();
  for (int s = 0; s < kSlots; ++s) {
    scratch.push_back(s);  // RFID-HOT-002
  }
}

}  // namespace rfid::fixture
