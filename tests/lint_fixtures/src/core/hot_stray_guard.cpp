// Fixture: RFID-HOT-002 — a guard outside any function body the linter
// recognises. The lambda is bound to a variable, so the scanner reads its
// `=` as an initializer and finds no function to scan; the guard itself is
// the finding, so hot code cannot silently escape the static checks.
#include "common/alloc_guard.hpp"

namespace rfid::fixture {

inline auto kOrWords = [](unsigned a, unsigned b) noexcept {
  ALLOC_GUARD_HOT();  // RFID-HOT-002
  return a | b;
};

}  // namespace rfid::fixture
