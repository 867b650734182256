// Fixture: RFID-EXC-008 — a hot operator that is not noexcept. A scanner
// that reads the `=` of `operator|=` as an initializer never sees this
// definition, so neither its noexcept nor its body gets checked.
#include "common/alloc_guard.hpp"

namespace rfid::fixture {

struct Acc {
  Acc& operator|=(int bits);
  int word = 0;
};

Acc& Acc::operator|=(int bits) {  // RFID-EXC-008
  ALLOC_GUARD_HOT();
  word |= bits;
  return *this;
}

}  // namespace rfid::fixture
