// Must not compile: ALLOC_GUARD_ALLOW needs a non-empty reason literal.
// tests/CMakeLists.txt runs the compiler over this file with -fsyntax-only,
// with and without RFID_ENFORCE_HOT, and passes only on the macro's own
// static_assert message (any other compile error fails the test).
#include "common/alloc_guard.hpp"

void growWithoutReason() { ALLOC_GUARD_ALLOW(""); }
