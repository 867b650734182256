// Precondition checking for the public API.
//
// The library is exercised by simulations that run hundreds of millions of
// slots, so hot-path invariants use RFID_ASSERT (compiled out in release),
// while API boundary checks use RFID_REQUIRE (always on, throws).
#pragma once

#include <cassert>
#include <stdexcept>
#include <string>

#include "common/alloc_guard.hpp"

namespace rfid::common {

/// Thrown when a documented API precondition is violated.
class PreconditionError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

[[noreturn]] inline void throwPrecondition(const char* cond, const char* what) {
  // Building the diagnostic (and the exception object) allocates by design.
  ALLOC_GUARD_ALLOW("failure path: the contract is already broken here");
  throw PreconditionError(std::string("precondition violated: ") + cond +
                          " — " + what);
}

}  // namespace rfid::common

#define RFID_REQUIRE(cond, what)                        \
  do {                                                  \
    if (!(cond)) {                                      \
      ::rfid::common::throwPrecondition(#cond, (what)); \
    }                                                   \
  } while (false)

#define RFID_ASSERT(cond) assert(cond)
