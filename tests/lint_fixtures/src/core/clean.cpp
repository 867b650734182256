// Fixture: exercises every rule's *negative* space — must lint clean.
//
// The strings below would trip RFID-DET-001 / RFID-TIME-009 if literals
// were scanned, the comment-only mentions of std::rand(), std::thread,
// `seed + 1`, and std::chrono::steady_clock must be ignored, and the hot
// functions show growth inside an ALLOC_GUARD_ALLOW scope, a guarded
// noexcept function, a justified noexcept opt-out, digit separators, a
// noexcept hot operator, a guarded function template with a defaulted
// template argument, a guarded constructor with braced member
// initializers, and a justified lint suppression.
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/alloc_guard.hpp"

namespace rfid::fixture {

inline const char* kLabel = "inventory time (us)";
inline const char* kClockLabel = "std::chrono::steady_clock (label only)";

// A comment may discuss std::rand(), std::thread, raw `seed + 1`
// arithmetic, or std::chrono::steady_clock freely.

// Sanctioned stream derivation: no arithmetic on the seed itself.
inline std::uint64_t deriveStream(std::uint64_t seed) { return seed; }

inline void steadyState(std::vector<int>& scratch, std::size_t n) noexcept {
  ALLOC_GUARD_HOT();
  if (scratch.size() < n) {
    ALLOC_GUARD_ALLOW("high-water-mark growth; steady state reuses storage");
    scratch.resize(n);
    scratch.reserve(n);  // still inside the allow scope
  }
  scratch[0] = 1;
}

// rfid:noexcept-allow: the REQUIRE-style check below is a deliberately
// throwing API contract (fixture mirrors the real opt-out syntax)
inline void checkedEntry(std::vector<int>& scratch) {
  ALLOC_GUARD_HOT();
  if (scratch.empty()) {
    throwSomewhereElse();  // not a literal throw; calls the boundary helper
  }
  scratch[0] = 0;
}

// A digit separator stays inside its number: the `'` opens no character
// literal, so everything below is still scanned.
inline constexpr std::size_t kSlots = 50'000;

// A hot operator: recognised as a function (the `=` of `operator|=` is
// part of its name) and noexcept, so it is clean.
struct Acc {
  std::size_t word = 0;
  Acc& operator|=(std::size_t bits) noexcept {
    ALLOC_GUARD_HOT();
    word |= bits % kSlots;
    return *this;
  }
};

// A defaulted template argument: its `=` belongs to the template
// parameter list, not to an initializer, so this is a function definition.
template <typename Word = std::uint64_t>
inline Word firstWord(std::vector<Word>& words, std::size_t n) noexcept {
  ALLOC_GUARD_HOT();
  if (words.size() < n) {
    ALLOC_GUARD_ALLOW("high-water-mark growth; steady state reuses storage");
    words.resize(n);
  }
  return words[0];
}

// Braced member initializers: the body opens at the brace after the last
// initializer, not at the one in `cap_{cap}`.
struct Ring {
  Ring(std::size_t cap, std::vector<int>& slots) noexcept
      : cap_{cap}, slots_{slots} {
    ALLOC_GUARD_HOT();
    slots_[0] = static_cast<int>(cap_ % kSlots);
  }
  std::size_t cap_;
  std::vector<int>& slots_;
};

inline long justified(int x) {
  return x;  // NOLINT(bugprone-example-check): fixture shows reason syntax
}

}  // namespace rfid::fixture
