// The hot-path annotation, and the runtime half of the zero-allocation
// contract.
//
// A function whose body opens ALLOC_GUARD_HOT() is hot.  That one macro is
// the only hot-path annotation: the static linter (scripts/analyze) scans
// every such function, from its signature to its closing brace, for
// allocation idioms (RFID-HOT-002) and unwind paths (RFID-EXC-008), and
// under the RFID_ENFORCE_HOT build (cmake -DRFID_ENFORCE_HOT=ON) the
// replaceable global operator new/delete (src/common/alloc_guard_hooks.cpp)
// routes every heap allocation through thread-local counters, so any
// allocation inside the guard's scope becomes a recorded violation: a
// diagnostic on stderr, a nonzero process-wide violation count the
// integration tests assert on, and a nonzero exit of the whole test binary
// (the static exit check in the hooks TU) even when every gtest assertion
// passed.
//
// Sanctioned allocations — documented high-water-mark growth — open an
// ALLOC_GUARD_ALLOW("reason") scope around exactly the growing call, so
// steady-state behaviour stays enforced.  The reason must be a non-empty
// string literal (a static_assert in every build), and the linter exempts
// the span the runtime sanctions: from the macro to the close of its block.
//
// In default builds ALLOC_GUARD_HOT() compiles to `(void)0`,
// ALLOC_GUARD_ALLOW to a static_assert, and the hooks TU is not linked: the
// hot path carries zero overhead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#define RFID_ALLOC_GUARD_CONCAT2(a, b) a##b
#define RFID_ALLOC_GUARD_CONCAT(a, b) RFID_ALLOC_GUARD_CONCAT2(a, b)

// `"" reason` compiles only when `reason` is a string literal; the size
// check rejects the empty one.
#define RFID_ALLOC_GUARD_REASON(reason) \
  static_assert(sizeof("" reason) > 1,  \
                "ALLOC_GUARD_ALLOW needs a reason: ALLOC_GUARD_ALLOW(\"why\")")

#ifdef RFID_ENFORCE_HOT
#define ALLOC_GUARD_HOT()                                  \
  [[maybe_unused]] const ::rfid::common::AllocGuard        \
  RFID_ALLOC_GUARD_CONCAT(rfidAllocGuard_, __LINE__) {     \
    __func__                                               \
  }
#define ALLOC_GUARD_ALLOW(reason)                          \
  RFID_ALLOC_GUARD_REASON(reason);                         \
  [[maybe_unused]] const ::rfid::common::AllocGuardAllow   \
  RFID_ALLOC_GUARD_CONCAT(rfidAllocAllow_, __LINE__) {}
#else
#define ALLOC_GUARD_HOT() static_cast<void>(0)
#define ALLOC_GUARD_ALLOW(reason) RFID_ALLOC_GUARD_REASON(reason)
#endif

namespace rfid::common {

namespace alloc_guard_detail {

/// Per-thread counter block.  Plain-old-data and zero-initialized so the
/// thread_local has no dynamic initializer or destructor — the operator
/// new hooks may run before main and during thread teardown.
struct TlsState {
  std::uint64_t allocations;
  std::uint64_t deallocations;
  std::uint64_t bytes;
  std::uint64_t violations;
  int guardDepth;
  int allowDepth;
  const char* site;
};

extern thread_local TlsState tls;

/// Called by the operator new hooks on every allocation/deallocation.
void recordAlloc(std::size_t bytes) noexcept;
void recordDealloc() noexcept;

}  // namespace alloc_guard_detail

/// RAII scope marking "no heap activity allowed on this thread".  Scopes
/// nest (an inner guard composes with, never cancels, an outer one).
/// Constructible in every build; only counts when the RFID_ENFORCE_HOT
/// hooks are linked.
class AllocGuard {
 public:
  explicit AllocGuard(const char* site) noexcept;
  ~AllocGuard();
  AllocGuard(const AllocGuard&) = delete;
  AllocGuard& operator=(const AllocGuard&) = delete;

  /// Allocations performed on this thread since the scope opened.
  std::uint64_t allocations() const noexcept;
  /// Violations recorded on this thread since the scope opened
  /// (allocations under a guard with no allow scope open).
  std::uint64_t violations() const noexcept;

  /// True when this build installs the operator new/delete hooks.
  static constexpr bool enforced() noexcept {
#ifdef RFID_ENFORCE_HOT
    return true;
#else
    return false;
#endif
  }

  /// Lifetime totals, this thread.
  static std::uint64_t threadAllocations() noexcept;
  /// Lifetime totals, whole process (every thread).
  static std::uint64_t processAllocations() noexcept;
  static std::uint64_t processViolations() noexcept;
  /// Clears the process violation count (and the exit check's memory of
  /// it) so a test that provokes a violation on purpose can assert it was
  /// counted without failing the binary.  Test-only.
  static void resetProcessViolationsForTest() noexcept;

 private:
  const char* prevSite_;
  std::uint64_t allocationsAtEntry_;
  std::uint64_t violationsAtEntry_;
};

/// RAII escape hatch: heap activity inside this scope is sanctioned
/// (documented high-water-mark growth).  Opened by ALLOC_GUARD_ALLOW.
class AllocGuardAllow {
 public:
  AllocGuardAllow() noexcept;
  ~AllocGuardAllow();
  AllocGuardAllow(const AllocGuardAllow&) = delete;
  AllocGuardAllow& operator=(const AllocGuardAllow&) = delete;
};

/// push_back whose (rare) reallocation is sanctioned high-water growth:
/// the capacity-exhausted branch opens an allow scope, every other call
/// stays guard-clean — so a warmed-up (or reserve()d) container is still
/// enforced allocation-free at steady state.
template <typename Vec, typename Value>
inline void pushBackAmortized(Vec& vec, Value&& value) {
  if (vec.size() == vec.capacity()) {
    ALLOC_GUARD_ALLOW("amortized growth: only a full vector reallocates");
    vec.push_back(std::forward<Value>(value));
  } else {
    vec.push_back(std::forward<Value>(value));
  }
}

}  // namespace rfid::common
