// Replaceable global operator new/delete for the RFID_ENFORCE_HOT build.
//
// Compiled into rfid_common only when RFID_ENFORCE_HOT is on (see
// src/common/CMakeLists.txt), so default builds keep the system allocator
// untouched.  Every allocation funnels through
// alloc_guard_detail::recordAlloc, which turns heap activity inside an
// ALLOC_GUARD_HOT() scope (with no ALLOC_GUARD_ALLOW scope open) into a
// recorded violation; the ExitCheck static below then fails the whole
// process at exit so no guarded test binary can report green with a dirty
// hot path.
//
// bench/microbench_slot.cpp replaces operator new itself to count
// steady-state allocations; under RFID_ENFORCE_HOT it compiles its
// replacement out and reads AllocGuard::processAllocations() instead, so
// the two counters can never disagree with each other.
#ifdef RFID_ENFORCE_HOT

#include <cstdio>
#include <cstdlib>
#include <new>

#include "common/alloc_guard.hpp"

namespace {

using rfid::common::alloc_guard_detail::recordAlloc;
using rfid::common::alloc_guard_detail::recordDealloc;

void* allocate(std::size_t n) noexcept {
  recordAlloc(n);
  return std::malloc(n != 0 ? n : 1);
}

void* allocateAligned(std::size_t n, std::size_t alignment) noexcept {
  recordAlloc(n);
  void* p = nullptr;
  if (posix_memalign(&p, alignment, n != 0 ? n : alignment) != 0) {
    return nullptr;
  }
  return p;
}

// At process exit, a nonzero violation count must not pass silently: gtest
// may have reported every assertion green while a guarded hot function
// allocated.  _Exit skips further static destruction; the diagnostic has
// already been written.
struct ExitCheck {
  ~ExitCheck() {
    const std::uint64_t violations =
        rfid::common::AllocGuard::processViolations();
    if (violations != 0) {
      std::fprintf(stderr,
                   "AllocGuard: FAIL — %llu heap allocation(s) inside "
                   "ALLOC_GUARD_HOT() scopes (RFID_ENFORCE_HOT)\n",
                   static_cast<unsigned long long>(violations));
      std::_Exit(1);
    }
  }
};
ExitCheck gExitCheck;

}  // namespace

void* operator new(std::size_t n) {
  if (void* p = allocate(n)) {
    return p;
  }
  throw std::bad_alloc{};
}

void* operator new[](std::size_t n) { return ::operator new(n); }

void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return allocate(n);
}

void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return allocate(n);
}

void* operator new(std::size_t n, std::align_val_t al) {
  if (void* p = allocateAligned(n, static_cast<std::size_t>(al))) {
    return p;
  }
  throw std::bad_alloc{};
}

void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}

void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return allocateAligned(n, static_cast<std::size_t>(al));
}

void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return allocateAligned(n, static_cast<std::size_t>(al));
}

void operator delete(void* p) noexcept {
  recordDealloc();
  std::free(p);
}

void operator delete[](void* p) noexcept {
  recordDealloc();
  std::free(p);
}

void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }

void operator delete[](void* p, std::size_t) noexcept {
  ::operator delete[](p);
}

void operator delete(void* p, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}

void operator delete[](void* p, const std::nothrow_t&) noexcept {
  ::operator delete[](p);
}

void operator delete(void* p, std::align_val_t) noexcept {
  ::operator delete(p);
}

void operator delete[](void* p, std::align_val_t) noexcept {
  ::operator delete[](p);
}

void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  ::operator delete(p);
}

void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  ::operator delete[](p);
}

#endif  // RFID_ENFORCE_HOT
