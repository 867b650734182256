// Process-wide heap allocation counter behind allocationCount(): replaces
// the global operator new/delete, as bench/microbench_slot does.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "trace.hpp"

namespace {
std::atomic<std::uint64_t> gAllocations{0};
}  // namespace

std::uint64_t rfidbench::allocationCount() noexcept {
  return gAllocations.load(std::memory_order_relaxed);
}

void* operator new(std::size_t n) {
  gAllocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
