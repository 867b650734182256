// RFID-HOT-006 fixture: a slot-kernel file (same path as the real batch
// kernel) with no function that opens ALLOC_GUARD_HOT(). The code itself is
// harmless — the violation is the *absence* of coverage, which would leave
// the zero-alloc check (RFID-HOT-002) with nothing to scan here.
#include <cstdint>

namespace rfid::sim {

std::uint64_t orWords(const std::uint64_t* words, std::uint64_t count) {
  std::uint64_t acc = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    acc |= words[i];
  }
  return acc;
}

}  // namespace rfid::sim
