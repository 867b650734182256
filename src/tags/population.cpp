#include "tags/population.hpp"

#include <algorithm>
#include <bit>

#include "common/require.hpp"

namespace rfid::tags {

std::vector<Tag> makeUniformPopulation(std::size_t count, std::size_t idBits,
                                       common::Rng& rng) {
  RFID_REQUIRE(idBits >= 1 && idBits <= 64, "idBits must be in [1, 64]");
  // Need `count` distinct non-zero IDs.
  if (idBits < 64) {
    RFID_REQUIRE(count < (std::uint64_t{1} << idBits),
                 "idBits too small for a unique population of this size");
  }

  std::vector<Tag> tags;
  tags.reserve(count);
  // The seen-set: open addressing with linear probing over a power-of-two
  // table at most half full. 0 marks an empty cell, which is safe because
  // IDs are non-zero (idle air is the all-zero signal).
  const std::size_t cells = std::bit_ceil(std::max<std::size_t>(2 * count, 2));
  const int hashShift = 64 - std::countr_zero(cells);
  std::vector<std::uint64_t> seen(cells, 0);
  while (tags.size() < count) {
    const std::uint64_t value =
        idBits == 64 ? rng() : rng.bits(static_cast<unsigned>(idBits));
    if (value == 0) continue;
    // Fibonacci hashing: the top bits of value·2^64/φ pick the first cell.
    std::size_t cell =
        static_cast<std::size_t>((value * 0x9e3779b97f4a7c15ull) >> hashShift);
    while (seen[cell] != 0 && seen[cell] != value) {
      cell = (cell + 1) & (cells - 1);
    }
    if (seen[cell] == value) continue;  // IDs are unique
    seen[cell] = value;
    Tag& t = tags.emplace_back();
    t.idValue = value;
    t.id.assignUint(value, idBits);
  }
  return tags;
}

Tag makeBlockerTag(std::size_t idBits) {
  RFID_REQUIRE(idBits >= 1 && idBits <= 64, "idBits must be in [1, 64]");
  Tag t;
  t.blocker = true;
  t.id = common::BitVec(idBits, true);
  t.idValue = t.id.toUint();
  return t;
}

std::size_t countBelievedIdentified(const std::vector<Tag>& tags) {
  std::size_t n = 0;
  for (const Tag& t : tags) {
    if (t.believesIdentified) ++n;
  }
  return n;
}

std::size_t countCorrectlyIdentified(const std::vector<Tag>& tags) {
  std::size_t n = 0;
  for (const Tag& t : tags) {
    if (t.correctlyIdentified) ++n;
  }
  return n;
}

}  // namespace rfid::tags
