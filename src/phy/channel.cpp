#include "phy/channel.hpp"

#include "common/alloc_guard.hpp"
#include "common/require.hpp"

namespace rfid::phy {

using common::BitVec;

namespace {

/// Engages out.signal (keeping any existing word storage) and returns it.
BitVec& signalScratch(Reception& out) noexcept {
  ALLOC_GUARD_HOT();
  if (!out.signal.has_value()) {
    out.signal.emplace();
  }
  return *out.signal;
}

/// Copies `src` into the scratch signal through BitVec's sanctioned
/// high-water-mark growth path (operator= would reallocate outside it on
/// the first slot of a larger signal).
// rfid:noexcept-allow: sliceInto validates the slice range
void copyIntoScratch(const BitVec& src, Reception& out) {
  ALLOC_GUARD_HOT();
  src.sliceInto(0, src.size(), signalScratch(out));
}

// rfid:noexcept-allow: the equal-length REQUIRE is a test-pinned contract
void orAllInto(std::span<const BitVec> transmissions, Reception& out) {
  ALLOC_GUARD_HOT();
  copyIntoScratch(transmissions.front(), out);
  BitVec& sum = *out.signal;
  for (std::size_t i = 1; i < transmissions.size(); ++i) {
    RFID_REQUIRE(transmissions[i].size() == sum.size(),
                 "superposed signals must be equally long");
    sum |= transmissions[i];
  }
}

}  // namespace

void Channel::beginSlot(std::uint64_t /*slotIndex*/) {}

Reception Channel::superpose(std::span<const BitVec> transmissions,
                             common::Rng& rng) {
  Reception r;
  superposeInto(transmissions, rng, r);
  return r;
}

// rfid:noexcept-allow: orAllInto carries the equal-length REQUIRE
void OrChannel::superposeInto(std::span<const BitVec> transmissions,
                              common::Rng& /*rng*/, Reception& out) {
  ALLOC_GUARD_HOT();
  out.capturedIndex.reset();
  out.erased = false;
  out.corrupted = false;
  if (transmissions.empty()) {
    out.signal.reset();
    return;
  }
  orAllInto(transmissions, out);
  if (transmissions.size() == 1) {
    out.capturedIndex = 0;
  }
}

CaptureChannel::CaptureChannel(double captureProbability)
    : p_(captureProbability) {
  RFID_REQUIRE(p_ >= 0.0 && p_ <= 1.0,
               "capture probability must be in [0, 1]");
}

// rfid:noexcept-allow: orAllInto carries the equal-length REQUIRE
void CaptureChannel::superposeInto(std::span<const BitVec> transmissions,
                                   common::Rng& rng, Reception& out) {
  ALLOC_GUARD_HOT();
  out.capturedIndex.reset();
  out.erased = false;
  out.corrupted = false;
  if (transmissions.empty()) {
    out.signal.reset();
    return;
  }
  if (transmissions.size() == 1) {
    copyIntoScratch(transmissions.front(), out);
    out.capturedIndex = 0;
    return;
  }
  if (rng.chance(p_)) {
    const std::size_t winner = rng.below(transmissions.size());
    copyIntoScratch(transmissions[winner], out);
    out.capturedIndex = winner;
    return;
  }
  orAllInto(transmissions, out);
}

}  // namespace rfid::phy
