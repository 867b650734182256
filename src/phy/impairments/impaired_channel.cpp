#include "phy/impairments/impaired_channel.hpp"

#include <utility>

#include "common/alloc_guard.hpp"
#include "common/require.hpp"

namespace rfid::phy {

using common::BitVec;
using common::Rng;

ImpairedChannel::ImpairedChannel(Channel& inner, std::uint64_t seed)
    : inner_(inner), seed_(seed) {}

void ImpairedChannel::addImpairment(std::unique_ptr<Impairment> impairment) {
  RFID_REQUIRE(impairment != nullptr, "impairment must not be null");
  impairments_.push_back(std::move(impairment));
}

bool ImpairedChannel::addImpairment(const ImpairmentConfig& config) {
  std::unique_ptr<Impairment> model = makeImpairment(config);
  if (!model) return false;
  impairments_.push_back(std::move(model));
  return true;
}

void ImpairedChannel::beginSlot(std::uint64_t slotIndex) {
  externallyDriven_ = true;
  currentSlot_ = slotIndex;
  inner_.beginSlot(slotIndex);
}

// rfid:noexcept-allow: the inner channel's superposeInto carries the
// test-pinned equal-length REQUIRE
void ImpairedChannel::superposeInto(std::span<const BitVec> transmissions,
                                    Rng& rng, Reception& out) {
  ALLOC_GUARD_HOT();
  const std::uint64_t slot = currentSlot_;
  if (!externallyDriven_ && !transmissions.empty()) {
    ++currentSlot_;
  }
  if (impairments_.empty() || transmissions.empty()) {
    // Nothing between the tags and the inner channel; idle slots likewise
    // pass straight through (the engine never sends them anyway).
    inner_.superposeInto(transmissions, rng, out);
    return;
  }

  ++stats_.slots;
  stats_.transmissions += transmissions.size();
  Rng slotRng = Rng::forStream(seed_, slot);

  // Deep-fade leg. Every model votes (no short-circuit) so a model's draw
  // count never depends on another model's outcome.
  bool faded = false;
  for (const auto& imp : impairments_) {
    if (imp->erasesSlot(slot, slotRng, stats_)) faded = true;
  }
  if (faded) {
    ++stats_.slotsErased;
    out.capturedIndex.reset();
    out.erased = true;
    out.corrupted = false;
    // out.signal is left engaged-but-stale on purpose: resetting it would
    // drop the scratch storage and force the next busy slot to reallocate.
    return;
  }

  // Tag→reader leg: copy each transmission into owned scratch (the
  // caller's span is const), flip/drop it, and compact the survivors.
  if (txScratch_.size() < transmissions.size()) {
    ALLOC_GUARD_ALLOW("high-water-mark growth; steady state reuses storage");
    txScratch_.resize(transmissions.size());
    liveIndex_.resize(transmissions.size());
    txFlips_.resize(transmissions.size());
  }
  std::size_t live = 0;
  for (std::size_t i = 0; i < transmissions.size(); ++i) {
    BitVec& copy = txScratch_[live];
    // In-place copy: sliceInto routes any first-call storage growth through
    // BitVec's sanctioned high-water-mark path (operator= would not).
    transmissions[i].sliceInto(0, transmissions[i].size(), copy);
    const std::uint64_t flipsBefore = stats_.bitsFlippedTagToReader;
    bool kept = true;
    for (const auto& imp : impairments_) {
      if (!imp->transmissionPass(slot, i, copy, slotRng, stats_)) {
        kept = false;
        break;
      }
    }
    if (!kept) {
      ++stats_.transmissionsDropped;
      continue;
    }
    liveIndex_[live] = i;
    txFlips_[live] = stats_.bitsFlippedTagToReader - flipsBefore;
    ++live;
  }
  if (live == 0) {
    // Every reply erased in flight — indistinguishable from a deep fade at
    // the reader, and bookkept as one.
    ++stats_.slotsErased;
    out.capturedIndex.reset();
    out.erased = true;
    out.corrupted = false;
    return;
  }

  inner_.superposeInto({txScratch_.data(), live}, rng, out);

  // Reader leg: detection errors on the superposed signal.
  std::uint64_t rxFlips = 0;
  if (out.signal.has_value()) {
    const std::uint64_t flipsBefore = stats_.bitsFlippedDetection;
    for (const auto& imp : impairments_) {
      imp->receptionPass(slot, *out.signal, slotRng, stats_);
    }
    rxFlips = stats_.bitsFlippedDetection - flipsBefore;
  }

  // The inner channel indexed into the compacted span; translate a captured
  // read back to the caller's indexing, and flag it corrupted when its
  // reply (or the superposition) was flipped in flight.
  bool capturedCorrupted = false;
  if (out.capturedIndex.has_value()) {
    const std::size_t liveIdx = *out.capturedIndex;
    capturedCorrupted = txFlips_[liveIdx] > 0;
    out.capturedIndex = liveIndex_[liveIdx];
  }
  out.erased = false;
  out.corrupted = capturedCorrupted || rxFlips > 0;
}

}  // namespace rfid::phy
