#include "phy/impairments/fault_injector.hpp"

#include <algorithm>

namespace rfid::phy {

Fault Fault::flipTransmissionBit(std::uint64_t slot, std::size_t txIndex,
                                 std::size_t bit) {
  Fault f;
  f.slot = slot;
  f.kind = Kind::kFlipTransmissionBit;
  f.txIndex = txIndex;
  f.bit = bit;
  return f;
}

Fault Fault::flipReceptionBit(std::uint64_t slot, std::size_t bit) {
  Fault f;
  f.slot = slot;
  f.kind = Kind::kFlipReceptionBit;
  f.bit = bit;
  return f;
}

Fault Fault::dropTransmission(std::uint64_t slot, std::size_t txIndex) {
  Fault f;
  f.slot = slot;
  f.kind = Kind::kDropTransmission;
  f.txIndex = txIndex;
  return f;
}

Fault Fault::eraseSlot(std::uint64_t slot) {
  Fault f;
  f.slot = slot;
  f.kind = Kind::kEraseSlot;
  return f;
}

FaultInjector::FaultInjector(std::vector<Fault> faults)
    : faults_(std::move(faults)) {
  std::stable_sort(faults_.begin(), faults_.end(),
                   [](const Fault& a, const Fault& b) { return a.slot < b.slot; });
}

std::string FaultInjector::name() const { return "fault-injector"; }

void FaultInjector::slotRange(std::uint64_t slotIndex, std::size_t& first,
                              std::size_t& last) noexcept {
  ALLOC_GUARD_HOT();
  while (cursor_ < faults_.size() && faults_[cursor_].slot < slotIndex) {
    ++cursor_;
  }
  first = cursor_;
  last = first;
  while (last < faults_.size() && faults_[last].slot == slotIndex) {
    ++last;
  }
}

bool FaultInjector::erasesSlot(std::uint64_t slotIndex,
                               common::Rng& /*slotRng*/,
                               ImpairmentStats& stats) noexcept {
  ALLOC_GUARD_HOT();
  std::size_t first = 0;
  std::size_t last = 0;
  slotRange(slotIndex, first, last);
  for (std::size_t i = first; i < last; ++i) {
    if (faults_[i].kind == Fault::Kind::kEraseSlot) {
      ++stats.faultsApplied;
      return true;
    }
  }
  return false;
}

bool FaultInjector::transmissionPass(std::uint64_t slotIndex,
                                     std::size_t txIndex, common::BitVec& tx,
                                     common::Rng& /*slotRng*/,
                                     ImpairmentStats& stats) noexcept {
  ALLOC_GUARD_HOT();
  std::size_t first = 0;
  std::size_t last = 0;
  slotRange(slotIndex, first, last);
  for (std::size_t i = first; i < last; ++i) {
    const Fault& f = faults_[i];
    if (f.txIndex != txIndex) continue;
    if (f.kind == Fault::Kind::kDropTransmission) {
      ++stats.faultsApplied;
      return false;
    }
    if (f.kind == Fault::Kind::kFlipTransmissionBit && f.bit < tx.size()) {
      tx.set(f.bit, !tx.test(f.bit));
      ++stats.bitsFlippedTagToReader;
      ++stats.faultsApplied;
    }
  }
  return true;
}

void FaultInjector::receptionPass(std::uint64_t slotIndex,
                                  common::BitVec& signal,
                                  common::Rng& /*slotRng*/,
                                  ImpairmentStats& stats) noexcept {
  ALLOC_GUARD_HOT();
  std::size_t first = 0;
  std::size_t last = 0;
  slotRange(slotIndex, first, last);
  for (std::size_t i = first; i < last; ++i) {
    const Fault& f = faults_[i];
    if (f.kind == Fault::Kind::kFlipReceptionBit && f.bit < signal.size()) {
      signal.set(f.bit, !signal.test(f.bit));
      ++stats.bitsFlippedDetection;
      ++stats.faultsApplied;
    }
  }
}

}  // namespace rfid::phy
