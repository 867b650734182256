// Bernoulli ("birthday") contention — the neighbor-discovery extension the
// paper's conclusion points at (§VII, citing Vasudevan et al.'s coupon-
// collector analysis).
//
// Instead of frames, every undiscovered node independently transmits in
// each slot with probability p. At p = 1/n the per-slot success probability
// approaches 1/e and discovery of all n nodes is a coupon-collector process
// (≈ e·n·ln n slots). The reader/listener cannot know n, so p is adapted
// from the observed slot type: multiplicative decrease on collision,
// multiplicative increase on idle — the classic stabilisation rule.
//
// Collision detection is what makes the slot feedback possible at all, so
// QCD's cheap preambles shorten every one of those ~e·n·ln n slots.
//
// Each slot's transmitters (the undiscovered nodes whose coin came up, in
// index order, then every blocker) run as a one-row sim::SlotBatch over
// the run's TagSoA snapshot, so on a pure OR channel the slot takes the
// packed kernel. The scratch lives on the protocol and grows to high-water
// marks only.
#pragma once

#include <cstdint>
#include <vector>

#include "anticollision/protocol.hpp"

namespace rfid::anticollision {

class BirthdayProtocol final : public Protocol {
 public:
  /// `initialP` is the first-slot transmit probability; adaptation keeps p
  /// within [minP, 1].
  explicit BirthdayProtocol(double initialP = 0.5, double minP = 1e-6,
                            std::size_t maxSlots = kDefaultMaxSlots);

  std::string name() const override;
  bool runWithSnapshot(sim::SlotEngine& engine, std::span<tags::Tag> tags,
                       common::Rng& rng, const sim::TagSoA& soa) override;

 private:
  double initialP_;
  double minP_;
  std::vector<std::size_t> blockers_;
  /// Undiscovered nodes, in index order.
  std::vector<std::size_t> active_;
  /// One slot's CSR row: the transmitting nodes, then the blockers.
  std::vector<std::uint32_t> row_;
};

/// Expected slots for full discovery at the optimal fixed p = 1/n when
/// discovered nodes are acknowledged and fall silent (this protocol's
/// model): each slot succeeds with probability ~1/e, so ≈ e·n slots.
double birthdayExpectedSlotsWithSilencing(std::size_t nodes);

/// Expected slots when discovered nodes keep transmitting (classic
/// neighbor discovery without feedback, Vasudevan et al.): the coupon-
/// collector bound e·n·H_n (H_n the n-th harmonic number).
double birthdayExpectedSlotsCouponCollector(std::size_t nodes);

}  // namespace rfid::anticollision
