// Anti-collision protocol interface.
//
// A protocol decides which tags respond in which slot; everything below
// that decision (contention signal, channel superposition, classification,
// airtime, identification handshakes) is the SlotEngine's job. This split is
// what lets every protocol run unchanged under CRC-CD, QCD or the ideal
// oracle — the paper's compatibility claim (§I).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/alloc_guard.hpp"
#include "common/rng.hpp"
#include "sim/engine.hpp"
#include "sim/tag_soa.hpp"
#include "tags/tag.hpp"

namespace rfid::anticollision {

class Protocol {
 public:
  /// How a frame-based protocol emits its slots (FrameBatcher::runFrame).
  /// kBatched (the default) renders each frame as one CSR sim::SlotBatch
  /// and drives SlotEngine::runSlotsBatch — bit-identical to the per-slot
  /// emitter by the engine's equivalence contract (DESIGN.md §5d/§5e), but
  /// many times faster when the packed fast path engages. kScalar selects
  /// the per-slot runSlot reference emitter; it exists for the differential
  /// tests and as a debugging oracle. Protocols without a batched path (the
  /// tree walkers, Q-adaptive) ignore the mode.
  enum class FrameMode { kBatched, kScalar };

  /// `maxSlots` is a safety cap: a run that exceeds it aborts and run()
  /// returns false. Adversarial populations (blocker tags) rely on it.
  explicit Protocol(std::size_t maxSlots = kDefaultMaxSlots)
      : maxSlots_(maxSlots) {}
  virtual ~Protocol() = default;

  virtual std::string name() const = 0;

  /// Runs one full identification procedure: returns true when every honest
  /// tag fell silent (believes it was identified) within the slot budget.
  /// Callers reset tag state beforehand (Tag::resetForRound) unless the
  /// protocol is adaptive across rounds (ABS/AQS keep reservation state).
  virtual bool run(sim::SlotEngine& engine, std::span<tags::Tag> tags,
                   common::Rng& rng) = 0;

  /// As run(), but with a caller-provided SoA snapshot of `tags` gathered
  /// under the engine's scheme (sim::TagSoA::gather). Frame-batched
  /// protocols reuse it instead of re-gathering — the experiment runner
  /// gathers once per Monte-Carlo round and shares the snapshot across the
  /// initial census and every recovery pass. Blocker flags and tag IDs must
  /// not change while the snapshot is in use. The default forwards to
  /// run(), ignoring the snapshot.
  virtual bool runWithSnapshot(sim::SlotEngine& engine,
                               std::span<tags::Tag> tags, common::Rng& rng,
                               const sim::TagSoA& soa) {
    (void)soa;
    return run(engine, tags, rng);
  }

  void setFrameMode(FrameMode mode) noexcept { frameMode_ = mode; }
  FrameMode frameMode() const noexcept { return frameMode_; }

  std::size_t maxSlots() const noexcept { return maxSlots_; }

  static constexpr std::size_t kDefaultMaxSlots = 20'000'000;

 protected:
  /// Indices of tags still contending (honest and not yet silenced).
  static std::vector<std::size_t> activeTagIndices(
      std::span<const tags::Tag> tags);
  /// Indices of blocker tags (they respond in every slot they can hear).
  static std::vector<std::size_t> blockerIndices(
      std::span<const tags::Tag> tags);
  /// In-place variants for per-frame scratch reuse: `out` is cleared and
  /// refilled, keeping its capacity — after the first frame reaches the
  /// high-water mark, a frame loop performs no heap allocation here.
  static void activeTagIndicesInto(std::span<const tags::Tag> tags,
                                   std::vector<std::size_t>& out);
  static void blockerIndicesInto(std::span<const tags::Tag> tags,
                                 std::vector<std::size_t>& out);
  /// Drops newly identified tags from an active list built by
  /// activeTagIndicesInto, preserving order, without rescanning the whole
  /// population. Valid because FSA/DFSA never reactivate a tag mid-run
  /// (believesIdentified only ever flips to true); allocation-free.
  static void filterStillActive(std::span<const tags::Tag> tags,
                                std::vector<std::size_t>& active);

 private:
  /// FrameBatcher reuses the Into-helpers for its own active/blocker scratch.
  friend class FrameBatcher;

  std::size_t maxSlots_;
  FrameMode frameMode_ = FrameMode::kBatched;
};

/// The frame emitter of the framed-ALOHA protocols (FSA/DFSA).
///
/// One instance lives on the protocol and is reused across frames and
/// runs: every vector grows to a high-water mark only, so steady-state
/// frames allocate nothing (bench/microbench_slot's frame-census pass
/// counts). Every active tag draws a slot in ascending tag order; each
/// slot's responders are its honest drawers in that order with every
/// blocker appended. Two emitters feed those slots to the engine, chosen
/// by the mode passed to beginRound: kBatched renders the whole frame as
/// one CSR sim::SlotBatch by counting sort, kScalar buckets the draws and
/// calls runSlot once per slot. The engine's equivalence contract
/// (DESIGN.md §5d) makes the two bit-identical: same RNG consumption
/// order, same metrics, same observer events, same tag state.
class FrameBatcher {
 public:
  /// Caches the blocker set, selects the round's emitter, and binds the SoA
  /// snapshot for the round: `shared` when the caller gathered one
  /// (runWithSnapshot), otherwise a freshly gathered private snapshot. Call
  /// at the top of every run(); blocker flags and tag IDs must stay fixed
  /// for the rest of the round.
  void beginRound(std::span<const tags::Tag> tags,
                  const sim::SlotEngine& engine, const sim::TagSoA* shared,
                  Protocol::FrameMode mode = Protocol::FrameMode::kBatched);

  /// Blocker indices cached by beginRound.
  std::span<const std::size_t> blockers() const noexcept { return blockers_; }

  /// Refreshes and returns the still-contending honest tag set (ascending
  /// index order — the order that fixes per-slot RNG consumption). The
  /// first call after beginRound scans the whole population; later calls
  /// only drop newly identified tags from the previous set (FSA/DFSA never
  /// reactivate a tag mid-run), so a frame costs O(backlog), not O(tags).
  std::span<const std::size_t> gatherActive(std::span<const tags::Tag> tags);

  /// Runs one frame: every tag in the last gatherActive() set draws a slot
  /// uniformly in [0, frameSize); draws landing in [0, slotsToRun) are
  /// committed to tags[idx].slotChoice and contend (budget-truncated frames
  /// run only that prefix — a tag whose slot never runs keeps its previous
  /// slotChoice and stays active). In kBatched mode the CSR batch goes
  /// through SlotEngine::runSlotsBatchBlockers, in kScalar mode each slot
  /// through runSlot; the returned span holds the slotsToRun effective
  /// per-slot verdicts (the runSlot return values), valid until the next
  /// runFrame call.
  std::span<const phy::SlotType> runFrame(sim::SlotEngine& engine,
                                          std::span<tags::Tag> tags,
                                          std::size_t frameSize,
                                          std::size_t slotsToRun,
                                          common::Rng& rng);

 private:
  Protocol::FrameMode mode_ = Protocol::FrameMode::kBatched;
  const sim::TagSoA* soa_ = nullptr;
  sim::TagSoA ownSoa_;
  std::vector<std::size_t> blockers_;
  std::vector<std::size_t> active_;
  /// False until the round's first gatherActive full scan has run.
  bool activeGathered_ = false;
  /// Per-active-tag slot draws for the current frame (counting-sort input).
  std::vector<std::uint32_t> draws_;
  /// Per-slot honest responder counts, then reused as placement cursors.
  std::vector<std::uint32_t> counts_;
  std::vector<std::uint32_t> responders_;
  std::vector<std::uint32_t> offsets_;
  std::vector<phy::SlotType> detected_;
  /// kScalar emitter: per-slot responder lists (honest, then blockers).
  std::vector<std::vector<std::size_t>> buckets_;
};

inline std::vector<std::size_t> Protocol::activeTagIndices(
    std::span<const tags::Tag> tags) {
  std::vector<std::size_t> idx;
  activeTagIndicesInto(tags, idx);
  return idx;
}

inline std::vector<std::size_t> Protocol::blockerIndices(
    std::span<const tags::Tag> tags) {
  std::vector<std::size_t> idx;
  blockerIndicesInto(tags, idx);
  return idx;
}

inline void Protocol::activeTagIndicesInto(std::span<const tags::Tag> tags,
                                           std::vector<std::size_t>& out) {
  out.clear();
  for (std::size_t i = 0; i < tags.size(); ++i) {
    if (!tags[i].blocker && !tags[i].believesIdentified) {
      // Amortized: FrameBatcher calls this under the frame loop's
      // allocation guard, and the scratch vector's capacity is reused
      // across frames.
      common::pushBackAmortized(out, i);
    }
  }
}

inline void Protocol::blockerIndicesInto(std::span<const tags::Tag> tags,
                                         std::vector<std::size_t>& out) {
  out.clear();
  for (std::size_t i = 0; i < tags.size(); ++i) {
    if (tags[i].blocker) {
      // Amortized for the same reason as activeTagIndicesInto.
      common::pushBackAmortized(out, i);
    }
  }
}

inline void Protocol::filterStillActive(std::span<const tags::Tag> tags,
                                        std::vector<std::size_t>& active) {
  std::size_t kept = 0;
  for (const std::size_t idx : active) {
    if (!tags[idx].believesIdentified) {
      active[kept++] = idx;
    }
  }
  active.resize(kept);
}

}  // namespace rfid::anticollision
