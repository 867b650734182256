// Anti-collision protocol interface, the slot engine's one frame renderer,
// and the framed-ALOHA base that FSA and DFSA share.
//
// A protocol decides which tags respond in which slot; everything below
// that decision (contention signal, channel superposition, classification,
// airtime, identification handshakes) is the SlotEngine's job. This split is
// what lets every protocol run unchanged under CRC-CD, QCD or the ideal
// oracle — the paper's compatibility claim (§I).
//
// Every frame the slot engine runs is drawn by FrameBatcher: FSA and DFSA
// (FramedAloha runs their one frame loop, a protocol only sizes the next
// frame), Q-adaptive's Query rounds, the cardinality probe and the mobile
// inventory. (gen2::Gen2Reader models Gen2 at command level, with its own
// tag state machine, and does not run on the slot engine.)
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
  /// How a framed-ALOHA protocol emits its slots (FrameBatcher::runFrame).
  /// kBatched (the default) renders each frame as one CSR sim::SlotBatch
  /// and drives SlotEngine::runSlotsBatch — bit-identical to the per-slot
  /// emitter by the engine's equivalence contract (DESIGN.md §5d/§5e), but
  /// many times faster when the packed fast path engages. kScalar selects
  /// the per-slot runSlot reference emitter; it exists for the differential
  /// tests and as a debugging oracle. The tree walkers and Q-adaptive
  /// (which runs its drawn rows one at a time) ignore the mode.
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
  /// Indices of tags still contending (honest and not yet silenced), and
  /// of blocker tags (they respond in every slot they can hear). `out` is
  /// cleared and refilled, keeping its capacity, so a loop that reuses it
  /// performs no heap allocation here once it has reached its high-water
  /// mark.
  static void activeTagIndicesInto(std::span<const tags::Tag> tags,
                                   std::vector<std::size_t>& out);
  static void blockerIndicesInto(std::span<const tags::Tag> tags,
                                 std::vector<std::size_t>& out);
  /// Drops newly identified tags from an active list built by
  /// activeTagIndicesInto, preserving order, without rescanning the whole
  /// population. Valid because no protocol reactivates a tag mid-run
  /// (believesIdentified only ever flips to true); allocation-free.
  static void filterStillActive(std::span<const tags::Tag> tags,
                                std::vector<std::size_t>& active);

 private:
  /// FrameBatcher and SplitWalk reuse the Into-helpers for their own
  /// active/blocker scratch.
  friend class FrameBatcher;
  friend class SplitWalk;

  std::size_t maxSlots_;
  FrameMode frameMode_ = FrameMode::kBatched;
};

/// The slot engine's one frame renderer: FramedAloha's frames, Q-adaptive's
/// Query rounds, the cardinality probe and the mobile inventory all draw
/// their frames here.
///
/// One instance lives on its owner and is reused across frames and runs:
/// every vector grows to a high-water mark only, so steady-state frames
/// allocate nothing (bench/microbench_slot's frame-census pass counts).
/// Every active tag draws a slot in ascending tag order; each slot's
/// responders are its honest drawers in that order with every blocker
/// appended. The draw step (drawFrame) lays those rows out as one CSR
/// sim::SlotBatch by counting sort, every row reserving its blocker tail,
/// and writes nothing to the tags. runFrame then hands the whole batch to
/// the engine, or runRow hands it over one row at a time. The kScalar
/// reference emitter (runFrame only) buckets the draws and calls runSlot
/// once per slot. The engine's equivalence contract (DESIGN.md §5d) makes
/// all of these bit-identical: same RNG consumption order, same metrics,
/// same observer events, same tag state.
class FrameBatcher {
 public:
  /// Caches the blocker set, selects runFrame's emitter, and binds the SoA
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
  /// only drop newly identified tags from the previous set (no protocol
  /// reactivates a tag mid-run), so a frame costs O(backlog), not O(tags).
  std::span<const std::size_t> gatherActive(std::span<const tags::Tag> tags);

  /// The draw step: every tag in the last gatherActive() set draws a slot
  /// uniformly in [0, frameSize), and the draws landing in [0, slotsToRun)
  /// become the returned batch's rows (budget-truncated frames lay out only
  /// that prefix; a tag whose slot never runs does not contend this
  /// frame). The batch is valid until the next drawFrame or runFrame call.
  /// Throws PreconditionError, before any tag draws or any scratch grows,
  /// when called before beginRound, when the prefix is empty or longer
  /// than the frame, or when the rows (every active tag plus slotsToRun ×
  /// the blockers) could overflow the batch's 32-bit CSR indexing.
  sim::SlotBatch drawFrame(std::size_t frameSize, std::size_t slotsToRun,
                           common::Rng& rng);

  /// Runs row `slot` of the last drawn frame as a one-slot batch through
  /// SlotEngine::runSlotsBatch and returns its effective verdict. Running
  /// every row in order is bit-identical to running the whole batch at
  /// once; Q-adaptive does so because each verdict moves Q and may end the
  /// round early.
  phy::SlotType runRow(sim::SlotEngine& engine, std::span<tags::Tag> tags,
                       std::size_t slot, common::Rng& rng);

  /// Runs one frame over the last gatherActive() set. In kBatched mode it
  /// is drawFrame followed by one SlotEngine::runSlotsBatch over the whole
  /// batch; in kScalar mode the same draws feed runSlot one slot at a time.
  /// The returned span holds the slotsToRun effective per-slot verdicts
  /// (the runSlot return values), valid until the next runFrame call.
  /// Throws PreconditionError as drawFrame does.
  std::span<const phy::SlotType> runFrame(sim::SlotEngine& engine,
                                          std::span<tags::Tag> tags,
                                          std::size_t frameSize,
                                          std::size_t slotsToRun,
                                          common::Rng& rng);

 private:
  void requireFrame(std::size_t frameSize, std::size_t slotsToRun) const;

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
  /// The drawn frame's CSR rows: each slot's honest drawers, then the
  /// blockers. `rows_` is the slot count drawFrame laid out.
  std::vector<std::uint32_t> responders_;
  std::vector<std::uint32_t> offsets_;
  std::size_t rows_ = 0;
  std::vector<phy::SlotType> detected_;
  /// kScalar emitter: per-slot responder lists (honest, then blockers).
  std::vector<std::vector<std::size_t>> buckets_;
};

/// The framed-ALOHA family (§III-A; Lee et al.'s DFSA, §II): the reader
/// announces a frame of F slots, every unidentified tag draws one slot
/// uniformly and transmits there, and collided tags re-contend in the next
/// frame. The members differ only in how they size the next frame, so
/// this base owns the one frame loop and its FrameBatcher, and a protocol
/// supplies the first frame size and nextFrame().
class FramedAloha : public Protocol {
 public:
  bool run(sim::SlotEngine& engine, std::span<tags::Tag> tags,
           common::Rng& rng) final;
  bool runWithSnapshot(sim::SlotEngine& engine, std::span<tags::Tag> tags,
                       common::Rng& rng, const sim::TagSoA& soa) final;

 protected:
  FramedAloha(std::size_t firstFrame, std::size_t maxSlots)
      : Protocol(maxSlots), firstFrame_(firstFrame) {}

  /// The size of every round's first frame.
  std::size_t firstFrame() const noexcept { return firstFrame_; }

  /// The size of the frame that follows a whole frame whose effective
  /// per-slot verdicts are `verdicts` (one per slot, so verdicts.size() is
  /// that frame's size). Called only after a frame that drew a response.
  virtual std::size_t nextFrame(
      std::span<const phy::SlotType> verdicts) const = 0;

 private:
  bool runFrames(sim::SlotEngine& engine, std::span<tags::Tag> tags,
                 common::Rng& rng, const sim::TagSoA* soa);

  std::size_t firstFrame_;
  FrameBatcher batcher_;
};

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
  // Branch-free compaction: every index is written at the cursor, which
  // advances past the ones still contending.
  std::size_t kept = 0;
  for (const std::size_t idx : active) {
    active[kept] = idx;
    kept += static_cast<std::size_t>(!tags[idx].believesIdentified);
  }
  active.resize(kept);
}

}  // namespace rfid::anticollision
