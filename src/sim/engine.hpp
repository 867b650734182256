// The slot engine: one contention slot, end to end.
//
// The engine owns the mechanics every anti-collision protocol shares — tags
// put their contention signal on the air, the channel superposes, the
// detection scheme classifies, airtime is charged, and identification (or a
// phantom identification after a misdetected collision) is applied to tag
// state. Protocols only decide *who responds in which slot*.
//
// The scalar runSlot and the packed batch kernel differ only in how they
// encode, superpose and classify: both end in the one private commit,
// commitSlot (sim/engine_commit.hpp).
//
// Hot-path contract: the engine owns all per-slot scratch (the transmission
// buffers and the Reception it hands to the channel) and drives only the
// in-place APIs (contentionSignalInto, superposeInto), so once the scratch
// has reached its high-water capacity a slot performs zero heap
// allocations. bench/microbench_slot asserts this with a counting
// allocator.
#pragma once

#include <array>
#include <optional>
#include <span>
#include <vector>

#include "common/bitvec.hpp"
#include "common/rng.hpp"
#include "core/detection_scheme.hpp"
#include "phy/channel.hpp"
#include "phy/timing.hpp"
#include "sim/metrics.hpp"
#include "sim/trace.hpp"
#include "tags/tag.hpp"

namespace rfid::sim {

class TagSoA;

/// A batch of contention slots in CSR form: slot s's responders are
/// responders[offsets[s] .. offsets[s+1]) — indices into the tag
/// population, in the same per-slot order the scalar path would iterate
/// (the order fixes RNG consumption for per-slot schemes, so it is part of
/// the bit-identity contract).
struct SlotBatch {
  std::span<const std::uint32_t> responders;
  /// slotCount() + 1 monotonically non-decreasing indices into `responders`;
  /// the first entry must be 0 and the last responders.size().
  std::span<const std::uint32_t> offsets;

  std::size_t slotCount() const noexcept {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }
};

/// How the reader defends identification against channel noise. With
/// `ackVerify` on, every slot read as single costs one extra verify
/// exchange (`verifyBits` of airtime) in which the reader echoes the ID it
/// decoded and the tag confirms; a corrupted, captured-by-nobody, or
/// blocker-jammed read fails the echo, the reader treats the slot as
/// collided, and the responders stay active for re-query. Off, a corrupted
/// single silences the tag while the reader logs a wrong ID (a misread).
struct RecoveryPolicy {
  bool ackVerify = false;
  double verifyBits = 16.0;
};

class SlotEngine {
 public:
  /// Resolves the per-type slot airtime from `scheme` once, here, so the
  /// scheme must be fully constructed (and, like every scheme, immutable)
  /// when the engine is built.
  SlotEngine(const core::DetectionScheme& scheme, phy::Channel& channel,
             Metrics& metrics);

  /// Runs one slot in which `responders` (indices into `tags`) transmit.
  /// Classifies, charges airtime, and — when the reader reads the slot as
  /// single — performs the identification handshake:
  ///   * a cleanly received tag is marked correctly identified;
  ///   * if the "single" was a misdetected collision, every honest responder
  ///     is silenced by the phantom ACK and a phantom ID is recorded.
  /// Returns the slot type as the reader detected it (which is also what
  /// the reader broadcasts to the tags) — except under an ackVerify
  /// recovery policy, where a single whose verify exchange fails is
  /// returned as collided so the protocol re-queues its responders.
  phy::SlotType runSlot(std::span<tags::Tag> tags,
                        std::span<const std::size_t> responders,
                        common::Rng& rng);

  /// Batched equivalent of calling runSlot once per batch slot, in order:
  /// metrics, tag state, observer events, RNG consumption, and returned
  /// slot types are bit-identical to the scalar loop (the differential
  /// tests in tests/test_batch_kernel.cpp enforce this). When the scheme
  /// supports the packed API (packedKind() != kNone) and the channel is a
  /// pure OR (isPureOr()), whole slots are encoded, superposed, and
  /// classified at 64-bit-word granularity over `soa`'s arrays — with AVX2
  /// specializations where available — instead of driving the virtual
  /// per-responder BitVec path; otherwise the batch transparently falls
  /// back to slot-exact runSlot calls. `soa` must be a gather() of `tags`
  /// under this engine's scheme. `detectedOut`, when non-empty, must hold
  /// slotCount() entries and receives each slot's effective type (the
  /// runSlot return value).
  void runSlotsBatch(std::span<tags::Tag> tags, const TagSoA& soa,
                     const SlotBatch& batch, common::Rng& rng,
                     std::span<phy::SlotType> detectedOut = {});

  /// Frame-emission entry for the protocol layer: slot s's responders are
  /// honest.responders[honest.offsets[s] .. honest.offsets[s+1]) followed
  /// by every index in `blockers` — the "bucket + appended blockers" order
  /// FrameBatcher's per-slot reference emitter feeds runSlot. With no
  /// blockers the honest CSR is forwarded to runSlotsBatch as-is (zero
  /// copies); otherwise the blocker-appended rows are materialized into
  /// engine-owned scratch, grown at high-water marks only. Bit-identity
  /// with the scalar loop carries over from runSlotsBatch.
  void runSlotsBatchBlockers(std::span<tags::Tag> tags, const TagSoA& soa,
                             const SlotBatch& honest,
                             std::span<const std::size_t> blockers,
                             common::Rng& rng,
                             std::span<phy::SlotType> detectedOut = {});

  const core::DetectionScheme& scheme() const noexcept { return scheme_; }
  Metrics& metrics() noexcept { return metrics_; }

  /// Attaches a slot observer (nullptr detaches). The engine does not own
  /// it; events cost nothing when no observer is set.
  void setObserver(SlotObserver* observer) noexcept { observer_ = observer; }

  void setRecoveryPolicy(const RecoveryPolicy& policy) noexcept {
    recovery_ = policy;
    verifyMicros_ = scheme_.air().bitsToMicros(policy.verifyBits);
  }
  const RecoveryPolicy& recoveryPolicy() const noexcept { return recovery_; }

 private:
  /// Everything after classification, for runSlot and the packed kernel
  /// alike: per-type airtime, the ACK-verify exchange, identification or
  /// misread, the phantom ACK of a misdetected collision, the observer
  /// event and the slot-index advance. `capturedIndex` indexes `responders`
  /// (the one reply the reader demodulated cleanly, if any); `corrupted`
  /// says the channel flipped bits of it in flight. Returns the effective
  /// slot type (runSlot's return value). Defined in sim/engine_commit.hpp.
  template <typename Index>
  phy::SlotType commitSlot(std::span<tags::Tag> tags,
                           std::span<const Index> responders,
                           phy::SlotType detected,
                           std::optional<std::size_t> capturedIndex,
                           bool corrupted);
  void runSlotsBatchPacked(std::span<tags::Tag> tags, const TagSoA& soa,
                           const SlotBatch& batch, common::Rng& rng,
                           std::span<phy::SlotType> detectedOut) noexcept;
  void runSlotsBatchFallback(std::span<tags::Tag> tags,
                             const SlotBatch& batch, common::Rng& rng,
                             std::span<phy::SlotType> detectedOut);

  const core::DetectionScheme& scheme_;
  phy::Channel& channel_;
  Metrics& metrics_;
  SlotObserver* observer_ = nullptr;
  RecoveryPolicy recovery_;
  /// Airtime of each slot type (indexed by SlotType) and of one verify
  /// exchange, in microseconds — resolved once, not per slot.
  std::array<double, 3> slotMicros_{};
  double verifyMicros_ = 0.0;
  std::uint64_t slotIndex_ = 0;
  /// Per-responder transmission scratch. Grown only at a new high-water
  /// responder count; the element BitVecs are rewritten in place, never
  /// destroyed, so their word storage is reused across slots.
  std::vector<common::BitVec> txScratch_;
  /// Channel output scratch; its signal BitVec is likewise reused.
  phy::Reception rxScratch_;
  /// Batch-kernel scratch (engine_batch.cpp): packed transmissions,
  /// per-slot OR accumulators, verdicts, and the fallback path's responder
  /// index conversion buffer. All grown at high-water marks only.
  std::vector<std::uint64_t> batchTxWords_;
  std::vector<std::uint64_t> batchAccWords_;
  std::vector<phy::SlotType> batchVerdicts_;
  std::vector<std::size_t> batchResponders_;
  /// runSlotsBatchBlockers scratch: the blocker-appended CSR rows.
  std::vector<std::uint32_t> batchRowResponders_;
  std::vector<std::uint32_t> batchRowOffsets_;
};

}  // namespace rfid::sim
