// Detection schemes — the pluggable collision-detection axis.
//
// A DetectionScheme bundles the three things the paper varies between
// CRC-CD and QCD while holding the anti-collision protocol fixed:
//
//   1. what a responding tag transmits in the contention phase of a slot,
//   2. how the reader classifies the superposed contention signal into
//      idle / single / collided,
//   3. how much airtime each slot type costs (QCD's variable-length slots
//      are half of its win; see phy/timing.hpp).
//
// Because the scheme is below the air protocol, any protocol in
// src/anticollision/ runs unmodified under any scheme — the paper's
// "no modification on upper-level air protocols" claim, which the test
// suite checks by running the full protocol × scheme matrix.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "common/bitvec.hpp"
#include "common/rng.hpp"
#include "crc/crc.hpp"
#include "core/qcd.hpp"
#include "phy/air_interface.hpp"
#include "phy/timing.hpp"
#include "tags/tag.hpp"

namespace rfid::core {

class DetectionScheme {
 public:
  virtual ~DetectionScheme() = default;

  virtual std::string name() const = 0;

  /// Length of the contention-phase transmission in bits.
  virtual std::size_t contentionBits() const = 0;

  /// The bits a responding tag transmits in the contention phase. Blocker
  /// tags are handled by the engine (they jam with all-ones) — this is the
  /// honest-tag behaviour. Renders through contentionSignalInto into a
  /// fresh BitVec, so a scheme writes its signal once.
  virtual common::BitVec contentionSignal(const tags::Tag& tag,
                                          common::Rng& tagRng) const;

  /// In-place form of contentionSignal, the one every scheme writes: the
  /// contention bits go into `out`, reusing its word storage. The slot
  /// engine calls this on per-responder scratch so steady-state slots
  /// perform zero heap allocations; every built-in scheme writes it
  /// allocation-free.
  virtual void contentionSignalInto(const tags::Tag& tag, common::Rng& tagRng,
                                    common::BitVec& out) const = 0;

  /// Classifies the superposed contention signal. `trueResponders` is
  /// ground truth available only to oracle schemes (the ideal lower bound);
  /// physical schemes must ignore it.
  virtual phy::SlotType classify(
      const std::optional<common::BitVec>& signal,
      std::size_t trueResponders) const = 0;

  /// True when the contention signal already carries the ID (CRC-CD), so a
  /// single slot needs no separate ID phase.
  virtual bool idIsInContention() const = 0;

  /// Extracts the ID from a cleanly received contention signal. Only valid
  /// when idIsInContention().
  virtual common::BitVec idFromContention(const common::BitVec& signal) const;

  /// Airtime cost per slot type, in bit-times. For schemes with a separate
  /// ID phase (QCD), the single-slot figure includes the ID transfer.
  virtual phy::SlotTiming timing() const = 0;

  // --- packed batch API (sim::SlotEngine::runSlotsBatch) ---------------------
  //
  // The batch kernel superposes whole slots at 64-bit-word granularity
  // instead of driving the per-responder BitVec path. A scheme opts in by
  // reporting how its contention signal is produced (PackedKind) and by
  // classifying packed superpositions; the packed representation is simply
  // BitVec's word layout (signal bit i at bit i mod 64 of word i / 64), so
  // packed and BitVec routes are bit-identical by construction.

  /// How this scheme participates in the packed batch kernel.
  enum class PackedKind : std::uint8_t {
    kNone,     ///< no packed support — the batch path falls back to runSlot
    kStatic,   ///< signal is a pure function of the tag, drawn without
               ///< randomness; packed once per census (CRC-CD, Ideal)
    kPerSlot,  ///< signal is drawn fresh for every slot via packedDraw (QCD)
  };

  virtual PackedKind packedKind() const noexcept { return PackedKind::kNone; }

  /// contentionBits() rounded up to 64-bit words — the stride of every
  /// packed signal array for this scheme.
  std::size_t contentionWords() const { return (contentionBits() + 63) / 64; }

  /// Packs the randomness-free contention signal of `tag` into
  /// out[0 .. contentionWords()). Only meaningful for kStatic schemes and
  /// called at gather time (off the hot path), so the default — which
  /// renders contentionSignal with a throwaway Rng, valid precisely because
  /// a kStatic signal consumes none of it — may allocate.
  virtual void packedStaticSignal(const tags::Tag& tag,
                                  std::uint64_t* out) const;

  /// Draws one packed contention signal into out[0 .. contentionWords()),
  /// consuming exactly the randomness contentionSignalInto would (the batch
  /// kernel's bit-identity with the scalar path depends on it). Only
  /// meaningful for kPerSlot schemes; the default throws.
  virtual void packedDraw(common::Rng& tagRng, std::uint64_t* out) const;

  /// Draws `n` packed contention signals into out[0 .. n·contentionWords()),
  /// exactly equivalent to n successive packedDraw calls (the default is
  /// that loop). kPerSlot schemes may override to hoist per-draw overhead —
  /// the batch kernel encodes each run of consecutive honest responders
  /// through one call.
  virtual void packedDrawRun(common::Rng& tagRng, std::size_t n,
                             std::uint64_t* out) const;

  /// Batch classify over packed OR-superposed signals: slot i occupies
  /// superposed[i·contentionWords() ..), and its responder count is
  /// slotOffsets[i+1] − slotOffsets[i] (CSR offsets, count+1 entries).
  /// Must match classify() on the pure-OR channel verdict for verdict:
  /// zero responders or an all-zero superposition → kIdle, otherwise the
  /// scheme's single/collided test. Required for kStatic and kPerSlot
  /// schemes; the default throws.
  virtual void classifyPacked(const std::uint64_t* superposed,
                              const std::uint32_t* slotOffsets,
                              std::size_t count, phy::SlotType* out) const;

  const phy::AirInterface& air() const noexcept { return air_; }

 protected:
  explicit DetectionScheme(phy::AirInterface air) : air_(air) {}

 private:
  phy::AirInterface air_;
};

/// CRC-CD (§I, Fig. 1): tags transmit id ⊕ crc(id) in every slot; the reader
/// recomputes the CRC over the superposed ID part and compares it with the
/// superposed code part. Every slot type costs l_id + l_crc bit-times.
class CrcCdScheme final : public DetectionScheme {
 public:
  /// Uses the given CRC algorithm; the paper's configuration is CRC-32 over
  /// 64-bit EPC IDs (§VI-A).
  CrcCdScheme(phy::AirInterface air, crc::CrcSpec spec);
  /// Paper default: CRC-32.
  explicit CrcCdScheme(phy::AirInterface air);

  std::string name() const override;
  std::size_t contentionBits() const override;
  void contentionSignalInto(const tags::Tag& tag, common::Rng& tagRng,
                            common::BitVec& out) const override;
  phy::SlotType classify(const std::optional<common::BitVec>& signal,
                         std::size_t trueResponders) const override;
  bool idIsInContention() const override { return true; }
  common::BitVec idFromContention(const common::BitVec& signal) const override;
  phy::SlotTiming timing() const override;
  PackedKind packedKind() const noexcept override {
    return PackedKind::kStatic;
  }
  void packedStaticSignal(const tags::Tag& tag,
                          std::uint64_t* out) const override;
  void classifyPacked(const std::uint64_t* superposed,
                      const std::uint32_t* slotOffsets, std::size_t count,
                      phy::SlotType* out) const noexcept override;

  const crc::CrcEngine& engine() const noexcept { return engine_; }

 private:
  crc::CrcEngine engine_;
};

/// QCD (§IV): tags transmit the 2·l-bit collision preamble r ⊕ ~r; idle and
/// collided slots end after the preamble, and only a single slot pays for
/// the l_id-bit ID phase.
class QcdScheme final : public DetectionScheme {
 public:
  /// `chargeIdPhase` controls whether the single-slot airtime includes the
  /// l_id-bit ID transfer that follows a detected single (the physically
  /// complete accounting, default). The paper's Fig. 6 delay numbers are
  /// only reproducible when the ID phase is *not* charged to the delay
  /// (every slot then costs 2l bit-times); the flag exposes that
  /// accounting convention for the reproduction benches.
  QcdScheme(phy::AirInterface air, unsigned strength,
            bool chargeIdPhase = true);

  std::string name() const override;
  std::size_t contentionBits() const override;
  void contentionSignalInto(const tags::Tag& tag, common::Rng& tagRng,
                            common::BitVec& out) const override;
  phy::SlotType classify(const std::optional<common::BitVec>& signal,
                         std::size_t trueResponders) const override;
  bool idIsInContention() const override { return false; }
  phy::SlotTiming timing() const override;
  PackedKind packedKind() const noexcept override {
    return PackedKind::kPerSlot;
  }
  void packedDraw(common::Rng& tagRng,
                  std::uint64_t* out) const noexcept override;
  void packedDrawRun(common::Rng& tagRng, std::size_t n,
                     std::uint64_t* out) const noexcept override;
  void classifyPacked(const std::uint64_t* superposed,
                      const std::uint32_t* slotOffsets, std::size_t count,
                      phy::SlotType* out) const noexcept override;

  const QcdPreamble& preamble() const noexcept { return preamble_; }
  unsigned strength() const noexcept { return preamble_.strength(); }
  bool chargesIdPhase() const noexcept { return chargeIdPhase_; }

 private:
  QcdPreamble preamble_;
  bool chargeIdPhase_;
};

/// An equal-budget alternative preamble: r ⊕ crc(r) instead of r ⊕ ~r.
/// With an 8-bit r and CRC-8 this occupies exactly QCD's 16 bits and the
/// same variable-length slots — but detection is only *probabilistic*:
/// unlike Theorem 1's distinct-r guarantee, a superposition can pass the
/// check (measured 2.9% of distinct pairs for CRC-8 — the OR channel
/// correlates the code bits well beyond the naive 2^-w estimate), and the
/// tag is back to an O(l) serial checksum. Exists to answer "would any
/// checksum do?" (no) — see bench/ablation_preamble_checksum.
class CrcPreambleScheme final : public DetectionScheme {
 public:
  /// Preamble = `randomBits`-bit r followed by spec.width check bits.
  CrcPreambleScheme(phy::AirInterface air, unsigned randomBits,
                    crc::CrcSpec spec);

  std::string name() const override;
  std::size_t contentionBits() const override;
  void contentionSignalInto(const tags::Tag& tag, common::Rng& tagRng,
                            common::BitVec& out) const override;
  phy::SlotType classify(const std::optional<common::BitVec>& signal,
                         std::size_t trueResponders) const override;
  bool idIsInContention() const override { return false; }
  phy::SlotTiming timing() const override;

  unsigned randomBits() const noexcept { return randomBits_; }
  const crc::CrcEngine& engine() const noexcept { return engine_; }

 private:
  unsigned randomBits_;
  std::uint64_t maxR_;
  crc::CrcEngine engine_;
};

/// Oracle lower bound: classification is free (zero airtime for idle and
/// collided slots) and always correct. Not physically realisable; used to
/// bound how much any detection scheme could still gain over QCD.
class IdealScheme final : public DetectionScheme {
 public:
  explicit IdealScheme(phy::AirInterface air);

  std::string name() const override;
  std::size_t contentionBits() const override;
  void contentionSignalInto(const tags::Tag& tag, common::Rng& tagRng,
                            common::BitVec& out) const override;
  phy::SlotType classify(const std::optional<common::BitVec>& signal,
                         std::size_t trueResponders) const override;
  bool idIsInContention() const override { return true; }
  common::BitVec idFromContention(const common::BitVec& signal) const override;
  phy::SlotTiming timing() const override;
  PackedKind packedKind() const noexcept override {
    return PackedKind::kStatic;
  }
  void classifyPacked(const std::uint64_t* superposed,
                      const std::uint32_t* slotOffsets, std::size_t count,
                      phy::SlotType* out) const noexcept override;
};

}  // namespace rfid::core
