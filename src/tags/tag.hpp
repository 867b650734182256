// The tag model.
//
// A tag is passive state: a unique ID, its identification status and a
// blocker flag. Protocols keep their per-round scratch themselves (slot
// draws in FrameBatcher's CSR rows, split groups in SplitWalk's index
// arena); the slot engine writes a tag only when it identifies or silences
// it. Identification status is tracked from the *tag's* point of view — a tag
// that heard an ACK stops responding even if the ACK was the result of a
// misdetected collision (the phantom-ID failure mode QCD trades for its
// speed; see core/detection_scheme.hpp).
//
// A Tag is 64 bytes, one cache line. Its ID (at most 64 bits) lives in the
// BitVec's inline words, so building a population allocates nothing per
// tag.
#pragma once

#include <cstdint>

#include "common/bitvec.hpp"

namespace rfid::tags {

struct Tag {
  /// The ID as transmitted on air, l_id bits (index 0 first on the wire).
  common::BitVec id;
  /// Integer view of the ID (valid while l_id <= 64, which the EPC profile
  /// guarantees); used by prefix-matching protocols (QT/AQS).
  std::uint64_t idValue = 0;

  // --- identification bookkeeping ---------------------------------------
  /// The tag believes it has been read and stays silent (§III-B).
  bool believesIdentified = false;
  /// The reader actually decoded this tag's true ID (false for tags that
  /// were silenced by a phantom ACK after a misdetected collision).
  bool correctlyIdentified = false;
  /// Simulation time (µs) at which the tag fell silent; 0 until then.
  double identifiedAtMicros = 0.0;

  /// A blocker/jammer tag (Juels et al., referenced in §II): always responds
  /// and transmits all-ones, forcing every slot it joins to read as
  /// collided. Used by the adversarial QT experiments.
  bool blocker = false;

  /// Resets the bookkeeping state for a fresh inventory round (ID and
  /// blocker flag are preserved).
  void resetForRound() {
    believesIdentified = false;
    correctlyIdentified = false;
    identifiedAtMicros = 0.0;
  }
};

}  // namespace rfid::tags
