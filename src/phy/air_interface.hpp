// Air-interface constants shared by tags, readers and timing accounting.
#pragma once

#include <cstddef>

namespace rfid::phy {

/// Physical-layer parameters of the paper's evaluation (§VI-A): 64-bit EPC
/// IDs, 32-bit CRC codes, and τ — the time to transmit one bit — which the
/// paper leaves abstract; Figs. 7(a)/(b) are consistent with τ = 1 µs. The
/// defaults are the configuration of the paper's simulations (Table V).
struct AirInterface {
  std::size_t idBits = 64;   ///< tag ID length l_id
  unsigned crcBits = 32;     ///< CRC code length l_crc (CRC-CD only)
  double tauMicros = 1.0;    ///< τ: one bit-time in microseconds

  double bitsToMicros(double bits) const noexcept { return bits * tauMicros; }
};

}  // namespace rfid::phy
