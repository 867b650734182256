#include "sim/metrics.hpp"

namespace rfid::sim {

double Metrics::throughput() const noexcept {
  const SlotCensus detected = detectedCensus();
  const std::uint64_t total = detected.total();
  return total == 0
             ? 0.0
             : static_cast<double>(detected.single) /
                   static_cast<double>(total);
}

double Metrics::collisionDetectionAccuracy() const noexcept {
  const std::uint64_t trueCollided = trueCensus().collided;
  if (trueCollided == 0) return 1.0;
  const std::uint64_t correctlyFlagged =
      confusion_[static_cast<std::size_t>(phy::SlotType::kCollided)]
                [static_cast<std::size_t>(phy::SlotType::kCollided)];
  return static_cast<double>(correctlyFlagged) /
         static_cast<double>(trueCollided);
}

double Metrics::utilizationRate(double idBits, double tauMicros) const
    noexcept {
  if (airtimeMicros_ <= 0.0) return 0.0;
  const double usefulMicros =
      static_cast<double>(detectedCensus().single) * idBits * tauMicros;
  return usefulMicros / airtimeMicros_;
}

}  // namespace rfid::sim
