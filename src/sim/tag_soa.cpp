#include "sim/tag_soa.hpp"

namespace rfid::sim {

void TagSoA::gather(std::span<const tags::Tag> tags,
                    const core::DetectionScheme& scheme) {
  const std::size_t n = tags.size();
  blocker_.resize(n);
  anyBlocker_ = false;
  for (std::size_t i = 0; i < n; ++i) {
    blocker_[i] = tags[i].blocker ? 1 : 0;
    anyBlocker_ = anyBlocker_ || tags[i].blocker;
  }

  signalWords_ = scheme.contentionWords();
  hasStaticSignals_ =
      scheme.packedKind() == core::DetectionScheme::PackedKind::kStatic;
  if (!hasStaticSignals_) {
    staticSignals_.clear();
    return;
  }
  staticSignals_.assign(n * signalWords_, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (tags[i].blocker) continue;  // kernel substitutes the jamming signal
    scheme.packedStaticSignal(tags[i], staticSignals_.data() + i * signalWords_);
  }
}

}  // namespace rfid::sim
