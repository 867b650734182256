// Slot-sequence digests of the framed-ALOHA family: FSA and DFSA with each
// estimator (lower bound, Schoute, Vogt) under QCD l = 8 and CRC-CD, with
// no blocker or with one blocker under a slot cap that cuts a frame
// mid-way; plus DFSA/QCD under a 1e-3 BSC on both legs with ACK-verify,
// run through runWithSnapshot as the experiment runner runs it (the
// impaired per-slot fallback; seeds 21 and 23 each reject one verify).
// Each case hashes every SlotEvent, the run's result, each tag's
// identification flags, and one RNG draw after the run.
//
// Q-adaptive runs the same grid and its own BSC rows.
//
// Every case runs in both frame modes against one constant. The scalar-vs-
// batched differential tests compare two emitters under one frame loop, so
// a change to that loop moves both sides and passes them; these constants
// were produced by the separate FSA and DFSA frame loops that FramedAloha
// replaced, and pin the shared loop to bit-identity with them. The
// Q-adaptive constants were produced by its per-slot countdown loop,
// before FrameBatcher drew its rounds; Q-adaptive ignores the frame mode,
// so both modes must read the same constant.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "anticollision/experiment.hpp"
#include "anticollision/protocol.hpp"
#include "common/rng.hpp"
#include "core/detection_scheme.hpp"
#include "helpers.hpp"
#include "phy/channel.hpp"
#include "phy/impairments/impaired_channel.hpp"
#include "sim/tag_soa.hpp"

namespace {

using rfid::anticollision::ProtocolKind;
using rfid::anticollision::Protocol;
using rfid::phy::AirInterface;
using rfid::testing::DigestObserver;
using rfid::testing::Harness;

struct Case {
  ProtocolKind protocol;
  bool crc;      ///< CRC-CD; otherwise QCD l = 8
  bool blocker;  ///< tags[0] is a blocker and the cap is kBlockerCap slots
  bool bsc;      ///< BSC 1e-3 on both legs, ACK-verify, shared snapshot
  std::uint64_t seed;
  std::uint64_t digest;
};

constexpr std::size_t kTags = 120;
constexpr std::size_t kBscTags = 300;
/// FSA's frame and DFSA's first frame.
constexpr std::size_t kFrame = 64;
/// With a blocker every slot reads collided, so no run ends on its own.
/// The cap cuts FSA's 7th frame after 16 slots, DFSA/Vogt's 2nd frame
/// (64, 1040) and the other DFSA runs' 3rd (64, 128, 256 and 64, 153, 366).
/// Q-adaptive's Q climbs to 15, and the cap cuts a 2^15-slot round.
constexpr std::size_t kBlockerCap = 400;

std::string describe(const Case& c) {
  return rfid::anticollision::toString(c.protocol) +
         (c.crc ? " CRC-CD" : " QCD-8") +
         (c.blocker ? " blocker" : "") + (c.bsc ? " BSC" : "") + " seed " +
         std::to_string(c.seed);
}

std::uint64_t runCase(const Case& c, Protocol::FrameMode mode) {
  std::unique_ptr<rfid::core::DetectionScheme> scheme;
  if (c.crc) {
    scheme = std::make_unique<rfid::core::CrcCdScheme>(AirInterface{});
  } else {
    scheme = std::make_unique<rfid::core::QcdScheme>(AirInterface{}, 8);
  }
  rfid::phy::OrChannel inner;  // outlives the harness's impaired wrapper
  std::unique_ptr<rfid::phy::Channel> channel;
  if (c.bsc) {
    auto impaired = std::make_unique<rfid::phy::ImpairedChannel>(
        inner, rfid::phy::impairmentStreamSeed(c.seed, 0));
    rfid::phy::ImpairmentConfig config;
    config.model = rfid::phy::ImpairmentModel::kBsc;
    config.tagToReaderBer = 1e-3;
    config.detectionBer = 1e-3;
    impaired->addImpairment(config);
    channel = std::move(impaired);
  } else {
    channel = std::make_unique<rfid::phy::OrChannel>();
  }
  Harness h(c.bsc ? kBscTags : kTags, c.seed, std::move(scheme),
            std::move(channel));
  if (c.blocker) {
    h.tags[0].blocker = true;
  }
  if (c.bsc) {
    h.engine.setRecoveryPolicy({/*ackVerify=*/true, /*verifyBits=*/16.0});
  }
  DigestObserver observer;
  h.engine.setObserver(&observer);
  const std::size_t cap = c.blocker ? kBlockerCap : Protocol::kDefaultMaxSlots;

  const auto protocol =
      rfid::anticollision::makeProtocol(c.protocol, kFrame, cap);
  protocol->setFrameMode(mode);
  bool done = false;
  if (c.bsc) {
    rfid::sim::TagSoA soa;
    soa.gather(h.tags, *h.scheme);
    done = protocol->runWithSnapshot(h.engine, h.tags, h.rng, soa);
  } else {
    done = protocol->run(h.engine, h.tags, h.rng);
  }
  if (c.blocker) {
    EXPECT_FALSE(done) << describe(c);
    EXPECT_EQ(observer.slots, kBlockerCap) << describe(c);
  }
  observer.fnv.add(std::uint64_t{done});
  for (const auto& tag : h.tags) {
    observer.fnv.add(std::uint64_t{tag.believesIdentified});
    observer.fnv.add(std::uint64_t{tag.correctlyIdentified});
  }
  observer.fnv.add(h.rng());
  return observer.fnv.value();
}

// Rows: protocol × scheme × blocker × seed, then the impaired DFSA rows.
const std::vector<Case>& pinnedCases() {
  static const std::vector<Case> kCases = {
      {ProtocolKind::kFsa, false, false, false, 21, 0x5b7c9c22cefd06efull},
      {ProtocolKind::kFsa, false, false, false, 22, 0xfbb8ff47420b0a82ull},
      {ProtocolKind::kFsa, false, false, false, 23, 0x21a1ddcb45ae87f7ull},
      {ProtocolKind::kFsa, false, true, false, 21, 0x590ac63da47d0c40ull},
      {ProtocolKind::kFsa, false, true, false, 22, 0x942d36434c2361fdull},
      {ProtocolKind::kFsa, false, true, false, 23, 0x41957ee7abb33ed9ull},
      {ProtocolKind::kFsa, true, false, false, 21, 0x65ed3e2223f00fd7ull},
      {ProtocolKind::kFsa, true, false, false, 22, 0x8e48d054f7f59c40ull},
      {ProtocolKind::kFsa, true, false, false, 23, 0xb164104ae45d5aebull},
      {ProtocolKind::kFsa, true, true, false, 21, 0xcc2afb192437641aull},
      {ProtocolKind::kFsa, true, true, false, 22, 0xb0351235bf3a10e4ull},
      {ProtocolKind::kFsa, true, true, false, 23, 0x6a8ce9fd3777a65eull},
      {ProtocolKind::kDfsaLowerBound, false, false, false, 21, 0x1581a9813708ce8cull},
      {ProtocolKind::kDfsaLowerBound, false, false, false, 22, 0xf993be968e265a43ull},
      {ProtocolKind::kDfsaLowerBound, false, false, false, 23, 0x2df7252840195410ull},
      {ProtocolKind::kDfsaLowerBound, false, true, false, 21, 0x3993ae9804b00357ull},
      {ProtocolKind::kDfsaLowerBound, false, true, false, 22, 0xe4c26656c3ffc6f8ull},
      {ProtocolKind::kDfsaLowerBound, false, true, false, 23, 0xb8685854de7e4ec2ull},
      {ProtocolKind::kDfsaLowerBound, true, false, false, 21, 0xfa1ecff2bfc3af38ull},
      {ProtocolKind::kDfsaLowerBound, true, false, false, 22, 0x18d956163416f68dull},
      {ProtocolKind::kDfsaLowerBound, true, false, false, 23, 0x2eabaa714de78b9cull},
      {ProtocolKind::kDfsaLowerBound, true, true, false, 21, 0xf3c2691797572b85ull},
      {ProtocolKind::kDfsaLowerBound, true, true, false, 22, 0x411d6b46cac54560ull},
      {ProtocolKind::kDfsaLowerBound, true, true, false, 23, 0x578e01a0f2e73957ull},
      {ProtocolKind::kDfsaSchoute, false, false, false, 21, 0x806a2fe7a446213dull},
      {ProtocolKind::kDfsaSchoute, false, false, false, 22, 0xc2e286b549716b3bull},
      {ProtocolKind::kDfsaSchoute, false, false, false, 23, 0x16070fcfcfd670ccull},
      {ProtocolKind::kDfsaSchoute, false, true, false, 21, 0x2a08f7515fd3ccecull},
      {ProtocolKind::kDfsaSchoute, false, true, false, 22, 0xd1d32cc478c379dcull},
      {ProtocolKind::kDfsaSchoute, false, true, false, 23, 0xf0e74828ea40616full},
      {ProtocolKind::kDfsaSchoute, true, false, false, 21, 0x18cb9a16c13c783eull},
      {ProtocolKind::kDfsaSchoute, true, false, false, 22, 0xa8a1135a28dc138cull},
      {ProtocolKind::kDfsaSchoute, true, false, false, 23, 0xf3dc88c4d7b7a3d0ull},
      {ProtocolKind::kDfsaSchoute, true, true, false, 21, 0xda3617d074c8aa79ull},
      {ProtocolKind::kDfsaSchoute, true, true, false, 22, 0xdbf398717ed55b14ull},
      {ProtocolKind::kDfsaSchoute, true, true, false, 23, 0xadfa5da19ba3407cull},
      {ProtocolKind::kDfsaVogt, false, false, false, 21, 0xba169542f324803bull},
      {ProtocolKind::kDfsaVogt, false, false, false, 22, 0x496c2b6a0088affaull},
      {ProtocolKind::kDfsaVogt, false, false, false, 23, 0x918b4cd596f435a4ull},
      {ProtocolKind::kDfsaVogt, false, true, false, 21, 0xe3d0f872d184d38full},
      {ProtocolKind::kDfsaVogt, false, true, false, 22, 0x15ad7f377944cd6aull},
      {ProtocolKind::kDfsaVogt, false, true, false, 23, 0x73bab7dfae33ab77ull},
      {ProtocolKind::kDfsaVogt, true, false, false, 21, 0x2099cf25622ccbf1ull},
      {ProtocolKind::kDfsaVogt, true, false, false, 22, 0x5465787f768112ccull},
      {ProtocolKind::kDfsaVogt, true, false, false, 23, 0xc64b3aaff36f6cfdull},
      {ProtocolKind::kDfsaVogt, true, true, false, 21, 0x595ec9ef15dae7cfull},
      {ProtocolKind::kDfsaVogt, true, true, false, 22, 0xacf801bd6c22130eull},
      {ProtocolKind::kDfsaVogt, true, true, false, 23, 0xde1ffa496877d175ull},
      {ProtocolKind::kDfsaSchoute, false, false, true, 21, 0x52c7b2ddc4ae7533ull},
      {ProtocolKind::kDfsaSchoute, false, false, true, 22, 0x04033915cad9ee3dull},
      {ProtocolKind::kDfsaSchoute, false, false, true, 23, 0xc08c35034c9d6267ull},
      {ProtocolKind::kQAdaptive, false, false, false, 21, 0x988a562a97767f78ull},
      {ProtocolKind::kQAdaptive, false, false, false, 22, 0x3185dd296d09ae69ull},
      {ProtocolKind::kQAdaptive, false, false, false, 23, 0x5ac55ac597c29ce9ull},
      {ProtocolKind::kQAdaptive, false, true, false, 21, 0x060467d5b35967d3ull},
      {ProtocolKind::kQAdaptive, false, true, false, 22, 0x5bf5c92c18e502c5ull},
      {ProtocolKind::kQAdaptive, false, true, false, 23, 0xc496563fe86ff055ull},
      {ProtocolKind::kQAdaptive, true, false, false, 21, 0xb6084561d38c1a7aull},
      {ProtocolKind::kQAdaptive, true, false, false, 22, 0x84cd66b889ea4256ull},
      {ProtocolKind::kQAdaptive, true, false, false, 23, 0xe80b9396007a5b67ull},
      {ProtocolKind::kQAdaptive, true, true, false, 21, 0x59051e3bdeb2dfa4ull},
      {ProtocolKind::kQAdaptive, true, true, false, 22, 0x5a7659173dd9d799ull},
      {ProtocolKind::kQAdaptive, true, true, false, 23, 0xfb3743b4b548d0afull},
      {ProtocolKind::kQAdaptive, false, false, true, 21, 0x95ebd52839045544ull},
      {ProtocolKind::kQAdaptive, false, false, true, 22, 0xc2b539f941ff687eull},
      {ProtocolKind::kQAdaptive, false, false, true, 23, 0xf128eb617773bda9ull},
  };
  return kCases;
}

void expectPinned(ProtocolKind protocol, bool bsc) {
  std::size_t checked = 0;
  for (const Case& c : pinnedCases()) {
    if (c.protocol != protocol || c.bsc != bsc) continue;
    for (const Protocol::FrameMode mode :
         {Protocol::FrameMode::kScalar, Protocol::FrameMode::kBatched}) {
      const std::uint64_t digest = runCase(c, mode);
      EXPECT_EQ(digest, c.digest)
          << describe(c)
          << (mode == Protocol::FrameMode::kScalar ? " scalar" : " batched")
          << ": digest 0x" << std::hex << digest;
    }
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

TEST(FramedCensus, FsaSlotSequencesArePinned) {
  expectPinned(ProtocolKind::kFsa, false);
}
TEST(FramedCensus, DfsaLowerBoundSlotSequencesArePinned) {
  expectPinned(ProtocolKind::kDfsaLowerBound, false);
}
TEST(FramedCensus, DfsaSchouteSlotSequencesArePinned) {
  expectPinned(ProtocolKind::kDfsaSchoute, false);
}
TEST(FramedCensus, DfsaVogtSlotSequencesArePinned) {
  expectPinned(ProtocolKind::kDfsaVogt, false);
}
TEST(FramedCensus, ImpairedDfsaSlotSequencesArePinned) {
  expectPinned(ProtocolKind::kDfsaSchoute, true);
}
TEST(FramedCensus, QAdaptiveSlotSequencesArePinned) {
  expectPinned(ProtocolKind::kQAdaptive, false);
}
TEST(FramedCensus, ImpairedQAdaptiveSlotSequencesArePinned) {
  expectPinned(ProtocolKind::kQAdaptive, true);
}

}  // namespace
