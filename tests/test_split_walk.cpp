// Slot-sequence digests of the tree family: BT, ABS, QT and AQS under
// CRC-CD and QCD l = 2, over the pure OR channel and a 0.5 capture channel,
// with and without a blocker tag. Each case hashes every SlotEvent, every
// run() result, each tag's identification state after every round, and one
// RNG draw after the last round. The constants were produced by the
// per-protocol walkers that anticollision::SplitWalk replaced, so they pin
// the walk to bit-identity: member order through splits, coin draws in
// member order, empty halves queried, capture losers re-contending with the
// next group, ABS reservations in identification order, AQS candidates.
//
// ABS and AQS keep state across rounds, so they run three rounds on one
// instance, with tags leaving and arriving between rounds. Every pinned
// case stays within its slot cap (asserted), so a cap fix cannot move a
// constant; AQS with both a blocker and capture is left out for that
// reason — QtAndAqs.CapAborts covers that path.
//
// Two more grids pin routes those rows miss, under CRC-CD and QCD l = 8:
// the walks on impaired channels (a 1e-3 BSC on both legs with ACK-verify,
// and erasure), hashed the same way; and whole runExperiment tree
// censuses with no observer attached, the commit the benchmark runs,
// hashed over every per-round sample of the aggregate. Their constants
// were produced by the walker's per-slot runSlot queries, before each
// query became a one-row batch.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "anticollision/abs.hpp"
#include "anticollision/aqs.hpp"
#include "anticollision/bt.hpp"
#include "anticollision/experiment.hpp"
#include "anticollision/qt.hpp"
#include "common/rng.hpp"
#include "core/detection_scheme.hpp"
#include "helpers.hpp"
#include "phy/channel.hpp"
#include "phy/impairments/impaired_channel.hpp"
#include "tags/population.hpp"

namespace {

using rfid::anticollision::Protocol;
using rfid::common::Rng;
using rfid::phy::AirInterface;
using rfid::testing::DigestObserver;
using rfid::testing::Fnv;
using rfid::testing::Harness;

enum class Tree { kBt, kAbs, kQt, kAqs };

struct Case {
  Tree tree;
  bool crc;      ///< CRC-CD; otherwise QCD l = 2
  bool capture;  ///< CaptureChannel(0.5); otherwise the pure OR channel
  bool blocker;  ///< tags[0] is a blocker and the cap is 400 slots
  std::uint64_t seed;
  std::uint64_t digest;
};

constexpr std::size_t kTags = 120;
constexpr std::size_t kBlockerCap = 400;

std::unique_ptr<Protocol> makeTree(Tree tree, std::size_t cap) {
  switch (tree) {
    case Tree::kBt:
      return std::make_unique<rfid::anticollision::BinaryTree>(cap);
    case Tree::kAbs:
      return std::make_unique<rfid::anticollision::AdaptiveBinarySplitting>(
          cap);
    case Tree::kQt:
      return std::make_unique<rfid::anticollision::QueryTree>(cap);
    case Tree::kAqs:
      return std::make_unique<rfid::anticollision::AdaptiveQuerySplitting>(
          cap);
  }
  return nullptr;
}

std::string describe(const Case& c) {
  static const char* const kNames[] = {"BT", "ABS", "QT", "AQS"};
  return std::string(kNames[static_cast<int>(c.tree)]) +
         (c.crc ? " CRC-CD" : " QCD-2") + (c.capture ? " capture" : " OR") +
         (c.blocker ? " blocker" : "") + " seed " + std::to_string(c.seed);
}

/// Every eighth tag leaves (never tags[0], the blocker slot) and ten
/// arrive; every tag then starts the next round afresh.
void churn(std::vector<rfid::tags::Tag>& tags, Rng& arrivals) {
  std::vector<rfid::tags::Tag> kept;
  for (std::size_t i = 0; i < tags.size(); ++i) {
    if (i % 8 != 7) {
      kept.push_back(tags[i]);
    }
  }
  for (auto& tag : rfid::tags::makeUniformPopulation(
           10, AirInterface{}.idBits, arrivals)) {
    kept.push_back(std::move(tag));
  }
  tags = std::move(kept);
  for (auto& tag : tags) {
    tag.resetForRound();
  }
}

std::uint64_t runCase(const Case& c) {
  std::unique_ptr<rfid::core::DetectionScheme> scheme;
  if (c.crc) {
    scheme = std::make_unique<rfid::core::CrcCdScheme>(AirInterface{});
  } else {
    scheme = std::make_unique<rfid::core::QcdScheme>(AirInterface{}, 2);
  }
  std::unique_ptr<rfid::phy::Channel> channel;
  if (c.capture) {
    channel = std::make_unique<rfid::phy::CaptureChannel>(0.5);
  } else {
    channel = std::make_unique<rfid::phy::OrChannel>();
  }
  Harness h(kTags, c.seed, std::move(scheme), std::move(channel));
  if (c.blocker) {
    h.tags[0].blocker = true;
  }
  const std::size_t cap = c.blocker ? kBlockerCap : Protocol::kDefaultMaxSlots;
  const std::unique_ptr<Protocol> protocol = makeTree(c.tree, cap);
  DigestObserver observer;
  h.engine.setObserver(&observer);
  Rng arrivals = Rng::forStream(c.seed, 1);
  const bool adaptive = c.tree == Tree::kAbs || c.tree == Tree::kAqs;
  for (int round = 0; round < (adaptive ? 3 : 1); ++round) {
    if (round > 0) {
      churn(h.tags, arrivals);
    }
    const std::uint64_t before = observer.slots;
    const bool done = protocol->run(h.engine, h.tags, h.rng);
    EXPECT_LE(observer.slots - before, cap)
        << describe(c) << " round " << round << " overran its cap";
    observer.fnv.add(std::uint64_t{done});
    for (const auto& tag : h.tags) {
      observer.fnv.add(std::uint64_t{tag.believesIdentified});
      observer.fnv.add(std::uint64_t{tag.correctlyIdentified});
    }
  }
  observer.fnv.add(h.rng());
  return observer.fnv.value();
}

// Rows: tree × scheme × channel × blocker × seed.
const std::vector<Case>& pinnedCases() {
  static const std::vector<Case> kCases = {
      {Tree::kBt, true, false, false, 11, 0x8b31daaa9bab6637ull},
      {Tree::kBt, true, false, false, 12, 0x302a79ac4a45743full},
      {Tree::kBt, true, false, false, 13, 0x91f9ac7785a75f17ull},
      {Tree::kBt, true, false, true, 11, 0xb51988af6a9c11b6ull},
      {Tree::kBt, true, false, true, 12, 0x27231a69a116ee7bull},
      {Tree::kBt, true, false, true, 13, 0xfe5bf6253b4b4581ull},
      {Tree::kBt, true, true, false, 11, 0xd6fff11d1ecfd945ull},
      {Tree::kBt, true, true, false, 12, 0x1a5bbca44e4231a7ull},
      {Tree::kBt, true, true, false, 13, 0x4facc5f345cf84e9ull},
      {Tree::kBt, true, true, true, 11, 0xcd323fbd4d7d2d5bull},
      {Tree::kBt, true, true, true, 12, 0x4eb10dfc25708161ull},
      {Tree::kBt, true, true, true, 13, 0x8cb1478ae7c3e980ull},
      {Tree::kBt, false, false, false, 11, 0x6c11c78839866660ull},
      {Tree::kBt, false, false, false, 12, 0x724a87d61780567aull},
      {Tree::kBt, false, false, false, 13, 0xfa4fee31dd69edbcull},
      {Tree::kBt, false, false, true, 11, 0xa7679bf220e90f93ull},
      {Tree::kBt, false, false, true, 12, 0x35861c3e3eae03b0ull},
      {Tree::kBt, false, false, true, 13, 0x78aa745f38a16612ull},
      {Tree::kBt, false, true, false, 11, 0x20496f62ce47fd92ull},
      {Tree::kBt, false, true, false, 12, 0x8e3425c813ff8983ull},
      {Tree::kBt, false, true, false, 13, 0x5ace45b3bfa313f3ull},
      {Tree::kBt, false, true, true, 11, 0x21219dd9907d66b3ull},
      {Tree::kBt, false, true, true, 12, 0x493a27a265ea885eull},
      {Tree::kBt, false, true, true, 13, 0x9762dffd4849ec00ull},
      {Tree::kAbs, true, false, false, 11, 0x41b2fceaec0a6f76ull},
      {Tree::kAbs, true, false, false, 12, 0x21823321b568a36bull},
      {Tree::kAbs, true, false, false, 13, 0x9f9680a81a7040e6ull},
      {Tree::kAbs, true, false, true, 11, 0x127e7425514713ebull},
      {Tree::kAbs, true, false, true, 12, 0x6bcdcbc264ffc17cull},
      {Tree::kAbs, true, false, true, 13, 0xc67dbebf20f4e47bull},
      {Tree::kAbs, true, true, false, 11, 0xc89d8f85986e39baull},
      {Tree::kAbs, true, true, false, 12, 0x3978a0f6ba727d93ull},
      {Tree::kAbs, true, true, false, 13, 0xb1b1ec4ad9ab3e13ull},
      {Tree::kAbs, true, true, true, 11, 0x0aeb541b36a7c84eull},
      {Tree::kAbs, true, true, true, 12, 0x2ce7cd1768922385ull},
      {Tree::kAbs, true, true, true, 13, 0x6f4db1280ec38c4aull},
      {Tree::kAbs, false, false, false, 11, 0x4049697073b607b4ull},
      {Tree::kAbs, false, false, false, 12, 0x7a8ab74fc4724a79ull},
      {Tree::kAbs, false, false, false, 13, 0x7f01db3321b6d286ull},
      {Tree::kAbs, false, false, true, 11, 0x5f5d68bf0f1b8b55ull},
      {Tree::kAbs, false, false, true, 12, 0xcc12544309b52d45ull},
      {Tree::kAbs, false, false, true, 13, 0x5ccd66b7ddfc81aeull},
      {Tree::kAbs, false, true, false, 11, 0xf7ed4616fa8b3a16ull},
      {Tree::kAbs, false, true, false, 12, 0x6e075d3d2154ff4cull},
      {Tree::kAbs, false, true, false, 13, 0x8b4f5e44aaa78557ull},
      {Tree::kAbs, false, true, true, 11, 0x2c646e748b8820dfull},
      {Tree::kAbs, false, true, true, 12, 0x7e39d45490b838bbull},
      {Tree::kAbs, false, true, true, 13, 0xa7ce2ba9f16d73aeull},
      {Tree::kQt, true, false, false, 11, 0x63d43e6fe8cb61efull},
      {Tree::kQt, true, false, false, 12, 0xf6616394519bc4a6ull},
      {Tree::kQt, true, false, false, 13, 0xbdb3cf9eadaf658cull},
      {Tree::kQt, true, false, true, 11, 0xc531a686916628b5ull},
      {Tree::kQt, true, false, true, 12, 0x33b69404655a5f98ull},
      {Tree::kQt, true, false, true, 13, 0x9312dcf48733d742ull},
      {Tree::kQt, true, true, false, 11, 0xb5e48d570739e6c2ull},
      {Tree::kQt, true, true, false, 12, 0x4bd5eaba0b5fe279ull},
      {Tree::kQt, true, true, false, 13, 0xaafcc94659a85cb8ull},
      {Tree::kQt, true, true, true, 11, 0x360cddfedb254ec6ull},
      {Tree::kQt, true, true, true, 12, 0x754294f25632e5c8ull},
      {Tree::kQt, true, true, true, 13, 0x5158bf222ac80a05ull},
      {Tree::kQt, false, false, false, 11, 0xf10ffed5081c038aull},
      {Tree::kQt, false, false, false, 12, 0x44a772d00fbc5cd5ull},
      {Tree::kQt, false, false, false, 13, 0xe5be63ad1806b508ull},
      {Tree::kQt, false, false, true, 11, 0xfbdef866313a5e4bull},
      {Tree::kQt, false, false, true, 12, 0x4aefc529cd65a951ull},
      {Tree::kQt, false, false, true, 13, 0xea1f46a86b2c1530ull},
      {Tree::kQt, false, true, false, 11, 0x82379c368d81ce6dull},
      {Tree::kQt, false, true, false, 12, 0xe364eb8ba8cedefbull},
      {Tree::kQt, false, true, false, 13, 0x30af3fffe10c6a66ull},
      {Tree::kQt, false, true, true, 11, 0x33e70f9d5b3fb928ull},
      {Tree::kQt, false, true, true, 12, 0x19f1ca4b6c133b76ull},
      {Tree::kQt, false, true, true, 13, 0xb75816ac7756d3a6ull},
      {Tree::kAqs, true, false, false, 11, 0x217787ea9964e3adull},
      {Tree::kAqs, true, false, false, 12, 0xd28224b4982e1fefull},
      {Tree::kAqs, true, false, false, 13, 0x714bb3c8911e59a2ull},
      {Tree::kAqs, true, false, true, 11, 0x6e8f34059f76fb07ull},
      {Tree::kAqs, true, false, true, 12, 0x2d2b577f3588dc92ull},
      {Tree::kAqs, true, false, true, 13, 0xd8af2d4de66df871ull},
      {Tree::kAqs, true, true, false, 11, 0x17dbdea10ed7287aull},
      {Tree::kAqs, true, true, false, 12, 0xa849ba1b77c75eccull},
      {Tree::kAqs, true, true, false, 13, 0x5d577ab34fa39b3full},
      {Tree::kAqs, false, false, false, 11, 0xcad9b6e4abea9b01ull},
      {Tree::kAqs, false, false, false, 12, 0xa4dde702c19d3878ull},
      {Tree::kAqs, false, false, false, 13, 0x007302024a0f7d9dull},
      {Tree::kAqs, false, false, true, 11, 0xdb92a79cb8f52d6cull},
      {Tree::kAqs, false, false, true, 12, 0xf256ebb89f69a8d0ull},
      {Tree::kAqs, false, false, true, 13, 0xde2e2166c120c878ull},
      {Tree::kAqs, false, true, false, 11, 0x9015cba9b026990full},
      {Tree::kAqs, false, true, false, 12, 0xb3fa6340afea1fa6ull},
      {Tree::kAqs, false, true, false, 13, 0x35f4c6beb3bbeaf5ull},
  };
  return kCases;
}

void expectPinned(Tree tree) {
  std::size_t checked = 0;
  for (const Case& c : pinnedCases()) {
    if (c.tree != tree) continue;
    const std::uint64_t digest = runCase(c);
    EXPECT_EQ(digest, c.digest)
        << describe(c) << ": digest 0x" << std::hex << digest;
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

TEST(SplitWalk, BtSlotSequencesArePinned) { expectPinned(Tree::kBt); }
TEST(SplitWalk, AbsSlotSequencesArePinned) { expectPinned(Tree::kAbs); }
TEST(SplitWalk, QtSlotSequencesArePinned) { expectPinned(Tree::kQt); }
TEST(SplitWalk, AqsSlotSequencesArePinned) { expectPinned(Tree::kAqs); }

// --- impaired channels ------------------------------------------------------

enum class Noise { kBsc, kErasure };

struct ImpairedCase {
  Tree tree;
  bool crc;  ///< CRC-CD; otherwise QCD l = 8
  Noise noise;
  std::uint64_t seed;
  std::uint64_t digest;
};

std::string describe(const ImpairedCase& c) {
  static const char* const kNames[] = {"BT", "ABS", "QT", "AQS"};
  return std::string(kNames[static_cast<int>(c.tree)]) +
         (c.crc ? " CRC-CD" : " QCD-8") +
         (c.noise == Noise::kBsc ? " BSC" : " erasure") + " seed " +
         std::to_string(c.seed);
}

/// BSC: 1e-3 on both legs, ACK-verify on. Erasure: a tenth of the replies
/// lost in flight and one slot in twenty faded, no verify.
std::uint64_t runImpairedCase(const ImpairedCase& c) {
  std::unique_ptr<rfid::core::DetectionScheme> scheme;
  if (c.crc) {
    scheme = std::make_unique<rfid::core::CrcCdScheme>(AirInterface{});
  } else {
    scheme = std::make_unique<rfid::core::QcdScheme>(AirInterface{}, 8);
  }
  rfid::phy::OrChannel inner;  // outlives the harness's impaired wrapper
  auto impaired = std::make_unique<rfid::phy::ImpairedChannel>(
      inner, rfid::phy::impairmentStreamSeed(c.seed, 0));
  rfid::phy::ImpairmentConfig config;
  if (c.noise == Noise::kBsc) {
    config.model = rfid::phy::ImpairmentModel::kBsc;
    config.tagToReaderBer = 1e-3;
    config.detectionBer = 1e-3;
  } else {
    config.model = rfid::phy::ImpairmentModel::kErasure;
    config.transmissionLoss = 0.1;
    config.slotFade = 0.05;
  }
  impaired->addImpairment(config);
  Harness h(kTags, c.seed, std::move(scheme), std::move(impaired));
  if (c.noise == Noise::kBsc) {
    h.engine.setRecoveryPolicy({/*ackVerify=*/true, /*verifyBits=*/16.0});
  }
  const std::unique_ptr<Protocol> protocol =
      makeTree(c.tree, Protocol::kDefaultMaxSlots);
  DigestObserver observer;
  h.engine.setObserver(&observer);
  Rng arrivals = Rng::forStream(c.seed, 1);
  const bool adaptive = c.tree == Tree::kAbs || c.tree == Tree::kAqs;
  for (int round = 0; round < (adaptive ? 3 : 1); ++round) {
    if (round > 0) {
      churn(h.tags, arrivals);
    }
    const bool done = protocol->run(h.engine, h.tags, h.rng);
    observer.fnv.add(std::uint64_t{done});
    for (const auto& tag : h.tags) {
      observer.fnv.add(std::uint64_t{tag.believesIdentified});
      observer.fnv.add(std::uint64_t{tag.correctlyIdentified});
    }
  }
  observer.fnv.add(h.rng());
  return observer.fnv.value();
}

// Rows: tree × scheme × noise × seed.
const std::vector<ImpairedCase>& impairedCases() {
  static const std::vector<ImpairedCase> kCases = {
      {Tree::kBt, true, Noise::kBsc, 31, 0x0b9a81f1b2374b9full},
      {Tree::kBt, true, Noise::kBsc, 32, 0x9e3b4656204395caull},
      {Tree::kBt, true, Noise::kBsc, 33, 0xa07204ba837be141ull},
      {Tree::kBt, true, Noise::kErasure, 31, 0x004d96bf8ed17322ull},
      {Tree::kBt, true, Noise::kErasure, 32, 0x4e5364e83ea35562ull},
      {Tree::kBt, true, Noise::kErasure, 33, 0xf22e3368023dcc97ull},
      {Tree::kBt, false, Noise::kBsc, 31, 0x5316cacd5e182c5eull},
      {Tree::kBt, false, Noise::kBsc, 32, 0xcf029d1472e0b1e0ull},
      {Tree::kBt, false, Noise::kBsc, 33, 0x7e62d3ada14afbdcull},
      {Tree::kBt, false, Noise::kErasure, 31, 0x56ee8343b45949f5ull},
      {Tree::kBt, false, Noise::kErasure, 32, 0x10d44955d96c82efull},
      {Tree::kBt, false, Noise::kErasure, 33, 0x71cc452d7e563be2ull},
      {Tree::kAbs, true, Noise::kBsc, 31, 0xb68b86a089dc72c9ull},
      {Tree::kAbs, true, Noise::kBsc, 32, 0x7cd52fdfe188ba74ull},
      {Tree::kAbs, true, Noise::kBsc, 33, 0x11aa3f81cc2e8e82ull},
      {Tree::kAbs, true, Noise::kErasure, 31, 0xad3d8b01df1b1db3ull},
      {Tree::kAbs, true, Noise::kErasure, 32, 0x6ee1ff5603817ad6ull},
      {Tree::kAbs, true, Noise::kErasure, 33, 0xd9d3a6b3cec77839ull},
      {Tree::kAbs, false, Noise::kBsc, 31, 0x84272b817ea0a839ull},
      {Tree::kAbs, false, Noise::kBsc, 32, 0xf51014146bb1903aull},
      {Tree::kAbs, false, Noise::kBsc, 33, 0xa23b1130911c4d94ull},
      {Tree::kAbs, false, Noise::kErasure, 31, 0x33e99e8d35278c50ull},
      {Tree::kAbs, false, Noise::kErasure, 32, 0x3220bfbc6d9bf260ull},
      {Tree::kAbs, false, Noise::kErasure, 33, 0xc7d2246bf4dabff2ull},
      {Tree::kQt, true, Noise::kBsc, 31, 0x035acc1dc808c6d4ull},
      {Tree::kQt, true, Noise::kBsc, 32, 0xa2751272fd6b8e1full},
      {Tree::kQt, true, Noise::kBsc, 33, 0xe250b57c00e43cb1ull},
      {Tree::kQt, true, Noise::kErasure, 31, 0x5c95ea6d7857d3d6ull},
      {Tree::kQt, true, Noise::kErasure, 32, 0x179374259392920eull},
      {Tree::kQt, true, Noise::kErasure, 33, 0xbe378da9a9a93c52ull},
      {Tree::kQt, false, Noise::kBsc, 31, 0x739ace3945437c69ull},
      {Tree::kQt, false, Noise::kBsc, 32, 0x753f7f6874f98c59ull},
      {Tree::kQt, false, Noise::kBsc, 33, 0x853707ee111895c4ull},
      {Tree::kQt, false, Noise::kErasure, 31, 0x4ec3b3c6840b3783ull},
      {Tree::kQt, false, Noise::kErasure, 32, 0x60fb96dff44e9ee4ull},
      {Tree::kQt, false, Noise::kErasure, 33, 0x340b826ffeca7fd7ull},
      {Tree::kAqs, true, Noise::kBsc, 31, 0xf2ae008cdfa8d664ull},
      {Tree::kAqs, true, Noise::kBsc, 32, 0x614dd7804c09c78bull},
      {Tree::kAqs, true, Noise::kBsc, 33, 0x2ad658d6ce1d59efull},
      {Tree::kAqs, true, Noise::kErasure, 31, 0xb9ad11616da525e6ull},
      {Tree::kAqs, true, Noise::kErasure, 32, 0xaf8d0b680589d30aull},
      {Tree::kAqs, true, Noise::kErasure, 33, 0x81a2fc32c466db19ull},
      {Tree::kAqs, false, Noise::kBsc, 31, 0xb32ad0941e75796full},
      {Tree::kAqs, false, Noise::kBsc, 32, 0xa3a8694a409ebad3ull},
      {Tree::kAqs, false, Noise::kBsc, 33, 0xe3ca8b79aa1c92f4ull},
      {Tree::kAqs, false, Noise::kErasure, 31, 0x2d1308d984723128ull},
      {Tree::kAqs, false, Noise::kErasure, 32, 0xe014b79a6a5ab5dcull},
      {Tree::kAqs, false, Noise::kErasure, 33, 0x0c553edf0e1f2f4eull},
  };
  return kCases;
}

TEST(SplitWalk, ImpairedSlotSequencesArePinned) {
  for (const ImpairedCase& c : impairedCases()) {
    const std::uint64_t digest = runImpairedCase(c);
    EXPECT_EQ(digest, c.digest)
        << describe(c) << ": digest 0x" << std::hex << digest;
  }
}

// --- unobserved experiment censuses -----------------------------------------

struct CensusCase {
  rfid::anticollision::ProtocolKind protocol;
  bool crc;  ///< CRC-CD; otherwise QCD l = 8
  std::uint64_t seed;
  std::uint64_t digest;
};

/// Every per-round sample of every aggregate metric, the summed confusion
/// matrix and the completed-round count.
std::uint64_t digestOf(const rfid::anticollision::AggregateResult& r) {
  Fnv fnv;
  for (const rfid::common::SampleSet* set :
       {&r.idleSlots, &r.singleSlots, &r.collidedSlots, &r.totalSlots,
        &r.frames, &r.throughput, &r.airtimeMicros, &r.meanDelayMicros,
        &r.delayStddevMicros, &r.detectionAccuracy, &r.utilizationRate,
        &r.phantoms, &r.lostTags, &r.correctTags, &r.misreads,
        &r.verifyRejects, &r.recoveryPasses}) {
    for (const double sample : set->samples()) {
      fnv.add(sample);
    }
  }
  for (const auto& row : r.confusionTotal) {
    for (const std::uint64_t count : row) {
      fnv.add(count);
    }
  }
  fnv.add(std::uint64_t{r.completedRounds});
  return fnv.value();
}

/// Four rounds of 200 tags on the pure OR channel, one thread.
std::uint64_t runCensusCase(const CensusCase& c) {
  rfid::anticollision::ExperimentConfig config;
  config.protocol = c.protocol;
  config.scheme = c.crc ? rfid::anticollision::SchemeKind::kCrcCd
                        : rfid::anticollision::SchemeKind::kQcd;
  config.qcdStrength = 8;
  config.tagCount = 200;
  config.rounds = 4;
  config.threads = 1;
  config.seed = c.seed;
  return digestOf(rfid::anticollision::runExperiment(config));
}

// Rows: tree × scheme × seed.
const std::vector<CensusCase>& censusCases() {
  using rfid::anticollision::ProtocolKind;
  static const std::vector<CensusCase> kCases = {
      {ProtocolKind::kBt, true, 41, 0xdf290e53992771c7ull},
      {ProtocolKind::kBt, true, 42, 0xb23a331f0dd98872ull},
      {ProtocolKind::kBt, true, 43, 0xe7f894f821afa46full},
      {ProtocolKind::kBt, false, 41, 0x152e814eb3be3a9dull},
      {ProtocolKind::kBt, false, 42, 0xe301e0f3c2db8ba3ull},
      {ProtocolKind::kBt, false, 43, 0x93bd0517439f995bull},
      {ProtocolKind::kAbs, true, 41, 0x2b83c486ab2aea7aull},
      {ProtocolKind::kAbs, true, 42, 0xa798a50781369778ull},
      {ProtocolKind::kAbs, true, 43, 0x85febe5e5c7953f8ull},
      {ProtocolKind::kAbs, false, 41, 0x34cf3e8c24aaaee7ull},
      {ProtocolKind::kAbs, false, 42, 0x461c1b03b413d331ull},
      {ProtocolKind::kAbs, false, 43, 0xd32ccce54af91db5ull},
      {ProtocolKind::kQt, true, 41, 0x429312c44816e25aull},
      {ProtocolKind::kQt, true, 42, 0x92e53571c492577aull},
      {ProtocolKind::kQt, true, 43, 0x3342df5cf218ed82ull},
      {ProtocolKind::kQt, false, 41, 0x232bdc10322d66e3ull},
      {ProtocolKind::kQt, false, 42, 0xbcb1ddf0b40b28ffull},
      {ProtocolKind::kQt, false, 43, 0xbf076464d328ed19ull},
      {ProtocolKind::kAqs, true, 41, 0x429312c44816e25aull},
      {ProtocolKind::kAqs, true, 42, 0x92e53571c492577aull},
      {ProtocolKind::kAqs, true, 43, 0x3342df5cf218ed82ull},
      {ProtocolKind::kAqs, false, 41, 0x232bdc10322d66e3ull},
      {ProtocolKind::kAqs, false, 42, 0xbcb1ddf0b40b28ffull},
      {ProtocolKind::kAqs, false, 43, 0xbf076464d328ed19ull},
  };
  return kCases;
}

TEST(SplitWalk, UnobservedCensusesArePinned) {
  for (const CensusCase& c : censusCases()) {
    const std::uint64_t digest = runCensusCase(c);
    EXPECT_EQ(digest, c.digest)
        << rfid::anticollision::toString(c.protocol)
        << (c.crc ? " CRC-CD" : " QCD-8") << " seed " << c.seed
        << ": digest 0x" << std::hex << digest;
  }
}

}  // namespace
