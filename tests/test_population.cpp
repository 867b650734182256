// Tag population factories: uniqueness, encoding consistency, blocker shape.
#include "tags/population.hpp"

#include <gtest/gtest.h>

#include <unordered_set>

#include "common/require.hpp"
#include "common/rng.hpp"

namespace {

using rfid::common::PreconditionError;
using rfid::common::Rng;
using rfid::tags::countBelievedIdentified;
using rfid::tags::countCorrectlyIdentified;
using rfid::tags::makeBlockerTag;
using rfid::tags::makeUniformPopulation;
using rfid::tags::Tag;

TEST(Population, IdsAreUniqueNonZeroAndSized) {
  Rng rng(71);
  const auto tags = makeUniformPopulation(500, 64, rng);
  ASSERT_EQ(tags.size(), 500u);
  std::unordered_set<std::uint64_t> ids;
  for (const Tag& t : tags) {
    EXPECT_NE(t.idValue, 0u);
    EXPECT_EQ(t.id.size(), 64u);
    EXPECT_EQ(t.id.toUint(), t.idValue);
    EXPECT_TRUE(ids.insert(t.idValue).second) << "duplicate ID";
    EXPECT_FALSE(t.believesIdentified);
    EXPECT_FALSE(t.blocker);
  }
}

TEST(Population, SmallIdSpaceStillUnique) {
  Rng rng(72);
  // 2^4 - 1 = 15 non-zero values; ask for all of them.
  const auto tags = makeUniformPopulation(15, 4, rng);
  std::unordered_set<std::uint64_t> ids;
  for (const Tag& t : tags) {
    EXPECT_LE(t.idValue, 15u);
    ids.insert(t.idValue);
  }
  EXPECT_EQ(ids.size(), 15u);
}

TEST(Population, RejectsImpossibleRequests) {
  Rng rng(73);
  EXPECT_THROW(makeUniformPopulation(16, 4, rng), PreconditionError);
  EXPECT_THROW(makeUniformPopulation(1, 0, rng), PreconditionError);
  EXPECT_THROW(makeUniformPopulation(1, 65, rng), PreconditionError);
}

TEST(Population, DeterministicGivenSeed) {
  Rng a(99), b(99);
  const auto ta = makeUniformPopulation(100, 64, a);
  const auto tb = makeUniformPopulation(100, 64, b);
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta[i].idValue, tb[i].idValue);
  }
}

TEST(Population, ResetForRoundKeepsIdentity) {
  Rng rng(74);
  auto tags = makeUniformPopulation(3, 64, rng);
  tags[0].believesIdentified = true;
  tags[0].correctlyIdentified = true;
  tags[0].identifiedAtMicros = 12.5;
  tags[0].slotChoice = 3;
  const std::uint64_t id = tags[0].idValue;
  tags[0].resetForRound();
  EXPECT_EQ(tags[0].idValue, id);
  EXPECT_FALSE(tags[0].believesIdentified);
  EXPECT_FALSE(tags[0].correctlyIdentified);
  EXPECT_EQ(tags[0].slotChoice, 0u);
}

TEST(Population, BlockerIsAllOnes) {
  const Tag blocker = makeBlockerTag(64);
  EXPECT_TRUE(blocker.blocker);
  EXPECT_TRUE(blocker.id.all());
  EXPECT_EQ(blocker.id.size(), 64u);
}

TEST(Population, IdentificationCounters) {
  Rng rng(75);
  auto tags = makeUniformPopulation(4, 64, rng);
  EXPECT_EQ(countBelievedIdentified(tags), 0u);
  tags[0].believesIdentified = true;
  tags[0].correctlyIdentified = true;
  tags[1].believesIdentified = true;  // phantom victim
  EXPECT_EQ(countBelievedIdentified(tags), 2u);
  EXPECT_EQ(countCorrectlyIdentified(tags), 1u);
}

}  // namespace
