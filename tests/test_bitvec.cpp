// BitVec: construction, bit access, Boolean-sum semantics, complement,
// concatenation, slicing, and canonical-form invariants.
#include "common/bitvec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/require.hpp"
#include "common/rng.hpp"

namespace {

using rfid::common::BitVec;
using rfid::common::PreconditionError;
using rfid::common::Rng;

// Two inline words beside the size and the capacity: a Tag holds one.
static_assert(sizeof(BitVec) == 32);

TEST(BitVec, DefaultIsEmpty) {
  BitVec v;
  EXPECT_EQ(v.size(), 0u);
  EXPECT_TRUE(v.empty());
  EXPECT_TRUE(v.none());
  EXPECT_FALSE(v.any());
  EXPECT_TRUE(v.all());  // vacuously
  EXPECT_EQ(v.popcount(), 0u);
}

TEST(BitVec, SizedConstructionZeroFilled) {
  BitVec v(130);
  EXPECT_EQ(v.size(), 130u);
  EXPECT_TRUE(v.none());
  for (std::size_t i = 0; i < 130; ++i) {
    EXPECT_FALSE(v.test(i));
  }
}

TEST(BitVec, SizedConstructionOneFilled) {
  BitVec v(130, true);
  EXPECT_TRUE(v.all());
  EXPECT_EQ(v.popcount(), 130u);
}

TEST(BitVec, SetAndTest) {
  BitVec v(70);
  v.set(0, true);
  v.set(63, true);
  v.set(64, true);
  v.set(69, true);
  EXPECT_TRUE(v.test(0));
  EXPECT_TRUE(v.test(63));
  EXPECT_TRUE(v.test(64));
  EXPECT_TRUE(v.test(69));
  EXPECT_FALSE(v.test(1));
  EXPECT_EQ(v.popcount(), 4u);
  v.set(63, false);
  EXPECT_FALSE(v.test(63));
  EXPECT_EQ(v.popcount(), 3u);
}

TEST(BitVec, OutOfRangeAccessThrows) {
  BitVec v(8);
  EXPECT_THROW(v.test(8), PreconditionError);
  EXPECT_THROW(v.set(8, true), PreconditionError);
}

TEST(BitVec, FromUintRoundTrip) {
  const BitVec v = BitVec::fromUint(0b1011001, 7);
  EXPECT_EQ(v.size(), 7u);
  EXPECT_EQ(v.toUint(), 0b1011001u);
  EXPECT_TRUE(v.test(0));
  EXPECT_FALSE(v.test(1));
  EXPECT_TRUE(v.test(6));
}

TEST(BitVec, FromUintRejectsOverflow) {
  EXPECT_THROW(BitVec::fromUint(0b100, 2), PreconditionError);
  EXPECT_NO_THROW(BitVec::fromUint(0b11, 2));
  EXPECT_THROW(BitVec::fromUint(1, 65), PreconditionError);
}

TEST(BitVec, FromUint64BitFullWidth) {
  const std::uint64_t all = ~std::uint64_t{0};
  const BitVec v = BitVec::fromUint(all, 64);
  EXPECT_TRUE(v.all());
  EXPECT_EQ(v.toUint(), all);
}

TEST(BitVec, StringRoundTrip) {
  const BitVec v = BitVec::fromString("0110");
  EXPECT_EQ(v.toString(), "0110");
  // MSB-first: leftmost char is the highest index.
  EXPECT_FALSE(v.test(3));
  EXPECT_TRUE(v.test(2));
  EXPECT_TRUE(v.test(1));
  EXPECT_FALSE(v.test(0));
}

TEST(BitVec, StringRejectsNonBinary) {
  EXPECT_THROW(BitVec::fromString("01x1"), PreconditionError);
}

TEST(BitVec, PaperOverlapExample) {
  // §I: (011001) ∨ (010010) = (011011).
  const BitVec a = BitVec::fromString("011001");
  const BitVec b = BitVec::fromString("010010");
  EXPECT_EQ((a | b).toString(), "011011");
}

TEST(BitVec, BooleanSumIsCommutativeAssociativeIdempotent) {
  Rng rng(7);
  for (int t = 0; t < 50; ++t) {
    const BitVec a = rng.bitvec(97);
    const BitVec b = rng.bitvec(97);
    const BitVec c = rng.bitvec(97);
    EXPECT_EQ(a | b, b | a);
    EXPECT_EQ((a | b) | c, a | (b | c));
    EXPECT_EQ(a | a, a);
  }
}

TEST(BitVec, OperatorsRequireEqualSize) {
  BitVec a(8), b(9);
  EXPECT_THROW(a |= b, PreconditionError);
  EXPECT_THROW(a &= b, PreconditionError);
  EXPECT_THROW(a ^= b, PreconditionError);
}

TEST(BitVec, AndXorBasics) {
  const BitVec a = BitVec::fromString("1100");
  const BitVec b = BitVec::fromString("1010");
  EXPECT_EQ((a & b).toString(), "1000");
  EXPECT_EQ((a ^ b).toString(), "0110");
}

TEST(BitVec, ComplementFlipsEveryBitAndKeepsPaddingClean) {
  const BitVec v = BitVec::fromString("0110");
  EXPECT_EQ((~v).toString(), "1001");
  // Complement of a 70-bit vector must not leak into padding: popcounts add
  // up to the size.
  Rng rng(3);
  const BitVec w = rng.bitvec(70);
  EXPECT_EQ(w.popcount() + (~w).popcount(), 70u);
  EXPECT_EQ(~~w, w);
}

TEST(BitVec, ComplementOfEmptyIsEmpty) {
  BitVec v;
  EXPECT_EQ(~v, v);
}

TEST(BitVec, ConcatPreservesOrder) {
  const BitVec r = BitVec::fromUint(0b0101, 4);
  const BitVec c = BitVec::fromUint(0b1010, 4);
  const BitVec s = r.concat(c);
  EXPECT_EQ(s.size(), 8u);
  EXPECT_EQ(s.slice(0, 4), r);
  EXPECT_EQ(s.slice(4, 4), c);
}

TEST(BitVec, ConcatAcrossWordBoundaries) {
  Rng rng(11);
  for (const std::size_t la : {1u, 7u, 63u, 64u, 65u, 100u}) {
    for (const std::size_t lb : {1u, 64u, 31u}) {
      const BitVec a = rng.bitvec(la);
      const BitVec b = rng.bitvec(lb);
      const BitVec s = a.concat(b);
      ASSERT_EQ(s.size(), la + lb);
      EXPECT_EQ(s.slice(0, la), a);
      EXPECT_EQ(s.slice(la, lb), b);
      EXPECT_EQ(s.popcount(), a.popcount() + b.popcount());
    }
  }
}

TEST(BitVec, ConcatWithEmpty) {
  const BitVec a = BitVec::fromString("101");
  EXPECT_EQ(a.concat(BitVec{}), a);
  EXPECT_EQ(BitVec{}.concat(a), a);
}

TEST(BitVec, SliceValidation) {
  const BitVec a(10);
  EXPECT_THROW(a.slice(5, 6), PreconditionError);
  EXPECT_EQ(a.slice(5, 5).size(), 5u);
  EXPECT_EQ(a.slice(10, 0).size(), 0u);
}

TEST(BitVec, SliceUnalignedRandomized) {
  Rng rng(5);
  const BitVec v = rng.bitvec(200);
  for (int t = 0; t < 100; ++t) {
    const std::size_t pos = rng.below(200);
    const std::size_t len = rng.below(200 - pos + 1);
    const BitVec s = v.slice(pos, len);
    ASSERT_EQ(s.size(), len);
    for (std::size_t i = 0; i < len; ++i) {
      EXPECT_EQ(s.test(i), v.test(pos + i));
    }
  }
}

TEST(BitVec, ToUintRequiresAtMost64) {
  const BitVec v(65);
  EXPECT_THROW(v.toUint(), PreconditionError);
  EXPECT_EQ(BitVec{}.toUint(), 0u);
}

TEST(BitVec, EqualityDependsOnSizeAndContent) {
  EXPECT_NE(BitVec(4), BitVec(5));
  EXPECT_EQ(BitVec::fromString("0101"), BitVec::fromString("0101"));
  EXPECT_NE(BitVec::fromString("0101"), BitVec::fromString("0100"));
}

TEST(BitVec, HashMostlyCollisionFreeOnRandomInputs) {
  Rng rng(99);
  std::unordered_set<std::size_t> hashes;
  constexpr int kCount = 2000;
  for (int i = 0; i < kCount; ++i) {
    hashes.insert(rng.bitvec(96).hash());
  }
  // Random 96-bit vectors essentially never collide under a 64-bit hash.
  EXPECT_GT(hashes.size(), kCount - 3);
}

TEST(BitVec, UsableInUnorderedSet) {
  std::unordered_set<BitVec> set;
  set.insert(BitVec::fromString("01"));
  set.insert(BitVec::fromString("01"));
  set.insert(BitVec::fromString("10"));
  EXPECT_EQ(set.size(), 2u);
}

// --- in-place / word-level API (the slot hot path's building blocks) -------

TEST(BitVec, AssignUintMatchesFromUint) {
  Rng rng(200);
  BitVec scratch;  // reused across iterations, as the hot path does
  for (const std::size_t n : {0u, 1u, 7u, 32u, 63u, 64u}) {
    const std::uint64_t v = n == 0 ? 0 : rng.bits(static_cast<unsigned>(n));
    scratch.assignUint(v, n);
    EXPECT_EQ(scratch, BitVec::fromUint(v, n)) << "n = " << n;
  }
  EXPECT_THROW(scratch.assignUint(4, 2), PreconditionError);
  EXPECT_THROW(scratch.assignUint(0, 65), PreconditionError);
}

TEST(BitVec, AssignFillMatchesSizedConstruction) {
  BitVec scratch;
  for (const std::size_t n : {0u, 1u, 64u, 65u, 130u}) {
    for (const bool value : {false, true}) {
      scratch.assignFill(n, value);
      EXPECT_EQ(scratch, BitVec(n, value)) << "n = " << n;
    }
  }
  // Shrinking after a large fill keeps the canonical form.
  scratch.assignFill(130, true);
  scratch.assignFill(3, true);
  EXPECT_EQ(scratch, BitVec(3, true));
  EXPECT_EQ(scratch.popcount(), 3u);
}

TEST(BitVec, AssignOrMatchesOperator) {
  Rng rng(201);
  BitVec scratch;
  for (const std::size_t n : {1u, 16u, 64u, 100u}) {
    const BitVec a = rng.bitvec(n);
    const BitVec b = rng.bitvec(n);
    scratch.assignOr(a, b);
    EXPECT_EQ(scratch, a | b) << "n = " << n;
    // Aliasing the destination with an operand is allowed.
    BitVec aliased = a;
    aliased.assignOr(aliased, b);
    EXPECT_EQ(aliased, a | b) << "n = " << n;
  }
  const BitVec a = rng.bitvec(8);
  const BitVec b = rng.bitvec(9);
  EXPECT_THROW(scratch.assignOr(a, b), PreconditionError);
}

TEST(BitVec, ResizePreservesPrefixAndFillsNewBits) {
  Rng rng(202);
  const BitVec original = rng.bitvec(100);
  BitVec v = original;
  v.resize(150, true);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(v.test(i), original.test(i)) << "bit " << i;
  }
  for (std::size_t i = 100; i < 150; ++i) {
    EXPECT_TRUE(v.test(i)) << "bit " << i;
  }
  v.resize(40);
  EXPECT_EQ(v, original.slice(0, 40));
  v.resize(70);  // regrow with zeros: no stale bits may reappear
  EXPECT_EQ(v.popcount(), original.slice(0, 40).popcount());
}

TEST(BitVec, WordAccessorRoundTrip) {
  Rng rng(203);
  const BitVec v = rng.bitvec(130);
  EXPECT_EQ(v.words(), 3u);
  BitVec rebuilt(130);
  for (std::size_t i = 0; i < v.words(); ++i) {
    rebuilt.setWord(i, v.word(i));
  }
  EXPECT_EQ(rebuilt, v);
  EXPECT_THROW(v.word(3), PreconditionError);
  EXPECT_THROW(rebuilt.setWord(3, 0), PreconditionError);
}

TEST(BitVec, SetWordClearsPaddingOnLastWord) {
  BitVec v(70);
  v.setWord(1, ~std::uint64_t{0});  // only 6 bits of word 1 are in range
  EXPECT_EQ(v.popcount(), 6u);
  EXPECT_EQ(v, v | v);  // canonical form survives equality round trips
}

TEST(BitVec, ConcatIntoMatchesConcat) {
  Rng rng(204);
  BitVec scratch;
  for (const std::size_t na : {0u, 5u, 64u, 90u}) {
    for (const std::size_t nb : {0u, 3u, 64u, 70u}) {
      const BitVec a = rng.bitvec(na);
      const BitVec b = rng.bitvec(nb);
      scratch = a;
      scratch.concatInto(b);
      EXPECT_EQ(scratch, a.concat(b)) << na << "+" << nb;
    }
  }
  EXPECT_THROW(scratch.concatInto(scratch), PreconditionError);
}

TEST(BitVec, AppendUintMatchesConcatFromUint) {
  Rng rng(205);
  BitVec scratch;
  for (const std::size_t base : {0u, 7u, 60u, 64u}) {
    for (const std::size_t n : {0u, 1u, 8u, 33u, 64u}) {
      const BitVec prefix = rng.bitvec(base);
      const std::uint64_t v = n == 0 ? 0 : rng.bits(static_cast<unsigned>(n));
      scratch = prefix;
      scratch.appendUint(v, n);
      EXPECT_EQ(scratch, prefix.concat(BitVec::fromUint(v, n)))
          << base << "+" << n;
    }
  }
  EXPECT_THROW(scratch.appendUint(2, 1), PreconditionError);
  EXPECT_THROW(scratch.appendUint(0, 65), PreconditionError);
}

TEST(BitVec, SliceIntoMatchesSlice) {
  Rng rng(206);
  const BitVec v = rng.bitvec(150);
  BitVec scratch;
  for (int i = 0; i < 200; ++i) {
    const std::size_t pos = rng.below(150);
    const std::size_t len = rng.below(150 - pos + 1);
    v.sliceInto(pos, len, scratch);
    EXPECT_EQ(scratch, v.slice(pos, len)) << pos << "/" << len;
  }
  EXPECT_THROW(v.sliceInto(100, 51, scratch), PreconditionError);
  BitVec aliased = v;
  EXPECT_THROW(aliased.sliceInto(0, 10, aliased), PreconditionError);
}

// --- storage: two words inline, longer vectors on the heap ----------------

/// A bit-by-bit model of a vector: bit i is model[i].
using Model = std::vector<bool>;

Model modelOf(const BitVec& v) {
  Model m(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    m[i] = v.test(i);
  }
  return m;
}

void appendToModel(Model& m, std::uint64_t value, std::size_t nbits) {
  for (std::size_t i = 0; i < nbits; ++i) {
    m.push_back(((value >> i) & 1u) != 0);
  }
}

/// Checks `v` bit by bit against `m`, and that its padding is canonical:
/// it equals (and hashes like) a vector built one set() at a time.
void expectMatches(const BitVec& v, const Model& m, const std::string& what) {
  ASSERT_EQ(v.size(), m.size()) << what;
  EXPECT_EQ(modelOf(v), m) << what;
  BitVec rebuilt(m.size());
  for (std::size_t i = 0; i < m.size(); ++i) {
    rebuilt.set(i, m[i]);
  }
  EXPECT_EQ(v, rebuilt) << what;
  EXPECT_EQ(v.hash(), rebuilt.hash()) << what;
  EXPECT_EQ(v.popcount(),
            static_cast<std::size_t>(std::count(m.begin(), m.end(), true)))
      << what;
}

/// True when the words live inside the object (no heap buffer).
bool storedInline(const BitVec& v) {
  const auto* self = reinterpret_cast<const unsigned char*>(&v);
  const auto* words = reinterpret_cast<const unsigned char*>(v.data());
  return std::greater_equal<const unsigned char*>{}(words, self) &&
         std::less<const unsigned char*>{}(words, self + sizeof(BitVec));
}

TEST(BitVec, GrowsFromInlineToHeapKeepingWords) {
  Rng rng(207);
  {
    BitVec v = rng.bitvec(128);
    ASSERT_TRUE(storedInline(v));
    Model m = modelOf(v);
    v.appendUint(1, 1);
    appendToModel(m, 1, 1);
    expectMatches(v, m, "appendUint 128+1");
    EXPECT_FALSE(storedInline(v));
    for (const std::size_t n : {63u, 64u, 7u, 64u, 64u}) {
      const std::uint64_t value = rng.bits(static_cast<unsigned>(n));
      v.appendUint(value, n);
      appendToModel(m, value, n);
      expectMatches(v, m, "appendUint +" + std::to_string(n));
    }
  }
  for (const std::size_t na : {100u, 127u, 128u}) {
    for (const std::size_t nb : {1u, 29u, 64u, 130u}) {
      BitVec a = rng.bitvec(na);
      const BitVec b = rng.bitvec(nb);
      Model m = modelOf(a);
      const Model tail = modelOf(b);
      m.insert(m.end(), tail.begin(), tail.end());
      a.concatInto(b);
      expectMatches(a, m, "concatInto " + std::to_string(na) + "+" +
                              std::to_string(nb));
    }
  }
  for (const std::size_t from : {0u, 1u, 64u, 127u, 128u}) {
    for (const std::size_t to : {129u, 192u, 300u}) {
      for (const bool value : {false, true}) {
        BitVec v = rng.bitvec(from);
        Model m = modelOf(v);
        m.resize(to, value);
        v.resize(to, value);
        expectMatches(v, m, "resize " + std::to_string(from) + "->" +
                                std::to_string(to));
      }
    }
  }
  BitVec v = rng.bitvec(128);
  for (const std::size_t n : {129u, 200u, 64u, 257u}) {
    for (const bool value : {false, true}) {
      v.assignFill(n, value);
      expectMatches(v, Model(n, value), "assignFill " + std::to_string(n));
    }
  }
}

TEST(BitVec, RegrownWordsComeUpZero) {
  // A vector of ones, shrunk: its storage (inline or heap) keeps the old
  // words past the new size, and every regrowth must read them as zero.
  const auto shrunkOnes = [](std::size_t from, std::size_t to) {
    BitVec v(from, true);
    v.resize(to);
    return v;
  };
  for (const std::size_t from : {128u, 300u}) {
    for (const std::size_t to : {0u, 1u, 64u, 100u, 128u}) {
      if (to > from) continue;
      const std::string what =
          std::to_string(from) + "->" + std::to_string(to) + " then ";
      {
        BitVec v = shrunkOnes(from, to);
        EXPECT_EQ(storedInline(v), from <= 128) << what << "shrink";
        expectMatches(v, Model(to, true), what + "shrink");
        Model m(to, true);
        for (int k = 0; k < 4; ++k) {
          v.appendUint(0, 64);
          appendToModel(m, 0, 64);
        }
        v.appendUint(1, 1);
        appendToModel(m, 1, 1);
        expectMatches(v, m, what + "appendUint");
      }
      {
        BitVec v = shrunkOnes(from, to);
        v.concatInto(BitVec(250));
        Model m(to, true);
        m.resize(to + 250, false);
        expectMatches(v, m, what + "concatInto");
      }
      {
        BitVec v = shrunkOnes(from, to);
        v.resize(to + 200);
        Model m(to, true);
        m.resize(to + 200, false);
        expectMatches(v, m, what + "resize");
      }
      {
        BitVec v = shrunkOnes(from, to);
        const BitVec zeros(256);
        v.assignOr(zeros, zeros);
        expectMatches(v, Model(256, false), what + "assignOr");
        BitVec w = shrunkOnes(from, to);
        zeros.sliceInto(0, 256, w);
        expectMatches(w, Model(256, false), what + "sliceInto");
      }
    }
  }
}

TEST(BitVec, CopyAndMoveAcrossStorageModes) {
  Rng rng(208);
  const BitVec small = rng.bitvec(100);
  const BitVec large = rng.bitvec(300);
  // The same 100 bits as `small`, kept in a heap buffer: copying into a
  // vector with room reuses its storage.
  BitVec smallOnHeap(400);
  smallOnHeap = small;
  ASSERT_TRUE(storedInline(small));
  ASSERT_FALSE(storedInline(smallOnHeap));
  ASSERT_FALSE(storedInline(large));
  EXPECT_EQ(smallOnHeap, small);
  EXPECT_EQ(smallOnHeap.hash(), small.hash());
  EXPECT_EQ(std::hash<BitVec>{}(smallOnHeap), std::hash<BitVec>{}(small));

  const BitVec* const sources[] = {&small, &smallOnHeap, &large};
  for (const BitVec* source : sources) {
    const std::string what = std::to_string(source->size()) + " bits, " +
                             (storedInline(*source) ? "inline" : "heap");
    const BitVec copied(*source);
    EXPECT_EQ(copied, *source) << what;
    EXPECT_EQ(copied.hash(), source->hash()) << what;
    {
      BitVec from = *source;
      const bool fromHeap = !storedInline(from);
      const std::uint64_t* buffer = from.data();
      const BitVec moved(std::move(from));
      EXPECT_EQ(moved, *source) << what;
      if (fromHeap) {
        EXPECT_EQ(moved.data(), buffer) << what << ": the buffer is stolen";
      }
      // NOLINTNEXTLINE(bugprone-use-after-move): moved-from state under test
      EXPECT_TRUE(from.empty()) << what;
      EXPECT_EQ(from.words(), 0u) << what;
      EXPECT_EQ(from, BitVec{}) << what;
      from.appendUint(5, 3);  // a moved-from vector is reusable
      EXPECT_EQ(from, BitVec::fromUint(5, 3)) << what;
    }
    // Both destination storage modes: inline (64 bits) and heap (400).
    for (const std::size_t destBits : {64u, 400u}) {
      const std::string into = what + " into " + std::to_string(destBits);
      BitVec copyDest = rng.bitvec(destBits);
      copyDest = *source;
      EXPECT_EQ(copyDest, *source) << into;
      EXPECT_EQ(copyDest.hash(), source->hash()) << into;

      BitVec from = *source;
      BitVec moveDest = rng.bitvec(destBits);
      moveDest = std::move(from);
      EXPECT_EQ(moveDest, *source) << into;
      EXPECT_EQ(moveDest.hash(), source->hash()) << into;
      // NOLINTNEXTLINE(bugprone-use-after-move): moved-from state under test
      EXPECT_TRUE(from.empty()) << into;
      EXPECT_EQ(from, BitVec{}) << into;
    }
    // Self-copy and self-move leave the value alone.
    BitVec self = *source;
    BitVec& alias = self;
    self = alias;
    EXPECT_EQ(self, *source) << what << ": self-copy";
    self = std::move(alias);
    EXPECT_EQ(self, *source) << what << ": self-move";
  }
}

}  // namespace
