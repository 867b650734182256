// BitVec — a word-packed, value-semantic bit vector.
//
// BitVec is the universal signal representation of the library: a tag's
// backscatter transmission is a BitVec, and the superposition of several
// concurrent transmissions on the reader's antenna is the bitwise Boolean
// sum (operator|) of the individual BitVecs, following the OR-channel model
// of the paper (§IV-A).
//
// Conventions:
//   * bit index 0 is transmitted first (and is the least-significant bit of
//     the integer view used by fromUint()/toUint());
//   * toString() renders most-significant / last-transmitted bit first, so
//     fromString("0110").toString() == "0110";
//   * all binary operators require operands of equal size — superposed
//     signals in a slot are time-aligned and equally long (§IV-A);
//   * every allocating operation (fromUint, concat, slice, complemented, …)
//     has an in-place `assign*`/`*Into` counterpart that reuses the
//     receiver's word storage. The simulation hot path (one contention slot)
//     is built exclusively from the in-place forms so steady-state slots
//     perform zero heap allocations; the allocating forms delegate to them.
//
// Storage: up to two 64-bit words (128 bits) live inline, in a union with
// the heap pointer, so a vector of 128 bits or fewer never allocates. That
// holds every per-tag and per-slot signal the library renders: the ID
// (l_id <= 64), the CRC-CD contention signal (l_id + l_crc <= 128) and the
// QCD preamble (2·l <= 128). Longer vectors move to the heap; the private
// resizeWords is the one site where an in-place operation grows storage.
// Words that come into use read zero, and shrinking never releases
// capacity. Moving a heap vector steals its buffer; a moved-from vector is
// empty.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace rfid::common {

class BitVec {
 public:
  /// Empty vector (zero bits). Distinct from a vector of zero-valued bits.
  BitVec() = default;

  /// `nbits` bits, all initialised to `value`.
  explicit BitVec(std::size_t nbits, bool value = false);

  BitVec(const BitVec& other);
  BitVec(BitVec&& other) noexcept;
  BitVec& operator=(const BitVec& other);
  BitVec& operator=(BitVec&& other) noexcept;
  ~BitVec();

  /// Builds a vector of `nbits` bits from the low bits of `value`.
  /// Requires nbits <= 64 and that `value` fits in `nbits` bits.
  static BitVec fromUint(std::uint64_t value, std::size_t nbits);

  /// Parses "0101…" (most-significant bit first). Throws on other chars.
  static BitVec fromString(std::string_view bits);

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// Resizes to `nbits`, keeping the first min(size, nbits) bits and
  /// initialising any new bits to `value`. Word storage is reused; shrinking
  /// never releases capacity.
  void resize(std::size_t nbits, bool value = false);

  /// In-place fromUint: *this becomes the low `nbits` bits of `value`.
  /// Same preconditions as fromUint; reuses the existing word storage.
  void assignUint(std::uint64_t value, std::size_t nbits);

  /// In-place BitVec(nbits, value): every bit set to `value`.
  void assignFill(std::size_t nbits, bool value);

  /// *this = a | b without allocating (beyond growing the word storage to
  /// a's word count the first time). Sizes of a and b must match; either
  /// operand may alias *this.
  void assignOr(const BitVec& a, const BitVec& b);

  bool test(std::size_t i) const;
  void set(std::size_t i, bool value);

  /// Number of 64-bit words backing the vector (ceil(size / 64)).
  std::size_t words() const noexcept { return wordCount(size_); }
  /// Word `i` of the packed representation; bit b of the word is bit
  /// 64·i + b of the vector. Unused high bits of the last word are zero.
  std::uint64_t word(std::size_t i) const;
  /// Overwrites word `i`. Bits beyond size() in the last word are cleared,
  /// preserving the canonical representation equality/popcount rely on.
  void setWord(std::size_t i, std::uint64_t value);
  /// The words() packed words, read-only, for word-level consumers such as
  /// CrcEngine::computeWords.
  const std::uint64_t* data() const noexcept {
    return onHeap() ? heap_ : inline_;
  }

  /// True if at least one bit is 1 (an OR-channel carries energy).
  bool any() const noexcept;
  /// True if no bit is 1. An all-zero received signal means an idle slot.
  bool none() const noexcept { return !any(); }
  /// True if every bit is 1.
  bool all() const noexcept;
  /// Number of 1 bits.
  std::size_t popcount() const noexcept;

  /// Bitwise Boolean sum — the physical superposition of two aligned
  /// transmissions. Sizes must match.
  BitVec& operator|=(const BitVec& rhs);
  BitVec& operator&=(const BitVec& rhs);
  BitVec& operator^=(const BitVec& rhs);

  friend BitVec operator|(BitVec lhs, const BitVec& rhs) { return lhs |= rhs; }
  friend BitVec operator&(BitVec lhs, const BitVec& rhs) { return lhs &= rhs; }
  friend BitVec operator^(BitVec lhs, const BitVec& rhs) { return lhs ^= rhs; }

  /// In-place bitwise complement (the QCD collision function f(r) = ~r).
  BitVec& flip();
  /// Returns the bitwise complement, leaving *this untouched.
  BitVec complemented() const;
  friend BitVec operator~(const BitVec& v) { return v.complemented(); }

  /// Concatenation: the result transmits *this first, then `rhs`
  /// (the paper's ⊕ operator, e.g. the collision preamble r ⊕ f(r)).
  BitVec concat(const BitVec& rhs) const;

  /// In-place concatenation: appends `rhs` after the current bits, reusing
  /// the word storage. `rhs` must not alias *this.
  BitVec& concatInto(const BitVec& rhs);

  /// Appends the low `nbits` bits of `value` (fromUint semantics) after the
  /// current bits, in place.
  void appendUint(std::uint64_t value, std::size_t nbits);

  /// Copies `len` bits starting at `pos` (in transmission order).
  BitVec slice(std::size_t pos, std::size_t len) const;

  /// In-place slice: writes the `len` bits starting at `pos` into `out`,
  /// reusing out's word storage. `out` must not alias *this.
  void sliceInto(std::size_t pos, std::size_t len, BitVec& out) const;

  /// Integer view of the whole vector. Requires size() <= 64.
  std::uint64_t toUint() const;

  /// Most-significant-bit-first textual rendering ("0110").
  std::string toString() const;

  friend bool operator==(const BitVec& a, const BitVec& b) noexcept {
    return a.size_ == b.size_ &&
           std::equal(a.data(), a.data() + a.words(), b.data());
  }
  friend bool operator!=(const BitVec& a, const BitVec& b) noexcept {
    return !(a == b);
  }

  /// FNV-1a over the canonical word representation.
  std::size_t hash() const noexcept;

 private:
  static constexpr std::size_t kWordBits = 64;
  static constexpr std::size_t kInlineWords = 2;

  static constexpr std::size_t wordCount(std::size_t nbits) noexcept {
    return (nbits + kWordBits - 1) / kWordBits;
  }
  bool onHeap() const noexcept { return capacity_ > kInlineWords; }
  std::uint64_t* wordPtr() noexcept { return onHeap() ? heap_ : inline_; }
  /// Zeroes the unused high bits of the last word so that the word array is
  /// canonical (equality and popcount rely on this).
  void clearPadding() noexcept;
  /// Changes the live word count from words() to `nWords`; called before
  /// size_ changes. New words read zero. Growth beyond capacity is
  /// sanctioned as high-water-mark growth under the RFID_ENFORCE_HOT
  /// allocation guards; in-place reuse within capacity stays enforced
  /// allocation-free.
  void resizeWords(std::size_t nWords);
  /// Moves the storage to a fresh heap buffer of `capacity` words that keeps
  /// the first `keep` words. Not allow-scoped: a construction or copy that
  /// allocates inside a guard is a violation, as it was with std::vector.
  void reallocate(std::size_t capacity, std::size_t keep);
  /// Frees the heap buffer, if any; the storage is inline afterwards.
  void release() noexcept;
  /// Takes `other`'s words (its heap buffer, or a copy of its inline
  /// words) and leaves it empty. *this must hold no heap buffer.
  void takeFrom(BitVec& other) noexcept;

  union {
    std::uint64_t inline_[kInlineWords] = {};
    std::uint64_t* heap_;  ///< active while capacity_ > kInlineWords
  };
  std::size_t size_ = 0;
  std::size_t capacity_ = kInlineWords;  ///< words the storage holds
};

}  // namespace rfid::common

template <>
struct std::hash<rfid::common::BitVec> {
  std::size_t operator()(const rfid::common::BitVec& v) const noexcept {
    return v.hash();
  }
};
