#include "common/bitvec.hpp"

#include <algorithm>
#include <bit>

#include "common/alloc_guard.hpp"
#include "common/require.hpp"

namespace rfid::common {

BitVec::BitVec(std::size_t nbits, bool value)
    : words_(wordCount(nbits), value ? ~std::uint64_t{0} : std::uint64_t{0}),
      size_(nbits) {
  clearPadding();
}

BitVec BitVec::fromUint(std::uint64_t value, std::size_t nbits) {
  BitVec v;
  v.assignUint(value, nbits);
  return v;
}

void BitVec::resize(std::size_t nbits, bool value) {
  const std::size_t oldSize = size_;
  if (nbits == oldSize) return;
  resizeWords(wordCount(nbits));
  size_ = nbits;
  if (nbits > oldSize && value) {
    const std::size_t firstWord = oldSize / kWordBits;
    if (firstWord < words_.size()) {
      words_[firstWord] |= ~std::uint64_t{0} << (oldSize % kWordBits);
      for (std::size_t w = firstWord + 1; w < words_.size(); ++w) {
        words_[w] = ~std::uint64_t{0};
      }
    }
  }
  clearPadding();
}

void BitVec::assignUint(std::uint64_t value, std::size_t nbits) {
  RFID_REQUIRE(nbits <= 64, "fromUint supports at most 64 bits");
  RFID_REQUIRE(nbits == 64 || (value >> nbits) == 0,
               "value does not fit in nbits bits");
  resizeWords(wordCount(nbits));
  size_ = nbits;
  if (!words_.empty()) {
    words_[0] = value;
  }
}

void BitVec::assignFill(std::size_t nbits, bool value) {
  resizeWords(wordCount(nbits));
  size_ = nbits;
  std::fill(words_.begin(), words_.end(),
            value ? ~std::uint64_t{0} : std::uint64_t{0});
  clearPadding();
}

void BitVec::assignOr(const BitVec& a, const BitVec& b) {
  RFID_REQUIRE(a.size_ == b.size_, "operands must have equal size");
  resizeWords(a.words_.size());
  size_ = a.size_;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    words_[i] = a.words_[i] | b.words_[i];
  }
}

std::uint64_t BitVec::word(std::size_t i) const {
  RFID_REQUIRE(i < words_.size(), "word index out of range");
  return words_[i];
}

void BitVec::setWord(std::size_t i, std::uint64_t value) {
  RFID_REQUIRE(i < words_.size(), "word index out of range");
  words_[i] = value;
  if (i + 1 == words_.size()) {
    clearPadding();
  }
}

BitVec BitVec::fromString(std::string_view bits) {
  BitVec v(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    const char c = bits[i];
    RFID_REQUIRE(c == '0' || c == '1', "BitVec string must contain only 0/1");
    // Leftmost character is the most-significant / highest-index bit.
    v.set(bits.size() - 1 - i, c == '1');
  }
  return v;
}

bool BitVec::test(std::size_t i) const {
  RFID_REQUIRE(i < size_, "bit index out of range");
  return (words_[i / kWordBits] >> (i % kWordBits)) & 1u;
}

void BitVec::set(std::size_t i, bool value) {
  RFID_REQUIRE(i < size_, "bit index out of range");
  const std::uint64_t mask = std::uint64_t{1} << (i % kWordBits);
  if (value) {
    words_[i / kWordBits] |= mask;
  } else {
    words_[i / kWordBits] &= ~mask;
  }
}

bool BitVec::any() const noexcept {
  for (const std::uint64_t w : words_) {
    if (w != 0) return true;
  }
  return false;
}

bool BitVec::all() const noexcept {
  if (size_ == 0) return true;
  const std::size_t full = size_ / kWordBits;
  for (std::size_t i = 0; i < full; ++i) {
    if (words_[i] != ~std::uint64_t{0}) return false;
  }
  const std::size_t rem = size_ % kWordBits;
  if (rem != 0) {
    const std::uint64_t mask = (std::uint64_t{1} << rem) - 1;
    if ((words_.back() & mask) != mask) return false;
  }
  return true;
}

std::size_t BitVec::popcount() const noexcept {
  std::size_t n = 0;
  for (const std::uint64_t w : words_) {
    n += static_cast<std::size_t>(std::popcount(w));
  }
  return n;
}

BitVec& BitVec::operator|=(const BitVec& rhs) {
  RFID_REQUIRE(size_ == rhs.size_, "operands must have equal size");
  for (std::size_t i = 0; i < words_.size(); ++i) {
    words_[i] |= rhs.words_[i];
  }
  return *this;
}

BitVec& BitVec::operator&=(const BitVec& rhs) {
  RFID_REQUIRE(size_ == rhs.size_, "operands must have equal size");
  for (std::size_t i = 0; i < words_.size(); ++i) {
    words_[i] &= rhs.words_[i];
  }
  return *this;
}

BitVec& BitVec::operator^=(const BitVec& rhs) {
  RFID_REQUIRE(size_ == rhs.size_, "operands must have equal size");
  for (std::size_t i = 0; i < words_.size(); ++i) {
    words_[i] ^= rhs.words_[i];
  }
  return *this;
}

BitVec& BitVec::flip() {
  for (std::uint64_t& w : words_) {
    w = ~w;
  }
  clearPadding();
  return *this;
}

BitVec BitVec::complemented() const {
  BitVec v = *this;
  v.flip();
  return v;
}

BitVec BitVec::concat(const BitVec& rhs) const {
  BitVec out = *this;
  out.concatInto(rhs);
  return out;
}

BitVec& BitVec::concatInto(const BitVec& rhs) {
  RFID_REQUIRE(&rhs != this, "concatInto cannot alias its operand");
  // Splice rhs in starting at bit offset size_ (the old padding bits are
  // canonically zero, so OR-ing into the partial last word is safe).
  const std::size_t shift = size_ % kWordBits;
  const std::size_t base = size_ / kWordBits;
  size_ += rhs.size_;
  resizeWords(wordCount(size_));
  for (std::size_t i = 0; i < rhs.words_.size(); ++i) {
    const std::uint64_t w = rhs.words_[i];
    words_[base + i] |= (shift == 0) ? w : (w << shift);
    if (shift != 0 && base + i + 1 < words_.size()) {
      words_[base + i + 1] |= w >> (kWordBits - shift);
    }
  }
  clearPadding();
  return *this;
}

void BitVec::appendUint(std::uint64_t value, std::size_t nbits) {
  RFID_REQUIRE(nbits <= 64, "appendUint supports at most 64 bits");
  RFID_REQUIRE(nbits == 64 || (value >> nbits) == 0,
               "value does not fit in nbits bits");
  if (nbits == 0) return;
  const std::size_t shift = size_ % kWordBits;
  const std::size_t base = size_ / kWordBits;
  size_ += nbits;
  resizeWords(wordCount(size_));
  words_[base] |= (shift == 0) ? value : (value << shift);
  if (shift != 0 && base + 1 < words_.size()) {
    words_[base + 1] |= value >> (kWordBits - shift);
  }
  clearPadding();
}

BitVec BitVec::slice(std::size_t pos, std::size_t len) const {
  BitVec out;
  sliceInto(pos, len, out);
  return out;
}

void BitVec::sliceInto(std::size_t pos, std::size_t len, BitVec& out) const {
  RFID_REQUIRE(&out != this, "sliceInto cannot alias its source");
  RFID_REQUIRE(pos + len <= size_, "slice out of range");
  out.resizeWords(wordCount(len));
  out.size_ = len;
  const std::size_t shift = pos % kWordBits;
  const std::size_t base = pos / kWordBits;
  for (std::size_t i = 0; i < out.words_.size(); ++i) {
    std::uint64_t w = words_[base + i] >> shift;
    if (shift != 0 && base + i + 1 < words_.size()) {
      w |= words_[base + i + 1] << (kWordBits - shift);
    }
    out.words_[i] = w;
  }
  out.clearPadding();
}

std::uint64_t BitVec::toUint() const {
  RFID_REQUIRE(size_ <= 64, "toUint requires at most 64 bits");
  return words_.empty() ? 0 : words_[0];
}

std::string BitVec::toString() const {
  std::string s(size_, '0');
  for (std::size_t i = 0; i < size_; ++i) {
    if (test(i)) {
      s[size_ - 1 - i] = '1';
    }
  }
  return s;
}

std::size_t BitVec::hash() const noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;
  constexpr std::uint64_t kPrime = 0x100000001b3ull;
  h = (h ^ size_) * kPrime;
  for (const std::uint64_t w : words_) {
    h = (h ^ w) * kPrime;
  }
  return static_cast<std::size_t>(h);
}

void BitVec::resizeWords(std::size_t nWords) {
  if (nWords > words_.capacity()) {
    // Every in-place assign* / *Into API funnels its word-storage sizing
    // through here, so reuse within capacity stays guard-clean.
    ALLOC_GUARD_ALLOW("high-water-mark growth; steady state reuses storage");
    words_.resize(nWords);
  } else {
    words_.resize(nWords);
  }
}

void BitVec::clearPadding() noexcept {
  const std::size_t rem = size_ % kWordBits;
  if (rem != 0 && !words_.empty()) {
    words_.back() &= (std::uint64_t{1} << rem) - 1;
  }
}

}  // namespace rfid::common
