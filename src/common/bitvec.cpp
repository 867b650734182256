#include "common/bitvec.hpp"

#include <algorithm>
#include <bit>

#include "common/alloc_guard.hpp"
#include "common/require.hpp"

namespace rfid::common {

BitVec::BitVec(std::size_t nbits, bool value) {
  if (wordCount(nbits) > kInlineWords) {
    reallocate(wordCount(nbits), 0);
  }
  size_ = nbits;
  std::fill_n(wordPtr(), words(),
              value ? ~std::uint64_t{0} : std::uint64_t{0});
  clearPadding();
}

BitVec::BitVec(const BitVec& other) { *this = other; }

BitVec::BitVec(BitVec&& other) noexcept { takeFrom(other); }

BitVec& BitVec::operator=(const BitVec& other) {
  if (this != &other) {
    if (other.words() > capacity_) {
      reallocate(other.words(), 0);
    }
    size_ = other.size_;
    std::copy_n(other.data(), words(), wordPtr());
  }
  return *this;
}

BitVec& BitVec::operator=(BitVec&& other) noexcept {
  if (this != &other) {
    release();
    takeFrom(other);
  }
  return *this;
}

BitVec::~BitVec() { release(); }

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
    std::uint64_t* w = wordPtr();
    const std::size_t firstWord = oldSize / kWordBits;
    if (firstWord < words()) {
      w[firstWord] |= ~std::uint64_t{0} << (oldSize % kWordBits);
      std::fill(w + firstWord + 1, w + words(), ~std::uint64_t{0});
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
  if (nbits != 0) {
    wordPtr()[0] = value;
  }
}

void BitVec::assignFill(std::size_t nbits, bool value) {
  resizeWords(wordCount(nbits));
  size_ = nbits;
  std::fill_n(wordPtr(), words(),
              value ? ~std::uint64_t{0} : std::uint64_t{0});
  clearPadding();
}

void BitVec::assignOr(const BitVec& a, const BitVec& b) {
  RFID_REQUIRE(a.size_ == b.size_, "operands must have equal size");
  resizeWords(a.words());
  size_ = a.size_;
  std::uint64_t* w = wordPtr();
  const std::uint64_t* x = a.data();
  const std::uint64_t* y = b.data();
  for (std::size_t i = 0; i < words(); ++i) {
    w[i] = x[i] | y[i];
  }
}

std::uint64_t BitVec::word(std::size_t i) const {
  RFID_REQUIRE(i < words(), "word index out of range");
  return data()[i];
}

void BitVec::setWord(std::size_t i, std::uint64_t value) {
  RFID_REQUIRE(i < words(), "word index out of range");
  wordPtr()[i] = value;
  if (i + 1 == words()) {
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
  return (data()[i / kWordBits] >> (i % kWordBits)) & 1u;
}

void BitVec::set(std::size_t i, bool value) {
  RFID_REQUIRE(i < size_, "bit index out of range");
  const std::uint64_t mask = std::uint64_t{1} << (i % kWordBits);
  if (value) {
    wordPtr()[i / kWordBits] |= mask;
  } else {
    wordPtr()[i / kWordBits] &= ~mask;
  }
}

bool BitVec::any() const noexcept {
  const std::uint64_t* w = data();
  return std::any_of(w, w + words(), [](std::uint64_t x) { return x != 0; });
}

bool BitVec::all() const noexcept {
  if (size_ == 0) return true;
  const std::uint64_t* w = data();
  const std::size_t full = size_ / kWordBits;
  for (std::size_t i = 0; i < full; ++i) {
    if (w[i] != ~std::uint64_t{0}) return false;
  }
  const std::size_t rem = size_ % kWordBits;
  if (rem != 0) {
    const std::uint64_t mask = (std::uint64_t{1} << rem) - 1;
    if ((w[full] & mask) != mask) return false;
  }
  return true;
}

std::size_t BitVec::popcount() const noexcept {
  const std::uint64_t* w = data();
  std::size_t n = 0;
  for (std::size_t i = 0; i < words(); ++i) {
    n += static_cast<std::size_t>(std::popcount(w[i]));
  }
  return n;
}

BitVec& BitVec::operator|=(const BitVec& rhs) {
  RFID_REQUIRE(size_ == rhs.size_, "operands must have equal size");
  std::uint64_t* w = wordPtr();
  const std::uint64_t* r = rhs.data();
  for (std::size_t i = 0; i < words(); ++i) {
    w[i] |= r[i];
  }
  return *this;
}

BitVec& BitVec::operator&=(const BitVec& rhs) {
  RFID_REQUIRE(size_ == rhs.size_, "operands must have equal size");
  std::uint64_t* w = wordPtr();
  const std::uint64_t* r = rhs.data();
  for (std::size_t i = 0; i < words(); ++i) {
    w[i] &= r[i];
  }
  return *this;
}

BitVec& BitVec::operator^=(const BitVec& rhs) {
  RFID_REQUIRE(size_ == rhs.size_, "operands must have equal size");
  std::uint64_t* w = wordPtr();
  const std::uint64_t* r = rhs.data();
  for (std::size_t i = 0; i < words(); ++i) {
    w[i] ^= r[i];
  }
  return *this;
}

BitVec& BitVec::flip() {
  std::uint64_t* w = wordPtr();
  for (std::size_t i = 0; i < words(); ++i) {
    w[i] = ~w[i];
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
  resizeWords(wordCount(size_ + rhs.size_));
  size_ += rhs.size_;
  std::uint64_t* out = wordPtr();
  const std::uint64_t* in = rhs.data();
  for (std::size_t i = 0; i < rhs.words(); ++i) {
    const std::uint64_t w = in[i];
    out[base + i] |= (shift == 0) ? w : (w << shift);
    if (shift != 0 && base + i + 1 < words()) {
      out[base + i + 1] |= w >> (kWordBits - shift);
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
  resizeWords(wordCount(size_ + nbits));
  size_ += nbits;
  std::uint64_t* out = wordPtr();
  out[base] |= (shift == 0) ? value : (value << shift);
  if (shift != 0 && base + 1 < words()) {
    out[base + 1] |= value >> (kWordBits - shift);
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
  const std::uint64_t* in = data();
  std::uint64_t* dst = out.wordPtr();
  for (std::size_t i = 0; i < out.words(); ++i) {
    std::uint64_t w = in[base + i] >> shift;
    if (shift != 0 && base + i + 1 < words()) {
      w |= in[base + i + 1] << (kWordBits - shift);
    }
    dst[i] = w;
  }
  out.clearPadding();
}

std::uint64_t BitVec::toUint() const {
  RFID_REQUIRE(size_ <= 64, "toUint requires at most 64 bits");
  return size_ == 0 ? 0 : data()[0];
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
  const std::uint64_t* w = data();
  for (std::size_t i = 0; i < words(); ++i) {
    h = (h ^ w[i]) * kPrime;
  }
  return static_cast<std::size_t>(h);
}

void BitVec::resizeWords(std::size_t nWords) {
  const std::size_t live = words();
  if (nWords > capacity_) {
    // Every in-place assign* / *Into API funnels its word-storage sizing
    // through here, so reuse within capacity stays guard-clean. Doubling
    // keeps repeated appends amortized, as vector growth did.
    ALLOC_GUARD_ALLOW("high-water-mark growth; steady state reuses storage");
    reallocate(std::max(nWords, 2 * capacity_), live);
  }
  if (nWords > live) {
    std::fill(wordPtr() + live, wordPtr() + nWords, std::uint64_t{0});
  }
}

void BitVec::reallocate(std::size_t capacity, std::size_t keep) {
  auto* grown = new std::uint64_t[capacity];
  std::copy_n(data(), keep, grown);
  release();
  heap_ = grown;
  capacity_ = capacity;
}

void BitVec::release() noexcept {
  if (onHeap()) {
    delete[] heap_;
    capacity_ = kInlineWords;
  }
}

void BitVec::takeFrom(BitVec& other) noexcept {
  if (other.onHeap()) {
    heap_ = other.heap_;
    capacity_ = other.capacity_;
    other.capacity_ = kInlineWords;
    other.inline_[0] = 0;
    other.inline_[1] = 0;
  } else {
    inline_[0] = other.inline_[0];
    inline_[1] = other.inline_[1];
  }
  size_ = other.size_;
  other.size_ = 0;
}

void BitVec::clearPadding() noexcept {
  const std::size_t rem = size_ % kWordBits;
  if (rem != 0) {
    wordPtr()[words() - 1] &= (std::uint64_t{1} << rem) - 1;
  }
}

}  // namespace rfid::common
