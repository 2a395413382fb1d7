#include "util/bitvector.h"

#include <bit>
#include <cassert>
#include <stdexcept>

namespace pubsub {

BitVector::BitVector(std::size_t nbits, std::span<const std::uint64_t> words)
    : nbits_(nbits), words_(words.begin(), words.end()) {
  if (words_.size() != (nbits + kWordBits - 1) / kWordBits)
    throw std::invalid_argument("BitVector: word count does not match size");
  if (nbits % kWordBits != 0 && (words_.back() >> (nbits % kWordBits)) != 0)
    throw std::invalid_argument("BitVector: bit set beyond size");
}

PUBSUB_POPCOUNT_KERNEL
std::size_t BitVector::count() const {
  std::size_t n = 0;
  for (std::uint64_t w : words_) n += std::popcount(w);
  return n;
}

bool BitVector::any() const {
  for (std::uint64_t w : words_)
    if (w != 0) return true;
  return false;
}

BitVector& BitVector::operator|=(const BitVector& o) {
  assert(nbits_ == o.nbits_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= o.words_[i];
  return *this;
}

BitVector& BitVector::operator&=(const BitVector& o) {
  assert(nbits_ == o.nbits_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= o.words_[i];
  return *this;
}

BitVector& BitVector::operator^=(const BitVector& o) {
  assert(nbits_ == o.nbits_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] ^= o.words_[i];
  return *this;
}

BitVector& BitVector::and_not_assign(const BitVector& o) {
  assert(nbits_ == o.nbits_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= ~o.words_[i];
  return *this;
}

PUBSUB_POPCOUNT_KERNEL
std::size_t BitVector::count_and_not(const BitVector& o) const {
  assert(nbits_ == o.nbits_);
  std::size_t n = 0;
  for (std::size_t i = 0; i < words_.size(); ++i)
    n += std::popcount(words_[i] & ~o.words_[i]);
  return n;
}

PUBSUB_POPCOUNT_KERNEL
void BitVector::count_diffs(const BitVector& o, std::size_t* this_not_o,
                            std::size_t* o_not_this) const {
  assert(nbits_ == o.nbits_);
  std::size_t a = 0, b = 0;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    const std::uint64_t w = words_[i];
    const std::uint64_t v = o.words_[i];
    a += std::popcount(w & ~v);
    b += std::popcount(v & ~w);
  }
  *this_not_o = a;
  *o_not_this = b;
}

PUBSUB_POPCOUNT_KERNEL
std::size_t BitVector::count_and(const BitVector& o) const {
  assert(nbits_ == o.nbits_);
  std::size_t n = 0;
  for (std::size_t i = 0; i < words_.size(); ++i)
    n += std::popcount(words_[i] & o.words_[i]);
  return n;
}

PUBSUB_POPCOUNT_KERNEL
std::size_t BitVector::count_or(const BitVector& o) const {
  assert(nbits_ == o.nbits_);
  std::size_t n = 0;
  for (std::size_t i = 0; i < words_.size(); ++i)
    n += std::popcount(words_[i] | o.words_[i]);
  return n;
}

bool BitVector::is_subset_of(const BitVector& o) const {
  assert(nbits_ == o.nbits_);
  for (std::size_t i = 0; i < words_.size(); ++i)
    if ((words_[i] & ~o.words_[i]) != 0) return false;
  return true;
}

bool BitVector::intersects(const BitVector& o) const {
  assert(nbits_ == o.nbits_);
  for (std::size_t i = 0; i < words_.size(); ++i)
    if ((words_[i] & o.words_[i]) != 0) return true;
  return false;
}

std::vector<std::size_t> BitVector::set_bits() const {
  std::vector<std::size_t> out;
  out.reserve(count());
  for_each_set([&out](std::size_t i) { out.push_back(i); });
  return out;
}

std::size_t BitVector::hash() const {
  std::uint64_t h = 1469598103934665603ull;
  for (std::uint64_t w : words_) {
    h ^= w;
    h *= 1099511628211ull;
  }
  h ^= nbits_;
  h *= 1099511628211ull;
  return static_cast<std::size_t>(h);
}

std::string BitVector::to_string() const {
  std::string s;
  s.reserve(nbits_);
  for (std::size_t i = 0; i < nbits_; ++i) s.push_back(test(i) ? '1' : '0');
  return s;
}

}  // namespace pubsub
