#include "index/lattice_index.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace pubsub {

namespace {

constexpr std::size_t kWordBits = 64;

std::size_t WordsFor(std::size_t slots) {
  return (slots + kWordBits - 1) / kWordBits;
}

}  // namespace

LatticeIndex::LatticeIndex(const EventSpace& space, std::size_t slots)
    : slots_(slots), stride_(WordsFor(slots)) {
  for (std::size_t d = 0; d < space.dims(); ++d) {
    sizes_.push_back(space.dim(d).domain_size);
    base_.push_back(columns_);
    columns_ += static_cast<std::size_t>(space.dim(d).domain_size);
  }
  words_.assign(columns_ * stride_, 0);
}

void LatticeIndex::widen(std::size_t slots) {
  slots_ = slots;
  const std::size_t stride = WordsFor(slots);
  if (stride <= stride_) return;
  std::vector<std::uint64_t> words(columns_ * stride, 0);
  for (std::size_t c = 0; c < columns_; ++c)
    std::copy_n(words_.data() + c * stride_, stride_,
                words.data() + c * stride);
  words_ = std::move(words);
  stride_ = stride;
}

bool LatticeIndex::set_bits(int id, const Rect& interest, bool on) {
  if (interest.dims() != sizes_.size())
    throw std::invalid_argument(
        "LatticeIndex: interest dimensionality mismatch");
  const auto clipped = [&](std::size_t d) {
    return interest[d].intersection(
        Interval(-1.0, static_cast<double>(sizes_[d] - 1)));
  };
  for (std::size_t d = 0; d < sizes_.size(); ++d)
    if (clipped(d).empty()) return false;
  const std::size_t w = static_cast<std::size_t>(id) / kWordBits;
  const std::uint64_t bit = std::uint64_t{1}
                            << (static_cast<std::size_t>(id) % kWordBits);
  for (std::size_t d = 0; d < sizes_.size(); ++d) {
    // The clip keeps both ends in [−1, n−1], so the integer values in
    // (lo, hi], ⌊lo⌋+1 .. ⌊hi⌋, lie in the domain (none when last < first).
    const Interval iv = clipped(d);
    const long first = static_cast<long>(std::floor(iv.lo())) + 1;
    const long last = static_cast<long>(std::floor(iv.hi()));
    for (long v = first; v <= last; ++v) {
      std::uint64_t& word =
          words_[(base_[d] + static_cast<std::size_t>(v)) * stride_ + w];
      word = on ? (word | bit) : (word & ~bit);
    }
  }
  return true;
}

void LatticeIndex::insert(int id, const Rect& interest) {
  if (id < 0) throw std::invalid_argument("LatticeIndex: negative id");
  if (static_cast<std::size_t>(id) >= slots_)
    widen(static_cast<std::size_t>(id) + 1);
  if (set_bits(id, interest, true)) ++live_;
}

void LatticeIndex::erase(int id, const Rect& interest) {
  if (id < 0 || static_cast<std::size_t>(id) >= slots_)
    throw std::invalid_argument("LatticeIndex: id outside the slots");
  if (set_bits(id, interest, false)) --live_;
}

bool LatticeIndex::stab(const Point& p, std::uint64_t* out) const {
  if (p.size() != sizes_.size())
    throw std::invalid_argument("LatticeIndex: point dimensionality mismatch");
  if (sizes_.empty()) return false;
  for (std::size_t d = 0; d < sizes_.size(); ++d)
    if (!(p[d] >= 0.0 && p[d] < static_cast<double>(sizes_[d]))) return false;
  const auto column = [&](std::size_t d) {
    return words_.data() +
           (base_[d] + static_cast<std::size_t>(p[d])) * stride_;
  };
  std::copy_n(column(0), stride_, out);
  for (std::size_t d = 1; d < sizes_.size(); ++d) {
    const std::uint64_t* col = column(d);
    for (std::size_t w = 0; w < stride_; ++w) out[w] &= col[w];
  }
  return true;
}

void LatticeIndex::stab(const Point& p, std::vector<int>& out,
                        std::vector<std::uint64_t>& tmp) const {
  out.clear();
  tmp.resize(stride_);
  if (!stab(p, tmp.data())) return;
  for (std::size_t w = 0; w < stride_; ++w) {
    for (std::uint64_t word = tmp[w]; word != 0; word &= word - 1)
      out.push_back(static_cast<int>(
          w * kWordBits + static_cast<std::size_t>(std::countr_zero(word))));
  }
}

}  // namespace pubsub
