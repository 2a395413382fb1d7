#include "index/slab_index.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>

namespace pubsub {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

SlabIndex::SlabIndex(const std::vector<std::pair<Rect, int>>& items,
                     std::size_t universe)
    : SlabIndex(items, universe, MaintenanceOptions()) {}

SlabIndex::SlabIndex(const std::vector<std::pair<Rect, int>>& items,
                     std::size_t universe, MaintenanceOptions maint)
    : maint_(maint) {
  universe_ = universe;
  words_ = (universe + 63) / 64;
  stride_ = words_;
  rects_.assign(universe, Rect());
  for (const auto& [rect, id] : items) {
    if (rect.empty()) continue;
    if (id < 0 || static_cast<std::size_t>(id) >= universe)
      throw std::invalid_argument("SlabIndex: id outside universe");
    if (!rects_[static_cast<std::size_t>(id)].empty() &&
        rects_[static_cast<std::size_t>(id)].dims() > 0)
      throw std::invalid_argument("SlabIndex: duplicate id");
    if (ndims_ == 0) ndims_ = rect.dims();
    if (rect.dims() != ndims_)
      throw std::invalid_argument("SlabIndex: mixed dimensionality");
    rects_[static_cast<std::size_t>(id)] = rect;
    ++size_;
  }
  std::vector<std::pair<Rect, int>> live;
  live.reserve(size_);
  for (std::size_t i = 0; i < rects_.size(); ++i)
    if (rects_[i].dims() > 0 && !rects_[i].empty())
      live.emplace_back(rects_[i], static_cast<int>(i));
  bulk_build(live);
}

// Derives the full elementary-piece table for `items` (all resident, same
// dimensionality, ids in range).  Leaves the endpoint table compact: every
// endpoint referenced, no dead entries, piece j in slot j.
void SlabIndex::bulk_build(const std::vector<std::pair<Rect, int>>& items) {
  dims_.clear();
  ends_total_ = 0;
  dead_ends_ = 0;
  if (items.empty()) {
    ndims_ = 0;  // an emptied index may adopt a new dimensionality
    return;
  }

  dims_.resize(ndims_);
  for (std::size_t d = 0; d < ndims_; ++d) {
    Dim& dim = dims_[d];
    for (const auto& [rect, id] : items) {
      const Interval& iv = rect[d];
      if (iv.lo() != -kInf) dim.ends.push_back(iv.lo());
      if (iv.hi() != kInf) dim.ends.push_back(iv.hi());
    }
    std::sort(dim.ends.begin(), dim.ends.end());
    dim.ends.erase(std::unique(dim.ends.begin(), dim.ends.end()),
                   dim.ends.end());
    ends_total_ += dim.ends.size();

    dim.refs.assign(dim.ends.size(), 0);
    dim.row_of.resize(dim.ends.size() + 1);
    for (std::size_t j = 0; j < dim.row_of.size(); ++j)
      dim.row_of[j] = static_cast<std::uint32_t>(j);
    dim.pool.assign(dim.row_of.size() * stride_, 0);

    // Piece j is (e_{j-1}, e_j]; j ranges over [0, ends.size()].  An
    // interval (lo, hi] covers exactly the pieces whose bounds it encloses:
    // index(lo)+1 … index(hi) (unbounded ends extend to the edge pieces).
    for (const auto& [rect, id] : items) {
      const Interval& iv = rect[d];
      const auto [first, last] = covered_range(dim, iv.lo(), iv.hi());
      if (iv.lo() != -kInf)
        ++dim.refs[static_cast<std::size_t>(
            std::lower_bound(dim.ends.begin(), dim.ends.end(), iv.lo()) -
            dim.ends.begin())];
      if (iv.hi() != kInf)
        ++dim.refs[static_cast<std::size_t>(
            std::lower_bound(dim.ends.begin(), dim.ends.end(), iv.hi()) -
            dim.ends.begin())];
      const std::size_t w = static_cast<std::size_t>(id) / 64;
      const std::uint64_t bit = std::uint64_t{1}
                                << (static_cast<std::size_t>(id) % 64);
      for (std::size_t j = first; j <= last; ++j) row(dim, j)[w] |= bit;
    }
  }
}

void SlabIndex::adopt_dims(std::size_t ndims) {
  ndims_ = ndims;
  dims_.assign(ndims, Dim{});
  for (Dim& dim : dims_) {
    // One piece (-inf, +inf) with an all-zero row.
    dim.row_of.assign(1, 0);
    dim.pool.assign(stride_, 0);
  }
}

void SlabIndex::grow_universe(std::size_t min_universe) {
  if (min_universe <= universe_) return;
  universe_ = min_universe;
  rects_.resize(universe_);
  const std::size_t needed = (universe_ + 63) / 64;
  if (needed <= stride_) {
    words_ = needed;
    return;
  }
  // Re-stride every slot pool; doubling amortizes the copies to O(1) per
  // inserted id.
  const std::size_t new_stride = std::max(needed, stride_ * 2);
  for (Dim& dim : dims_) {
    std::vector<std::uint64_t> pool(dim.pool.size() / std::max<std::size_t>(stride_, 1) * new_stride, 0);
    const std::size_t slots = stride_ == 0 ? 0 : dim.pool.size() / stride_;
    for (std::size_t s = 0; s < slots; ++s)
      std::copy(dim.pool.begin() + static_cast<std::ptrdiff_t>(s * stride_),
                dim.pool.begin() + static_cast<std::ptrdiff_t>(s * stride_ + words_),
                pool.begin() + static_cast<std::ptrdiff_t>(s * new_stride));
    dim.pool = std::move(pool);
  }
  stride_ = new_stride;
  words_ = needed;
}

std::pair<std::size_t, std::size_t> SlabIndex::covered_range(const Dim& dim,
                                                             double lo,
                                                             double hi) const {
  const std::size_t first =
      lo == -kInf
          ? 0
          : static_cast<std::size_t>(
                std::lower_bound(dim.ends.begin(), dim.ends.end(), lo) -
                dim.ends.begin()) +
                1;
  const std::size_t last =
      hi == kInf
          ? dim.ends.size()
          : static_cast<std::size_t>(
                std::lower_bound(dim.ends.begin(), dim.ends.end(), hi) -
                dim.ends.begin());
  return {first, last};
}

// Reference endpoint `v`, splicing it into the piece decomposition if new.
void SlabIndex::add_endpoint(Dim& dim, double v) {
  const std::size_t k = static_cast<std::size_t>(
      std::lower_bound(dim.ends.begin(), dim.ends.end(), v) - dim.ends.begin());
  if (k < dim.ends.size() && dim.ends[k] == v) {
    if (dim.refs[k] == 0) --dead_ends_;
    ++dim.refs[k];
    return;
  }
  // Split piece k = (e_{k-1}, e_k] at v.  Membership is constant on the
  // piece, so both halves carry the old row: allocate a slot copying it and
  // splice the slot index in — O(pieces) index moves, one row copy.
  const std::size_t src = dim.row_of[k];
  const std::uint32_t slot =
      static_cast<std::uint32_t>(dim.pool.size() / std::max<std::size_t>(stride_, 1));
  dim.pool.resize(dim.pool.size() + stride_, 0);
  std::copy(dim.pool.begin() + static_cast<std::ptrdiff_t>(src * stride_),
            dim.pool.begin() + static_cast<std::ptrdiff_t>(src * stride_ + words_),
            dim.pool.begin() + static_cast<std::ptrdiff_t>(
                static_cast<std::size_t>(slot) * stride_));
  dim.ends.insert(dim.ends.begin() + static_cast<std::ptrdiff_t>(k), v);
  dim.refs.insert(dim.refs.begin() + static_cast<std::ptrdiff_t>(k), 1);
  dim.row_of.insert(dim.row_of.begin() + static_cast<std::ptrdiff_t>(k), slot);
  ++ends_total_;
  ++splices_;
}

void SlabIndex::drop_endpoint(Dim& dim, double v) {
  const std::size_t k = static_cast<std::size_t>(
      std::lower_bound(dim.ends.begin(), dim.ends.end(), v) - dim.ends.begin());
  if (k >= dim.ends.size() || dim.ends[k] != v || dim.refs[k] == 0)
    throw std::logic_error("SlabIndex: endpoint bookkeeping corrupted");
  if (--dim.refs[k] == 0) ++dead_ends_;  // left in place until rebuild
}

void SlabIndex::insert(const Rect& rect, int id) {
  if (id < 0) throw std::invalid_argument("SlabIndex: negative id");
  if (contains(id)) throw std::invalid_argument("SlabIndex: duplicate id");
  if (rect.empty()) return;  // contains no point: nothing to index
  if (ndims_ != 0 && rect.dims() != ndims_)
    throw std::invalid_argument("SlabIndex: mixed dimensionality");
  grow_universe(static_cast<std::size_t>(id) + 1);
  if (ndims_ == 0) adopt_dims(rect.dims());

  const std::size_t w = static_cast<std::size_t>(id) / 64;
  const std::uint64_t bit = std::uint64_t{1}
                            << (static_cast<std::size_t>(id) % 64);
  for (std::size_t d = 0; d < ndims_; ++d) {
    Dim& dim = dims_[d];
    const Interval& iv = rect[d];
    if (iv.lo() != -kInf) add_endpoint(dim, iv.lo());
    if (iv.hi() != kInf) add_endpoint(dim, iv.hi());
    const auto [first, last] = covered_range(dim, iv.lo(), iv.hi());
    for (std::size_t j = first; j <= last; ++j) row(dim, j)[w] |= bit;
  }
  rects_[static_cast<std::size_t>(id)] = rect;
  ++size_;
}

bool SlabIndex::erase(int id) {
  if (!contains(id)) return false;
  const Rect rect = rects_[static_cast<std::size_t>(id)];
  const std::size_t w = static_cast<std::size_t>(id) / 64;
  const std::uint64_t bit = std::uint64_t{1}
                            << (static_cast<std::size_t>(id) % 64);
  for (std::size_t d = 0; d < ndims_; ++d) {
    Dim& dim = dims_[d];
    const Interval& iv = rect[d];
    const auto [first, last] = covered_range(dim, iv.lo(), iv.hi());
    for (std::size_t j = first; j <= last; ++j) row(dim, j)[w] &= ~bit;
    if (iv.lo() != -kInf) drop_endpoint(dim, iv.lo());
    if (iv.hi() != kInf) drop_endpoint(dim, iv.hi());
  }
  rects_[static_cast<std::size_t>(id)] = Rect();
  --size_;
  if (size_ == 0) {
    // Drop the piece tables outright: an emptied index may adopt a new
    // dimensionality on its next insert (mirrors bulk_build's empty case).
    dims_.clear();
    ndims_ = 0;
    ends_total_ = 0;
    dead_ends_ = 0;
    return true;
  }
  maybe_rebuild();
  return true;
}

void SlabIndex::maybe_rebuild() {
  if (dead_ends_ < maint_.min_dead_endpoints) return;
  const std::size_t live = ends_total_ - dead_ends_;
  if (static_cast<double>(dead_ends_) <=
      maint_.bloat_factor * static_cast<double>(live))
    return;
  std::vector<std::pair<Rect, int>> live_items;
  live_items.reserve(size_);
  for (std::size_t i = 0; i < rects_.size(); ++i)
    if (rects_[i].dims() > 0 && !rects_[i].empty())
      live_items.emplace_back(rects_[i], static_cast<int>(i));
  stride_ = words_;  // compact slot storage along with the endpoint table
  bulk_build(live_items);
  ++rebuilds_;
}

void SlabIndex::stab(const Point& p, std::vector<int>& out,
                     std::vector<std::uint64_t>& tmp) const {
  out.clear();
  if (size_ == 0 || p.size() < dims_.size()) return;
  tmp.resize(words_);
  for (std::size_t d = 0; d < dims_.size(); ++d) {
    const Dim& dim = dims_[d];
    // Piece index: first endpoint >= x (the piece's closed upper bound).
    const std::size_t j = static_cast<std::size_t>(
        std::lower_bound(dim.ends.begin(), dim.ends.end(), p[d]) -
        dim.ends.begin());
    const std::uint64_t* r = row(dim, j);
    if (d == 0) {
      std::copy(r, r + words_, tmp.begin());
    } else {
      for (std::size_t w = 0; w < words_; ++w) tmp[w] &= r[w];
    }
  }
  for (std::size_t w = 0; w < words_; ++w) {
    std::uint64_t word = tmp[w];
    while (word != 0) {
      const int b = std::countr_zero(word);
      out.push_back(static_cast<int>(w * 64 + static_cast<std::size_t>(b)));
      word &= word - 1;
    }
  }
}

}  // namespace pubsub
