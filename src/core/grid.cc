#include "core/grid.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>

namespace pubsub {
namespace {

// Safety valve: the unit-lattice grid is materialized, so refuse absurd
// spaces (the paper's spaces are ~3·10^4 cells).
constexpr std::int64_t kMaxLatticeCells = 8'000'000;

// FNV-1a over a membership vector's words, finished with the splitmix64
// mixer: FNV's low bits depend only on the words' low bits, and the
// hyper-cell table below indexes by the low bits.
std::uint64_t HashWords(std::span<const std::uint64_t> words) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint64_t w : words) {
    h ^= w;
    h *= 1099511628211ull;
  }
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

// Per-dimension membership columns: column (d, v) holds, as raw words, the
// subscribers whose GridCellsIntersecting range in dimension d covers v.
// A subscription is a conjunction of per-attribute ranges, so a lattice
// cell's s(a) is the AND of its coordinates' columns.  for_each_occupied
// walks the lattice in id order keeping one prefix AND per leading
// dimension, so each cell costs one W-word AND, and a prefix that is
// already empty skips its whole sub-lattice.  Alongside each prefix AND it
// carries the prefix product of the coordinates' value masses, so a cell's
// publication mass costs one multiply.
class MembershipColumns {
 public:
  MembershipColumns(const Workload& wl, const PublicationModel& pub)
      : space_(&wl.space),
        words_((wl.num_subscribers() + BitVector::word_bits() - 1) /
               BitVector::word_bits()),
        columns_(wl.space.dims()),
        mass_(wl.space.dims()),
        prefix_(wl.space.dims() * words_, 0) {
    const std::size_t dims = wl.space.dims();
    for (std::size_t d = 0; d < dims; ++d) {
      const int n = wl.space.dim(d).domain_size;
      columns_[d].assign(static_cast<std::size_t>(n) * words_, 0);
      mass_[d].resize(static_cast<std::size_t>(n));
      for (int v = 0; v < n; ++v)
        mass_[d][static_cast<std::size_t>(v)] = pub.value_mass(d, v);
    }

    std::vector<GridValueRange> range(dims);
    for (std::size_t i = 0; i < wl.subscribers.size(); ++i) {
      const Rect& r = wl.subscribers[i].interest;
      bool empty = false;
      for (std::size_t d = 0; d < dims && !empty; ++d) {
        range[d] = GridCellsIntersecting(r[d], wl.space.dim(d).domain_size);
        empty = range[d].last < range[d].first;
      }
      if (empty) continue;
      const std::size_t w = i / BitVector::word_bits();
      const std::uint64_t bit = std::uint64_t{1} << (i % BitVector::word_bits());
      for (std::size_t d = 0; d < dims; ++d)
        for (int v = range[d].first; v <= range[d].last; ++v)
          column(d, v)[w] |= bit;
    }
  }

  // Calls visit(cell, words, mass) for every lattice cell with a non-empty
  // membership vector, in increasing lattice id.  `words` is a reused
  // buffer, valid only during the call; `mass` is 1.0 times the cell's
  // value masses in dimension order, the product rect_mass forms.
  template <typename Visit>
  void for_each_occupied(std::span<const std::int64_t> strides, Visit&& visit) {
    walk(0, 0, 1.0, strides, visit);
  }

 private:
  std::uint64_t* column(std::size_t d, int v) {
    return columns_[d].data() + static_cast<std::size_t>(v) * words_;
  }

  template <typename Visit>
  void walk(std::size_t d, std::int64_t base, double mass_above,
            std::span<const std::int64_t> strides, Visit& visit) {
    const bool last_dim = d + 1 == space_->dims();
    std::uint64_t* out = prefix_.data() + d * words_;
    const std::uint64_t* above = d == 0 ? nullptr : out - words_;
    for (int v = 0; v < space_->dim(d).domain_size; ++v) {
      const std::uint64_t* col = column(d, v);
      std::uint64_t any = 0;
      for (std::size_t w = 0; w < words_; ++w) {
        out[w] = above == nullptr ? col[w] : above[w] & col[w];
        any |= out[w];
      }
      if (any == 0) continue;
      const double mass = mass_above * mass_[d][static_cast<std::size_t>(v)];
      const std::int64_t id = base + v * strides[d];
      if (last_dim)
        visit(id, std::span<const std::uint64_t>(out, words_), mass);
      else
        walk(d + 1, id, mass, strides, visit);
    }
  }

  const EventSpace* space_;
  std::size_t words_;
  std::vector<std::vector<std::uint64_t>> columns_;  // [d][v * words_ + w]
  std::vector<std::vector<double>> mass_;            // [d][v]: value_mass
  std::vector<std::uint64_t> prefix_;  // one W-word prefix AND per dimension
};

}  // namespace

GridValueRange GridCellsIntersecting(const Interval& iv, int domain_size) {
  if (iv.empty() || domain_size <= 0) return {0, -1};
  // The unit cell of value v is (v−1, v]; it meets (lo, hi] iff v > lo and
  // v − 1 < hi.  The smallest such v is the least integer strictly above
  // lo, i.e. floor(lo)+1 whether or not lo is itself integral — so a
  // subscriber is never dropped from the cell holding its lower boundary
  // (the brute-force property test in test_grid.cc pins this against
  // Interval/Rect semantics).  Endpoints are clamped to the domain *before*
  // the double→int casts: for intervals far outside [0, domain) the
  // unclamped casts used to overflow int, which is undefined behaviour.
  int first = 0;
  if (iv.lo() != -Interval::kInf) {
    if (iv.lo() >= static_cast<double>(domain_size - 1)) return {0, -1};
    if (iv.lo() >= 0.0)
      first = static_cast<int>(std::floor(iv.lo())) + 1;
  }
  int last = domain_size - 1;
  if (iv.hi() != Interval::kInf) {
    if (iv.hi() <= -1.0) return {0, -1};
    if (iv.hi() < static_cast<double>(domain_size - 1))
      last = static_cast<int>(std::ceil(iv.hi()));
  }
  last = std::min(last, domain_size - 1);
  return {first, last};
}

Grid::Grid(const Workload& wl, const PublicationModel& pub)
    : space_(&wl.space), num_subscribers_(wl.num_subscribers()) {
  const std::size_t dims = space_->dims();
  if (dims == 0) throw std::invalid_argument("Grid: zero-dimensional space");

  lattice_size_ = 1;
  for (std::size_t d = 0; d < dims; ++d) {
    lattice_size_ *= space_->dim(d).domain_size;
    if (lattice_size_ > kMaxLatticeCells)
      throw std::invalid_argument("Grid: lattice too large to materialize");
  }
  strides_.assign(dims, 1);
  for (std::size_t d = dims - 1; d-- > 0;)
    strides_[d] = strides_[d + 1] * space_->dim(d + 1).domain_size;

  // 1. Membership columns, one per (dimension, value).
  if (pub.space().dims() != dims)
    throw std::invalid_argument("Grid: publication model dimensionality mismatch");
  MembershipColumns columns(wl, pub);

  // 2. Walk the occupied cells in id order and merge equal membership
  // vectors into hyper-cells as they appear: ids by first occurrence, and
  // each prob summed in cell order.  A cell whose vector equals the
  // previous occupied cell's joins that hyper-cell at once (a run along
  // the last dimension is common).  Otherwise the open-addressed table,
  // which stores hashes and hyper-cell ids and probes against
  // hyper_cells_[k].members, finds or adds it, so each distinct vector
  // exists once.
  struct Slot {
    std::uint64_t hash = 0;
    int hyper = -1;
  };
  std::vector<Slot> table(1024);
  const auto grow = [&table] {
    std::vector<Slot> bigger(table.size() * 2);
    const std::size_t mask = bigger.size() - 1;
    for (const Slot& s : table) {
      if (s.hyper == -1) continue;
      std::size_t at = s.hash & mask;
      while (bigger[at].hyper != -1) at = (at + 1) & mask;
      bigger[at] = s;
    }
    table = std::move(bigger);
  };
  std::vector<std::size_t> cell_count;  // per hyper-cell, for `cells`
  int prev = -1;                        // hyper-cell of the previous cell
  hyper_of_cell_.assign(static_cast<std::size_t>(lattice_size_), -1);
  columns.for_each_occupied(strides_, [&](std::int64_t cell,
                                          std::span<const std::uint64_t> words,
                                          double mass) {
    ++occupied_cells_;
    int hyper = -1;
    if (prev != -1 &&
        std::equal(words.begin(), words.end(),
                   hyper_cells_[static_cast<std::size_t>(prev)].members.words().begin())) {
      hyper = prev;
    } else {
      const std::uint64_t h = HashWords(words);
      const std::size_t mask = table.size() - 1;
      std::size_t at = h & mask;
      for (; table[at].hyper != -1; at = (at + 1) & mask) {
        const Slot& slot = table[at];
        const auto members =
            hyper_cells_[static_cast<std::size_t>(slot.hyper)].members.words();
        if (slot.hash == h &&
            std::equal(words.begin(), words.end(), members.begin())) {
          hyper = slot.hyper;
          break;
        }
      }
      if (hyper == -1) {
        hyper = static_cast<int>(hyper_cells_.size());
        HyperCell hc;
        hc.members = BitVector(num_subscribers_, words);
        hyper_cells_.push_back(std::move(hc));
        cell_count.push_back(0);
        table[at] = Slot{h, hyper};
        if (2 * hyper_cells_.size() > table.size()) grow();
      }
    }
    hyper_cells_[static_cast<std::size_t>(hyper)].prob += mass;
    ++cell_count[static_cast<std::size_t>(hyper)];
    hyper_of_cell_[static_cast<std::size_t>(cell)] = hyper;
    prev = hyper;
  });

  // 3. Popularity per hyper-cell.
  for (HyperCell& hc : hyper_cells_)
    hc.popularity = hc.prob * static_cast<double>(hc.members.count());

  // 4. Sort by decreasing popularity, ties by first occurrence (the order
  // a stable sort by popularity alone gives).
  struct Key {
    double popularity;
    int id;
  };
  std::vector<Key> order(hyper_cells_.size());
  for (std::size_t i = 0; i < order.size(); ++i)
    order[i] = Key{hyper_cells_[i].popularity, static_cast<int>(i)};
  std::sort(order.begin(), order.end(), [](const Key& a, const Key& b) {
    return a.popularity > b.popularity ||
           (a.popularity == b.popularity && a.id < b.id);
  });
  std::vector<HyperCell> sorted;
  sorted.reserve(hyper_cells_.size());
  std::vector<int> new_id(hyper_cells_.size());
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    const auto old = static_cast<std::size_t>(order[rank].id);
    new_id[old] = static_cast<int>(rank);
    sorted.push_back(std::move(hyper_cells_[old]));
    sorted.back().cells.reserve(cell_count[old]);
  }
  hyper_cells_ = std::move(sorted);

  // 5. Remap cell -> hyper-cell ids and list each hyper-cell's cells,
  // ascending, into its exactly reserved `cells`.
  for (std::size_t cell = 0; cell < hyper_of_cell_.size(); ++cell) {
    int& h = hyper_of_cell_[cell];
    if (h == -1) continue;
    h = new_id[static_cast<std::size_t>(h)];
    hyper_cells_[static_cast<std::size_t>(h)].cells.push_back(
        static_cast<std::int64_t>(cell));
  }
}

std::int64_t Grid::cell_of(const Point& p) const {
  if (p.size() != space_->dims())
    throw std::invalid_argument("Grid::cell_of: dimensionality mismatch");
  std::int64_t id = 0;
  for (std::size_t d = 0; d < space_->dims(); ++d) {
    // Event coordinates are integer value coordinates; the cell of value v
    // is v itself.  Coordinates off the integer lattice round up, matching
    // the (v−1, v] convention.
    const double x = p[d];
    const std::int64_t v = static_cast<std::int64_t>(std::ceil(x));
    if (v < 0 || v >= space_->dim(d).domain_size) return -1;
    id += v * strides_[d];
  }
  return id;
}

int Grid::hyper_cell_of(std::int64_t cell) const {
  if (cell < 0 || cell >= lattice_size_) return -1;
  return hyper_of_cell_[static_cast<std::size_t>(cell)];
}

Rect Grid::cell_rect(std::int64_t cell) const {
  std::vector<Interval> ivals;
  ivals.reserve(space_->dims());
  for (std::size_t d = 0; d < space_->dims(); ++d) {
    const std::int64_t v = (cell / strides_[d]) % space_->dim(d).domain_size;
    ivals.push_back(Interval::Point(static_cast<int>(v)));
  }
  return Rect(std::move(ivals));
}

std::vector<std::vector<int>> Grid::cluster_neighbors(std::size_t top_n) const {
  const std::size_t n = top_n == 0 ? hyper_cells_.size()
                                   : std::min(top_n, hyper_cells_.size());
  std::vector<std::vector<int>> out(n);
  // One sweep over the lattice, checking only the +stride neighbor per
  // dimension (the −stride pairing is recorded from the other side).
  for (std::int64_t cell = 0; cell < lattice_size_; ++cell) {
    const int h = hyper_of_cell_[static_cast<std::size_t>(cell)];
    if (h < 0 || static_cast<std::size_t>(h) >= n) continue;
    for (std::size_t d = 0; d < space_->dims(); ++d) {
      const std::int64_t v = (cell / strides_[d]) % space_->dim(d).domain_size;
      if (v + 1 >= space_->dim(d).domain_size) continue;
      const int h2 = hyper_of_cell_[static_cast<std::size_t>(cell + strides_[d])];
      if (h2 < 0 || h2 == h || static_cast<std::size_t>(h2) >= n) continue;
      out[static_cast<std::size_t>(h)].push_back(h2);
      out[static_cast<std::size_t>(h2)].push_back(h);
    }
  }
  for (auto& adj : out) {
    std::sort(adj.begin(), adj.end());
    adj.erase(std::unique(adj.begin(), adj.end()), adj.end());
  }
  return out;
}

std::vector<ClusterCell> Grid::top_cells(std::size_t max_cells) const {
  const std::size_t n = max_cells == 0
                            ? hyper_cells_.size()
                            : std::min(max_cells, hyper_cells_.size());
  std::vector<ClusterCell> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(ClusterCell{&hyper_cells_[i].members, hyper_cells_[i].prob});
  return out;
}

}  // namespace pubsub
