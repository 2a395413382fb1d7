// Tests for the §3 and §5.1 workload generators, interval generation and
// subscriber placement.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>

#include "workload/interval_gen.h"
#include "workload/placement.h"
#include "workload/section3.h"
#include "workload/stock_model.h"

namespace pubsub {
namespace {

TransitStubNetwork Net(std::uint64_t seed = 1,
                       TransitStubParams p = PaperNetSection5()) {
  Rng rng(seed);
  return GenerateTransitStub(p, rng);
}

// ------------------------------------------------------------ interval_gen

TEST(IntervalGen, AlwaysInsideDomainAndNonEmpty) {
  const Interval domain(-1, 20);
  ParametricIntervalSpec spec{0.1, 0.2, 0.2, 9, 3, 9, 3, 9, 4, 4, 1};
  Rng rng(2);
  for (int i = 0; i < 5000; ++i) {
    const Interval iv = SampleParametricInterval(spec, domain, rng);
    EXPECT_FALSE(iv.empty());
    EXPECT_TRUE(domain.contains(iv)) << iv.to_string();
  }
}

TEST(IntervalGen, WildcardProbabilityRespected) {
  const Interval domain(-1, 20);
  ParametricIntervalSpec spec{0.4, 0.0, 0.0, 9, 1, 9, 1, 9, 2, 4, 1};
  Rng rng(3);
  int wildcards = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    if (SampleParametricInterval(spec, domain, rng) == domain) ++wildcards;
  // Full-domain results also arise from wide two-ended draws, so the rate
  // is at least q0 (within noise).
  EXPECT_GT(static_cast<double>(wildcards) / n, 0.4 - 0.02);
}

TEST(IntervalGen, OneEndedDrawsClipToDomain) {
  const Interval domain(-1, 20);
  ParametricIntervalSpec spec{0.0, 1.0, 0.0, 9, 1, 0, 1, 0, 1, 1, 1};
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    const Interval iv = SampleParametricInterval(spec, domain, rng);
    EXPECT_EQ(iv.hi(), 20.0);  // left-ended (n, +inf) clips to (n, 20]
    EXPECT_GE(iv.lo(), -1.0);
  }
}

TEST(IntervalGen, CenteredIntervalSnapsOutliersToDomainEdge) {
  const Interval domain(-1, 20);
  const Interval inside = CenteredInterval(10, 4, domain);
  EXPECT_EQ(inside, Interval(8, 12));
  const Interval low = CenteredInterval(-30, 2, domain);
  EXPECT_FALSE(low.empty());
  EXPECT_TRUE(domain.contains(low));
  const Interval high = CenteredInterval(55, 2, domain);
  EXPECT_FALSE(high.empty());
  EXPECT_TRUE(domain.contains(high));
}

// --------------------------------------------------------------- placement

TEST(Placement, BlockBreakdownRespected) {
  const TransitStubNetwork net = Net(5);
  Rng rng(6);
  const ZipfPlacement place(net, {0.4, 0.3, 0.3}, 1.0, rng);
  std::vector<int> per_block(3, 0);
  const int n = 30000;
  for (int i = 0; i < n; ++i) ++per_block[net.block_of_node[place.sample(rng)]];
  EXPECT_NEAR(per_block[0] / static_cast<double>(n), 0.4, 0.02);
  EXPECT_NEAR(per_block[1] / static_cast<double>(n), 0.3, 0.02);
  EXPECT_NEAR(per_block[2] / static_cast<double>(n), 0.3, 0.02);
}

TEST(Placement, ConcentratesOnFewNodes) {
  const TransitStubNetwork net = Net(7);
  Rng rng(8);
  const ZipfPlacement place(net, {0.4, 0.3, 0.3}, 1.0, rng);
  std::map<NodeId, int> counts;
  const int n = 10000;
  for (int i = 0; i < n; ++i) ++counts[place.sample(rng)];
  // Zipf concentration: the busiest node gets far more than the uniform
  // share (10000 / 600 ≈ 17).
  int max_count = 0;
  for (const auto& [node, c] : counts) max_count = std::max(max_count, c);
  EXPECT_GT(max_count, 100);
  // All samples land on hosts.
  for (const auto& [node, c] : counts) EXPECT_NE(net.stub_of_node[node], -1);
}

TEST(Placement, RejectsWrongBlockCount) {
  const TransitStubNetwork net = Net(9);
  Rng rng(10);
  EXPECT_THROW(ZipfPlacement(net, {0.5, 0.5}, 1.0, rng), std::invalid_argument);
}

// ---------------------------------------------------------------- section3

TEST(Section3, AbsoluteRegionalismPinsOwnStub) {
  const TransitStubNetwork net = Net(11, PaperNet100());
  Section3Params params;
  params.regionalism = 1.0;
  Rng rng(12);
  const Workload wl = GenerateSection3Subscriptions(net, 300, params, rng);
  ASSERT_EQ(wl.subscribers.size(), 300u);
  for (const Subscriber& s : wl.subscribers) {
    const int stub = net.stub_of_node[s.node];
    EXPECT_EQ(s.interest[0], Interval::Point(stub));
  }
}

TEST(Section3, NoRegionalismLeavesDimensionUnconstrained) {
  const TransitStubNetwork net = Net(13, PaperNet100());
  Section3Params params;
  params.regionalism = 0.0;
  Rng rng(14);
  const Workload wl = GenerateSection3Subscriptions(net, 300, params, rng);
  for (const Subscriber& s : wl.subscribers)
    EXPECT_EQ(s.interest[0], wl.space.domain_interval(0));
}

TEST(Section3, UniformSpecifyProbabilitiesDecay) {
  const TransitStubNetwork net = Net(15, PaperNet100());
  Section3Params params;
  params.subscription_tail = Section3Params::Tail::kUniform;
  Rng rng(16);
  const int n = 20000;
  const Workload wl = GenerateSection3Subscriptions(net, n, params, rng);
  std::vector<int> specified(3, 0);
  for (const Subscriber& s : wl.subscribers)
    for (int j = 0; j < 3; ++j)
      if (!(s.interest[static_cast<std::size_t>(j) + 1] ==
            wl.space.domain_interval(static_cast<std::size_t>(j) + 1)))
        ++specified[j];
  EXPECT_NEAR(specified[0] / static_cast<double>(n), 0.98, 0.01);
  EXPECT_NEAR(specified[1] / static_cast<double>(n), 0.98 * 0.78, 0.015);
  EXPECT_NEAR(specified[2] / static_cast<double>(n), 0.98 * 0.78 * 0.78, 0.015);
}

TEST(Section3, SubscriptionRectsMatchSpace) {
  const TransitStubNetwork net = Net(17, PaperNet300());
  Section3Params params;
  params.subscription_tail = Section3Params::Tail::kGaussian;
  Rng rng(18);
  const Workload wl = GenerateSection3Subscriptions(net, 500, params, rng);
  EXPECT_EQ(wl.space.dims(), 4u);
  EXPECT_EQ(wl.space.dim(0).domain_size, net.num_stubs);
  const Rect domain = wl.space.domain_rect();
  for (const Subscriber& s : wl.subscribers) {
    EXPECT_EQ(s.interest.dims(), 4u);
    EXPECT_FALSE(s.interest.empty());
    EXPECT_TRUE(domain.contains(s.interest));
  }
}

TEST(Section3, PublicationsCarryOriginStub) {
  const TransitStubNetwork net = Net(19, PaperNet100());
  Section3Params params;
  const auto model = MakeSection3PublicationModel(net, params);
  Rng rng(20);
  for (int i = 0; i < 500; ++i) {
    const Publication p = model->sample(rng);
    EXPECT_EQ(p.point[0], static_cast<double>(net.stub_of_node[p.origin]));
    EXPECT_TRUE(model->space().domain_rect().contains(p.point));
  }
}

// -------------------------------------------------------------- stock model

TEST(StockModel, BstPinsSingleValueWithGivenProbabilities) {
  const TransitStubNetwork net = Net(21);
  StockModelParams params;
  Rng rng(22);
  const int n = 30000;
  const Workload wl = GenerateStockSubscriptions(net, n, params, rng);
  std::vector<int> counts(3, 0);
  for (const Subscriber& s : wl.subscribers) {
    const Interval& bst = s.interest[0];
    EXPECT_EQ(bst.length(), 1.0);
    ++counts[static_cast<int>(bst.hi())];
  }
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.4, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.4, 0.02);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.2, 0.02);
}

TEST(StockModel, NameCentersFollowBlockMeans) {
  const TransitStubNetwork net = Net(23);
  StockModelParams params;
  Rng rng(24);
  const Workload wl = GenerateStockSubscriptions(net, 30000, params, rng);
  std::vector<double> sum(3, 0);
  std::vector<int> cnt(3, 0);
  for (const Subscriber& s : wl.subscribers) {
    const int block = net.block_of_node[s.node];
    const Interval& name = s.interest[1];
    sum[block] += 0.5 * (name.lo() + name.hi());
    ++cnt[block];
  }
  // Clipping to (−1, 20] biases extreme blocks inwards; allow ~1 unit.
  EXPECT_NEAR(sum[0] / cnt[0], 3.0, 1.2);
  EXPECT_NEAR(sum[1] / cnt[1], 10.0, 1.2);
  EXPECT_NEAR(sum[2] / cnt[2], 17.0, 1.2);
}

TEST(StockModel, AllRectsInsideDomain) {
  const TransitStubNetwork net = Net(25);
  Rng rng(26);
  const Workload wl = GenerateStockSubscriptions(net, 2000, {}, rng);
  const Rect domain = wl.space.domain_rect();
  for (const Subscriber& s : wl.subscribers) {
    EXPECT_FALSE(s.interest.empty());
    EXPECT_TRUE(domain.contains(s.interest));
  }
}

TEST(StockModel, PublicationScenariosShiftHotSpots) {
  const TransitStubNetwork net = Net(27);
  const StockModelParams params;
  const auto one = MakeStockPublicationModel(net, PublicationHotSpots::kOne, params);
  const auto nine = MakeStockPublicationModel(net, PublicationHotSpots::kNine, params);

  // One-mode: name mass is unimodal around 10; nine-mode: mass near 4, 11
  // and 18 — so the mass in (1,6] should be clearly higher for the mixture.
  Rect low_name = one->space().domain_rect();
  low_name[1] = Interval(1, 6);
  EXPECT_GT(nine->rect_mass(low_name), one->rect_mass(low_name));

  Rng rng(28);
  for (int i = 0; i < 300; ++i) {
    EXPECT_TRUE(one->space().domain_rect().contains(one->sample(rng).point));
    EXPECT_TRUE(nine->space().domain_rect().contains(nine->sample(rng).point));
  }
}

TEST(StockModel, RectMassIsAProductMeasure) {
  const TransitStubNetwork net = Net(29);
  const auto model = MakeStockPublicationModel(net, PublicationHotSpots::kOne, {});
  const Rect domain = model->space().domain_rect();
  EXPECT_NEAR(model->rect_mass(domain), 1.0, 1e-9);

  // Mass is monotone under shrinking.
  Rect smaller = domain;
  smaller[2] = Interval(5, 12);
  EXPECT_LT(model->rect_mass(smaller), 1.0);
  EXPECT_GT(model->rect_mass(smaller), 0.0);

  Rect empty = domain;
  empty[3] = Interval(4, 4);
  EXPECT_EQ(model->rect_mass(empty), 0.0);
}

// Grid forms each unit cell's mass as 1.0 times value_mass in dimension
// order; that product must equal rect_mass of the cell bit for bit, zero
// factors (rect_mass's early exit) included.
void ExpectUnitCellMassIsValueMassProduct(const PublicationModel& model,
                                          const std::string& label) {
  const EventSpace& space = model.space();
  std::vector<int> v(space.dims(), 0);
  std::size_t cells = 0;
  for (bool more = true; more; ++cells) {
    std::vector<Interval> ivals;
    double product = 1.0;
    for (std::size_t d = 0; d < space.dims(); ++d) {
      ivals.push_back(Interval::Point(v[d]));
      product *= model.value_mass(d, v[d]);
    }
    const double mass = model.rect_mass(Rect(std::move(ivals)));
    ASSERT_EQ(std::bit_cast<std::uint64_t>(product),
              std::bit_cast<std::uint64_t>(mass))
        << label << " cell " << cells;
    more = false;
    for (std::size_t d = space.dims(); d-- > 0;) {
      if (++v[d] < space.dim(d).domain_size) {
        more = true;
        break;
      }
      v[d] = 0;
    }
  }
  std::int64_t lattice = 1;
  for (std::size_t d = 0; d < space.dims(); ++d) lattice *= space.dim(d).domain_size;
  EXPECT_EQ(static_cast<std::int64_t>(cells), lattice) << label;
}

TEST(StockModel, UnitCellMassIsTheOrderedValueMassProduct) {
  const TransitStubNetwork net = Net(29);
  for (const PublicationHotSpots spots :
       {PublicationHotSpots::kOne, PublicationHotSpots::kNine})
    ExpectUnitCellMassIsValueMassProduct(
        *MakeStockPublicationModel(net, spots, {}),
        spots == PublicationHotSpots::kOne ? "stock one" : "stock nine");
  ExpectUnitCellMassIsValueMassProduct(
      *MakeSection3PublicationModel(Net(19, PaperNet100()), Section3Params{}),
      "section3");
  // Zero-mass values, so some products hit 0.0 before the last factor.
  const EventSpace space({{"a", 7}, {"b", 5}, {"c", 6}});
  std::vector<Marginal1D> marginals;
  marginals.push_back(Marginal1D::Categorical({0.0, 1.0, 0.0, 3.0, 0.5, 0.0, 2.0}));
  marginals.push_back(Marginal1D::Categorical({1.0, 0.0, 0.0, 0.25, 7.0}));
  marginals.push_back(Marginal1D::UniformInt(6));
  ExpectUnitCellMassIsValueMassProduct(
      ProductPublicationModel(space, std::move(marginals), {0}), "categorical");
}

TEST(StockModel, DeterministicUnderSeed) {
  const TransitStubNetwork net = Net(30);
  Rng r1(31), r2(31);
  const Workload a = GenerateStockSubscriptions(net, 200, {}, r1);
  const Workload b = GenerateStockSubscriptions(net, 200, {}, r2);
  ASSERT_EQ(a.subscribers.size(), b.subscribers.size());
  for (std::size_t i = 0; i < a.subscribers.size(); ++i) {
    EXPECT_EQ(a.subscribers[i].node, b.subscribers[i].node);
    EXPECT_EQ(a.subscribers[i].interest, b.subscribers[i].interest);
  }
}

}  // namespace
}  // namespace pubsub
