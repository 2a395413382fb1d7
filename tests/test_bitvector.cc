#include "util/bitvector.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <set>
#include <stdexcept>
#include <vector>

namespace pubsub {
namespace {

TEST(BitVector, StartsEmpty) {
  BitVector v(100);
  EXPECT_EQ(v.size(), 100u);
  EXPECT_EQ(v.count(), 0u);
  EXPECT_TRUE(v.none());
  EXPECT_FALSE(v.any());
  for (std::size_t i = 0; i < 100; ++i) EXPECT_FALSE(v.test(i));
}

TEST(BitVector, SetResetTest) {
  BitVector v(130);
  v.set(0);
  v.set(63);
  v.set(64);
  v.set(129);
  EXPECT_TRUE(v.test(0));
  EXPECT_TRUE(v.test(63));
  EXPECT_TRUE(v.test(64));
  EXPECT_TRUE(v.test(129));
  EXPECT_FALSE(v.test(1));
  EXPECT_EQ(v.count(), 4u);
  v.reset(63);
  EXPECT_FALSE(v.test(63));
  EXPECT_EQ(v.count(), 3u);
  v.assign(63, true);
  EXPECT_TRUE(v.test(63));
  v.assign(63, false);
  EXPECT_FALSE(v.test(63));
}

TEST(BitVector, LogicalOps) {
  BitVector a(200), b(200);
  a.set(3);
  a.set(100);
  b.set(100);
  b.set(150);

  const BitVector u = a | b;
  EXPECT_TRUE(u.test(3));
  EXPECT_TRUE(u.test(100));
  EXPECT_TRUE(u.test(150));
  EXPECT_EQ(u.count(), 3u);

  const BitVector i = a & b;
  EXPECT_EQ(i.count(), 1u);
  EXPECT_TRUE(i.test(100));

  const BitVector x = a ^ b;
  EXPECT_EQ(x.count(), 2u);
  EXPECT_TRUE(x.test(3));
  EXPECT_TRUE(x.test(150));

  BitVector d = a;
  d.and_not_assign(b);
  EXPECT_EQ(d.count(), 1u);
  EXPECT_TRUE(d.test(3));
}

TEST(BitVector, CountKernelsMatchMaterialized) {
  std::mt19937_64 rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 1 + rng() % 300;
    BitVector a(n), b(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (rng() & 1) a.set(i);
      if (rng() & 1) b.set(i);
    }
    BitVector diff = a;
    diff.and_not_assign(b);
    EXPECT_EQ(a.count_and_not(b), diff.count());
    EXPECT_EQ(a.count_and(b), (a & b).count());
    EXPECT_EQ(a.count_or(b), (a | b).count());
    // The fused one-pass kernel must agree with the two single diffs.
    std::size_t a_not_b = 0, b_not_a = 0;
    a.count_diffs(b, &a_not_b, &b_not_a);
    EXPECT_EQ(a_not_b, a.count_and_not(b));
    EXPECT_EQ(b_not_a, b.count_and_not(a));
    EXPECT_EQ(a.intersects(b), (a & b).any());
    EXPECT_EQ(a.is_subset_of(b), a.count_and_not(b) == 0);
  }

  // The checks above compare kernels with kernels, so a wrong popcount
  // would pass them.  Here each kernel meets a per-bit test() loop, at
  // sizes around the word boundary and at membership-vector sizes.
  for (const std::size_t n : {1, 63, 64, 65, 1000, 5000}) {
    for (const double density : {0.05, 0.5, 0.95}) {
      BitVector a(n), b(n);
      std::bernoulli_distribution bit(density);
      for (std::size_t i = 0; i < n; ++i) {
        if (bit(rng)) a.set(i);
        if (bit(rng)) b.set(i);
      }
      std::size_t ones = 0, both = 0, a_only = 0, b_only = 0, either = 0;
      for (std::size_t i = 0; i < n; ++i) {
        ones += a.test(i);
        both += a.test(i) && b.test(i);
        a_only += a.test(i) && !b.test(i);
        b_only += b.test(i) && !a.test(i);
        either += a.test(i) || b.test(i);
      }
      EXPECT_EQ(a.count(), ones) << "n=" << n;
      EXPECT_EQ(a.count_and(b), both) << "n=" << n;
      EXPECT_EQ(a.count_and_not(b), a_only) << "n=" << n;
      EXPECT_EQ(a.count_or(b), either) << "n=" << n;
      std::size_t a_not_b = 0, b_not_a = 0;
      a.count_diffs(b, &a_not_b, &b_not_a);
      EXPECT_EQ(a_not_b, a_only) << "n=" << n;
      EXPECT_EQ(b_not_a, b_only) << "n=" << n;
    }
  }
}

TEST(BitVector, SubsetSemantics) {
  BitVector a(65), b(65);
  a.set(10);
  b.set(10);
  b.set(64);
  EXPECT_TRUE(a.is_subset_of(b));
  EXPECT_FALSE(b.is_subset_of(a));
  EXPECT_TRUE(a.is_subset_of(a));
  BitVector empty(65);
  EXPECT_TRUE(empty.is_subset_of(a));
}

TEST(BitVector, ForEachSetVisitsInOrder) {
  BitVector v(300);
  const std::set<std::size_t> want = {0, 1, 63, 64, 65, 128, 255, 299};
  for (std::size_t i : want) v.set(i);
  std::vector<std::size_t> got;
  v.for_each_set([&got](std::size_t i) { got.push_back(i); });
  EXPECT_EQ(got, std::vector<std::size_t>(want.begin(), want.end()));
  EXPECT_EQ(v.set_bits(), got);
}

TEST(BitVector, EqualityAndHash) {
  BitVector a(100), b(100);
  a.set(42);
  b.set(42);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  b.set(43);
  EXPECT_FALSE(a == b);
  // Different sizes are never equal, even when both are empty.
  EXPECT_FALSE(BitVector(64) == BitVector(65));
}

TEST(BitVector, AdoptsRawWordsAndChecksTheirCount) {
  BitVector v(130);
  v.set(0);
  v.set(64);
  v.set(129);
  const std::vector<std::uint64_t> words(v.words().begin(), v.words().end());
  EXPECT_EQ(BitVector(130, words), v);
  EXPECT_EQ(BitVector(0, {}), BitVector(0));

  const std::vector<std::uint64_t> two(2, 0);
  EXPECT_THROW(BitVector(130, two), std::invalid_argument);  // 3 words needed
  EXPECT_THROW(BitVector(64, words), std::invalid_argument);
  // Bit 130 lies beyond the size; count() and == would see it.
  std::vector<std::uint64_t> stray = words;
  stray[2] |= std::uint64_t{1} << 2;
  EXPECT_THROW(BitVector(130, stray), std::invalid_argument);
}

TEST(BitVector, ToString) {
  BitVector v(5);
  v.set(1);
  v.set(4);
  EXPECT_EQ(v.to_string(), "01001");
}

class BitVectorSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BitVectorSizeTest, CountMatchesNaiveAtBoundary) {
  const std::size_t n = GetParam();
  BitVector v(n);
  std::size_t expect = 0;
  for (std::size_t i = 0; i < n; i += 3) {
    v.set(i);
    ++expect;
  }
  EXPECT_EQ(v.count(), expect);
  std::size_t seen = 0;
  v.for_each_set([&](std::size_t i) {
    EXPECT_EQ(i % 3, 0u);
    ++seen;
  });
  EXPECT_EQ(seen, expect);
}

INSTANTIATE_TEST_SUITE_P(WordBoundaries, BitVectorSizeTest,
                         ::testing::Values(1, 63, 64, 65, 127, 128, 129, 1000));

}  // namespace
}  // namespace pubsub
