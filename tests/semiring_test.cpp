// Unit and property tests for the closed-semiring substrate.
#include <gtest/gtest.h>

#include <random>

#include "semiring/closed_semiring.hpp"
#include "semiring/matrix.hpp"
#include "semiring/ops.hpp"

namespace sysdp {
namespace {

// ---------------------------------------------------------------- cost ----

TEST(Cost, InfinityIsAbsorbing) {
  EXPECT_EQ(sat_add(kInfCost, 5), kInfCost);
  EXPECT_EQ(sat_add(5, kInfCost), kInfCost);
  EXPECT_EQ(sat_add(kInfCost, kInfCost), kInfCost);
  EXPECT_EQ(sat_add(kNegInfCost, -5), kNegInfCost);
}

TEST(Cost, SaturationNeverOverflows) {
  EXPECT_EQ(sat_add(kInfCost - 1, kInfCost - 1), kInfCost);
  EXPECT_EQ(sat_add(kNegInfCost + 1, kNegInfCost + 1), kNegInfCost);
}

TEST(Cost, FiniteAdditionExact) {
  EXPECT_EQ(sat_add(3, 4), 7);
  EXPECT_EQ(sat_add(-3, 4), 1);
  EXPECT_EQ(sat_add(0, 0), 0);
}

TEST(Cost, ToString) {
  EXPECT_EQ(cost_to_string(42), "42");
  EXPECT_EQ(cost_to_string(kInfCost), "inf");
  EXPECT_EQ(cost_to_string(kNegInfCost), "-inf");
}

// -------------------------------------------------- semiring axioms -------

// Property suite: each optimisation semiring must satisfy the closed-
// semiring axioms on sampled values.
template <typename S>
class SemiringAxioms : public ::testing::Test {};

using OptSemirings = ::testing::Types<MinPlus, MaxPlus, MinMax, MaxMin>;
TYPED_TEST_SUITE(SemiringAxioms, OptSemirings);

TYPED_TEST(SemiringAxioms, Identities) {
  using S = TypeParam;
  std::mt19937_64 rng(1);
  std::uniform_int_distribution<Cost> dist(-1000, 1000);
  for (int t = 0; t < 200; ++t) {
    const Cost a = dist(rng);
    EXPECT_EQ(S::plus(a, S::zero()), a);
    EXPECT_EQ(S::plus(S::zero(), a), a);
    EXPECT_EQ(S::times(a, S::one()), a);
    EXPECT_EQ(S::times(S::one(), a), a);
  }
}

TYPED_TEST(SemiringAxioms, ZeroAbsorbsTimes) {
  using S = TypeParam;
  std::mt19937_64 rng(2);
  std::uniform_int_distribution<Cost> dist(-1000, 1000);
  for (int t = 0; t < 200; ++t) {
    const Cost a = dist(rng);
    EXPECT_EQ(S::times(a, S::zero()), S::zero());
    EXPECT_EQ(S::times(S::zero(), a), S::zero());
  }
}

TYPED_TEST(SemiringAxioms, AssociativityAndCommutativityOfPlus) {
  using S = TypeParam;
  std::mt19937_64 rng(3);
  std::uniform_int_distribution<Cost> dist(-1000, 1000);
  for (int t = 0; t < 200; ++t) {
    const Cost a = dist(rng), b = dist(rng), c = dist(rng);
    EXPECT_EQ(S::plus(a, b), S::plus(b, a));
    EXPECT_EQ(S::plus(S::plus(a, b), c), S::plus(a, S::plus(b, c)));
    EXPECT_EQ(S::times(S::times(a, b), c), S::times(a, S::times(b, c)));
  }
}

TYPED_TEST(SemiringAxioms, TimesDistributesOverPlus) {
  using S = TypeParam;
  std::mt19937_64 rng(4);
  std::uniform_int_distribution<Cost> dist(-1000, 1000);
  for (int t = 0; t < 200; ++t) {
    const Cost a = dist(rng), b = dist(rng), c = dist(rng);
    EXPECT_EQ(S::times(a, S::plus(b, c)), S::plus(S::times(a, b), S::times(a, c)));
    EXPECT_EQ(S::times(S::plus(a, b), c), S::plus(S::times(a, c), S::times(b, c)));
  }
}

TYPED_TEST(SemiringAxioms, PlusIsIdempotent) {
  using S = TypeParam;
  std::mt19937_64 rng(5);
  std::uniform_int_distribution<Cost> dist(-1000, 1000);
  for (int t = 0; t < 200; ++t) {
    const Cost a = dist(rng);
    EXPECT_EQ(S::plus(a, a), a);
  }
}

TEST(SemiringBool, Axioms) {
  for (bool a : {false, true}) {
    EXPECT_EQ(BoolOrAnd::plus(a, BoolOrAnd::zero()), a);
    EXPECT_EQ(BoolOrAnd::times(a, BoolOrAnd::one()), a);
    EXPECT_EQ(BoolOrAnd::times(a, BoolOrAnd::zero()), BoolOrAnd::zero());
  }
}

TEST(SemiringCount, CountsPaths) {
  // A 3-stage graph with full connectivity has m^2 paths per (src, sink),
  // so the all-ones matrix product counts them.
  Matrix<std::uint64_t> ones(3, 3, 1);
  const auto sq = mat_mul<CountPaths>(ones, ones);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) EXPECT_EQ(sq(i, j), 3u);
  }
}

// ------------------------------------------------------------- matrix -----

TEST(MatrixT, ConstructAndIndex) {
  Matrix<int> m(2, 3, 7);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m(1, 2), 7);
  m(1, 2) = 9;
  EXPECT_EQ(m(1, 2), 9);

  // Over given row-major data, which must hold exactly rows x cols entries
  // (2^32 x 2^32 wraps to 0 in size_t and must not pass for empty data).
  const Matrix<int> d(2, 2, std::vector<int>{1, 2, 3, 4});
  EXPECT_EQ(d(1, 0), 3);
  EXPECT_EQ(Matrix<int>(3, 0, std::vector<int>{}).rows(), 3u);
  EXPECT_THROW(Matrix<int>(2, 2, std::vector<int>{1, 2, 3}),
               std::invalid_argument);
  const std::size_t huge = std::size_t{1} << 32;
  EXPECT_THROW(Matrix<int>(huge, huge, std::vector<int>{}),
               std::invalid_argument);
}

TEST(MatrixT, InitializerList) {
  Matrix<int> m{{1, 2}, {3, 4}};
  EXPECT_EQ(m(0, 1), 2);
  EXPECT_EQ(m(1, 0), 3);
  EXPECT_THROW((Matrix<int>{{1, 2}, {3}}), std::invalid_argument);
}

TEST(MatrixT, RowColTranspose) {
  Matrix<int> m{{1, 2, 3}, {4, 5, 6}};
  EXPECT_EQ(m.row(1), (std::vector<int>{4, 5, 6}));
  EXPECT_EQ(m.col(2), (std::vector<int>{3, 6}));
  const auto t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t(2, 1), 6);
}

TEST(MatrixT, AtBoundsCheck) {
  Matrix<int> m(2, 2, 0);
  EXPECT_THROW((void)m.at(2, 0), std::out_of_range);
  EXPECT_THROW((void)m.at(0, 2), std::out_of_range);
  EXPECT_NO_THROW((void)m.at(1, 1));
}

TEST(MatrixT, Equality) {
  Matrix<int> a{{1, 2}, {3, 4}};
  Matrix<int> b{{1, 2}, {3, 4}};
  Matrix<int> c{{1, 2}, {3, 5}};
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

// ----------------------------------------------------------------- ops ----

TEST(Ops, MatVecMinPlusSmall) {
  // Worked example in the style of eq. (8a).
  Matrix<Cost> c{{1, 4, 7}, {2, 5, 8}, {3, 6, 9}};
  std::vector<Cost> d{10, 0, 20};
  const auto y = mat_vec<MinPlus>(c, d);
  EXPECT_EQ(y, (std::vector<Cost>{4, 5, 6}));
}

TEST(Ops, MatVecTracksArgmin) {
  Matrix<Cost> c{{5, 1}, {0, 9}};
  std::vector<Cost> x{0, 0};
  std::vector<std::size_t> arg;
  const auto y = mat_vec<MinPlus>(c, x, nullptr, &arg);
  EXPECT_EQ(y, (std::vector<Cost>{1, 0}));
  EXPECT_EQ(arg, (std::vector<std::size_t>{1, 0}));
}

TEST(Ops, VecMatMatchesTransposedMatVec) {
  std::mt19937_64 rng(6);
  std::uniform_int_distribution<Cost> dist(0, 50);
  Matrix<Cost> m(4, 4);
  std::vector<Cost> x(4);
  for (std::size_t i = 0; i < 4; ++i) {
    x[i] = dist(rng);
    for (std::size_t j = 0; j < 4; ++j) m(i, j) = dist(rng);
  }
  EXPECT_EQ(vec_mat<MinPlus>(x, m), mat_vec<MinPlus>(m.transposed(), x));
}

TEST(Ops, ShapeMismatchThrows) {
  Matrix<Cost> m(2, 3, 0);
  std::vector<Cost> x(2, 0);
  EXPECT_THROW(mat_vec<MinPlus>(m, x), std::invalid_argument);
  EXPECT_THROW(vec_mat<MinPlus>(x, Matrix<Cost>(3, 2, 0)),
               std::invalid_argument);
  EXPECT_THROW(mat_mul<MinPlus>(m, m), std::invalid_argument);
}

TEST(Ops, OpCountMatVec) {
  Matrix<Cost> m(3, 5, 0);
  std::vector<Cost> x(5, 0);
  OpCount ops;
  (void)mat_vec<MinPlus>(m, x, &ops);
  EXPECT_EQ(ops.mac, 15u);
}

TEST(Ops, StringProductAssociativity) {
  // Balanced (polyadic) and right-associated (monadic) evaluations agree:
  // the algebraic heart of Section 4.
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<Cost> dist(0, 30);
  for (std::size_t n : {2u, 3u, 5u, 8u, 13u}) {
    std::vector<Matrix<Cost>> mats;
    for (std::size_t t = 0; t < n; ++t) {
      Matrix<Cost> m(4, 4);
      for (std::size_t i = 0; i < 4; ++i)
        for (std::size_t j = 0; j < 4; ++j) m(i, j) = dist(rng);
      mats.push_back(std::move(m));
    }
    EXPECT_EQ(balanced_string_mat_mul<MinPlus>(mats),
              string_mat_mul<MinPlus>(mats))
        << "n=" << n;
  }
}

TEST(Ops, StringMatVecEqualsFullProduct) {
  std::mt19937_64 rng(8);
  std::uniform_int_distribution<Cost> dist(0, 30);
  std::vector<Matrix<Cost>> mats;
  for (int t = 0; t < 4; ++t) {
    Matrix<Cost> m(3, 3);
    for (std::size_t i = 0; i < 3; ++i)
      for (std::size_t j = 0; j < 3; ++j) m(i, j) = dist(rng);
    mats.push_back(std::move(m));
  }
  std::vector<Cost> v{dist(rng), dist(rng), dist(rng)};
  const auto direct = string_mat_vec<MinPlus>(mats, v);
  const auto full = mat_vec<MinPlus>(string_mat_mul<MinPlus>(mats), v);
  EXPECT_EQ(direct, full);
}

TEST(Ops, ReduceFindsArgmin) {
  std::vector<Cost> v{9, 2, 7, 2};
  std::size_t arg = 99;
  EXPECT_EQ(reduce<MinPlus>(v, &arg), 2);
  EXPECT_EQ(arg, 1u);  // first minimum wins
}

TEST(Ops, ReduceEmptyIsZeroElement) {
  EXPECT_EQ(reduce<MinPlus>({}), kInfCost);
  EXPECT_EQ(reduce<MaxPlus>({}), kNegInfCost);
}

TEST(Ops, MaxPlusLongestPath) {
  Matrix<Cost> c{{1, 4}, {2, 5}};
  std::vector<Cost> x{0, 0};
  EXPECT_EQ(mat_vec<MaxPlus>(c, x), (std::vector<Cost>{4, 5}));
}

TEST(Ops, MinMaxBottleneckPath) {
  // Bottleneck of a two-hop path: max edge on it; best path minimises that.
  Matrix<Cost> a{{3, 9}};
  Matrix<Cost> b{{7}, {1}};
  const auto p = mat_mul<MinMax>(a, b);
  // via node 0: max(3,7) = 7; via node 1: max(9,1) = 9 -> min = 7.
  EXPECT_EQ(p(0, 0), 7);
}

}  // namespace
}  // namespace sysdp

// The optimal-solution-counting semiring and its use on the arrays.
#include "arrays/design1_pipeline.hpp"
#include "arrays/design2_broadcast.hpp"
#include "graph/generators.hpp"

namespace sysdp {
namespace {

TEST(MinPlusCountS, AxiomsOnSamples) {
  std::mt19937_64 rng(9);
  std::uniform_int_distribution<Cost> cdist(0, 20);
  std::uniform_int_distribution<std::uint64_t> ndist(1, 5);
  const auto sample = [&] { return CostCount{cdist(rng), ndist(rng)}; };
  for (int t = 0; t < 200; ++t) {
    const auto a = sample(), b = sample(), c = sample();
    EXPECT_EQ(MinPlusCount::plus(a, MinPlusCount::zero()), a);
    EXPECT_EQ(MinPlusCount::times(a, MinPlusCount::one()), a);
    EXPECT_EQ(MinPlusCount::times(a, MinPlusCount::zero()),
              MinPlusCount::zero());
    EXPECT_EQ(MinPlusCount::plus(a, b), MinPlusCount::plus(b, a));
    EXPECT_EQ(MinPlusCount::times(a, MinPlusCount::plus(b, c)),
              MinPlusCount::plus(MinPlusCount::times(a, b),
                                 MinPlusCount::times(a, c)));
  }
}

TEST(MinPlusCountS, CountsOptimaExhaustively) {
  // Random small graphs: the semiring's count equals brute-force
  // enumeration of minimum-cost paths.
  for (int seed = 0; seed < 10; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) * 17);
    const auto g = random_multistage(4, 3, rng, 0, 4);  // small costs: ties
    Matrix<CostCount> lifted0(3, 3), lifted1(3, 3), lifted2(3, 3);
    for (std::size_t i = 0; i < 3; ++i) {
      for (std::size_t j = 0; j < 3; ++j) {
        lifted0(i, j) = {g.edge(0, i, j), 1};
        lifted1(i, j) = {g.edge(1, i, j), 1};
        lifted2(i, j) = {g.edge(2, i, j), 1};
      }
    }
    std::vector<CostCount> v(3, MinPlusCount::one());
    const auto res =
        string_mat_vec<MinPlusCount>({lifted0, lifted1, lifted2}, v);

    for (std::size_t src = 0; src < 3; ++src) {
      Cost best = kInfCost;
      std::uint64_t count = 0;
      for (std::size_t a = 0; a < 3; ++a) {
        for (std::size_t b = 0; b < 3; ++b) {
          for (std::size_t c = 0; c < 3; ++c) {
            const Cost p = g.path_cost({src, a, b, c});
            if (p < best) {
              best = p;
              count = 1;
            } else if (p == best) {
              ++count;
            }
          }
        }
      }
      EXPECT_EQ(res[src].cost, best) << "seed=" << seed;
      EXPECT_EQ(res[src].count, count) << "seed=" << seed;
    }
  }
}

TEST(MinPlusCountS, RunsOnBothLinearArrays) {
  Rng rng(11);
  const auto g = random_multistage(6, 4, rng, 0, 3);
  std::vector<Matrix<CostCount>> mats;
  for (std::size_t k = 0; k + 1 < g.num_stages(); ++k) {
    Matrix<CostCount> lifted(4, 4);
    for (std::size_t i = 0; i < 4; ++i) {
      for (std::size_t j = 0; j < 4; ++j) lifted(i, j) = {g.edge(k, i, j), 1};
    }
    mats.push_back(std::move(lifted));
  }
  std::vector<CostCount> v(4, MinPlusCount::one());
  const auto expect = string_mat_vec<MinPlusCount>(mats, v);
  Design1Pipeline<MinPlusCount> d1(mats, v);
  Design2Broadcast<MinPlusCount> d2(mats, v);
  EXPECT_EQ(d1.run().values, expect);
  EXPECT_EQ(d2.run().values, expect);
}

}  // namespace
}  // namespace sysdp
