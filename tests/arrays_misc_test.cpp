// Tests for the supporting arrays: the 2-D matmul mesh and the triangular
// array on the chain (GKT) and polygon rules.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "andor/pipeline_array.hpp"
#include "arrays/matmul_array.hpp"
#include "arrays/triangular_array.hpp"
#include "baseline/matrix_chain.hpp"
#include "graph/generators.hpp"
#include "semiring/ops.hpp"

namespace sysdp {
namespace {

class MatmulSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MatmulSweep, MatchesReferenceAndTiming) {
  const auto [m, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 53);
  const auto ms = random_matrix_string(2, static_cast<std::size_t>(m), rng);
  MatmulArray<MinPlus> arr(ms[0], ms[1]);
  const auto res = arr.run();
  EXPECT_TRUE(res.c == mat_mul<MinPlus>(ms[0], ms[1]));
  // Square m x m product: 3m - 2 cycles, m^3 multiply-accumulates.
  EXPECT_EQ(res.stats.cycles,
            MatmulArray<MinPlus>::completion_cycles(
                static_cast<std::size_t>(m)));
  EXPECT_EQ(res.stats.busy_steps,
            static_cast<std::uint64_t>(m) * static_cast<std::uint64_t>(m) *
                static_cast<std::uint64_t>(m));
  EXPECT_EQ(res.stats.num_pes,
            static_cast<std::size_t>(m) * static_cast<std::size_t>(m));
}

INSTANTIATE_TEST_SUITE_P(Grid, MatmulSweep,
                         ::testing::Combine(::testing::Values(1, 2, 3, 5, 8),
                                            ::testing::Values(1, 2)));

TEST(MatmulArray, RectangularShapes) {
  Rng rng(9);
  std::uniform_int_distribution<Cost> dist(0, 20);
  Matrix<Cost> a(2, 4), b(4, 3);
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 4; ++j) a(i, j) = dist(rng);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 3; ++j) b(i, j) = dist(rng);
  MatmulArray<MinPlus> arr(a, b);
  EXPECT_TRUE(arr.run().c == mat_mul<MinPlus>(a, b));
}

TEST(MatmulArray, ShapeMismatchThrows) {
  Matrix<Cost> a(2, 3, 0), b(2, 3, 0);
  EXPECT_THROW((MatmulArray<MinPlus>{a, b}), std::invalid_argument);
}

TEST(MatmulArray, MaxPlusSemiring) {
  Rng rng(10);
  const auto ms = random_matrix_string(2, 4, rng);
  MatmulArray<MaxPlus> arr(ms[0], ms[1]);
  EXPECT_TRUE(arr.run().c == mat_mul<MaxPlus>(ms[0], ms[1]));
}

class GktSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(GktSweep, CostsSplitsAndMonotoneReadyTimes) {
  const auto [n, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 101);
  const auto dims = random_chain_dims(static_cast<std::size_t>(n), rng);
  const auto res = run_chain_array(dims);
  const auto base = matrix_chain_order(dims);
  EXPECT_TRUE(res.cost == base.cost);
  // Splits reproduce the optimal cost when re-expanded.  The array stores
  // each cell's split as an offset t from its first matrix i; the baseline
  // reads the split k = i + t.
  Matrix<std::size_t> k_split = res.split;
  for (std::size_t i = 0; i < k_split.rows(); ++i) {
    for (std::size_t j = i + 1; j < k_split.cols(); ++j) k_split(i, j) += i;
  }
  EXPECT_EQ(chain_cost_of_splits(dims, k_split), base.total());
  // Ready times strictly increase along diagonals (data dependences).
  for (std::size_t d = 2; d < static_cast<std::size_t>(n); ++d) {
    for (std::size_t i = 0; i + d < static_cast<std::size_t>(n); ++i) {
      EXPECT_GT(res.ready(i, i + d), res.ready(i, i + d - 1));
      EXPECT_GT(res.ready(i, i + d), res.ready(i + 1, i + d));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, GktSweep,
                         ::testing::Combine(::testing::Values(1, 2, 3, 6, 12,
                                                              24),
                                            ::testing::Values(1, 2, 3)));

TEST(ChainArray, CellCountIsTriangular) {
  const ChainRule rule({1, 2, 3, 4, 5});  // 4 matrices
  EXPECT_EQ(rule.num_matrices(), 4u);
  const TriangularArray<ChainRule> arr(rule, rule.num_matrices());
  EXPECT_EQ(arr.num_cells(), 10u);
  EXPECT_EQ(arr.run().stats.num_pes, 10u);
}

// Every chain witness validates its dims alike: at least one matrix, and
// every dimension positive.  Both triangular models validate through
// ChainRule.
TEST(ChainArray, RejectsBadDims) {
  const std::vector<Cost> bad[] = {{5}, {4, -1}, {5, 0, 3}};
  for (const auto& dims : bad) {
    SCOPED_TRACE("dims.size() = " + std::to_string(dims.size()));
    EXPECT_THROW(run_chain_array(dims), std::invalid_argument);
    EXPECT_THROW(SerializedChainArray{dims}, std::invalid_argument);
  }
}

TEST(ChainArray, BusySteps) {
  // One comparison per (i,j,k) candidate: sum over lengths.
  const auto res = run_chain_array({2, 2, 2, 2, 2});  // n = 4
  EXPECT_EQ(res.stats.busy_steps, 10u);  // 3+4+3 as in the table DP
}

}  // namespace
}  // namespace sysdp

// The generic triangular array applied to polygon triangulation.

namespace sysdp {
namespace {

/// Reference O(n^3) table DP for minimum-weight polygon triangulation.
Cost triangulation_dp(const std::vector<Cost>& w) {
  const std::size_t n = w.size();
  Matrix<Cost> t(n, n, 0);
  for (std::size_t d = 2; d < n; ++d) {
    for (std::size_t i = 0; i + d < n; ++i) {
      const std::size_t j = i + d;
      Cost best = kInfCost;
      for (std::size_t k = i + 1; k < j; ++k) {
        best = std::min(best, sat_add(sat_add(t(i, k), t(k, j)),
                                      w[i] * w[k] * w[j]));
      }
      t(i, j) = best;
    }
  }
  return t(0, n - 1);
}

class PolygonSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PolygonSweep, MatchesReferenceDp) {
  const auto [n, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 7411 + static_cast<std::uint64_t>(n));
  std::uniform_int_distribution<Cost> wdist(1, 20);
  std::vector<Cost> w(static_cast<std::size_t>(n));
  for (auto& x : w) x = wdist(rng);
  const auto res = run_polygon_array(w);
  EXPECT_EQ(res.total(), triangulation_dp(w));
}

INSTANTIATE_TEST_SUITE_P(Grid, PolygonSweep,
                         ::testing::Combine(::testing::Values(3, 4, 6, 10,
                                                              17),
                                            ::testing::Values(1, 2, 3)));

TEST(PolygonArray, TriangleIsSingleProduct) {
  // A 3-gon has exactly one triangle: cost w0*w1*w2.
  EXPECT_EQ(run_polygon_array({2, 3, 5}).total(), 30);
}

TEST(PolygonArray, EquivalentToMatrixChain) {
  // The classical correspondence: triangulating the (n+1)-gon with weights
  // r_0..r_n costs exactly the optimal matrix-chain product cost.
  Rng rng(77);
  for (std::size_t n : {2u, 5u, 9u}) {
    const auto dims = random_chain_dims(n, rng, 1, 15);
    EXPECT_EQ(run_polygon_array(dims).total(),
              matrix_chain_order(dims).total())
        << "n=" << n;
  }
}

TEST(PolygonArray, RejectsBadWeights) {
  EXPECT_THROW(run_polygon_array({2}), std::invalid_argument);
  EXPECT_THROW(run_polygon_array({2, 0, 3}), std::invalid_argument);
}

}  // namespace
}  // namespace sysdp
