// Tests for Design 1 (pipelined array, Figure 3) and Design 2 (broadcast
// array, Figure 4): functional equality with the sequential baseline,
// temporal equality with the paper's iteration counts, and utilisation
// equality with eq. (9).
#include <gtest/gtest.h>

#include <tuple>

#include "arrays/design1_pipeline.hpp"
#include "arrays/design2_broadcast.hpp"
#include "arrays/graph_adapter.hpp"
#include "arrays/paper_metrics.hpp"
#include "baseline/multistage_dp.hpp"
#include "graph/generators.hpp"
#include "semiring/ops.hpp"

namespace sysdp {
namespace {

// ------------------------------------------------------ direct string -----

std::vector<Matrix<Cost>> square_string(std::size_t q, std::size_t m,
                                        Rng& rng) {
  return random_matrix_string(q, m, rng);
}

TEST(Design1, SingleMultiplyModeA) {
  Matrix<Cost> m{{1, 4}, {2, 5}};
  std::vector<Cost> v{10, 0};
  Design1Pipeline<MinPlus> arr({m}, v);
  const auto res = arr.run();
  EXPECT_EQ(res.values, mat_vec<MinPlus>(m, v));
  // Q=1, m=2: wall = (Q-1)m + (m-1) + (r-1) + 1 = 3 cycles.
  EXPECT_EQ(res.cycles, 3u);
}

TEST(Design1, TwoMultipliesExerciseModeB) {
  Rng rng(21);
  const auto mats = square_string(2, 3, rng);
  std::vector<Cost> v{1, 2, 3};
  Design1Pipeline<MinPlus> arr(mats, v);
  const auto res = arr.run();
  EXPECT_EQ(res.values, string_mat_vec<MinPlus>(mats, v));
}

TEST(Design1, RectangularFinalMatrix) {
  // Single-source problem: the leftmost matrix is a 1 x m row vector.
  Rng rng(22);
  auto mats = square_string(3, 4, rng);
  Matrix<Cost> row(1, 4);
  for (std::size_t j = 0; j < 4; ++j) row(0, j) = static_cast<Cost>(j + 1);
  mats.insert(mats.begin(), row);
  std::vector<Cost> v{5, 6, 7, 8};
  Design1Pipeline<MinPlus> arr(mats, v);
  const auto res = arr.run();
  const auto expect = string_mat_vec<MinPlus>(mats, v);
  ASSERT_EQ(res.values.size(), 1u);
  EXPECT_EQ(res.values, expect);
}

TEST(Design1, RejectsBadShapes) {
  Matrix<Cost> sq(3, 3, 0);
  Matrix<Cost> bad(2, 3, 0);
  std::vector<Cost> v(3, 0);
  EXPECT_THROW(Design1Pipeline<MinPlus>({}, v), std::invalid_argument);
  EXPECT_THROW(Design1Pipeline<MinPlus>({sq, bad, sq}, v),
               std::invalid_argument);  // rectangular in the middle
  EXPECT_THROW(Design1Pipeline<MinPlus>({Matrix<Cost>(3, 2, 0)}, v),
               std::invalid_argument);  // cols != m
  EXPECT_NO_THROW(Design1Pipeline<MinPlus>({bad, sq}, v));
}

// Property sweep: (#multiplies, width, seed) grid, Designs 1 and 2 vs the
// functional reference, for odd and even multiply counts (both end modes).
class StringProductSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(StringProductSweep, Design1MatchesReference) {
  const auto [q, m, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  const auto mats = square_string(static_cast<std::size_t>(q),
                                  static_cast<std::size_t>(m), rng);
  std::vector<Cost> v(static_cast<std::size_t>(m));
  std::uniform_int_distribution<Cost> dist(0, 99);
  for (auto& x : v) x = dist(rng);
  Design1Pipeline<MinPlus> arr(mats, v);
  const auto res = arr.run();
  EXPECT_EQ(res.values, string_mat_vec<MinPlus>(mats, v));
  // Wall clock = Q*m + m - 1 cycles; every PE performs Q*m iterations.
  const auto uq = static_cast<std::uint64_t>(q);
  const auto um = static_cast<std::uint64_t>(m);
  EXPECT_EQ(res.cycles, static_cast<sim::Cycle>(uq * um + um - 1));
  EXPECT_EQ(res.busy_steps, uq * um * um);
}

TEST_P(StringProductSweep, Design2MatchesReference) {
  const auto [q, m, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  const auto mats = square_string(static_cast<std::size_t>(q),
                                  static_cast<std::size_t>(m), rng);
  std::vector<Cost> v(static_cast<std::size_t>(m));
  std::uniform_int_distribution<Cost> dist(0, 99);
  for (auto& x : v) x = dist(rng);
  Design2Broadcast<MinPlus> arr(mats, v);
  const auto res = arr.run();
  EXPECT_EQ(res.values, string_mat_vec<MinPlus>(mats, v));
  // No skew: exactly Q*m cycles, one bus transaction per cycle.
  const auto uq = static_cast<std::uint64_t>(q);
  const auto um = static_cast<std::uint64_t>(m);
  EXPECT_EQ(res.cycles, static_cast<sim::Cycle>(uq * um));
  EXPECT_EQ(arr.bus_transactions(), uq * um);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, StringProductSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 8, 13),
                       ::testing::Values(1, 2, 3, 5, 8),
                       ::testing::Values(1, 2, 3)));

// ------------------------------------------------------ other semirings ---

TEST(Design1, MaxPlusLongestPath) {
  Rng rng(31);
  const auto mats = square_string(4, 3, rng);
  std::vector<Cost> v{0, 0, 0};
  Design1Pipeline<MaxPlus> arr(mats, v);
  EXPECT_EQ(arr.run().values, string_mat_vec<MaxPlus>(mats, v));
}

TEST(Design2, MinMaxBottleneck) {
  Rng rng(32);
  const auto mats = square_string(3, 4, rng);
  std::vector<Cost> v(4, MinMax::one());
  Design2Broadcast<MinMax> arr(mats, v);
  EXPECT_EQ(arr.run().values, string_mat_vec<MinMax>(mats, v));
}

// --------------------------------------------------------- graph form -----

class GraphSweep : public ::testing::TestWithParam<std::tuple<int, int, int>> {
};

TEST_P(GraphSweep, BothDesignsMatchForwardCosts) {
  const auto [stages, width, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 7919);
  const auto g = random_multistage(static_cast<std::size_t>(stages),
                                   static_cast<std::size_t>(width), rng);
  const auto expect = forward_costs(g, 0);
  EXPECT_EQ(run_design1_shortest(g).values, expect);
  EXPECT_EQ(run_design2_shortest(g).values, expect);
}

TEST_P(GraphSweep, SparseGraphsWithMissingEdges) {
  const auto [stages, width, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 104729);
  const auto g = random_sparse_multistage(static_cast<std::size_t>(stages),
                                          static_cast<std::size_t>(width),
                                          rng, 700);
  const auto expect = forward_costs(g, 0);
  EXPECT_EQ(run_design1_shortest(g).values, expect);
  EXPECT_EQ(run_design2_shortest(g).values, expect);
}

INSTANTIATE_TEST_SUITE_P(Grid, GraphSweep,
                         ::testing::Combine(::testing::Values(3, 4, 7, 12),
                                            ::testing::Values(2, 3, 6),
                                            ::testing::Values(1, 2)));

TEST(GraphAdapter, SingleSinkFoldsIntoVector) {
  Rng rng(41);
  const auto inner = random_multistage(4, 3, rng);
  const auto g = with_single_source_sink(inner);
  const auto prob = to_string_product(g);
  // Stages: 1,3,3,3,3,1 -> 4 matrices (one 1x3) + 3-vector from the last.
  EXPECT_EQ(prob.v.size(), 3u);
  EXPECT_EQ(prob.mats.size(), 4u);
  EXPECT_EQ(prob.mats.front().rows(), 1u);
  const auto res = run_design1_shortest(g);
  ASSERT_EQ(res.values.size(), 1u);
  EXPECT_EQ(res.values[0], solve_multistage(g).cost);
}

TEST(GraphAdapter, RejectsRaggedIntermediate) {
  MultistageGraph g(std::vector<std::size_t>{2, 3, 4, 2});
  EXPECT_THROW((void)to_string_product(g), std::invalid_argument);
}

// ------------------------------------------------------ PU / eq. (9) ------

TEST(ProcessorUtilization, Eq9MatchesMeasuredIterationPU) {
  // Paper accounting for an (N+1)-stage single source/sink graph: serial
  // steps (N-2)m^2 + m; the array performs its work in Q*m iterations where
  // the Q = N-1 multiplies include the degenerate 1 x m one.
  for (const std::size_t N : {4u, 8u, 16u, 32u}) {
    for (const std::size_t m : {2u, 4u, 8u}) {
      Rng rng(N * 100 + m);
      const auto inner =
          random_multistage(N - 1, m, rng);   // N+1 stages after wrapping
      const auto g = with_single_source_sink(inner);
      const auto res = run_design1_shortest(g);
      const auto serial = serial_steps_design12(N, m);
      // Measured busy steps equal the serial step count: the array does no
      // redundant work, on either linear design.
      EXPECT_EQ(res.busy_steps, serial) << "N=" << N << " m=" << m;
      EXPECT_EQ(run_design2_shortest(g).busy_steps, serial)
          << "N=" << N << " m=" << m;
      // Eq. (9) uses N*m iterations; the simulated array uses (N-1)*m
      // iterations plus m-1 fill cycles.  Both PU figures approach 1 and
      // differ only in the fill accounting.
      const double pu_paper = analytic_pu_design12(N, m);
      const double pu_measured =
          res.utilization_iters(static_cast<std::uint64_t>(N) * m);
      EXPECT_NEAR(pu_measured, pu_paper, 1e-12);
    }
  }
}

TEST(ProcessorUtilization, ApproachesOneForLargeN) {
  const double pu = analytic_pu_design12(1000, 16);
  EXPECT_GT(pu, 0.99);
  EXPECT_LE(pu, 1.0);
}

TEST(IoBandwidth, Design1ConsumesEdgeCostsPerIteration) {
  Rng rng(51);
  const auto g = random_multistage(6, 4, rng);
  const auto res = run_design1_shortest(g);
  // Matrix elements consumed: one per busy step; plus the initial vector.
  EXPECT_EQ(res.input_scalars, res.busy_steps + 4);
}

}  // namespace
}  // namespace sysdp
