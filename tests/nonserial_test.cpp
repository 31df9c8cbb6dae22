// Tests for the nonserial subsystem (Section 6.1): objectives, variable
// elimination vs brute force, eq. (40) step counts, the grouping transform,
// and the serial-chain conversion.
#include <gtest/gtest.h>

#include <algorithm>

#include <numeric>

#include "arrays/graph_adapter.hpp"
#include "baseline/multistage_dp.hpp"
#include "core/solver.hpp"
#include "nonserial/elimination.hpp"
#include "nonserial/grouping.hpp"
#include "nonserial/nonserial_generators.hpp"
#include "nonserial/objective.hpp"
#include "nonserial/serial_chain.hpp"

namespace sysdp {
namespace {

// ----------------------------------------------------------- objective ----

TEST(Objective, EvaluateSumsTerms) {
  NonserialObjective obj({2, 2});
  obj.add_term({0}, {10, 20});
  obj.add_term({0, 1}, {1, 2, 3, 4});  // (v0,v1) row-major
  EXPECT_EQ(obj.evaluate({0, 0}), 11);
  EXPECT_EQ(obj.evaluate({1, 1}), 24);
}

TEST(Objective, Validation) {
  NonserialObjective obj({2, 3});
  EXPECT_THROW(obj.add_term({}, {}), std::invalid_argument);
  EXPECT_THROW(obj.add_term({1, 0}, std::vector<Cost>(6, 0)),
               std::invalid_argument);  // unsorted scope
  EXPECT_THROW(obj.add_term({0, 1}, std::vector<Cost>(5, 0)),
               std::invalid_argument);  // wrong table size
  EXPECT_THROW(obj.add_term({0, 2}, std::vector<Cost>(4, 0)),
               std::out_of_range);
  EXPECT_THROW((void)obj.evaluate({0}), std::invalid_argument);
  EXPECT_THROW((void)obj.evaluate({2, 0}), std::out_of_range);
  // 2^32 * 2^32 wraps to 0 in size_t: an empty table must not pass for it.
  const std::size_t huge = std::size_t{1} << 32;
  NonserialObjective wide({huge, huge});
  EXPECT_THROW(wide.add_term({0, 1}, {}), std::invalid_argument);
  EXPECT_TRUE(wide.terms().empty());
}

TEST(Objective, SerialDetection) {
  NonserialObjective serial({2, 2, 2});
  serial.add_term({0, 1}, std::vector<Cost>(4, 0));
  serial.add_term({1, 2}, std::vector<Cost>(4, 0));
  EXPECT_TRUE(serial.is_serial());

  Rng rng(1);
  EXPECT_FALSE(paper_example_objective(2, rng).is_serial());
  EXPECT_FALSE(random_banded_objective(5, 2, rng).is_serial());
}

// ----------------------------------------------------------- elimination --

TEST(Elimination, MatchesBruteForceOnPaperExample) {
  for (int seed = 0; seed < 5; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed));
    const auto obj = paper_example_objective(3, rng);
    const auto bf = solve_brute_force(obj);
    const auto elim = solve_by_elimination(obj);
    EXPECT_EQ(elim.cost, bf.cost) << "seed=" << seed;
    EXPECT_EQ(obj.evaluate(elim.assignment), elim.cost);
  }
}

class BandedSweep : public ::testing::TestWithParam<std::tuple<int, int, int>> {
};

TEST_P(BandedSweep, EliminationOptimalAndCountedByEq40) {
  const auto [n, m, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 131);
  const auto obj = random_banded_objective(static_cast<std::size_t>(n),
                                           static_cast<std::size_t>(m), rng);
  const auto bf = solve_brute_force(obj);
  const auto elim = solve_by_elimination(obj);
  EXPECT_EQ(elim.cost, bf.cost);
  EXPECT_EQ(obj.evaluate(elim.assignment), elim.cost);
  // Eq. (40): natural-order elimination steps.
  const std::vector<std::size_t> domains(static_cast<std::size_t>(n),
                                         static_cast<std::size_t>(m));
  EXPECT_EQ(elim.steps, eq40_steps(domains));
  EXPECT_EQ(elim.final_comparisons, static_cast<std::uint64_t>(m));
}

INSTANTIATE_TEST_SUITE_P(Grid, BandedSweep,
                         ::testing::Combine(::testing::Values(3, 4, 5, 7),
                                            ::testing::Values(2, 3, 4),
                                            ::testing::Values(1, 2, 3)));

TEST(Elimination, MixedDomainsMatchEq40) {
  Rng rng(11);
  const std::vector<std::size_t> domains{2, 4, 3, 5, 2, 3};
  const auto obj = random_banded_objective(domains, rng);
  const auto elim = solve_by_elimination(obj);
  EXPECT_EQ(elim.steps, eq40_steps(domains));
  EXPECT_EQ(elim.cost, solve_brute_force(obj).cost);
}

TEST(Elimination, ArbitraryOrdersStayOptimal) {
  Rng rng(12);
  const auto obj = random_sparse_objective(6, 3, 7, rng);
  const auto bf = solve_brute_force(obj);
  std::vector<std::size_t> order(6);
  std::iota(order.begin(), order.end(), 0);
  // Natural, reversed, and min-degree orders all give the optimum; only the
  // step count differs.
  EXPECT_EQ(solve_by_elimination(obj, order).cost, bf.cost);
  std::reverse(order.begin(), order.end());
  EXPECT_EQ(solve_by_elimination(obj, order).cost, bf.cost);
  EXPECT_EQ(solve_by_elimination(obj, min_degree_order(obj)).cost, bf.cost);
}

TEST(Elimination, MinDegreeOrderIsPermutation) {
  Rng rng(13);
  const auto obj = random_sparse_objective(8, 2, 10, rng);
  auto order = min_degree_order(obj);
  std::sort(order.begin(), order.end());
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(Elimination, MinDegreeNeverWorseOnBandedProblems) {
  Rng rng(14);
  const auto obj = random_banded_objective(7, 3, rng);
  const auto natural = solve_by_elimination(obj);
  const auto smart = solve_by_elimination(obj, min_degree_order(obj));
  EXPECT_EQ(natural.cost, smart.cost);
  EXPECT_LE(smart.largest_table, natural.largest_table * 3);
}

TEST(Elimination, RejectsBadOrders) {
  Rng rng(15);
  const auto obj = random_banded_objective(4, 2, rng);
  EXPECT_THROW((void)solve_by_elimination(obj, {0, 1, 2}), std::invalid_argument);
  EXPECT_THROW((void)solve_by_elimination(obj, {0, 1, 2, 2}), std::invalid_argument);
}

TEST(Elimination, IsolatedVariableHandled) {
  NonserialObjective obj({2, 2});
  obj.add_term({0}, {3, 1});
  // Variable 1 appears in no term: any value is optimal, cost from var 0.
  const auto elim = solve_by_elimination(obj);
  EXPECT_EQ(elim.cost, 1);
  EXPECT_EQ(elim.assignment[0], 1u);
}

TEST(Eq40, HandValue) {
  // Uniform m, N variables: (N-2) m^3 + m^2.
  EXPECT_EQ(eq40_steps({3, 3, 3, 3, 3}), 3u * 27 + 9);
  EXPECT_THROW((void)eq40_steps({2, 2}), std::invalid_argument);
}

// ------------------------------------------------------------- grouping ---

class GroupingSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GroupingSweep, GroupedSerialProblemSolvesTheObjective) {
  const auto [n, m, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 977);
  const auto obj = random_banded_objective(static_cast<std::size_t>(n),
                                           static_cast<std::size_t>(m), rng);
  const auto grouped = group_banded_to_serial(obj);
  // Stage s holds (V_s, V_{s+1}): n-1 stages of m^2 states (eq. 41).
  EXPECT_EQ(grouped.graph.num_stages(), static_cast<std::size_t>(n - 1));
  EXPECT_EQ(grouped.graph.stage_size(0),
            static_cast<std::size_t>(m) * static_cast<std::size_t>(m));
  const auto ref = solve_multistage(grouped.graph);
  const auto bf = solve_brute_force(obj);
  EXPECT_EQ(ref.cost, bf.cost);
  // Decoded assignment reproduces the optimal value on the original
  // objective.
  EXPECT_EQ(obj.evaluate(grouped.decode(ref.path)), bf.cost);
}

INSTANTIATE_TEST_SUITE_P(Grid, GroupingSweep,
                         ::testing::Combine(::testing::Values(3, 4, 6),
                                            ::testing::Values(2, 3),
                                            ::testing::Values(1, 2, 4)));

TEST(Grouping, CompoundGraphRunsOnDesign1) {
  // The whole point of the transform: the grouped problem is serial and
  // uniform, so the systolic string-product array can solve it.
  Rng rng(21);
  const auto obj = random_banded_objective(5, 2, rng);
  const auto grouped = group_banded_to_serial(obj);
  const auto res = run_design1_shortest(grouped.graph);
  const Cost best = *std::min_element(res.values.begin(), res.values.end());
  EXPECT_EQ(best, solve_brute_force(obj).cost);
}

TEST(Grouping, PairAndUnaryTermsFoldIntoWindows) {
  Rng rng(22);
  NonserialObjective obj({2, 3, 2, 3});
  std::uniform_int_distribution<Cost> dist(0, 9);
  auto table = [&](std::size_t size) {
    std::vector<Cost> t(size);
    for (auto& c : t) c = dist(rng);
    return t;
  };
  obj.add_term({0, 1, 2}, table(12));
  obj.add_term({1, 2}, table(6));
  obj.add_term({2, 3}, table(6));
  obj.add_term({3}, table(3));
  obj.add_term({1}, table(3));
  const auto grouped = group_banded_to_serial(obj);
  const auto ref = solve_multistage(grouped.graph);
  const auto bf = solve_brute_force(obj);
  EXPECT_EQ(ref.cost, bf.cost);
  EXPECT_EQ(obj.evaluate(grouped.decode(ref.path)), bf.cost);
}

TEST(Grouping, RejectsWideTermsAndTinyProblems) {
  NonserialObjective wide({2, 2, 2, 2});
  wide.add_term({0, 3}, std::vector<Cost>(4, 0));
  EXPECT_THROW((void)group_banded_to_serial(wide), std::invalid_argument);
  NonserialObjective tiny({2, 2});
  tiny.add_term({0, 1}, std::vector<Cost>(4, 0));
  EXPECT_THROW((void)group_banded_to_serial(tiny), std::invalid_argument);
}

// ----------------------------------------------------------- serial chain -

TEST(SerialChain, ChainObjectiveBecomesMultistage) {
  Rng rng(31);
  NonserialObjective obj({3, 2, 4});
  std::uniform_int_distribution<Cost> dist(0, 9);
  std::vector<Cost> t1(6), t2(8);
  for (auto& c : t1) c = dist(rng);
  for (auto& c : t2) c = dist(rng);
  obj.add_term({0, 1}, t1);
  obj.add_term({1, 2}, t2);
  const auto chain = serial_to_multistage(obj);
  const auto ref = solve_multistage(chain.graph);
  const auto bf = solve_brute_force(obj);
  EXPECT_EQ(ref.cost, bf.cost);
  EXPECT_EQ(obj.evaluate(chain.decode(ref.path)), bf.cost);
}

TEST(SerialChain, ReversedVariableNumbering) {
  // Variables whose chain order is the reverse of their indices: the table
  // orientation logic must still map costs correctly.
  NonserialObjective obj({2, 2, 2});
  obj.add_term({1, 2}, {0, 5, 5, 0});
  obj.add_term({0, 1}, {0, 7, 7, 0});
  const auto chain = serial_to_multistage(obj);
  const auto ref = solve_multistage(chain.graph);
  EXPECT_EQ(ref.cost, 0);
  const auto assign = chain.decode(ref.path);
  EXPECT_EQ(obj.evaluate(assign), 0);
}

TEST(SerialChain, UnaryTermsFold) {
  NonserialObjective obj({2, 2});
  obj.add_term({0, 1}, {0, 0, 0, 0});
  obj.add_term({0}, {4, 1});
  obj.add_term({1}, {2, 8});
  const auto chain = serial_to_multistage(obj);
  const auto ref = solve_multistage(chain.graph);
  EXPECT_EQ(ref.cost, 3);  // v0 = 1 (1) + v1 = 0 (2)
}

TEST(SerialChain, RejectsNonserial) {
  Rng rng(32);
  const auto obj = paper_example_objective(2, rng);
  EXPECT_THROW((void)serial_to_multistage(obj), std::invalid_argument);
}

}  // namespace
}  // namespace sysdp

// Phi = max objectives (eq. 5's general monotone combiner).
namespace sysdp {
namespace {

NonserialObjective random_minimax_banded(std::size_t n, std::size_t m,
                                         Rng& rng) {
  NonserialObjective obj(std::vector<std::size_t>(n, m), Combine::kMax);
  std::uniform_int_distribution<Cost> dist(0, 99);
  for (std::size_t k = 0; k + 2 < n; ++k) {
    std::vector<Cost> table(m * m * m);
    for (auto& c : table) c = dist(rng);
    obj.add_term({k, k + 1, k + 2}, std::move(table));
  }
  return obj;
}

TEST(MinimaxObjective, EvaluateTakesTheWorstTerm) {
  NonserialObjective obj({2, 2}, Combine::kMax);
  obj.add_term({0}, {3, 10});
  obj.add_term({0, 1}, {7, 1, 2, 5});
  EXPECT_EQ(obj.evaluate({0, 0}), 7);   // max(3, 7)
  EXPECT_EQ(obj.evaluate({1, 1}), 10);  // max(10, 5)
}

class MinimaxSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MinimaxSweep, EliminationAndGroupingMatchBruteForce) {
  const auto [n, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 401 + static_cast<std::uint64_t>(n));
  const auto obj = random_minimax_banded(static_cast<std::size_t>(n), 3, rng);
  const auto bf = solve_brute_force(obj);
  // Elimination handles Phi = max directly (min distributes over max).
  const auto elim = solve_by_elimination(obj);
  EXPECT_EQ(elim.cost, bf.cost);
  EXPECT_EQ(obj.evaluate(elim.assignment), elim.cost);
  // Grouping + the (MIN,MAX) semiring sweep.
  const auto grouped = group_banded_to_serial(obj);
  ASSERT_EQ(grouped.combine, Combine::kMax);
  const auto mm = solve_multistage_minimax(grouped.graph);
  EXPECT_EQ(mm.cost, bf.cost);
  EXPECT_EQ(obj.evaluate(grouped.decode(mm.path)), bf.cost);
}

INSTANTIATE_TEST_SUITE_P(Grid, MinimaxSweep,
                         ::testing::Combine(::testing::Values(3, 4, 5, 6),
                                            ::testing::Values(1, 2, 3)));

TEST(MinimaxObjective, DispatcherRoutesToMinimaxSweep) {
  Rng rng(7);
  const auto obj = random_minimax_banded(5, 2, rng);
  const auto rep = solve_objective(obj);
  EXPECT_NE(rep.method.find("(MIN,MAX)"), std::string::npos);
  EXPECT_EQ(rep.cost, solve_brute_force(obj).cost);
}

TEST(MinimaxObjective, SerialChainRejectsMaxCombiner) {
  NonserialObjective obj({2, 2}, Combine::kMax);
  obj.add_term({0, 1}, std::vector<Cost>(4, 0));
  EXPECT_THROW((void)serial_to_multistage(obj), std::invalid_argument);
}

TEST(MinimaxObjective, MinimaxSolverStandalone) {
  // Hand-checkable: two paths, bottlenecks 7 and 9.
  MultistageGraph g(3, 1);
  g.set_edge(0, 0, 0, 7);
  g.set_edge(1, 0, 0, 3);
  EXPECT_EQ(solve_multistage_minimax(g).cost, 7);
  Rng rng(9);
  const auto big = random_multistage(6, 4, rng);
  const auto res = solve_multistage_minimax(big);
  // The reported path's bottleneck equals the reported cost.
  Cost worst = kNegInfCost;
  for (std::size_t k = 0; k + 1 < 6; ++k) {
    worst = std::max(worst, big.edge(k, res.path[k], res.path[k + 1]));
  }
  EXPECT_EQ(worst, res.cost);
}

}  // namespace
}  // namespace sysdp
