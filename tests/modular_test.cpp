// Tests for the distributed-control Design 1, the resource-allocation
// workload, random-DAG serialisation fuzzing, and the GKT cells' operand
// buffers and completion bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "andor/andor_graph.hpp"
#include "andor/search.hpp"
#include "andor/serialize.hpp"
#include "arrays/design1_modular.hpp"
#include "arrays/design1_pipeline.hpp"
#include "arrays/graph_adapter.hpp"
#include "baseline/multistage_dp.hpp"
#include "graph/generators.hpp"

namespace sysdp {
namespace {

// -------------------------------------- distributed-control Design 1 ------

class Design1ModularSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(Design1ModularSweep, LocalControlMatchesGlobalScheduleExactly) {
  const auto [q, m, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 48271u +
          static_cast<std::uint64_t>(q * 100 + m));
  const auto mats = random_matrix_string(static_cast<std::size_t>(q),
                                         static_cast<std::size_t>(m), rng);
  std::vector<Cost> v(static_cast<std::size_t>(m));
  std::uniform_int_distribution<Cost> dist(0, 99);
  for (auto& x : v) x = dist(rng);
  Design1Pipeline<MinPlus> mono(mats, v);
  Design1Modular modular(mats, v);
  const auto a = mono.run();
  const auto b = modular.run();
  EXPECT_EQ(a.values, b.values);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.busy_steps, b.busy_steps);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, Design1ModularSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 7),
                       ::testing::Values(1, 2, 4, 6),
                       ::testing::Values(1, 2)));

TEST(Design1Modular, RectangularFinalMatrix) {
  Rng rng(5);
  const auto g = with_single_source_sink(random_multistage(4, 3, rng));
  auto prob = to_string_product(g);
  Design1Modular modular(prob.mats, prob.v);
  const auto res = modular.run();
  ASSERT_EQ(res.values.size(), 1u);
  EXPECT_EQ(res.values[0], solve_multistage(g).cost);
}

TEST(Design1Modular, RejectsBadShapes) {
  std::vector<Cost> v(2, 0);
  EXPECT_THROW(Design1Modular({}, v), std::invalid_argument);
  EXPECT_THROW(Design1Modular({Matrix<Cost>(2, 3, 0)}, v),
               std::invalid_argument);
}

// ------------------------------------------------ resource allocation -----

TEST(ResourceAllocation, MaxPlusOptimumMatchesExhaustiveSearch) {
  Rng rng(7);
  const std::size_t activities = 3, budget = 5;
  const auto g = resource_allocation_instance(activities, budget, rng);
  std::vector<Cost> v(budget + 1, MaxPlus::one());
  Design1Pipeline<MaxPlus> arr(g.matrix_string(), v);
  const auto res = arr.run();
  const Cost best = *std::max_element(res.values.begin(), res.values.end());

  // Exhaustive: every split of the budget across 3 activities.
  Cost brute = kNegInfCost;
  for (std::size_t a = 0; a <= budget; ++a) {
    for (std::size_t b = 0; a + b <= budget; ++b) {
      for (std::size_t c = 0; a + b + c <= budget; ++c) {
        const Cost p = sat_add(
            sat_add(g.edge(0, 0, a), g.edge(1, a, a + b)),
            g.edge(2, a + b, a + b + c));
        brute = std::max(brute, p);
      }
    }
  }
  EXPECT_EQ(best, brute);
}

TEST(ResourceAllocation, MonotoneInBudget) {
  // A bigger budget can never reduce the optimal profit (all marginals are
  // nonnegative).
  Cost prev = 0;
  for (const std::size_t budget : {2u, 4u, 8u, 12u}) {
    Rng rng(99);  // same activity tables per run (same seed, same order)
    const auto g = resource_allocation_instance(4, budget, rng);
    std::vector<Cost> v(budget + 1, MaxPlus::one());
    Design1Pipeline<MaxPlus> arr(g.matrix_string(), v);
    const auto res = arr.run();
    const Cost best =
        *std::max_element(res.values.begin(), res.values.end());
    EXPECT_GE(best, prev) << "budget=" << budget;
    prev = best;
  }
}

TEST(ResourceAllocation, InfeasibleTransitionsAreNegInf) {
  Rng rng(8);
  const auto g = resource_allocation_instance(2, 3, rng);
  EXPECT_TRUE(is_neg_inf(g.edge(1, 2, 1)));  // cannot un-spend budget
  EXPECT_FALSE(is_neg_inf(g.edge(1, 1, 3)));
}

// ---------------------------------------- random-DAG serialise fuzzing ----

/// Random layered AND/OR DAG: `layers` levels with level-skipping arcs, a
/// mix of AND/OR/dummy nodes — much wilder than the chain graphs the
/// serialisation was designed around.
AndOrGraph random_layered_andor(std::size_t layers, std::size_t per_layer,
                                Rng& rng) {
  AndOrGraph g;
  std::uniform_int_distribution<Cost> leaf(0, 50);
  std::uniform_int_distribution<int> type(0, 2);
  std::vector<std::vector<std::size_t>> by_level(layers);
  for (std::size_t i = 0; i < per_layer; ++i) {
    by_level[0].push_back(g.add_leaf(leaf(rng), 0));
  }
  for (std::size_t l = 1; l < layers; ++l) {
    for (std::size_t i = 0; i < per_layer; ++i) {
      // Pick 1-3 children from any strictly lower level.
      std::uniform_int_distribution<std::size_t> lvl(0, l - 1);
      std::uniform_int_distribution<std::size_t> node(0, per_layer - 1);
      std::vector<std::size_t> children;
      const std::size_t fanin = 1 + node(rng) % 3;
      for (std::size_t f = 0; f < fanin; ++f) {
        children.push_back(by_level[lvl(rng)][node(rng)]);
      }
      switch (type(rng)) {
        case 0:
          by_level[l].push_back(g.add_and(std::move(children), leaf(rng), l));
          break;
        case 1:
          by_level[l].push_back(g.add_or(std::move(children), l));
          break;
        default:
          by_level[l].push_back(g.add_dummy(children.front(), l));
          break;
      }
    }
  }
  return g;
}

TEST(SerializeFuzz, RandomDagsStaySerialAndValuePreserving) {
  for (int seed = 0; seed < 25; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) * 69621u + 1);
    const auto g = random_layered_andor(6, 4, rng);
    const auto ser = serialize_andor(g);
    EXPECT_TRUE(ser.graph.is_serial()) << "seed=" << seed;
    const auto before = g.evaluate();
    const auto after = ser.graph.evaluate();
    for (std::size_t i = 0; i < g.size(); ++i) {
      EXPECT_EQ(after[ser.remap[i]], before[i])
          << "seed=" << seed << " node=" << i;
    }
    // Top-down search agrees on an arbitrary root as well.
    const std::size_t root = g.size() - 1;
    EXPECT_EQ(solve_top_down(ser.graph, ser.remap[root]).value,
              solve_top_down(g, root).value)
        << "seed=" << seed;
  }
}

}  // namespace
}  // namespace sysdp

// The GKT cells' physical limits: how deep a cell's operand staging grows
// and how soon the top cell completes.
#include "arrays/gkt_modular.hpp"

namespace sysdp {
namespace {

TEST(GktModular, OperandBuffersStayShallow) {
  // The per-cell staging requirement grows with the cell's candidate count
  // but stays far below the n operands a naive design would need.
  Rng rng(9);
  const auto small = GktModularArray(random_chain_dims(8, rng)).run();
  const auto large = GktModularArray(random_chain_dims(48, rng)).run();
  EXPECT_GE(large.peak_operand_buffer, small.peak_operand_buffer);
  EXPECT_LE(large.peak_operand_buffer, 96u);  // O(n), not O(n^2)
}

TEST(GktModular, CompletionWithinProposition3Bound) {
  Rng rng(10);
  for (std::size_t n : {4u, 16u, 64u}) {
    const auto res = GktModularArray(random_chain_dims(n, rng)).run();
    EXPECT_LE(res.completion(), 2 * n);
    EXPECT_GE(res.completion() + 2, 2 * n);  // tight: 2n - 2
  }
}

}  // namespace
}  // namespace sysdp
