// Structural reproductions of the paper's illustrative figures and worked
// examples (Figures 1, 2, 7, 8; the eq. 7/8 example; Section 6.2 walk-
// through).  These pin the library to the paper's concrete numbers.
#include <gtest/gtest.h>

#include <algorithm>

#include "andor/chain_builder.hpp"
#include "andor/level_schedule.hpp"
#include "andor/regular_builder.hpp"
#include "andor/serialize.hpp"
#include "arrays/design1_pipeline.hpp"
#include "arrays/design2_broadcast.hpp"
#include "arrays/graph_adapter.hpp"
#include "arrays/paper_metrics.hpp"
#include "arrays/triangular_array.hpp"
#include "baseline/matrix_chain.hpp"
#include "baseline/multistage_dp.hpp"
#include "graph/generators.hpp"

namespace sysdp {
namespace {

/// Figure 1(a): 5 stages — source s, three width-3 stages A, B, C, sink t.
MultistageGraph figure_1a() {
  Rng rng(20250707);
  return with_single_source_sink(random_multistage(3, 3, rng));
}

TEST(Figure1a, StringProductFormMatchesEq8) {
  const auto g = figure_1a();
  const auto prob = to_string_product(g);
  // Eq. (8): f(A) = A . (B . (C . D)) — a 1x3 row matrix, two 3x3
  // matrices, and the 3-vector D.
  ASSERT_EQ(prob.mats.size(), 3u);
  EXPECT_EQ(prob.mats[0].rows(), 1u);
  EXPECT_EQ(prob.mats[1].rows(), 3u);
  EXPECT_EQ(prob.v.size(), 3u);
  // Eq. (7): f(C_1) is the elementwise min-plus inner product.
  const auto fc = mat_vec<MinPlus>(prob.mats[2], prob.v);
  for (std::size_t i = 0; i < 3; ++i) {
    Cost expect = kInfCost;
    for (std::size_t j = 0; j < 3; ++j) {
      expect = std::min(expect, sat_add(g.edge(2, i, j), g.edge(3, j, 0)));
    }
    EXPECT_EQ(fc[i], expect);
  }
}

TEST(Figure1a, NineIterationsOfThreeMultiplies) {
  // Three multiplies of width 3: the array is busy 3 x 3 iterations per PE
  // (the paper's N*m count also bills the initial load of D; see
  // EXPERIMENTS.md).
  const auto g = figure_1a();
  const auto prob = to_string_product(g);
  Design1Pipeline<MinPlus> arr(prob.mats, prob.v);
  EXPECT_EQ(arr.iterations(), 9u);
  const auto res = arr.run();
  EXPECT_EQ(res.values[0], solve_multistage(g).cost);
}

TEST(Figure1b, FourStagesThreeValues) {
  // Figure 1(b): 4 variables x 3 quantised values; Design 3 finishes in 15
  // iterations (checked in design3_test); here: the multistage form and the
  // eq. (4) objective agree.
  Rng rng(4);
  const auto nv = traffic_control_instance(4, 3, rng);
  const auto g = nv.materialize();
  EXPECT_EQ(g.num_stages(), 4u);
  EXPECT_TRUE(g.uniform_width());
  // min over X of sum g_i equals the multistage shortest path.
  Cost brute = kInfCost;
  for (std::size_t a = 0; a < 3; ++a)
    for (std::size_t b = 0; b < 3; ++b)
      for (std::size_t c = 0; c < 3; ++c)
        for (std::size_t d = 0; d < 3; ++d)
          brute = std::min(brute, g.path_cost({a, b, c, d}));
  EXPECT_EQ(solve_multistage(g).cost, brute);
}

TEST(Figure2, FourMatrixAndOrGraphWalkthrough) {
  // Section 2.2: the top OR-node of M1 x M2 x M3 x M4 has exactly three
  // AND alternatives — (M1 M2 M3)(M4), (M1 M2)(M3 M4), (M1)(M2 M3 M4).
  const std::vector<Cost> dims{2, 3, 4, 5, 6};
  const auto chain = build_chain_andor(dims);
  const auto& root = chain.graph.node(chain.root);
  EXPECT_EQ(root.type, AndOrType::kOr);
  EXPECT_EQ(root.children.size(), 3u);
  for (std::size_t c : root.children) {
    EXPECT_EQ(chain.graph.node(c).type, AndOrType::kAnd);
    EXPECT_EQ(chain.graph.node(c).children.size(), 2u);
  }
  EXPECT_EQ(chain.solve(), matrix_chain_order(dims).total());
}

TEST(Figure7, TwoWayPartitionOfThreeStageProblem) {
  // Figure 7: m = 2, p = 2, reduction of a (4+1)-stage problem... the
  // figure shows one reduction round of a 2-segment graph: 2 segments of
  // 4 leaf costs, 4 OR-nodes on top, each with m^{p-1} = 2 AND-nodes.
  Rng rng(7);
  const auto g = random_multistage(3, 2, rng);  // 2 segments
  const auto reg = build_regular_andor(g, 2);
  EXPECT_EQ(reg.graph.count(AndOrType::kLeaf), 8u);   // p * m^2
  EXPECT_EQ(reg.graph.count(AndOrType::kOr), 4u);     // m^2
  EXPECT_EQ(reg.graph.count(AndOrType::kAnd), 8u);    // m^2 * m^{p-1}
  EXPECT_EQ(reg.graph.size(), u_formula(2, 2, 2));
  // "The shortest path is obtained by a single comparison of these paths":
  const auto vals = reg.graph.evaluate();
  Cost best = kInfCost;
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 2; ++j)
      best = std::min(best, vals[reg.top_id(i, j)]);
  EXPECT_EQ(best, solve_multistage(g).cost);
}

TEST(Figure8, SerializedFourMatrixGraph) {
  // Figure 8 adds dotted dummy chains to the Figure 2 graph so every arc
  // connects adjacent levels; the pipelined schedule then needs 2N = 8
  // time units instead of N = 4 (Propositions 2 and 3).
  const std::vector<Cost> dims{2, 3, 4, 5, 6};
  const auto chain = build_chain_andor(dims);
  const auto ser = serialize_andor(chain.graph);
  EXPECT_TRUE(ser.graph.is_serial());
  EXPECT_GT(ser.dummies_added, 0u);
  EXPECT_EQ(simulate_chain_broadcast(4).completion, 4u);
  EXPECT_EQ(simulate_chain_pipelined(4).completion, 8u);
}

TEST(Section6_2, ChainArrayMatchesSerializedTiming) {
  // "the derived structure is the same as that proposed by Guibas et al.":
  // the triangular array completes in Theta(N) wavefronts; its measured
  // completion grows linearly like T_p and never beats the broadcast bound.
  Rng rng(8);
  std::vector<sim::Cycle> completions;
  for (std::size_t n : {4u, 8u, 16u, 32u, 64u}) {
    const auto dims = random_chain_dims(n, rng);
    const auto res = run_chain_array(dims);
    EXPECT_EQ(res.total(), matrix_chain_order(dims).total());
    EXPECT_GE(res.completion(), t_broadcast(n) - 1);   // cannot beat T_d
    EXPECT_LE(res.completion(), t_pipelined(n));       // within the 2N bound
    completions.push_back(res.completion());
  }
  // Linear growth: doubling n roughly doubles the completion time.
  for (std::size_t i = 1; i < completions.size(); ++i) {
    const double ratio = static_cast<double>(completions[i]) /
                         static_cast<double>(completions[i - 1]);
    EXPECT_GT(ratio, 1.5);
    EXPECT_LT(ratio, 2.5);
  }
}

TEST(Eq9, PaperPuExpressionAlgebra) {
  // PU = (N-2)/N + 1/(N m) in the paper's own split form.
  for (std::uint64_t N : {4u, 10u, 100u}) {
    for (std::uint64_t m : {2u, 8u}) {
      const double lhs = analytic_pu_design12(N, m);
      const double rhs = (static_cast<double>(N) - 2.0) / static_cast<double>(N) +
                         1.0 / (static_cast<double>(N) * static_cast<double>(m));
      EXPECT_DOUBLE_EQ(lhs, rhs);
    }
  }
}

}  // namespace
}  // namespace sysdp
