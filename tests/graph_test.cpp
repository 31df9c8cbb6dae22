// Tests for multistage graphs, node-value graphs, generators, and
// interaction graphs.
#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "graph/interaction_graph.hpp"
#include "graph/multistage_graph.hpp"
#include "graph/node_value_graph.hpp"

namespace sysdp {
namespace {

// ------------------------------------------------- multistage graph -------

TEST(MultistageGraph, ConstructionDefaults) {
  MultistageGraph g(4, 3);
  EXPECT_EQ(g.num_stages(), 4u);
  EXPECT_EQ(g.stage_size(2), 3u);
  EXPECT_TRUE(g.uniform_width());
  EXPECT_TRUE(is_inf(g.edge(0, 0, 0)));  // disconnected by default
  EXPECT_EQ(g.num_finite_edges(), 0u);
}

TEST(MultistageGraph, PerStageSizes) {
  MultistageGraph g(std::vector<std::size_t>{1, 3, 3, 1});
  EXPECT_FALSE(g.uniform_width());
  EXPECT_EQ(g.costs(0).rows(), 1u);
  EXPECT_EQ(g.costs(0).cols(), 3u);
  EXPECT_EQ(g.costs(2).cols(), 1u);

  // The same shape from its matrix string.
  const MultistageGraph h(std::vector<Matrix<Cost>>{
      Matrix<Cost>(1, 3, Cost{5}), Matrix<Cost>(3, 3, kInfCost),
      Matrix<Cost>(3, 1, Cost{0})});
  EXPECT_EQ(h.stage_sizes(), g.stage_sizes());
  EXPECT_EQ(h.edge(0, 0, 2), 5);
}

TEST(MultistageGraph, RejectsDegenerate) {
  EXPECT_THROW(MultistageGraph(std::vector<std::size_t>{3}),
               std::invalid_argument);
  EXPECT_THROW(MultistageGraph(std::vector<std::size_t>{3, 0, 3}),
               std::invalid_argument);
  EXPECT_THROW(MultistageGraph(std::vector<Matrix<Cost>>{}),
               std::invalid_argument);
  EXPECT_THROW(MultistageGraph(std::vector<Matrix<Cost>>{
                   Matrix<Cost>(1, 3), Matrix<Cost>(2, 1)}),
               std::invalid_argument);  // 3 columns feed 2 rows
  EXPECT_THROW(MultistageGraph(std::vector<Matrix<Cost>>{Matrix<Cost>(1, 0)}),
               std::invalid_argument);  // empty stage
}

TEST(MultistageGraph, PathCost) {
  MultistageGraph g(3, 2);
  g.set_edge(0, 0, 1, 5);
  g.set_edge(1, 1, 0, 7);
  EXPECT_EQ(g.path_cost({0, 1, 0}), 12);
  EXPECT_TRUE(is_inf(g.path_cost({0, 0, 0})));  // missing edge
  EXPECT_TRUE(is_inf(g.path_cost({0, 1})));     // wrong length
}

TEST(MultistageGraph, EdgeCounting) {
  MultistageGraph g(3, 2);
  g.set_edge(0, 0, 0, 1);
  g.set_edge(1, 1, 1, 2);
  EXPECT_EQ(g.num_finite_edges(), 2u);
}

// ------------------------------------------------- node-value graph -------

TEST(NodeValueGraph, MaterializeAppliesCostFn) {
  NodeValueGraph nv({{1, 5}, {2, 9}}, [](Cost u, Cost v) { return v - u; });
  const auto g = nv.materialize();
  EXPECT_EQ(g.edge(0, 0, 0), 1);   // 2 - 1
  EXPECT_EQ(g.edge(0, 1, 1), 4);   // 9 - 5
}

TEST(NodeValueGraph, IoScalarCounts) {
  NodeValueGraph nv({{1, 2, 3}, {4, 5, 6}, {7, 8, 9}},
                    [](Cost, Cost) { return 0; });
  EXPECT_EQ(nv.input_scalars(), 9u);    // 3 stages x 3 node values
  EXPECT_EQ(nv.edge_scalars(), 18u);    // 2 transitions x 9 edges
}

TEST(NodeValueGraph, RejectsBadInput) {
  EXPECT_THROW(NodeValueGraph({{1, 2}}, [](Cost, Cost) { return 0; }),
               std::invalid_argument);
  EXPECT_THROW(NodeValueGraph({{1}, {}}, [](Cost, Cost) { return 0; }),
               std::invalid_argument);
  EXPECT_THROW(NodeValueGraph({{1}, {2}}, EdgeCostFn{}),
               std::invalid_argument);
}

// -------------------------------------------------------- generators ------

TEST(Generators, RandomGraphIsReproducible) {
  Rng a(123), b(123);
  const auto g1 = random_multistage(5, 4, a);
  const auto g2 = random_multistage(5, 4, b);
  for (std::size_t k = 0; k + 1 < 5; ++k) {
    EXPECT_TRUE(g1.costs(k) == g2.costs(k));
  }
}

TEST(Generators, SparseKeepsFeasibleSpine) {
  Rng rng(99);
  // Even dropping 90% of edges, a full path must survive.
  const auto g = random_sparse_multistage(10, 4, rng, 900);
  bool found = false;
  // The spine guarantees at least one finite edge per transition.
  for (std::size_t k = 0; k + 1 < g.num_stages(); ++k) {
    bool any = false;
    for (std::size_t i = 0; i < 4 && !any; ++i) {
      for (std::size_t j = 0; j < 4 && !any; ++j) {
        any = !is_inf(g.edge(k, i, j));
      }
    }
    found = any;
    EXPECT_TRUE(any) << "transition " << k;
  }
  EXPECT_TRUE(found);
}

TEST(Generators, SingleSourceSinkWrapper) {
  Rng rng(5);
  const auto inner = random_multistage(3, 4, rng);
  const auto g = with_single_source_sink(inner);
  EXPECT_EQ(g.num_stages(), 5u);
  EXPECT_EQ(g.stage_size(0), 1u);
  EXPECT_EQ(g.stage_size(4), 1u);
  EXPECT_EQ(g.edge(0, 0, 2), 0);  // free fan-out from the source
  EXPECT_TRUE(g.costs(1) == inner.costs(0));
}

TEST(Generators, ApplicationInstancesHaveDocumentedShape) {
  Rng rng(1);
  const auto traffic = traffic_control_instance(6, 5, rng);
  EXPECT_EQ(traffic.num_stages(), 6u);
  EXPECT_TRUE(traffic.uniform_width());
  // Timing-difference costs are symmetric and nonnegative.
  EXPECT_GE(traffic.edge_cost(0, 0, 1), 0);

  const auto circuit = circuit_design_instance(4, 3, rng);
  // Quadratic dissipation is nonnegative.
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_GE(circuit.edge_cost(1, i, j), 0);
    }
  }

  const auto fluid = fluid_flow_instance(4, 3, rng);
  // A pressure drop costs at least as much as the equivalent rise.
  const Cost rise = fluid.cost_fn()(10, 20);
  const Cost drop = fluid.cost_fn()(20, 10);
  EXPECT_EQ(rise, 10);
  EXPECT_EQ(drop, 50);

  const auto sched = scheduling_instance(4, 3, rng);
  EXPECT_EQ(sched.cost_fn()(10, 4), 10);  // 6 queueing + 4 service
}

TEST(Generators, ChainDims) {
  Rng rng(2);
  const auto dims = random_chain_dims(6, rng, 1, 9);
  EXPECT_EQ(dims.size(), 7u);
  for (Cost d : dims) {
    EXPECT_GE(d, 1);
    EXPECT_LE(d, 9);
  }
}

// -------------------------------------------------- interaction graph -----

TEST(InteractionGraph, SerialChainDetected) {
  InteractionGraph ig(4);
  ig.add_term({0, 1});
  ig.add_term({1, 2});
  ig.add_term({2, 3});
  EXPECT_TRUE(ig.is_serial());
  EXPECT_TRUE(ig.is_simple_path());
  EXPECT_EQ(ig.path_order(), (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(InteractionGraph, PathOrderFromScrambledChain) {
  InteractionGraph ig(4);
  ig.add_term({2, 3});
  ig.add_term({0, 3});
  ig.add_term({1, 2});
  // Chain is 0 - 3 - 2 - 1.
  EXPECT_TRUE(ig.is_serial());
  const auto order = ig.path_order();
  ASSERT_EQ(order.size(), 4u);
  for (std::size_t i = 0; i + 1 < order.size(); ++i) {
    EXPECT_TRUE(ig.adjacent(order[i], order[i + 1]));
  }
}

TEST(InteractionGraph, BranchingIsNotSerial) {
  InteractionGraph ig(4);
  ig.add_term({0, 1});
  ig.add_term({0, 2});
  ig.add_term({0, 3});
  EXPECT_FALSE(ig.is_serial());
}

TEST(InteractionGraph, TernaryTermIsNotSerial) {
  InteractionGraph ig(3);
  ig.add_term({0, 1, 2});
  EXPECT_EQ(ig.max_arity(), 3u);
  EXPECT_FALSE(ig.is_serial());
}

TEST(InteractionGraph, CycleIsNotSerial) {
  InteractionGraph ig(3);
  ig.add_term({0, 1});
  ig.add_term({1, 2});
  ig.add_term({0, 2});
  EXPECT_FALSE(ig.is_simple_path());
}

TEST(InteractionGraph, TwoComponentsNotSerial) {
  InteractionGraph ig(4);
  ig.add_term({0, 1});
  ig.add_term({2, 3});
  EXPECT_EQ(ig.num_components(), 2u);
  EXPECT_FALSE(ig.is_simple_path());
}

TEST(InteractionGraph, PaperExampleIsNonserial) {
  // g1(X1,X2,X4) + g2(X3,X4) + g3(X2,X5) from Section 2.2 (0-based).
  InteractionGraph ig(5);
  ig.add_term({0, 1, 3});
  ig.add_term({2, 3});
  ig.add_term({1, 4});
  EXPECT_FALSE(ig.is_serial());
  EXPECT_EQ(ig.num_components(), 1u);
}

TEST(InteractionGraph, Bandwidth) {
  InteractionGraph ig(5);
  ig.add_term({0, 1, 2});
  ig.add_term({2, 3, 4});
  EXPECT_EQ(ig.bandwidth(), 2u);
  ig.add_term({0, 4});
  EXPECT_EQ(ig.bandwidth(), 4u);
}

TEST(InteractionGraph, NoTermsIsTriviallySerial) {
  InteractionGraph ig(3);
  EXPECT_TRUE(ig.is_serial());
  EXPECT_EQ(ig.path_order(), (std::vector<std::size_t>{0, 1, 2}));
}

TEST(InteractionGraph, OutOfRangeTermThrows) {
  InteractionGraph ig(2);
  EXPECT_THROW(ig.add_term({0, 2}), std::out_of_range);
}

}  // namespace
}  // namespace sysdp
