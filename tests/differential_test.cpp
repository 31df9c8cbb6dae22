// Randomised differential testing: every route through the library is run
// on the same seeded instances and all answers must coincide.  These are
// the widest-net invariants — any disagreement anywhere in the stack
// (semiring ops, array timing, schedules, transforms) surfaces here even if
// the focused suites missed it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>

#include "andor/chain_builder.hpp"
#include "andor/pipeline_array.hpp"
#include "andor/regular_builder.hpp"
#include "andor/search.hpp"
#include "andor/stage_reduction.hpp"
#include "arrays/design1_modular.hpp"
#include "arrays/design2_modular.hpp"
#include "arrays/design3_feedback.hpp"
#include "arrays/design3_modular.hpp"
#include "arrays/gkt_modular.hpp"
#include "arrays/graph_adapter.hpp"
#include "arrays/triangular_array.hpp"
#include "arrays/triangular_modular.hpp"
#include "compile/engine.hpp"
#include "compile/lower.hpp"
#include "baseline/matrix_chain.hpp"
#include "baseline/multistage_dp.hpp"
#include "core/solver.hpp"
#include "dnc/dataflow.hpp"
#include "dnc/schedule.hpp"
#include "graph/generators.hpp"
#include "nonserial/elimination.hpp"
#include "nonserial/grouping.hpp"
#include "nonserial/nonserial_generators.hpp"

namespace sysdp {
namespace {

class MultistageDifferential : public ::testing::TestWithParam<int> {};

TEST_P(MultistageDifferential, SevenRoutesOneOptimum) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 2654435761u);
  std::uniform_int_distribution<std::size_t> stage_dist(3, 9);
  std::uniform_int_distribution<std::size_t> width_dist(2, 6);
  const std::size_t stages = stage_dist(rng);
  const std::size_t width = width_dist(rng);
  const auto g = random_sparse_multistage(stages, width, rng, 300);

  const Cost baseline = solve_multistage(g).cost;

  // 1. Design 1 pipelined array.
  const auto d1 = run_design1_shortest(g);
  EXPECT_EQ(*std::min_element(d1.values.begin(), d1.values.end()), baseline);
  // 2. Design 1 with path registers: path reproduces the optimum.
  const auto d1p = run_design1_shortest_with_path(g);
  EXPECT_EQ(d1p.cost, baseline);
  EXPECT_EQ(g.path_cost(d1p.path), baseline);
  // 3. Design 2 broadcast array.
  const auto d2 = run_design2_shortest(g);
  EXPECT_EQ(*std::min_element(d2.values.begin(), d2.values.end()), baseline);
  // 4. Modular Design 2 on the simulation engine.
  {
    auto prob = to_string_product(g);
    Design2Modular modular(prob.mats, prob.v);
    const auto res = modular.run();
    EXPECT_EQ(*std::min_element(res.values.begin(), res.values.end()),
              baseline);
  }
  // 5. Backward formulation.
  const auto bwd = run_design1_backward(g);
  EXPECT_EQ(*std::min_element(bwd.values.begin(), bwd.values.end()),
            baseline);
  // 6. Divide-and-conquer string product on several array counts.
  for (const std::uint64_t k : {1u, 3u}) {
    OpCount ops;
    const auto all = execute_dnc(g.matrix_string(), k, &ops);
    Cost best = kInfCost;
    for (std::size_t i = 0; i < all.rows(); ++i) {
      for (std::size_t j = 0; j < all.cols(); ++j) {
        best = std::min(best, all(i, j));
      }
    }
    EXPECT_EQ(best, baseline) << "k=" << k;
  }
  // 7. Optimal stage reduction (secondary optimisation order).
  {
    const auto plan = plan_stage_reduction(g.stage_sizes());
    const auto reduced = reduce_stages(g, plan.elimination_order);
    Cost best = kInfCost;
    for (std::size_t i = 0; i < reduced.rows(); ++i) {
      for (std::size_t j = 0; j < reduced.cols(); ++j) {
        best = std::min(best, reduced(i, j));
      }
    }
    EXPECT_EQ(best, baseline);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultistageDifferential,
                         ::testing::Range(1, 21));

class ChainDifferential : public ::testing::TestWithParam<int> {};

TEST_P(ChainDifferential, SixRoutesOneOptimum) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 40503u + 7);
  std::uniform_int_distribution<std::size_t> n_dist(2, 14);
  const std::size_t n = n_dist(rng);
  const auto dims = random_chain_dims(n, rng);

  const Cost baseline = matrix_chain_order(dims).total();

  // 1. Bottom-up AND/OR-graph evaluation (Figure 2).
  const auto chain = build_chain_andor(dims);
  EXPECT_EQ(chain.solve(), baseline);
  // 2. Top-down memoised search with solution-tree extraction.
  const auto td = solve_top_down(chain.graph, chain.root);
  EXPECT_EQ(td.value, baseline);
  // 3. GKT triangular array (the chain rule on the cell array).
  EXPECT_EQ(GktModularArray(dims).run().total(), baseline);
  // 4. Clocked serialised array (Proposition 3 machine).
  EXPECT_EQ(SerializedChainArray(dims).run().total(), baseline);
  // 5. The façade.
  EXPECT_EQ(solve_chain_order(dims).cost, baseline);
  // 6. Dataflow execution of the optimal order performs exactly `baseline`
  //    scalar operations.
  const auto flow =
      execute_chain_dataflow(dims, matrix_chain_order(dims).split, 2);
  EXPECT_EQ(flow.scalar_ops, static_cast<std::uint64_t>(baseline));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChainDifferential, ::testing::Range(1, 21));

class ObjectiveDifferential : public ::testing::TestWithParam<int> {};

TEST_P(ObjectiveDifferential, BandedObjectiveFourRoutes) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 11939u + 3);
  std::uniform_int_distribution<std::size_t> n_dist(3, 6);
  std::uniform_int_distribution<std::size_t> m_dist(2, 4);
  const auto obj = random_banded_objective(n_dist(rng), m_dist(rng), rng);

  const Cost baseline = solve_brute_force(obj).cost;
  EXPECT_EQ(solve_by_elimination(obj).cost, baseline);
  EXPECT_EQ(solve_by_elimination(obj, min_degree_order(obj)).cost, baseline);
  const auto grouped = group_banded_to_serial(obj);
  EXPECT_EQ(solve_multistage(grouped.graph).cost, baseline);
  const auto rep = solve_objective(obj);
  EXPECT_EQ(rep.cost, baseline);
  EXPECT_EQ(obj.evaluate(rep.assignment), baseline);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ObjectiveDifferential,
                         ::testing::Range(1, 16));

class RegularAndOrDifferential : public ::testing::TestWithParam<int> {};

TEST_P(RegularAndOrDifferential, ReductionGraphMatchesMatrixProducts) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7933u);
  std::uniform_int_distribution<int> p_dist(2, 3);
  const std::size_t p = static_cast<std::size_t>(p_dist(rng));
  const std::size_t n_seg = p * p;
  const auto g = random_multistage(n_seg + 1, 2, rng);
  const auto reg = build_regular_andor(g, p);
  const auto values = reg.graph.evaluate();
  const auto expect = stage_pair_costs(g, 0, n_seg);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 2; ++j) {
      EXPECT_EQ(values[reg.top_id(i, j)], expect(i, j));
    }
  }
  // Top-down search over the same graph agrees per entry.
  const auto td = solve_top_down(reg.graph, reg.top_id(0, 0));
  EXPECT_EQ(td.value, expect(0, 0));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegularAndOrDifferential,
                         ::testing::Range(1, 11));

class SequentialControlDifferential : public ::testing::TestWithParam<int> {};

TEST_P(SequentialControlDifferential, Design3AgreesWithMaterializedSweep) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104537u);
  std::uniform_int_distribution<std::size_t> n_dist(3, 10);
  std::uniform_int_distribution<std::size_t> m_dist(2, 6);
  std::uniform_int_distribution<int> kind(0, 6);
  const std::size_t n = n_dist(rng);
  const std::size_t m = m_dist(rng);
  NodeValueGraph nv = [&]() {
    switch (kind(rng)) {
      case 0: return traffic_control_instance(n, m, rng);
      case 1: return circuit_design_instance(n, m, rng);
      case 2: return fluid_flow_instance(n, m, rng);
      case 3: return scheduling_instance(n, m, rng);
      case 4: return inventory_instance(n, m, rng);
      case 5: return tracking_instance(n, m, rng);
      default: return production_instance(n, m, rng);
    }
  }();
  Design3Feedback arr(nv);
  const auto res = arr.run();
  const auto g = nv.materialize();
  EXPECT_EQ(res.cost, solve_multistage(g).cost);
  if (!is_inf(res.cost)) {
    EXPECT_EQ(g.path_cost(res.path), res.cost);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SequentialControlDifferential,
                         ::testing::Range(1, 26));

// ------------------------------- compiled backend vs interpreted engine ---

// Every interpreted engine configuration the compiled tape is checked
// against: dense and activity-gated.  The tape is lowered once per
// instance; each configuration's interpreted run must reproduce its
// outputs exactly.
constexpr sim::Gating kEngineConfigs[] = {sim::Gating::kDense,
                                          sim::Gating::kSparse};

std::pair<std::vector<Matrix<Cost>>, std::vector<Cost>> string_instance(
    std::size_t q, std::size_t m, std::uint64_t seed) {
  Rng rng(seed);
  auto mats = random_matrix_string(q, m, rng);
  std::vector<Cost> v(m);
  std::uniform_int_distribution<Cost> dist(0, 99);
  for (auto& x : v) x = dist(rng);
  return {std::move(mats), std::move(v)};
}

/// Lower a fresh array and validate the tape by a checked replay (every
/// op compared against the oracle's recorded value).  Returns the lowered
/// program; callers build their own CompiledEngine on it for output
/// comparisons.
template <typename MakeArray>
compile::Lowered lower_checked(MakeArray&& make) {
  auto arr = make();
  auto low = compile::lower_array(arr);
  compile::CompiledEngine ce(low.net);
  const auto div = ce.run_all_checked();
  EXPECT_FALSE(div.found) << "op " << div.index << " got " << div.got
                          << " expected " << div.expected;
  EXPECT_FALSE(ce.verify_outputs().found);
  return low;
}

TEST(CompiledDifferential, Design1AllEngineConfigs) {
  const auto [mats, v] = string_instance(3, 8, 311);
  const auto low = lower_checked([&] { return Design1Modular(mats, v); });
  compile::CompiledEngine ce(low.net);
  ce.run_all();
  for (const sim::Gating gating : kEngineConfigs) {
    SCOPED_TRACE("sparse=" + std::to_string(gating == sim::Gating::kSparse));
    Design1Modular arr(mats, v);
    const auto res = arr.run(gating);
    ASSERT_EQ(ce.cycles(), res.cycles);
    for (std::size_t i = 0; i < res.values.size(); ++i) {
      EXPECT_EQ(ce.output("out", i), res.values[i]) << "out " << i;
    }
  }
}

TEST(CompiledDifferential, Design2AllEngineConfigs) {
  const auto [mats, v] = string_instance(4, 8, 322);
  const auto low = lower_checked([&] { return Design2Modular(mats, v); });
  compile::CompiledEngine ce(low.net);
  ce.run_all();
  for (const sim::Gating gating : kEngineConfigs) {
    SCOPED_TRACE("sparse=" + std::to_string(gating == sim::Gating::kSparse));
    Design2Modular arr(mats, v);
    const auto res = arr.run(gating);
    ASSERT_EQ(ce.cycles(), res.cycles);
    for (std::size_t i = 0; i < res.values.size(); ++i) {
      EXPECT_EQ(ce.output("out", i), res.values[i]) << "out " << i;
    }
  }
}

TEST(CompiledDifferential, Design3AllEngineConfigs) {
  Rng rng(333);
  const std::size_t m = 8;
  const auto nv = traffic_control_instance(8, m, rng);
  const auto low = lower_checked([&] { return Design3Modular(nv); });
  compile::CompiledEngine ce(low.net);
  ce.run_all();
  for (const sim::Gating gating : kEngineConfigs) {
    SCOPED_TRACE("sparse=" + std::to_string(gating == sim::Gating::kSparse));
    Design3Modular arr(nv);
    const auto res = arr.run(gating);
    EXPECT_EQ(ce.output("cost", 0), res.cost);
    if (!res.path.empty()) {
      const std::size_t stages = res.path.size();
      std::vector<std::size_t> path(stages, 0);
      path[stages - 1] = static_cast<std::size_t>(ce.output("arg", 0));
      for (std::size_t k = stages - 1; k > 0; --k) {
        path[k - 1] =
            static_cast<std::size_t>(ce.output("pred", k * m + path[k]));
      }
      EXPECT_EQ(path, res.path);
    }
  }
}

TEST(CompiledDifferential, GktAllEngineConfigs) {
  Rng rng(344);
  const std::size_t n = 9;
  const auto dims = random_chain_dims(n, rng);
  const auto low = lower_checked([&] { return GktModularArray(dims); });
  compile::CompiledEngine ce(low.net);
  ce.run_all();
  for (const sim::Gating gating : kEngineConfigs) {
    SCOPED_TRACE("sparse=" + std::to_string(gating == sim::Gating::kSparse));
    GktModularArray arr(dims);
    const auto res = arr.run(gating);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        EXPECT_EQ(ce.output("cell", i * n + j), res.cost(i, j))
            << "cell (" << i << ", " << j << ")";
      }
    }
  }
}

TEST(CompiledDifferential, TriangularAllEngineConfigs) {
  Rng rng(355);
  const std::size_t n = 8;
  std::vector<Cost> freq(n);
  std::uniform_int_distribution<Cost> dist(1, 20);
  for (auto& x : freq) x = dist(rng);
  const BstRule rule(freq);
  const auto low = lower_checked(
      [&] { return TriangularModularArray<BstRule>(rule, rule.num_keys()); });
  compile::CompiledEngine ce(low.net);
  ce.run_all();
  for (const sim::Gating gating : kEngineConfigs) {
    SCOPED_TRACE("sparse=" + std::to_string(gating == sim::Gating::kSparse));
    TriangularModularArray<BstRule> arr(rule, rule.num_keys());
    const auto res = arr.run(gating);
    const std::size_t sz = res.cost.rows();
    for (std::size_t i = 0; i < sz; ++i) {
      for (std::size_t j = i; j < sz; ++j) {
        EXPECT_EQ(ce.output("cell", i * sz + j), res.cost(i, j))
            << "cell (" << i << ", " << j << ")";
      }
    }
  }
}

// Fuzz-ish sweep: each seed draws a random family, a random shape, and a
// random engine configuration; the compiled tape and the interpreted run
// must agree output for output (ROADMAP item 5's randomized-testing seed).
class CompiledFuzzDifferential : public ::testing::TestWithParam<int> {};

TEST_P(CompiledFuzzDifferential, RandomInstanceReplaysBitIdentically) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Rng rng(seed * 48271u + 13);
  // This draw once picked a pool size; it stays so that every seed still
  // generates the instance it always has.
  std::uniform_int_distribution<std::size_t>(0, 7)(rng);
  const sim::Gating gating =
      (seed % 2) != 0 ? sim::Gating::kSparse : sim::Gating::kDense;

  switch (seed % 5) {
    case 0: {
      std::uniform_int_distribution<std::size_t> q_dist(1, 5);
      std::uniform_int_distribution<std::size_t> m_dist(2, 16);
      const auto [mats, v] =
          string_instance(q_dist(rng), m_dist(rng), seed * 101);
      const auto low =
          lower_checked([&] { return Design1Modular(mats, v); });
      compile::CompiledEngine ce(low.net);
      ce.run_all();
      Design1Modular arr(mats, v);
      const auto res = arr.run(gating);
      for (std::size_t i = 0; i < res.values.size(); ++i) {
        EXPECT_EQ(ce.output("out", i), res.values[i]);
      }
      break;
    }
    case 1: {
      std::uniform_int_distribution<std::size_t> q_dist(2, 6);
      std::uniform_int_distribution<std::size_t> m_dist(2, 12);
      const auto [mats, v] =
          string_instance(q_dist(rng), m_dist(rng), seed * 103);
      const auto low =
          lower_checked([&] { return Design2Modular(mats, v); });
      compile::CompiledEngine ce(low.net);
      ce.run_all();
      Design2Modular arr(mats, v);
      const auto res = arr.run(gating);
      for (std::size_t i = 0; i < res.values.size(); ++i) {
        EXPECT_EQ(ce.output("out", i), res.values[i]);
      }
      break;
    }
    case 2: {
      std::uniform_int_distribution<std::size_t> n_dist(3, 10);
      std::uniform_int_distribution<std::size_t> m_dist(2, 8);
      const auto nv =
          traffic_control_instance(n_dist(rng), m_dist(rng), rng);
      const auto low = lower_checked([&] { return Design3Modular(nv); });
  compile::CompiledEngine ce(low.net);
  ce.run_all();
      Design3Modular arr(nv);
      const auto res = arr.run(gating);
      EXPECT_EQ(ce.output("cost", 0), res.cost);
      break;
    }
    case 3: {
      std::uniform_int_distribution<std::size_t> n_dist(2, 14);
      const std::size_t n = n_dist(rng);
      const auto dims = random_chain_dims(n, rng);
      const auto low =
          lower_checked([&] { return GktModularArray(dims); });
      compile::CompiledEngine ce(low.net);
      ce.run_all();
      GktModularArray arr(dims);
      const auto res = arr.run(gating);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
          EXPECT_EQ(ce.output("cell", i * n + j), res.cost(i, j));
        }
      }
      break;
    }
    default: {
      std::uniform_int_distribution<std::size_t> n_dist(3, 10);
      const std::size_t n = n_dist(rng);
      std::vector<Cost> costs(n);
      std::uniform_int_distribution<Cost> dist(1, 20);
      for (auto& x : costs) x = dist(rng);
      const auto check = [&](auto make_array) {
        const auto low = lower_checked(make_array);
        compile::CompiledEngine ce(low.net);
        ce.run_all();
        auto arr = make_array();
        const auto res = arr.run(gating);
        const std::size_t sz = res.cost.rows();
        for (std::size_t i = 0; i < sz; ++i) {
          for (std::size_t j = i; j < sz; ++j) {
            EXPECT_EQ(ce.output("cell", i * sz + j), res.cost(i, j));
          }
        }
      };
      switch (seed % 3) {
        case 0:
          check([&] {
            const BstRule rule(costs);
            return TriangularModularArray<BstRule>(rule, rule.num_keys());
          });
          break;
        case 1:
          check([&] {
            const ChainRule rule(costs);
            return TriangularModularArray<ChainRule>(rule,
                                                     rule.num_matrices());
          });
          break;
        default:
          check([&] {
            const PolygonRule rule(costs);
            return TriangularModularArray<PolygonRule>(rule,
                                                       rule.num_vertices());
          });
          break;
      }
      break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompiledFuzzDifferential,
                         ::testing::Range(1, 21));

// ------------------------- batched replay and parameter-plane rebinding ---

/// Batch widths the lane-exactness sweep covers: the degenerate width, odd
/// widths that defeat any accidental power-of-two assumption, the SIMD
/// sweet spot, and a width above it with a ragged relationship to every
/// vector length.
constexpr std::uint32_t kBatchWidths[] = {1, 2, 3, 8, 17};

/// Same-shape tapes must be structurally identical — the contract that
/// lets one lowering serve a whole family shape.  Weights (op.w, params,
/// expected values) are the only permitted difference.
void expect_same_shape(const compile::CompiledNetlist& a,
                       const compile::CompiledNetlist& b) {
  ASSERT_EQ(a.semiring, b.semiring);
  ASSERT_EQ(a.num_slots, b.num_slots);
  ASSERT_EQ(a.cycle_off, b.cycle_off);
  ASSERT_EQ(a.ops.size(), b.ops.size());
  for (std::size_t i = 0; i < a.ops.size(); ++i) {
    ASSERT_EQ(a.ops[i].dst, b.ops[i].dst) << "op " << i;
    ASSERT_EQ(a.ops[i].a, b.ops[i].a) << "op " << i;
    ASSERT_EQ(a.ops[i].b, b.ops[i].b) << "op " << i;
    ASSERT_EQ(a.ops[i].c, b.ops[i].c) << "op " << i;
    ASSERT_EQ(a.ops[i].kind, b.ops[i].kind) << "op " << i;
    ASSERT_EQ(a.ops[i].param, b.ops[i].param) << "op " << i;
  }
  ASSERT_EQ(a.init.size(), b.init.size());
  for (std::size_t i = 0; i < a.init.size(); ++i) {
    ASSERT_EQ(a.init[i].slot, b.init[i].slot) << "init " << i;
    ASSERT_EQ(a.init[i].value, b.init[i].value) << "init " << i;
  }
  ASSERT_EQ(a.outputs.size(), b.outputs.size());
  for (std::size_t i = 0; i < a.outputs.size(); ++i) {
    ASSERT_EQ(a.outputs[i].tag, b.outputs[i].tag) << "output " << i;
    ASSERT_EQ(a.outputs[i].index, b.outputs[i].index) << "output " << i;
    ASSERT_EQ(a.outputs[i].slot, b.outputs[i].slot) << "output " << i;
  }
}

/// Run a B-lane replay of `net` with `tables[l]` bound on lane l (an empty
/// table means the oracle binding), and require every lane to be
/// bit-identical, slot for slot, to an independent one-lane replay of the
/// same binding — the scalar kernel, where B >= 2 runs the lane kernels.
void expect_lanes_bit_identical(
    const compile::CompiledNetlist& net,
    const std::vector<std::vector<Cost>>& tables) {
  const auto lanes = static_cast<std::uint32_t>(tables.size());
  compile::CompiledEngine be(net, lanes);
  for (std::uint32_t l = 0; l < lanes; ++l) {
    if (!tables[l].empty()) be.bind(l, tables[l]);
  }
  be.run_all();
  EXPECT_EQ(be.fallback_levels(), 0u);
  for (std::uint32_t l = 0; l < lanes; ++l) {
    SCOPED_TRACE("lane " + std::to_string(l));
    compile::CompiledEngine ce(net);
    if (!tables[l].empty()) ce.bind(0, tables[l]);
    ce.run_all();
    for (sim::SlotId s = 0; s < net.num_slots; ++s) {
      ASSERT_EQ(be.value(s, l), ce.value(s)) << "batched, slot " << s;
    }
    if (be.oracle_bound(l)) {
      EXPECT_FALSE(be.verify_outputs(l).found);
    }
  }
}

/// Lower a same-shape variant and return its tape after asserting
/// structural identity with the base tape — the variant's params then
/// bind into the base tape index for index.
template <typename MakeArray>
compile::CompiledNetlist variant_lowered(const compile::CompiledNetlist& base,
                                         MakeArray&& make) {
  auto arr = make();
  compile::LowerOptions opt;
  opt.parameterise = true;
  auto low = compile::lower_array(arr, opt);
  expect_same_shape(base, low.net);
  return std::move(low.net);
}

/// Shorthand for the lane-exactness sweeps, which only need the table.
template <typename MakeArray>
std::vector<Cost> variant_params(const compile::CompiledNetlist& base,
                                 MakeArray&& make) {
  return variant_lowered(base, std::forward<MakeArray>(make)).params;
}

TEST(CompiledBatchDifferential, Design1LaneExactAcrossWidths) {
  const auto [mats, v] = string_instance(3, 8, 411);
  Design1Modular arr(mats, v);
  compile::LowerOptions opt;
  opt.parameterise = true;
  const auto low = compile::lower_array(arr, opt);

  // Lane variants: same shape and same input vector, fresh matrices.
  std::vector<std::vector<Cost>> tables;
  Rng rng(412);
  for (std::uint32_t l = 0; l < 17; ++l) {
    if (l == 0) {
      tables.emplace_back();  // oracle binding
      continue;
    }
    auto vmats = random_matrix_string(3, 8, rng);
    tables.push_back(variant_params(
        low.net, [&] { return Design1Modular(vmats, v); }));
  }
  for (const std::uint32_t lanes : kBatchWidths) {
    SCOPED_TRACE("lanes=" + std::to_string(lanes));
    expect_lanes_bit_identical(
        low.net, {tables.begin(), tables.begin() + lanes});
  }
}

TEST(CompiledBatchDifferential, Design2LaneExactAcrossWidths) {
  const auto [mats, v] = string_instance(4, 8, 421);
  Design2Modular arr(mats, v);
  compile::LowerOptions opt;
  opt.parameterise = true;
  const auto low = compile::lower_array(arr, opt);

  std::vector<std::vector<Cost>> tables;
  Rng rng(422);
  for (std::uint32_t l = 0; l < 17; ++l) {
    if (l == 0) {
      tables.emplace_back();
      continue;
    }
    auto vmats = random_matrix_string(4, 8, rng);
    tables.push_back(variant_params(
        low.net, [&] { return Design2Modular(vmats, v); }));
  }
  for (const std::uint32_t lanes : kBatchWidths) {
    SCOPED_TRACE("lanes=" + std::to_string(lanes));
    expect_lanes_bit_identical(
        low.net, {tables.begin(), tables.begin() + lanes});
  }
}

TEST(CompiledBatchDifferential, Design3LaneExactAcrossWidths) {
  // Design 3's instance data enters the tape as interned constants (the
  // node values), so its lanes replay the oracle binding — the lane
  // kRelax kernel is still exercised against the scalar one lane by lane.
  Rng rng(431);
  const auto nv = traffic_control_instance(8, 8, rng);
  Design3Modular arr(nv);
  compile::LowerOptions opt;
  opt.parameterise = true;
  const auto low = compile::lower_array(arr, opt);
  for (const std::uint32_t lanes : kBatchWidths) {
    SCOPED_TRACE("lanes=" + std::to_string(lanes));
    expect_lanes_bit_identical(
        low.net, std::vector<std::vector<Cost>>(lanes));
  }
}

TEST(CompiledBatchDifferential, GktLaneExactAcrossWidths) {
  Rng rng(441);
  const std::size_t n = 9;
  const auto dims = random_chain_dims(n, rng);
  GktModularArray arr(dims);
  compile::LowerOptions opt;
  opt.parameterise = true;
  const auto low = compile::lower_array(arr, opt);

  std::vector<std::vector<Cost>> tables;
  for (std::uint32_t l = 0; l < 17; ++l) {
    if (l == 0) {
      tables.emplace_back();
      continue;
    }
    auto vdims = random_chain_dims(n, rng);
    tables.push_back(variant_params(
        low.net, [&] { return GktModularArray(vdims); }));
  }
  for (const std::uint32_t lanes : kBatchWidths) {
    SCOPED_TRACE("lanes=" + std::to_string(lanes));
    expect_lanes_bit_identical(
        low.net, {tables.begin(), tables.begin() + lanes});
  }
}

TEST(CompiledBatchDifferential, TriangularLaneExactAcrossWidths) {
  // The chain rule's costs enter the tape only as fold weights, so it
  // rebind-sweeps like GKT.  (BST is different: its leaf cells' initial
  // values are the frequencies themselves — interned constants, not
  // parameters — so BST lanes replay the oracle binding below.)
  Rng rng(451);
  const std::size_t n = 9;
  std::uniform_int_distribution<Cost> dist(1, 20);
  const auto random_costs = [&] {
    std::vector<Cost> costs(n);
    for (auto& x : costs) x = dist(rng);
    return costs;
  };
  const auto base_costs = random_costs();
  const ChainRule base_rule(base_costs);
  TriangularModularArray<ChainRule> arr(base_rule,
                                        base_rule.num_matrices());
  compile::LowerOptions opt;
  opt.parameterise = true;
  const auto low = compile::lower_array(arr, opt);

  std::vector<std::vector<Cost>> tables;
  for (std::uint32_t l = 0; l < 17; ++l) {
    if (l == 0) {
      tables.emplace_back();
      continue;
    }
    const auto costs = random_costs();
    tables.push_back(variant_params(low.net, [&] {
      const ChainRule rule(costs);
      return TriangularModularArray<ChainRule>(rule, rule.num_matrices());
    }));
  }
  for (const std::uint32_t lanes : kBatchWidths) {
    SCOPED_TRACE("lanes=" + std::to_string(lanes));
    expect_lanes_bit_identical(
        low.net, {tables.begin(), tables.begin() + lanes});
  }
}

TEST(CompiledBatchDifferential, BstLaneExactAcrossWidths) {
  // Oracle binding on every lane (see above): this still drives the
  // lane kFold kernel against the scalar one lane for lane.
  Rng rng(461);
  std::vector<Cost> freq(8);
  std::uniform_int_distribution<Cost> dist(1, 20);
  for (auto& x : freq) x = dist(rng);
  const BstRule rule(freq);
  TriangularModularArray<BstRule> arr(rule, rule.num_keys());
  compile::LowerOptions opt;
  opt.parameterise = true;
  const auto low = compile::lower_array(arr, opt);
  for (const std::uint32_t lanes : kBatchWidths) {
    SCOPED_TRACE("lanes=" + std::to_string(lanes));
    expect_lanes_bit_identical(
        low.net, std::vector<std::vector<Cost>>(lanes));
  }
}

// Rebinding between replays on a many-parameter tape.  With one parameter
// a lane-major and a lane-planar weight index coincide, so only a tape
// like this one catches a weight landing on the wrong lane — or a lane
// left on the stale path after bind_oracle.
TEST(CompiledBatchDifferential, RebindBetweenReplays) {
  Rng rng(471);
  const std::size_t n = 9;
  GktModularArray arr(random_chain_dims(n, rng));
  compile::LowerOptions opt;
  opt.parameterise = true;
  const auto low = compile::lower_array(arr, opt);
  ASSERT_GT(low.net.num_params(), 100u);
  std::vector<std::vector<Cost>> variants;
  for (int v = 0; v < 3; ++v) {
    auto vdims = random_chain_dims(n, rng);
    variants.push_back(variant_params(
        low.net, [&] { return GktModularArray(vdims); }));
  }
  const std::vector<Cost>& oracle = low.net.params;
  compile::CompiledEngine be(low.net, 4);

  // Replay, then check every lane against a scalar replay of `bound[l]`.
  const auto replay_and_check =
      [&](const std::vector<std::vector<Cost>>& bound) {
        be.reset();
        be.run_all();
        for (std::uint32_t l = 0; l < bound.size(); ++l) {
          SCOPED_TRACE("lane " + std::to_string(l));
          compile::CompiledEngine ce(low.net);
          ce.bind(0, bound[l]);
          ce.run_all();
          for (sim::SlotId s = 0; s < low.net.num_slots; ++s) {
            ASSERT_EQ(be.value(s, l), ce.value(s)) << "slot " << s;
          }
          EXPECT_EQ(be.oracle_bound(l), bound[l] == oracle);
          if (bound[l] == oracle) {
            EXPECT_FALSE(be.verify_outputs(l).found);
          } else {
            EXPECT_THROW((void)be.verify_outputs(l), std::logic_error);
          }
        }
      };
  // Bind every lane (one of them to the oracle's own table) and replay.
  std::vector<std::vector<Cost>> bound = {variants[0], variants[1], oracle,
                                          variants[2]};
  for (std::uint32_t l = 0; l < bound.size(); ++l) be.bind(l, bound[l]);
  {
    SCOPED_TRACE("all lanes bound");
    replay_and_check(bound);
  }
  // Rebind one lane, restore another to the oracle, replay again.
  bound[1] = variants[2];
  be.bind(1, bound[1]);
  bound[3] = oracle;
  be.bind_oracle(3);
  {
    SCOPED_TRACE("lane 1 rebound, lane 3 restored");
    replay_and_check(bound);
  }
  // Restore the rest: the replay returns to the baked immediates.
  for (const std::uint32_t l : {0u, 1u}) {
    bound[l] = oracle;
    be.bind_oracle(l);
  }
  SCOPED_TRACE("every lane restored");
  replay_and_check(bound);
}

// Rebind fuzz: a random same-shape variant is lowered fresh, its weight
// table is bound into the base instance's tape, and the rebound replay
// must land on exactly the values the variant's own fresh lowering
// produces — slot for slot.  This is the end-to-end proof that one
// lowering of a family shape serves any weight assignment.
class CompiledRebindFuzz : public ::testing::TestWithParam<int> {};

TEST_P(CompiledRebindFuzz, ReboundTapeMatchesFreshLowering) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Rng rng(seed * 69621u + 5);
  compile::LowerOptions opt;
  opt.parameterise = true;

  compile::Lowered base;
  compile::CompiledNetlist variant_net;
  switch (seed % 4) {
    case 0: {
      std::uniform_int_distribution<std::size_t> q_dist(1, 4);
      std::uniform_int_distribution<std::size_t> m_dist(2, 10);
      const std::size_t q = q_dist(rng);
      const std::size_t m = m_dist(rng);
      const auto [mats, v] = string_instance(q, m, seed * 211);
      Design1Modular arr(mats, v);
      base = compile::lower_array(arr, opt);
      auto vmats = random_matrix_string(q, m, rng);
      variant_net = variant_lowered(
          base.net, [&] { return Design1Modular(vmats, v); });
      break;
    }
    case 1: {
      std::uniform_int_distribution<std::size_t> q_dist(2, 5);
      std::uniform_int_distribution<std::size_t> m_dist(2, 10);
      const std::size_t q = q_dist(rng);
      const std::size_t m = m_dist(rng);
      const auto [mats, v] = string_instance(q, m, seed * 223);
      Design2Modular arr(mats, v);
      base = compile::lower_array(arr, opt);
      auto vmats = random_matrix_string(q, m, rng);
      variant_net = variant_lowered(
          base.net, [&] { return Design2Modular(vmats, v); });
      break;
    }
    case 2: {
      std::uniform_int_distribution<std::size_t> n_dist(2, 12);
      const std::size_t n = n_dist(rng);
      const auto dims = random_chain_dims(n, rng);
      GktModularArray arr(dims);
      base = compile::lower_array(arr, opt);
      auto vdims = random_chain_dims(n, rng);
      variant_net = variant_lowered(
          base.net, [&] { return GktModularArray(vdims); });
      break;
    }
    default: {
      // Triangular family via the chain rule — the rule whose instance
      // data is weights-only.  (BST's leaf initial values are interned
      // constants, so a BST tape rebinds only among instances sharing
      // them; the lane-exactness suite covers BST under oracle binding.)
      std::uniform_int_distribution<std::size_t> n_dist(3, 10);
      const std::size_t n = n_dist(rng);
      std::uniform_int_distribution<Cost> dist(1, 30);
      const auto draw = [&] {
        std::vector<Cost> costs(n);
        for (auto& x : costs) x = dist(rng);
        return costs;
      };
      const auto costs = draw();
      const auto vcosts = draw();
      const ChainRule rule(costs);
      TriangularModularArray<ChainRule> arr(rule, rule.num_matrices());
      base = compile::lower_array(arr, opt);
      variant_net = variant_lowered(base.net, [&] {
        const ChainRule vrule(vcosts);
        return TriangularModularArray<ChainRule>(vrule,
                                                 vrule.num_matrices());
      });
      break;
    }
  }

  // The variant's own fresh lowering is the reference; its checked replay
  // pins it to the variant oracle run op for op.
  const std::vector<Cost>& vparams = variant_net.params;
  ASSERT_EQ(vparams.size(), base.net.params.size());
  compile::CompiledEngine fresh(variant_net);
  ASSERT_FALSE(fresh.run_all_checked().found);
  ASSERT_FALSE(fresh.verify_outputs().found);

  // The rebound base tape must reproduce it slot for slot.
  compile::CompiledEngine rebound(base.net);
  rebound.bind(0, vparams);
  rebound.run_all();
  for (sim::SlotId s = 0; s < base.net.num_slots; ++s) {
    ASSERT_EQ(rebound.value(s), fresh.value(s)) << "slot " << s;
  }

  // And a five-lane engine agrees with both, lanes interleaving the
  // oracle binding and the rebind.
  expect_lanes_bit_identical(base.net, {{}, vparams, {}, vparams, vparams});
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompiledRebindFuzz, ::testing::Range(1, 25));

}  // namespace
}  // namespace sysdp
