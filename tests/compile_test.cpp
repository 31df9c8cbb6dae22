// Compiled backend unit tests: lowering mechanics, tape invariants and
// checked replay against the oracle's recorded values.  The broad
// compiled-vs-interpreted sweeps live in differential_test.cpp; this file
// exercises the machinery itself on small instances where the tape can be
// reasoned about directly.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "arrays/design1_modular.hpp"
#include "arrays/design2_modular.hpp"
#include "arrays/design3_modular.hpp"
#include "arrays/gkt_modular.hpp"
#include "arrays/triangular_array.hpp"
#include "arrays/triangular_modular.hpp"
#include "compile/engine.hpp"
#include "compile/lower.hpp"
#include "compile/program.hpp"
#include "graph/generators.hpp"

namespace sysdp {
namespace {

std::pair<std::vector<Matrix<Cost>>, std::vector<Cost>> string_instance(
    std::size_t q, std::size_t m, std::uint64_t seed) {
  Rng rng(seed);
  auto mats = random_matrix_string(q, m, rng);
  std::vector<Cost> v(m);
  std::uniform_int_distribution<Cost> dist(0, 99);
  for (auto& x : v) x = dist(rng);
  return {std::move(mats), std::move(v)};
}

TEST(CompiledBackend, Design1TapeReplaysBitIdentically) {
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {1, 4}, {2, 4}, {3, 6}, {4, 8}, {5, 8}};
  for (const auto& [q, m] : shapes) {
    SCOPED_TRACE("q=" + std::to_string(q) + " m=" + std::to_string(m));
    const auto [mats, v] = string_instance(q, m, q * 7700 + m);

    Design1Modular oracle_arr(mats, v);
    const auto interpreted = oracle_arr.run(sim::Gating::kDense);

    Design1Modular arr(mats, v);
    const auto low = compile::lower_array(arr);
    // One tape op per paper "step": the oracle's busy count is the op count.
    EXPECT_EQ(low.net.num_ops(), interpreted.busy_steps);
    EXPECT_EQ(low.net.cycles(), interpreted.cycles);

    compile::CompiledEngine ce(low.net);
    const auto div = ce.run_all_checked();
    EXPECT_FALSE(div.found)
        << "op " << div.index << " got " << div.got << " expected "
        << div.expected;
    EXPECT_EQ(ce.now(), low.oracle_cycles);
    EXPECT_FALSE(ce.verify_outputs().found);
    for (std::size_t i = 0; i < interpreted.values.size(); ++i) {
      EXPECT_EQ(ce.output("out", i), interpreted.values[i]) << "out " << i;
    }
  }
}

TEST(CompiledBackend, ReplayIsRepeatableAfterReset) {
  const auto [mats, v] = string_instance(3, 6, 42);
  Design1Modular arr(mats, v);
  const auto low = compile::lower_array(arr);
  compile::CompiledEngine ce(low.net);
  ce.run_all();
  const Cost first = ce.output("out", 0);
  ce.reset();
  EXPECT_EQ(ce.now(), 0u);
  ce.run_all();
  EXPECT_EQ(ce.output("out", 0), first);
  EXPECT_FALSE(ce.verify_outputs().found);
}

TEST(CompiledBackend, StepIsCycleExact) {
  // Stepping one level at a time traverses the same tape as run_all.
  const auto [mats, v] = string_instance(2, 5, 99);
  Design1Modular arr(mats, v);
  const auto low = compile::lower_array(arr);
  compile::CompiledEngine ce(low.net);
  std::uint64_t ops_seen = 0;
  for (sim::Cycle t = 0; t < ce.cycles(); ++t) {
    const auto div = ce.step_checked();
    EXPECT_FALSE(div.found) << "cycle " << t;
    EXPECT_GE(ce.ops_executed(), ops_seen);
    ops_seen = ce.ops_executed();
  }
  EXPECT_EQ(ops_seen, low.net.num_ops());
  EXPECT_FALSE(ce.verify_outputs().found);
}

TEST(CompiledBackend, DivergentStepKeepsKindSplitEqualToOps) {
  // A divergence in the middle of a level leaves that level out of every
  // count, so the per-kind split still sums to ops_executed.
  const auto [mats, v] = string_instance(3, 6, 41);
  Design1Modular arr(mats, v);
  auto low = compile::lower_array(arr);
  const auto& off = low.net.cycle_off;
  std::size_t t = 0;
  for (std::size_t u = 1; u + 1 < off.size(); ++u) {
    if (off[u + 1] - off[u] > off[t + 1] - off[t]) t = u;
  }
  ASSERT_GE(off[t + 1] - off[t], 3u);
  const std::uint32_t mid = off[t] + (off[t + 1] - off[t]) / 2;
  low.net.expected[mid] += 1;

  compile::CompiledEngine ce(low.net);
  const auto div = ce.run_all_checked();
  ASSERT_TRUE(div.found);
  EXPECT_EQ(div.index, mid);
  const compile::ReplayResult res = ce.result();
  EXPECT_EQ(res.mac_ops + res.fold_ops + res.relax_ops, res.ops_executed);
  EXPECT_EQ(res.ops_executed, off[t]);
}

TEST(CompiledBackend, Design2TapeReplaysBitIdentically) {
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {2, 4}, {3, 6}, {4, 8}, {6, 12}};
  for (const auto& [q, m] : shapes) {
    SCOPED_TRACE("q=" + std::to_string(q) + " m=" + std::to_string(m));
    const auto [mats, v] = string_instance(q, m, q * 8100 + m);

    Design2Modular oracle_arr(mats, v);
    const auto interpreted = oracle_arr.run(sim::Gating::kDense);

    Design2Modular arr(mats, v);
    const auto low = compile::lower_array(arr);
    EXPECT_EQ(low.net.num_ops(), interpreted.busy_steps);
    EXPECT_EQ(low.net.cycles(), interpreted.cycles);

    compile::CompiledEngine ce(low.net);
    EXPECT_FALSE(ce.run_all_checked().found);
    EXPECT_FALSE(ce.verify_outputs().found);
    for (std::size_t i = 0; i < interpreted.values.size(); ++i) {
      EXPECT_EQ(ce.output("out", i), interpreted.values[i]) << "out " << i;
    }
  }
}

TEST(CompiledBackend, Design3TapeReplaysBitIdentically) {
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {4, 4}, {8, 8}, {12, 16}};
  for (const auto& [n, m] : shapes) {
    SCOPED_TRACE("n=" + std::to_string(n) + " m=" + std::to_string(m));
    Rng rng(n * 31 + m);
    const auto nv = traffic_control_instance(n, m, rng);

    Design3Modular oracle_arr(nv);
    const auto interpreted = oracle_arr.run(sim::Gating::kDense);

    Design3Modular arr(nv);
    const auto low = compile::lower_array(arr);
    EXPECT_EQ(low.net.num_ops(), interpreted.stats.busy_steps);

    compile::CompiledEngine ce(low.net);
    EXPECT_FALSE(ce.run_all_checked().found);
    EXPECT_FALSE(ce.verify_outputs().found);
    EXPECT_EQ(ce.output("cost", 0), interpreted.cost);
    if (!interpreted.path.empty()) {
      // Walk the compiled "pred" outputs exactly as the interpreted model
      // walks its path registers.
      const std::size_t stages = interpreted.path.size();
      std::vector<std::size_t> path(stages, 0);
      path[stages - 1] =
          static_cast<std::size_t>(ce.output("arg", 0));
      for (std::size_t k = stages - 1; k > 0; --k) {
        path[k - 1] = static_cast<std::size_t>(
            ce.output("pred", k * m + path[k]));
      }
      EXPECT_EQ(path, interpreted.path);
    }
  }
}

TEST(CompiledBackend, GktTapeReplaysBitIdentically) {
  for (const std::size_t n : {2u, 3u, 5u, 9u, 17u}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    Rng rng(500 + n);
    const auto dims = random_chain_dims(n, rng);

    GktModularArray oracle_arr(dims);
    const auto interpreted = oracle_arr.run(sim::Gating::kDense);

    GktModularArray arr(dims);
    const auto low = compile::lower_array(arr);
    EXPECT_EQ(low.net.num_ops(), interpreted.stats.busy_steps);

    compile::CompiledEngine ce(low.net);
    EXPECT_FALSE(ce.run_all_checked().found);
    EXPECT_FALSE(ce.verify_outputs().found);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        EXPECT_EQ(ce.output("cell", i * n + j), interpreted.cost(i, j))
            << "cell (" << i << ", " << j << ")";
      }
    }
  }
}

TEST(CompiledBackend, TriangularTapesReplayBitIdentically) {
  // All three rules of the triangular family, including the polygon rule's
  // trivially-solved edge cells and the BST rule's clamped operands.
  for (const std::size_t n : {3u, 6u, 11u}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    std::vector<Cost> costs(n);
    Rng rng(900 + n);
    std::uniform_int_distribution<Cost> dist(1, 20);
    for (auto& x : costs) x = dist(rng);

    const auto check = [&](auto make_array, const char* what) {
      SCOPED_TRACE(what);
      auto oracle_arr = make_array();
      const auto interpreted = oracle_arr.run(sim::Gating::kDense);
      auto arr = make_array();
      const auto low = compile::lower_array(arr);
      EXPECT_EQ(low.net.num_ops(), interpreted.stats.busy_steps);
      compile::CompiledEngine ce(low.net);
      EXPECT_FALSE(ce.run_all_checked().found);
      EXPECT_FALSE(ce.verify_outputs().found);
      const std::size_t sz = interpreted.cost.rows();
      for (std::size_t i = 0; i < sz; ++i) {
        for (std::size_t j = i; j < sz; ++j) {
          EXPECT_EQ(ce.output("cell", i * sz + j), interpreted.cost(i, j))
              << "cell (" << i << ", " << j << ")";
        }
      }
    };
    check(
        [&] {
          const BstRule rule(costs);
          return TriangularModularArray<BstRule>(rule, rule.num_keys());
        },
        "bst");
    check(
        [&] {
          const ChainRule rule(costs);
          return TriangularModularArray<ChainRule>(rule,
                                                   rule.num_matrices());
        },
        "chain");
    if (n >= 3) {
      check(
          [&] {
            const PolygonRule rule(costs);
            return TriangularModularArray<PolygonRule>(rule,
                                                       rule.num_vertices());
          },
          "polygon");
    }
  }
}

TEST(CompiledBackend, MaxPlusTapeExecutes) {
  // The executor dispatches on the tape's semiring tag; hand-build a tiny
  // (MAX,+) program — slot2 = max(s0, 5 + s1) — and check both kernels.
  compile::CompiledNetlist net;
  net.semiring = compile::TapeSemiring::kMaxPlus;
  net.num_slots = 3;
  net.init = {{0, 10}, {1, 4}};
  net.ops = {{2, 0, 1, 0, 5, compile::OpKind::kMac}};
  net.cycle_off = {0, 1};
  net.expected = {10};
  compile::CompiledEngine ce(net);
  ce.run_all();
  EXPECT_EQ(ce.value(2), 10);  // max(10, 5 + 4) = 10

  net.init = {{0, 2}, {1, 4}};
  net.expected = {9};
  compile::CompiledEngine ce2(net);
  ce2.run_all();
  EXPECT_EQ(ce2.value(2), 9);  // max(2, 5 + 4) = 9
}

TEST(CompiledBackend, TapeAndSlotFileAreCacheLineAligned) {
  // The lane kernels stream both with wide loads; the allocator must
  // start them on a cache-line boundary.
  const auto [mats, v] = string_instance(3, 6, 77);
  Design1Modular arr(mats, v);
  const auto low = compile::lower_array(arr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(low.net.ops.data()) %
                compile::kCacheLine,
            0u);
  compile::AlignedVec<Cost> slots(17, 0);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(slots.data()) %
                compile::kCacheLine,
            0u);
  static_assert(sizeof(compile::Op) <= 32, "two ops per cache line");
}

TEST(CompiledBackend, RunSkipsEmptyLevelsViaSkipList) {
  // The GKT triangle's staged wavefront leaves empty dependency levels
  // between diagonals — exactly what the skip-list exists to bypass.
  Rng rng(4242);
  const auto dims = random_chain_dims(9, rng);
  GktModularArray arr(dims);
  const auto low = compile::lower_array(arr);
  std::uint64_t empty_levels = 0;
  for (std::size_t t = 0; t + 1 < low.net.cycle_off.size(); ++t) {
    if (low.net.cycle_off[t + 1] == low.net.cycle_off[t]) ++empty_levels;
  }
  ASSERT_GT(empty_levels, 0u) << "instance has no empty levels to skip";

  compile::CompiledEngine run_engine(low.net);
  run_engine.run_all();
  EXPECT_EQ(run_engine.levels_skipped(), empty_levels);

  // Stepping visits every level (cycle-exact contract) and reaches the
  // identical machine state.
  compile::CompiledEngine step_engine(low.net);
  while (step_engine.now() < step_engine.cycles()) step_engine.step();
  EXPECT_EQ(step_engine.levels_skipped(), 0u);
  EXPECT_EQ(step_engine.ops_executed(), run_engine.ops_executed());
  for (sim::SlotId s = 0; s < low.net.num_slots; ++s) {
    ASSERT_EQ(run_engine.value(s), step_engine.value(s)) << "slot " << s;
  }

  // Mid-stream entry: run the first half by cycles, then the rest; the
  // skip accounting still covers every empty level exactly once.
  compile::CompiledEngine half_engine(low.net);
  half_engine.run(half_engine.cycles() / 2);
  half_engine.run_all();
  EXPECT_EQ(half_engine.levels_skipped(), empty_levels);
  EXPECT_FALSE(half_engine.verify_outputs().found);
}

TEST(CompiledParamPlane, LoweringEmitsOneParameterPerOp) {
  const auto [mats, v] = string_instance(3, 6, 55);
  Design1Modular arr(mats, v);
  compile::LowerOptions opt;
  opt.parameterise = true;
  const auto low = compile::lower_array(arr, opt);
  ASSERT_TRUE(low.net.parameterised);
  ASSERT_EQ(low.net.num_params(), low.net.num_ops());
  for (std::size_t i = 0; i < low.net.ops.size(); ++i) {
    EXPECT_EQ(low.net.params[low.net.ops[i].param], low.net.ops[i].w)
        << "op " << i;
  }

  // Without the option the plane is absent and bind() refuses.
  Design1Modular plain_arr(mats, v);
  const auto plain = compile::lower_array(plain_arr);
  EXPECT_FALSE(plain.net.parameterised);
  EXPECT_EQ(plain.net.num_params(), 0u);
  compile::CompiledEngine ce(plain.net);
  EXPECT_THROW(ce.bind(0, {1, 2, 3}), std::invalid_argument);
}

TEST(CompiledParamPlane, BindValidatesAndTracksOracleBinding) {
  const auto [mats, v] = string_instance(2, 5, 66);
  Design1Modular arr(mats, v);
  compile::LowerOptions opt;
  opt.parameterise = true;
  const auto low = compile::lower_array(arr, opt);
  compile::CompiledEngine ce(low.net);
  EXPECT_TRUE(ce.oracle_bound(0));
  EXPECT_THROW(ce.bind(0, {}), std::invalid_argument);  // wrong length

  // Binding the oracle's own table is recognised as the oracle binding.
  ce.bind(0, low.net.params);
  EXPECT_TRUE(ce.oracle_bound(0));
  EXPECT_FALSE(ce.run_all_checked().found);
  EXPECT_FALSE(ce.verify_outputs().found);

  // A different table: replay works, checked paths refuse.
  auto other = low.net.params;
  other[0] += 1;
  ce.bind(0, other);
  EXPECT_FALSE(ce.oracle_bound(0));
  ce.reset();
  ce.run_all();
  EXPECT_THROW((void)ce.verify_outputs(), std::logic_error);
  ce.reset();
  EXPECT_THROW((void)ce.run_all_checked(), std::logic_error);

  ce.bind_oracle(0);
  EXPECT_TRUE(ce.oracle_bound(0));
  ce.reset();
  EXPECT_FALSE(ce.run_all_checked().found);
  EXPECT_FALSE(ce.verify_outputs().found);
}

TEST(CompiledParamPlane, HandBuiltTapeRebindsCorrectly) {
  // slot2 = min(s0, w + s1) with s0=10, s1=4; the parameter plane carries
  // w so rebinding flips which operand wins.
  compile::CompiledNetlist net;
  net.num_slots = 3;
  net.init = {{0, 10}, {1, 4}};
  net.ops = {{2, 0, 1, 0, 5, compile::OpKind::kMac, 0}};
  net.cycle_off = {0, 1};
  net.expected = {9};
  net.parameterised = true;
  net.params = {5};

  compile::CompiledEngine ce(net);
  ce.run_all();
  EXPECT_EQ(ce.value(2), 9);  // min(10, 5 + 4)

  ce.bind(0, {100});
  ce.reset();
  ce.run_all();
  EXPECT_EQ(ce.value(2), 10);  // min(10, 100 + 4)

  ce.bind(0, {kInfCost});
  ce.reset();
  ce.run_all();
  EXPECT_EQ(ce.value(2), 10);  // inf is absorbing under rebinding too

  ce.bind_oracle(0);
  ce.reset();
  ce.run_all();
  EXPECT_EQ(ce.value(2), 9);
}

TEST(CompiledBatch, SingleLaneMatchesScalarEngine) {
  const auto [mats, v] = string_instance(3, 8, 88);
  Design1Modular arr(mats, v);
  compile::LowerOptions opt;
  opt.parameterise = true;
  const auto low = compile::lower_array(arr, opt);

  // One lane runs the scalar kernel, two lanes the lane kernels: both
  // lanes must match the one-lane replay slot for slot.
  compile::CompiledEngine ce(low.net);
  ce.run_all();
  compile::CompiledEngine be(low.net, 2);
  EXPECT_EQ(be.lanes(), 2u);
  EXPECT_EQ(be.fallback_levels(), 0u);
  be.run_all();
  EXPECT_EQ(be.ops_executed(), 2 * low.net.num_ops());
  EXPECT_EQ(be.levels_skipped(), ce.levels_skipped());
  for (std::uint32_t lane = 0; lane < 2; ++lane) {
    SCOPED_TRACE("lane " + std::to_string(lane));
    for (sim::SlotId s = 0; s < low.net.num_slots; ++s) {
      ASSERT_EQ(be.value(s, lane), ce.value(s)) << "slot " << s;
    }
    EXPECT_FALSE(be.verify_outputs(lane).found);
    for (const auto& out : low.net.outputs) {
      EXPECT_EQ(be.output(out.tag, out.index, lane), out.expected);
    }
  }

  // Replays are repeatable, like the one-lane engine's.
  be.reset();
  EXPECT_EQ(be.now(), 0u);
  be.run_all();
  EXPECT_FALSE(be.verify_outputs(0).found);
  EXPECT_FALSE(be.verify_outputs(1).found);
}

TEST(CompiledBatch, PerLaneBindOnHandBuiltTape) {
  compile::CompiledNetlist net;
  net.num_slots = 3;
  net.init = {{0, 10}, {1, 4}};
  net.ops = {{2, 0, 1, 0, 5, compile::OpKind::kMac, 0}};
  net.cycle_off = {0, 1};
  net.expected = {9};
  net.outputs = {{"out", 0, 2, 9}};
  net.parameterised = true;
  net.params = {5};

  compile::CompiledEngine be(net, 3);
  be.bind(1, {1});
  be.bind(2, {100});
  EXPECT_TRUE(be.oracle_bound(0));
  EXPECT_FALSE(be.oracle_bound(1));
  EXPECT_FALSE(be.oracle_bound(2));
  be.run_all();
  EXPECT_EQ(be.value(2, 0), 9);   // min(10, 5 + 4)
  EXPECT_EQ(be.value(2, 1), 5);   // min(10, 1 + 4)
  EXPECT_EQ(be.value(2, 2), 10);  // min(10, 100 + 4)
  EXPECT_FALSE(be.verify_outputs(0).found);
  EXPECT_THROW((void)be.verify_outputs(1), std::logic_error);
  EXPECT_EQ(be.output("out", 0, 1), 5);

  // Rebinding a lane to the oracle table restores checked verification.
  be.bind_oracle(1);
  be.reset();
  be.run_all();
  EXPECT_EQ(be.value(2, 1), 9);
  EXPECT_FALSE(be.verify_outputs(1).found);
}

TEST(CompiledBatch, ConstructorAndBindValidate) {
  compile::CompiledNetlist net;
  net.num_slots = 3;
  net.init = {{0, 10}, {1, 4}};
  net.ops = {{2, 0, 1, 0, 5, compile::OpKind::kMac, 0}};
  net.cycle_off = {0, 1};
  net.expected = {9};

  EXPECT_THROW(compile::CompiledEngine(net, 0), std::invalid_argument);
  compile::CompiledEngine be(net, 2);
  // Not parameterised: bind refuses, oracle binding replays fine.
  EXPECT_THROW(be.bind(0, {7}), std::invalid_argument);
  be.run_all();
  EXPECT_EQ(be.value(2, 0), 9);
  EXPECT_EQ(be.value(2, 1), 9);

  net.parameterised = true;
  net.params = {5};
  compile::CompiledEngine pe(net, 2);
  EXPECT_THROW(pe.bind(2, {7}), std::invalid_argument);         // bad lane
  EXPECT_THROW(pe.bind(0, {7, 8}), std::invalid_argument);      // bad length
  EXPECT_THROW(pe.bind_oracle(5), std::invalid_argument);       // bad lane
}

/// One level holding three kinds, each op reading the previous one's
/// result ((MIN,+); slot 5's initial value is 0):
///   op0 fold   s5 = min(s0, s1 + s2 + 1)            = min(10, 8) = 8
///   op1 mac    s6 = min(s0, 1 + s5)                  = min(10, 9) = 9
///   op2 relax  (s7, s8) = s6 + 2 < s3 ? (s6 + 2, 5) : (s3, s4)   = (11, 5)
/// A kind-major order (mac, fold, relax) would give s6 = 1 and s7 = 3.
compile::CompiledNetlist mixed_level_tape() {
  compile::CompiledNetlist net;
  net.num_slots = 9;
  net.init = {{0, 10}, {1, 4}, {2, 3}, {3, 12}, {4, 99}};
  net.ops = {{5, 0, 1, 2, 1, compile::OpKind::kFold, 0},
             {6, 0, 5, 0, 1, compile::OpKind::kMac, 0},
             {7, 3, 6, 5, 2, compile::OpKind::kRelax, 0}};
  net.cycle_off = {0, 3};
  net.expected = {8, 9, 11};
  net.outputs = {{"best", 0, 7, 11}, {"arg", 0, 8, 5}};
  return net;
}

TEST(CompiledBatch, MixedKindLevelRunsInTapeOrder) {
  const auto net = mixed_level_tape();
  for (const std::uint32_t lanes : {1u, 2u, 3u, 8u}) {
    SCOPED_TRACE("lanes=" + std::to_string(lanes));
    compile::CompiledEngine ce(net, lanes);
    EXPECT_EQ(ce.fallback_levels(), 1u);
    ce.run_all();
    for (std::uint32_t lane = 0; lane < lanes; ++lane) {
      EXPECT_EQ(ce.value(5, lane), 8);
      EXPECT_EQ(ce.value(6, lane), 9);
      EXPECT_EQ(ce.value(7, lane), 11);
      EXPECT_EQ(ce.value(8, lane), 5);
      EXPECT_FALSE(ce.verify_outputs(lane).found);
    }
    // Checked replay is a one-lane contract.
    ce.reset();
    if (lanes == 1) {
      EXPECT_FALSE(ce.run_all_checked().found);
    } else {
      EXPECT_THROW((void)ce.run_all_checked(), std::logic_error);
    }
  }

  // A wrong recorded value on the mac is reported at the mac's index.
  auto seeded = net;
  seeded.expected[1] = 1234;
  compile::CompiledEngine ce(seeded);
  const auto div = ce.run_all_checked();
  EXPECT_TRUE(div.found);
  EXPECT_EQ(div.index, 1u);
  EXPECT_EQ(div.got, 9);
  EXPECT_EQ(div.expected, 1234);
}

}  // namespace
}  // namespace sysdp
