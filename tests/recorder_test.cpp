// Recorder contract: narrated by hand, with no array model in between, so
// every shadow-execution check fires on purpose.  Each check must throw
// std::logic_error naming its site.  A well-formed narration seals into
// the tape it describes.  Lowering sizes the recorder from the array's
// narration extent, whose op count must equal the oracle's busy steps and
// whose other fields bound the tape it records.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "arrays/design1_modular.hpp"
#include "arrays/design2_modular.hpp"
#include "arrays/design3_modular.hpp"
#include "arrays/gkt_modular.hpp"
#include "arrays/graph_adapter.hpp"
#include "arrays/triangular_array.hpp"
#include "arrays/triangular_modular.hpp"
#include "compile/lower.hpp"
#include "compile/recorder.hpp"
#include "graph/generators.hpp"
#include "semiring/cost.hpp"
#include "sim/engine.hpp"

namespace sysdp {
namespace {

/// Expect `f` to throw std::logic_error raised at recorder site `site`.
template <typename F>
void expect_throws_at(F&& f, const std::string& site) {
  try {
    f();
    ADD_FAILURE() << "no exception; expected one from " << site;
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("compile::Recorder::" + site + ": "),
              std::string::npos)
        << e.what();
  }
}

TEST(Recorder, HandNarrationSealsIntoItsTape) {
  compile::Recorder rec;
  sim::Engine engine;
  Cost acc = 0;
  Cost x = 0;
  const sim::SlotId s_acc = rec.lane(&acc, kInfCost);  // reset value +inf
  const sim::SlotId s_x = rec.lane(&x, 4);
  rec.bind_staged(&acc, rec.mac(s_acc, 3, s_x));  // min(+inf, 3 + 4) = 7
  rec.on_cycle(engine, 0);
  const sim::SlotId s_best = rec.lane(&acc, 7);
  rec.bind_now(&acc, rec.fold(s_best, s_x, s_x, 1));  // min(7, 4+4+1) = 7
  rec.on_cycle(engine, 1);
  rec.output("out", 0, rec.lane(&acc, 7), 7);
  const compile::CompiledNetlist net = rec.finish();
  EXPECT_EQ(net.num_ops(), 2u);
  EXPECT_EQ(net.cycles(), 2u);
  EXPECT_EQ(net.expected, (std::vector<Cost>{7, 7}));
  ASSERT_EQ(net.outputs.size(), 1u);
  EXPECT_EQ(net.outputs[0].expected, 7);
  EXPECT_EQ(net.outputs[0].slot, net.ops[1].dst);
  // Reset binds first, then the committed ones in stamp order.
  ASSERT_EQ(net.provenance.binds.size(), 4u);
  EXPECT_EQ(net.provenance.binds[0].stamp, 0u);
  EXPECT_EQ(net.provenance.binds[1].stamp, 0u);
  EXPECT_EQ(net.provenance.binds[2].slot, net.ops[0].dst);
  EXPECT_EQ(net.provenance.binds[2].stamp, 1u);
  EXPECT_EQ(net.provenance.binds[3].slot, net.ops[1].dst);
  EXPECT_EQ(net.provenance.binds[3].stamp, 2u);
  EXPECT_EQ(net.provenance.op_lane, (std::vector<std::uint32_t>{0, 0}));
}

TEST(Recorder, LaneAfterBindChecksTheBoundValue) {
  compile::Recorder rec;
  Cost reg = 0;
  (void)rec.lane(&reg, 0);  // reset value 0
  const sim::SlotId five = rec.constant(5);
  rec.bind_now(&reg, five);
  EXPECT_EQ(rec.lane(&reg, 5), five);
  // The register now holds 5: a model observing the old value there has
  // mis-narrated a write.
  expect_throws_at([&] { (void)rec.lane(&reg, 0); }, "lane");
}

TEST(Recorder, StagedBindTakesEffectAtTheClockEdge) {
  compile::Recorder rec;
  sim::Engine engine;
  Cost reg = 0;
  const sim::SlotId reset = rec.lane(&reg, 2);
  const sim::SlotId nine = rec.constant(9);
  rec.bind_staged(&reg, nine);
  EXPECT_EQ(rec.lane(&reg, 2), reset);  // two-phase: not visible yet
  rec.on_cycle(engine, 0);
  EXPECT_EQ(rec.lane(&reg, 9), nine);
  expect_throws_at([&] { (void)rec.lane(&reg, 2); }, "lane");
}

TEST(Recorder, LanePairOnAScalarSlotThrows) {
  compile::Recorder rec;
  Cost reg = 0;
  (void)rec.lane(&reg, 3);
  expect_throws_at([&] { (void)rec.lane_pair(&reg, 3, 0); }, "lane_pair");
}

TEST(Recorder, LanePairChecksBothHalves) {
  compile::Recorder rec;
  Cost reg = 0;
  const sim::SlotId pair = rec.lane_pair(&reg, 3, 1);
  EXPECT_EQ(rec.lane_pair(&reg, 3, 1), pair);
  expect_throws_at([&] { (void)rec.lane_pair(&reg, 3, 2); },
                   "lane_pair(arg)");
}

TEST(Recorder, RelaxOnANonPairSourceThrows) {
  compile::Recorder rec;
  const sim::SlotId scalar = rec.constant(3);
  const sim::SlotId kh = rec.constant(1);
  expect_throws_at([&] { (void)rec.relax(scalar, kh, 2, 0); }, "relax");
}

TEST(Recorder, OutputMismatchThrows) {
  compile::Recorder rec;
  const sim::SlotId s = rec.constant(3);
  expect_throws_at([&] { rec.output("out", 0, s, 4); }, "output");
}

TEST(Recorder, OutputArgOnANonPairHeadThrows) {
  compile::Recorder rec;
  const sim::SlotId s = rec.constant(3);
  expect_throws_at([&] { rec.output_arg("arg", 0, s, 3); }, "output_arg");
}

TEST(Recorder, OutOfRangeSlotIdThrowsAtEverySite) {
  compile::Recorder rec;
  Cost reg = 0;
  const sim::SlotId s = rec.constant(1);
  const sim::SlotId bad = 99;
  expect_throws_at([&] { (void)rec.mac(bad, 1, s); }, "mac");
  expect_throws_at([&] { (void)rec.mac(s, 1, bad); }, "mac");
  expect_throws_at([&] { (void)rec.fold(s, s, bad, 0); }, "fold");
  expect_throws_at([&] { (void)rec.relax(bad, s, 0, 0); }, "relax");
  expect_throws_at([&] { rec.bind_now(&reg, bad); }, "bind_now");
  expect_throws_at([&] { rec.bind_staged(&reg, bad); }, "bind_staged");
  expect_throws_at([&] { rec.output("out", 0, bad, 0); }, "output");
  expect_throws_at([&] { rec.output_arg("arg", 0, bad, 0); }, "output_arg");
}

TEST(Recorder, FinishTwiceThrows) {
  compile::Recorder rec;
  (void)rec.finish();
  expect_throws_at([&] { (void)rec.finish(); }, "finish");
}

TEST(Recorder, FinishWithStagedBindsPendingThrows) {
  compile::Recorder rec;
  Cost reg = 0;
  rec.bind_staged(&reg, rec.constant(1));
  expect_throws_at([&] { (void)rec.finish(); }, "finish");
}

/// The GKT array with its shape count one op too high.
class MiscountedGkt {
 public:
  explicit MiscountedGkt(std::vector<Cost> dims) : arr_(std::move(dims)) {}
  [[nodiscard]] GktModularArray::Result run(sim::Engine& engine) {
    return arr_.run(engine);
  }
  void describe_environment(sim::PortSet& ports) const {
    arr_.describe_environment(ports);
  }
  [[nodiscard]] sim::NarrationExtent narration_extent() const {
    sim::NarrationExtent e = arr_.narration_extent();
    ++e.ops;
    return e;
  }

 private:
  GktModularArray arr_;
};

TEST(Recorder, LoweringRejectsAShapeCountTheOracleDisagreesWith) {
  Rng rng(7);
  MiscountedGkt arr(random_chain_dims(8, rng));
  try {
    (void)compile::lower_array(arr);
    ADD_FAILURE() << "a miscounted shape lowered";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("shape predicts 85 busy steps"),
              std::string::npos)
        << e.what();
  }
}

/// The GKT array with its lane count one too high.
class MiscountedGktLanes {
 public:
  explicit MiscountedGktLanes(std::vector<Cost> dims) : arr_(std::move(dims)) {}
  [[nodiscard]] GktModularArray::Result run(sim::Engine& engine) {
    return arr_.run(engine);
  }
  void describe_environment(sim::PortSet& ports) const {
    arr_.describe_environment(ports);
  }
  [[nodiscard]] sim::NarrationExtent narration_extent() const {
    sim::NarrationExtent e = arr_.narration_extent();
    ++e.lanes;
    return e;
  }

 private:
  GktModularArray arr_;
};

TEST(Recorder, LoweringRejectsALaneCountTheRunDisagreesWith) {
  Rng rng(7);
  MiscountedGktLanes arr(random_chain_dims(8, rng));
  try {
    (void)compile::lower_array(arr);
    ADD_FAILURE() << "a miscounted lane total lowered";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("shape predicts 29 lanes"),
              std::string::npos)
        << e.what();
  }
}

/// Lower `arr` as an SSA tape and check it against the extent the array
/// worked out beforehand: ops exact, and lanes exact where stated.
/// Returns the extent and the tape.
template <typename Array>
std::pair<sim::NarrationExtent, compile::CompiledNetlist> expect_extent(
    Array& arr, const std::string& what) {
  SCOPED_TRACE(what);
  const sim::NarrationExtent e = arr.narration_extent();
  compile::LowerOptions ssa;
  ssa.compact = false;
  compile::CompiledNetlist net = compile::lower_array(arr, ssa).net;
  EXPECT_EQ(net.num_ops(), e.ops);
  if (e.lanes != 0) {
    EXPECT_EQ(net.stats.lanes_bound, e.lanes);
  }
  return {e, std::move(net)};
}

TEST(Recorder, NarrationExtentsMatchEveryFamily) {
  Rng rng(2024);
  for (const auto& [q, m] : {std::pair<std::size_t, std::size_t>{2, 3},
                            {5, 4},
                            {7, 9}}) {
    const std::string shape = std::to_string(q) + "x" + std::to_string(m);
    std::uniform_int_distribution<Cost> v(0, 9);
    std::vector<Cost> vec(m);
    for (Cost& x : vec) x = v(rng);
    Design1Modular d1(random_matrix_string(q, m, rng), vec);
    (void)expect_extent(d1, "design1 " + shape);
    Design2Modular d2(random_matrix_string(q, m, rng), vec);
    (void)expect_extent(d2, "design2 " + shape);
    const NodeValueGraph g = traffic_control_instance(q + 1, m, rng);
    Design3Modular d3(g);
    (void)expect_extent(d3, "design3 " + shape);
  }
  for (const std::size_t stages : {3u, 9u}) {
    auto prob = to_string_product(
        with_single_source_sink(random_multistage(stages, 6, rng, 1, 99)));
    Design1Modular d1(std::move(prob.mats), std::move(prob.v));
    (void)expect_extent(d1, "design1 graph " + std::to_string(stages));
  }
  for (const std::size_t n : {1u, 2u, 5u, 17u}) {
    const std::string size = "n" + std::to_string(n);
    GktModularArray gkt(random_chain_dims(n, rng));
    const auto [e, net] = expect_extent(gkt, "gkt " + size);
    // One slot per fold plus the constants 0 and +inf, and one bind per
    // fold plus each lane's reset bind: inside the recorder's reserve.
    if (n >= 2) {
      EXPECT_EQ(net.num_slots, e.ops + 2) << size;
      EXPECT_EQ(net.provenance.binds.size(), e.ops + e.lanes) << size;
    }
    TriangularModularArray<BstRule> bst(BstRule(std::vector<Cost>(n, 3)), n);
    const auto [be, bnet] = expect_extent(bst, "bst " + size);
    EXPECT_LE(bnet.num_slots, be.ops + be.lanes + 1) << size;
    TriangularModularArray<ChainRule> chain(
        ChainRule(random_chain_dims(n, rng)), n);
    const auto [ce, cnet] = expect_extent(chain, "chain " + size);
    EXPECT_LE(cnet.num_slots, ce.ops + ce.lanes + 1) << size;
  }
}

}  // namespace
}  // namespace sysdp
