// Static tape verifier tests: hand-corrupted fixtures (one per check, each
// tripping exactly that check), clean verdicts over every registry design
// in all three tape variants, and the int32 certification of the largest
// bench_all instance.  The dynamic counterpart — checked replay against
// the oracle — lives in compile_test.cpp / differential_test.cpp; this
// file proves the *static* half catches the corruptions replay would only
// stumble over at run time.
#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "../examples/design_registry.hpp"
#include "analysis/tape_verify.hpp"
#include "arrays/gkt_modular.hpp"
#include "compile/lower.hpp"
#include "compile/program.hpp"
#include "graph/generators.hpp"

namespace sysdp {
namespace {

using analysis::Severity;
using analysis::TapeVerifier;
using analysis::TapeVerifyOptions;
using analysis::TapeVerifyReport;
using compile::OpKind;

/// Two-level (MIN,+) tape that verifies completely clean:
///   slots: 0 = const 10, 1 = const 4, 2 = mid, 3 = out
///   L0: mid = min(slot0, 5 + slot1) = 9
///   L1: out = min(mid, 3 + slot0)   = 9
compile::CompiledNetlist small_tape() {
  compile::CompiledNetlist net;
  net.num_slots = 4;
  net.init = {{0, 10}, {1, 4}};
  net.ops = {{2, 0, 1, 0, 5, OpKind::kMac, 0},
             {3, 2, 0, 0, 3, OpKind::kMac, 1}};
  net.cycle_off = {0, 1, 2};
  net.expected = {9, 9};
  net.outputs = {{"res", 0, 3, 9}};
  return net;
}

std::size_t count_check(const TapeVerifyReport& r, std::string_view check,
                        Severity sev) {
  std::size_t n = 0;
  for (const auto& d : r.diagnostics) {
    if (d.check == check && d.severity == sev) ++n;
  }
  return n;
}

/// The fixture contract: the corruption trips exactly one finding at
/// warning-or-above, and it is the named check at the named severity.
/// (Note-level schedule statistics may ride along; they are informational
/// by design.)
void expect_exactly(const TapeVerifyReport& r, std::string_view check,
                    Severity sev) {
  std::size_t above_note = 0;
  for (const auto& d : r.diagnostics) {
    if (d.severity >= Severity::kWarning) ++above_note;
  }
  EXPECT_EQ(above_note, 1u) << r.to_text();
  EXPECT_EQ(count_check(r, check, sev), 1u) << r.to_text();
}

TEST(TapeVerify, CleanTapePassesAllChecks) {
  const auto rep = analysis::verify_tape(small_tape(), "clean");
  EXPECT_EQ(rep.errors(), 0u) << rep.to_text();
  EXPECT_EQ(rep.warnings(), 0u) << rep.to_text();
  EXPECT_EQ(rep.stats.ops, 2u);
  EXPECT_EQ(rep.stats.dependence_depth, 2u);
  EXPECT_EQ(rep.stats.transport_slack_ops, 0u);
  EXPECT_TRUE(rep.stats.int32_safe);
  EXPECT_NO_THROW(analysis::verify_tape_or_throw(small_tape(), "clean"));
}

// ---------------------------------------------------------------------
// One hand-corrupted fixture per check.

TEST(TapeVerify, StructureFixtureSlotOutOfBounds) {
  auto net = small_tape();
  net.ops[0].b = 9;  // tape declares 4 slots
  const auto rep = analysis::verify_tape(net, "fixture");
  expect_exactly(rep, TapeVerifier::kTapeStructure, Severity::kError);
  // The gate held: no deeper check ran against the corrupt tape.
  EXPECT_EQ(rep.diagnostics.size(), 1u) << rep.to_text();
}

TEST(TapeVerify, StructureFixtureBrokenCycleIndex) {
  auto net = small_tape();
  net.cycle_off = {0, 2, 1};  // not monotone
  const auto rep = analysis::verify_tape(net, "fixture");
  expect_exactly(rep, TapeVerifier::kTapeStructure, Severity::kError);
}

TEST(TapeVerify, DefBeforeUseFixtureDanglingSlot) {
  auto net = small_tape();
  net.num_slots = 5;
  net.ops[0].b = 4;  // slot 4 exists but nothing ever writes it
  const auto rep = analysis::verify_tape(net, "fixture");
  expect_exactly(rep, TapeVerifier::kDefBeforeUse, Severity::kError);
}

TEST(TapeVerify, LevelScheduleFixtureCrossKindInLevelChain) {
  auto net = small_tape();
  // Pull op 1 into level 0 and make it a fold: it now consumes the mac's
  // same-level result across kinds.  Every level replays in tape order, so
  // the chain is legal and merely counted.
  net.ops[1] = {3, 0, 2, 1, 3, OpKind::kFold, 1};
  net.cycle_off = {0, 2, 2};
  net.expected = {9, 10};
  net.outputs[0].expected = 10;
  const auto rep = analysis::verify_tape(net, "fixture");
  EXPECT_EQ(rep.errors(), 0u) << rep.to_text();
  EXPECT_EQ(rep.warnings(), 0u) << rep.to_text();
  EXPECT_EQ(rep.stats.in_level_chains, 1u);
}

TEST(TapeVerify, LevelScheduleFixtureReadFromFuture) {
  auto net = small_tape();
  std::swap(net.ops[0], net.ops[1]);  // consumer now precedes its producer
  const auto rep = analysis::verify_tape(net, "fixture");
  EXPECT_FALSE(rep.clean());
  EXPECT_EQ(count_check(rep, TapeVerifier::kLevelSchedule, Severity::kError),
            1u)
      << rep.to_text();
}

TEST(TapeVerify, LevelScheduleSlackBoundFires) {
  auto net = small_tape();
  // An empty level between producer and consumer: one level of transport
  // slack, legal by default, an error under a zero bound.
  net.cycle_off = {0, 1, 1, 2};
  const auto baseline = analysis::verify_tape(net, "fixture");
  EXPECT_TRUE(baseline.clean()) << baseline.to_text();
  EXPECT_EQ(baseline.stats.max_transport_slack, 1u);

  TapeVerifyOptions opt;
  opt.max_transport_slack = 0;
  const auto rep = analysis::verify_tape(net, "fixture", opt);
  expect_exactly(rep, TapeVerifier::kLevelSchedule, Severity::kError);
}

TEST(TapeVerify, SingleAssignmentFixtureDoubleWrite) {
  auto net = small_tape();
  // A second same-kind writer of slot 2 ahead of the reader: reachability
  // stays intact, only the SSA discipline breaks.
  net.ops = {{2, 0, 1, 0, 5, OpKind::kMac, 0},
             {2, 2, 1, 0, 7, OpKind::kMac, 1},
             {3, 2, 0, 0, 3, OpKind::kMac, 2}};
  net.cycle_off = {0, 1, 3};
  net.expected = {9, 9, 9};
  const auto rep = analysis::verify_tape(net, "fixture");
  expect_exactly(rep, TapeVerifier::kSingleAssignment, Severity::kError);
}

TEST(TapeVerify, SingleAssignmentFixtureDuplicateInit) {
  auto net = small_tape();
  net.init = {{0, 10}, {1, 4}, {0, 10}};
  const auto rep = analysis::verify_tape(net, "fixture");
  expect_exactly(rep, TapeVerifier::kSingleAssignment, Severity::kError);
}

TEST(TapeVerify, OutputReachabilityFixtureUnwrittenOutput) {
  auto net = small_tape();
  net.num_slots = 5;
  net.outputs.push_back({"res", 1, 4, 0});  // slot 4 is never written
  const auto rep = analysis::verify_tape(net, "fixture");
  expect_exactly(rep, TapeVerifier::kOutputReachability, Severity::kError);
}

TEST(TapeVerify, OutputReachabilityFixtureDeadOp) {
  auto net = small_tape();
  net.outputs[0].slot = 2;  // observe the midpoint; the final mac is dead
  net.outputs[0].expected = 9;
  const auto rep = analysis::verify_tape(net, "fixture");
  expect_exactly(rep, TapeVerifier::kOutputReachability, Severity::kWarning);
  EXPECT_EQ(rep.stats.dead_ops, 1u);
}

TEST(TapeVerify, ValueRangeFixtureSaturationClip) {
  auto net = small_tape();
  // Finite but sentinel-adjacent constant: adding the weight crosses into
  // the infinity band, which sat_add() would silently clamp.
  net.init[1].value = kInfCost - 5;
  const auto rep = analysis::verify_tape(net, "fixture");
  expect_exactly(rep, TapeVerifier::kValueRange, Severity::kError);
  EXPECT_FALSE(rep.stats.int32_safe);
}

TEST(TapeVerify, ValueRangeFixtureBoundExceeded) {
  auto net = small_tape();
  net.init[1].value = Cost{3000000000};  // finite, above the int32 bound
  const auto rep = analysis::verify_tape(net, "fixture");
  expect_exactly(rep, TapeVerifier::kValueRange, Severity::kWarning);
  EXPECT_FALSE(rep.stats.int32_safe);
  EXPECT_GT(rep.stats.max_abs_finite, Cost{2147483647});
}

TEST(TapeVerify, CompactionSafetyFixtureOverlappingReuse) {
  // A compacted tape that redefines slot 1 in the same level it is still
  // being read — overlapping live ranges sharing one physical slot.
  compile::CompiledNetlist net;
  net.num_slots = 2;
  net.init = {{0, 5}};
  net.ops = {{1, 0, 0, 0, 2, OpKind::kMac, 0},
             {1, 1, 0, 0, 3, OpKind::kMac, 1}};
  net.cycle_off = {0, 1, 2};
  net.expected = {5, 5};
  net.outputs = {{"res", 0, 1, 5}};
  net.stats.compacted = true;
  const auto rep = analysis::verify_tape(net, "fixture");
  expect_exactly(rep, TapeVerifier::kCompactionSafety, Severity::kError);
}

TEST(TapeVerify, BindPlaneFixtureOracleBindingMismatch) {
  auto net = small_tape();
  net.parameterised = true;
  net.params = {5, 99};  // op 1 bakes w=3, the plane claims 99
  const auto rep = analysis::verify_tape(net, "fixture");
  expect_exactly(rep, TapeVerifier::kBindPlane, Severity::kError);
}

TEST(TapeVerify, BindPlaneFixtureParamOutsidePlaneWithRebinding) {
  auto net = small_tape();
  net.parameterised = true;
  net.params = {5, 3};
  net.ops[1].param = 1000000;  // far outside the plane of two
  TapeVerifyOptions opt;
  opt.bound_weights = {6, 50};
  const auto rep = analysis::verify_tape(net, "fixture", opt);
  expect_exactly(rep, TapeVerifier::kBindPlane, Severity::kError);
  // The value range holds op 1 to its baked weight 3 (10 + 3 = 13) and
  // rebinds op 0 (6 + 4 = 10); it never reads past the table.
  EXPECT_EQ(rep.stats.max_abs_finite, Cost{13});
}

TEST(TapeVerify, BindPlaneFixtureStrayPlane) {
  auto net = small_tape();
  net.params = {5, 3};  // plane present, parameterised flag off
  const auto rep = analysis::verify_tape(net, "fixture");
  expect_exactly(rep, TapeVerifier::kBindPlane, Severity::kError);
}

/// small_tape() plus a consistent one-lane provenance table: the initial
/// image binds slot 0 at reset, then the two op results as they commit.
compile::CompiledNetlist provenanced_tape() {
  auto net = small_tape();
  compile::Provenance& prov = net.provenance;
  prov.modules = {"pe"};
  prov.lanes = {{"pe", "acc", 0, true}};
  prov.binds = {{0, 0, 0}, {1, 0, 2}, {2, 0, 3}};
  prov.op_lane = {0, 0};
  return net;
}

TEST(TapeVerify, ProvenancedTapeVerifiesCleanWithStats) {
  const auto rep = analysis::verify_tape(provenanced_tape(), "clean");
  EXPECT_EQ(rep.errors(), 0u) << rep.to_text();
  EXPECT_EQ(rep.warnings(), 0u) << rep.to_text();
  EXPECT_EQ(rep.stats.provenance_lanes, 1u);
  EXPECT_EQ(rep.stats.provenance_binds, 3u);
  EXPECT_EQ(rep.stats.ops_attributed, 2u);
  EXPECT_NE(rep.to_text().find("provenance: 1 lanes, 3 binds"),
            std::string::npos)
      << rep.to_text();
  EXPECT_NE(rep.to_json().find("\"provenance_binds\": 3"), std::string::npos);
}

TEST(TapeVerify, ProvenanceFixtureOpLaneNeitherAbsentNorParallel) {
  auto net = provenanced_tape();
  net.provenance.op_lane = {0};  // 1 entry for a 2-op tape
  const auto rep = analysis::verify_tape(net, "fixture");
  expect_exactly(rep, TapeVerifier::kProvenance, Severity::kError);
}

TEST(TapeVerify, ProvenanceFixtureAttributionLaneOutOfRange) {
  auto net = provenanced_tape();
  net.provenance.op_lane = {5, compile::Provenance::kNone};
  const auto rep = analysis::verify_tape(net, "fixture");
  expect_exactly(rep, TapeVerifier::kProvenance, Severity::kError);
}

TEST(TapeVerify, ProvenanceFixtureModuleIdOutOfRange) {
  auto net = provenanced_tape();
  net.provenance.lanes[0].module_id = 3;  // table holds one module
  const auto rep = analysis::verify_tape(net, "fixture");
  expect_exactly(rep, TapeVerifier::kProvenance, Severity::kError);
}

TEST(TapeVerify, ProvenanceFixtureNamedLaneWithoutModule) {
  auto net = provenanced_tape();
  net.provenance.lanes[0].module_id = compile::Provenance::kNone;
  const auto rep = analysis::verify_tape(net, "fixture");
  expect_exactly(rep, TapeVerifier::kProvenance, Severity::kError);
}

TEST(TapeVerify, ProvenanceFixtureUnsortedBinds) {
  auto net = provenanced_tape();
  std::swap(net.provenance.binds[1], net.provenance.binds[2]);
  const auto rep = analysis::verify_tape(net, "fixture");
  expect_exactly(rep, TapeVerifier::kProvenance, Severity::kError);
}

TEST(TapeVerify, ProvenanceFixtureStampPastTheReplay) {
  auto net = provenanced_tape();
  net.provenance.binds[2].stamp = 9;  // the tape replays 2 cycles
  const auto rep = analysis::verify_tape(net, "fixture");
  expect_exactly(rep, TapeVerifier::kProvenance, Severity::kError);
}

TEST(TapeVerify, ProvenanceFixtureBindLaneAndSlotOutOfRange) {
  {
    auto net = provenanced_tape();
    net.provenance.binds[0].lane = 7;
    const auto rep = analysis::verify_tape(net, "fixture");
    expect_exactly(rep, TapeVerifier::kProvenance, Severity::kError);
  }
  {
    auto net = provenanced_tape();
    net.provenance.binds[0].slot = 9;
    const auto rep = analysis::verify_tape(net, "fixture");
    expect_exactly(rep, TapeVerifier::kProvenance, Severity::kError);
  }
}

TEST(TapeVerify, ProvenanceFixtureSampledBeforeComputed) {
  auto net = provenanced_tape();
  // Slot 2 is defined at level 0; a stamp-0 bind samples the reset image,
  // showing a value before the tape computes it.
  net.provenance.binds[1] = {0, 0, 2};
  const auto rep = analysis::verify_tape(net, "fixture");
  expect_exactly(rep, TapeVerifier::kProvenance, Severity::kError);
}

TEST(TapeVerify, ProvenanceFixtureBindsAnUnwrittenSlot) {
  auto net = provenanced_tape();
  net.num_slots = 5;  // slot 4 exists but nothing initialises or writes it
  net.provenance.binds.push_back({2, 0, 4});
  const auto rep = analysis::verify_tape(net, "fixture");
  expect_exactly(rep, TapeVerifier::kProvenance, Severity::kError);
}

TEST(TapeVerify, RelaxPairHalvesFromDifferentDefsRejected) {
  // A relax whose pair operand is stitched together from two unrelated
  // scalar defs — not a coherent (value, station) pair.
  compile::CompiledNetlist net;
  net.num_slots = 7;
  net.init = {{0, 7}, {1, 2}, {2, 9}};
  net.ops = {{3, 0, 1, 0, 1, OpKind::kMac, 0},     // slot 3 = min(7,3) = 3
             {4, 0, 2, 0, 1, OpKind::kMac, 1},     // slot 4 = min(7,10) = 7
             {5, 3, 1, 2, 1, OpKind::kRelax, 2}};  // pair (3,4) -> (5,6)
  net.cycle_off = {0, 2, 3};
  net.expected = {3, 7, 3};
  net.outputs = {{"best", 0, 5, 3}};
  const auto rep = analysis::verify_tape(net, "fixture");
  expect_exactly(rep, TapeVerifier::kDefBeforeUse, Severity::kError);
}

// ---------------------------------------------------------------------
// Verifier ergonomics.

// Site strings are built only when a finding is emitted, so these pin what
// they say: the op's index and level, or the bind's index.
TEST(TapeVerify, FindingSitesNameTheOpAndLevelOrTheBind) {
  {
    // L0: slot2 = 9, slot3 = 4, slot4 = 6; L1: slot5 = min(slot2, w + slot4).
    compile::CompiledNetlist net;
    net.num_slots = 6;
    net.init = {{0, 10}, {1, 4}};
    net.ops = {{2, 0, 1, 0, 5, OpKind::kMac, 0},
               {3, 1, 0, 0, 1, OpKind::kMac, 1},
               {4, 0, 1, 0, 2, OpKind::kMac, 2},
               {5, 2, 4, 0, 3, OpKind::kMac, 3}};
    net.cycle_off = {0, 3, 4};
    net.expected = {9, 4, 6, 9};
    net.outputs = {{"res", 0, 5, 9}, {"res", 1, 3, 4}};
    ASSERT_TRUE(analysis::verify_tape(net, "clean").clean());
    net.ops[3].w = kInfCost - 2;  // finite, but w + slot4 saturates
    const auto rep = analysis::verify_tape(net, "fixture");
    expect_exactly(rep, TapeVerifier::kValueRange, Severity::kError);
    ASSERT_EQ(rep.diagnostics.size(), 1u) << rep.to_text();
    EXPECT_EQ(rep.diagnostics[0].module, "op#3@L1");
    EXPECT_EQ(rep.diagnostics[0].storage, "slot5");
  }
  {
    auto net = provenanced_tape();
    std::swap(net.provenance.binds[1], net.provenance.binds[2]);
    const auto rep = analysis::verify_tape(net, "fixture");
    expect_exactly(rep, TapeVerifier::kProvenance, Severity::kError);
    ASSERT_EQ(rep.diagnostics.size(), 1u) << rep.to_text();
    EXPECT_EQ(rep.diagnostics[0].module, "bind#2");
  }
}

TEST(TapeVerify, VerifyOrThrowCarriesTheReport) {
  auto net = small_tape();
  net.init = {{0, 10}, {1, 4}, {0, 10}};
  try {
    analysis::verify_tape_or_throw(net, "broken");
    FAIL() << "expected verify_tape_or_throw to throw";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("single-assignment"), std::string::npos) << what;
    EXPECT_NE(what.find("broken"), std::string::npos) << what;
  }
}

TEST(TapeVerify, SetSeverityOverridesAndListsKnownChecks) {
  TapeVerifier v;
  v.set_severity(TapeVerifier::kSingleAssignment, Severity::kNote);
  auto net = small_tape();
  net.init = {{0, 10}, {1, 4}, {0, 10}};
  const auto rep = v.run(net, "demoted");
  EXPECT_TRUE(rep.clean()) << rep.to_text();
  EXPECT_EQ(count_check(rep, TapeVerifier::kSingleAssignment,
                        Severity::kNote),
            1u);

  try {
    v.set_severity("no-such-check", Severity::kError);
    FAIL() << "expected set_severity to throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no-such-check"), std::string::npos) << what;
    // The message must enumerate the real check names.
    EXPECT_NE(what.find("compaction-safety"), std::string::npos) << what;
    EXPECT_NE(what.find("value-range"), std::string::npos) << what;
  }
}

TEST(TapeVerify, JsonReportIsWellShaped) {
  const auto rep = analysis::verify_tape(small_tape(), "json \"quoted\"");
  const std::string doc = rep.to_json();
  EXPECT_NE(doc.find("\"design\": \"json \\\"quoted\\\"\""),
            std::string::npos)
      << doc;
  EXPECT_NE(doc.find("\"dependence_depth\": 2"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"int32_safe\": true"), std::string::npos) << doc;
}

// ---------------------------------------------------------------------
// Every registered design instance verifies clean in all three variants:
// the raw SSA tape, the compacted tape, and a parameterised tape under a
// perturbed rebinding.

TEST(TapeVerifyRegistry, AllDesignsAllVariantsVerifyClean) {
  for (const auto& spec : examples::all_designs()) {
    SCOPED_TRACE(spec.name);
    {
      compile::LowerOptions lopt;
      lopt.compact = false;
      const auto rep = analysis::verify_tape(spec.make()->lower(lopt).net,
                                             spec.name + "#ssa");
      EXPECT_EQ(rep.errors(), 0u) << rep.to_text();
      EXPECT_EQ(rep.warnings(), 0u) << rep.to_text();
      EXPECT_FALSE(rep.stats.compacted);
    }
    {
      const auto rep = analysis::verify_tape(spec.make()->lower({}).net,
                                             spec.name + "#compacted");
      EXPECT_EQ(rep.errors(), 0u) << rep.to_text();
      EXPECT_EQ(rep.warnings(), 0u) << rep.to_text();
      EXPECT_TRUE(rep.stats.compacted);
    }
    {
      compile::LowerOptions lopt;
      lopt.parameterise = true;
      const auto low = spec.make()->lower(lopt);
      TapeVerifyOptions vopt;
      vopt.bound_weights = low.net.params;
      for (Cost& w : vopt.bound_weights) {
        if (!is_inf(w) && !is_neg_inf(w)) w += 1;
      }
      const auto rep =
          analysis::verify_tape(low.net, spec.name + "#rebound", vopt);
      EXPECT_EQ(rep.errors(), 0u) << rep.to_text();
      EXPECT_EQ(rep.warnings(), 0u) << rep.to_text();
      EXPECT_TRUE(rep.stats.parameterised);
    }
  }
}

// ---------------------------------------------------------------------
// The headline certification: the largest bench_all instance (the GKT
// chain array at n=96, same seed as the gkt_modular_n96 bench entries)
// provably keeps every reachable value — including intermediates — inside
// int32, so the narrow-lane SIMD kernels are lossless for it.

TEST(TapeVerifyCertification, GktN96TapeIsInt32Safe) {
  Rng rng(96096);  // bench_all's gkt_modular_n96 instance
  const auto dims = random_chain_dims(96, rng);
  GktModularArray arr(dims);
  const auto low = compile::lower_array(arr);
  const auto rep = analysis::verify_tape(low.net, "gkt_n96");
  EXPECT_EQ(rep.errors(), 0u) << rep.to_text();
  EXPECT_EQ(rep.warnings(), 0u) << rep.to_text();
  EXPECT_TRUE(rep.stats.int32_safe);
  EXPECT_GT(rep.stats.max_abs_finite, 0);
  EXPECT_LE(rep.stats.max_abs_finite, Cost{2147483647});
}

}  // namespace
}  // namespace sysdp
