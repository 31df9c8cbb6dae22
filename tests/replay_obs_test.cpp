// Compiled-replay observability: provenance-driven waveforms, per-module
// timelines and the replay profiler exported as sysdp-profile-v1.
//
// The telemetry contract under test has three legs:
//
//   * name parity — every signal the compiled VCD renders also exists in
//     the interpreted run's VCD (provenance lanes resolve to the same
//     module/port labels obs::VcdSink scopes);
//   * determinism — VCD, timeline JSON and the profile document (timing
//     omitted) are byte-identical across batch widths and across
//     compacted vs. uncompacted tapes, because every emitted byte is a
//     function of the tape alone;
//   * accounting — profiler per-level op counts equal the tape's CSR
//     level sizes, the timeline aggregate equals ops_executed, and the
//     ReplayResult kind totals match the profiler's.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "arrays/design1_modular.hpp"
#include "arrays/triangular_array.hpp"
#include "arrays/triangular_modular.hpp"
#include "analysis/tape_verify.hpp"
#include "compile/engine.hpp"
#include "compile/lower.hpp"
#include "compile/profile.hpp"
#include "compile/program.hpp"
#include "graph/generators.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/replay.hpp"
#include "obs/vcd.hpp"
#include "sim/engine.hpp"

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

compile::Lowered lower_design1(std::size_t q, std::size_t m,
                               std::uint64_t seed, bool compact = true) {
  const auto [mats, v] = string_instance(q, m, seed);
  Design1Modular arr(mats, v);
  compile::LowerOptions opt;
  opt.compact = compact;
  return compile::lower_array(arr, opt);
}

/// Signal names declared in a VCD header, in document order.
std::vector<std::string> vcd_var_names(const std::string& doc) {
  std::vector<std::string> names;
  std::istringstream in(doc);
  std::string line;
  while (std::getline(in, line)) {
    const auto pos = line.find("$var integer 64 ");
    if (pos == std::string::npos) continue;
    // "$var integer 64 <id> <name> $end" — the name is the second token
    // after the width.
    std::istringstream fields(line.substr(pos + 16));
    std::string id;
    std::string name;
    fields >> id >> name;
    names.push_back(name);
  }
  return names;
}

bool balanced_json(const std::string& doc) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char c : doc) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string;
}

// ---------------------------------------------------------------------------
// Provenance tables on lowered designs

TEST(ReplayProvenance, LoweredDesignsCarryVerifiedProvenance) {
  const auto check = [](const compile::Lowered& low, const char* what,
                        bool expect_named) {
    SCOPED_TRACE(what);
    const compile::Provenance& prov = low.net.provenance;
    EXPECT_FALSE(prov.empty());
    EXPECT_FALSE(prov.binds.empty());
    EXPECT_EQ(prov.op_lane.size(), low.net.num_ops());
    std::size_t named = 0;
    for (const auto& lane : prov.lanes) named += lane.named ? 1u : 0u;
    if (expect_named) {
      EXPECT_GT(named, 0u);
      EXPECT_FALSE(prov.modules.empty());
    }
    // The ninth static check accepts what lowering emitted.
    const auto rep = analysis::verify_tape(low.net, what);
    EXPECT_EQ(rep.errors(), 0u) << rep.to_text();
    EXPECT_EQ(rep.stats.provenance_lanes, prov.lanes.size());
    EXPECT_EQ(rep.stats.provenance_binds, prov.binds.size());
  };

  check(lower_design1(3, 6, 42), "design1", true);
  {
    Rng rng(7);
    TriangularModularArray<ChainRule> arr(ChainRule(random_chain_dims(5, rng)),
                                          5);
    // GKT narrates arena cost lanes; describe_ports declares link flits —
    // no lane resolves to a name, and that is the documented contract.
    check(compile::lower_array(arr), "gkt", false);
  }
  {
    std::vector<Cost> costs{3, 1, 4, 1, 5, 9};
    const BstRule rule(costs);
    TriangularModularArray<BstRule> arr(rule, rule.num_keys());
    check(compile::lower_array(arr), "triangular-bst", false);
  }
}

// ---------------------------------------------------------------------------
// Waveform name parity with the interpreted run

TEST(ReplayVcd, SignalNamesAreASubsetOfTheInterpretedDocument) {
  const auto [mats, v] = string_instance(3, 6, 42);

  Design1Modular interp_arr(mats, v);
  sim::Engine engine;
  obs::VcdSink interp_vcd("sysdp");
  engine.add_observer(&interp_vcd);
  (void)interp_arr.run(engine);
  const auto interp_names = vcd_var_names(interp_vcd.str());
  ASSERT_FALSE(interp_names.empty());
  const std::set<std::string> interp_set(interp_names.begin(),
                                         interp_names.end());

  Design1Modular arr(mats, v);
  const auto low = compile::lower_array(arr);
  compile::CompiledEngine ce(low.net);
  obs::ReplayVcdSink vcd("sysdp");
  ce.add_observer(&vcd);
  ce.run_all();

  EXPECT_GT(vcd.num_signals(), 0u);
  for (const std::string& name : vcd.signal_names()) {
    EXPECT_TRUE(interp_set.count(name))
        << "compiled signal '" << name << "' missing from interpreted VCD";
  }
  // The header declares exactly the probes the sink reports.
  EXPECT_EQ(vcd_var_names(vcd.str()), vcd.signal_names());
}

TEST(ReplayVcd, DocumentIsByteIdenticalAcrossBatchWidths) {
  const auto low = lower_design1(3, 6, 42);

  compile::CompiledEngine scalar(low.net);
  obs::ReplayVcdSink scalar_vcd;
  scalar.add_observer(&scalar_vcd);
  scalar.run_all();
  const std::string golden = scalar_vcd.str();
  ASSERT_FALSE(golden.empty());

  for (const std::uint32_t lanes : {1u, 2u, 8u}) {
    SCOPED_TRACE("lanes=" + std::to_string(lanes));
    compile::CompiledEngine batched(low.net, lanes);
    obs::ReplayVcdSink vcd;  // lane 0
    batched.add_observer(&vcd);
    batched.run_all();
    EXPECT_EQ(vcd.str(), golden);
  }
}

TEST(ReplayVcd, DocumentIsByteIdenticalAcrossCompaction) {
  const auto compacted = lower_design1(2, 4, 11, /*compact=*/true);
  const auto ssa = lower_design1(2, 4, 11, /*compact=*/false);
  ASSERT_TRUE(compacted.net.compacted());
  ASSERT_FALSE(ssa.net.compacted());

  const auto render = [](const compile::CompiledNetlist& net) {
    compile::CompiledEngine ce(net);
    obs::ReplayVcdSink vcd;
    ce.add_observer(&vcd);
    ce.run_all();
    return vcd.str();
  };
  EXPECT_EQ(render(compacted.net), render(ssa.net));
}

TEST(ReplayVcd, RejectsLanePastTheBatchWidth) {
  const auto low = lower_design1(1, 4, 3);
  compile::CompiledEngine ce(low.net);
  obs::ReplayVcdSink vcd("sysdp", /*lane=*/2);
  EXPECT_THROW(ce.add_observer(&vcd), std::out_of_range);
}

// ---------------------------------------------------------------------------
// Per-module timeline accounting

TEST(ReplayTimeline, AggregateEqualsOpsExecuted) {
  const auto low = lower_design1(3, 6, 42);
  compile::CompiledEngine ce(low.net);
  obs::ReplayTimelineSink timeline;
  ce.add_observer(&timeline);
  ce.run_all();
  timeline.finalize();

  const compile::ReplayResult res = ce.result();
  EXPECT_EQ(timeline.aggregate_busy(), res.ops_executed);
  EXPECT_EQ(res.ops_executed, low.net.num_ops());
  EXPECT_GT(timeline.utilization(), 0.0);
  EXPECT_LE(timeline.utilization(), 1.0);
  EXPECT_FALSE(timeline.pe_names().empty());
  EXPECT_TRUE(balanced_json(timeline.to_json()));
}

TEST(ReplayTimeline, UnattributedOpsLandOnTheirOwnRow) {
  Rng rng(7);
  TriangularModularArray<ChainRule> arr(ChainRule(random_chain_dims(4, rng)),
                                        4);
  const auto low = compile::lower_array(arr);

  compile::CompiledEngine ce(low.net);
  obs::ReplayTimelineSink timeline;
  ce.add_observer(&timeline);
  ce.run_all();
  timeline.finalize();

  // Every GKT op is unattributed (no named lanes), so the sink adds the
  // single "(unattributed)" row and the aggregate still balances.
  EXPECT_EQ(timeline.pe_names().back(), "(unattributed)");
  EXPECT_EQ(timeline.aggregate_busy(), ce.result().ops_executed);
}

TEST(ReplayTimeline, TimelineAccessBeforeAnyReplayThrows) {
  obs::ReplayTimelineSink timeline;
  EXPECT_THROW((void)timeline.timeline(), std::logic_error);
}

// ---------------------------------------------------------------------------
// Profiler accounting

TEST(ReplayProfiler, PerLevelOpsMatchTheCycleIndex) {
  const auto low = lower_design1(3, 6, 42);
  compile::CompiledEngine ce(low.net);
  compile::ReplayProfiler prof;
  ce.add_observer(&prof);
  ce.run_all();
  prof.finish();

  ASSERT_EQ(prof.levels().size(), low.net.cycles());
  for (sim::Cycle t = 0; t < low.net.cycles(); ++t) {
    const std::uint64_t expected =
        low.net.cycle_off[t + 1] - low.net.cycle_off[t];
    EXPECT_EQ(prof.levels()[t].ops, expected) << "level " << t;
    EXPECT_EQ(prof.levels()[t].visits, 1u) << "level " << t;
  }
  EXPECT_EQ(prof.total_ops(), low.net.num_ops());

  const compile::ReplayResult res = ce.result();
  EXPECT_EQ(prof.total_mac(), res.mac_ops);
  EXPECT_EQ(prof.total_fold(), res.fold_ops);
  EXPECT_EQ(prof.total_relax(), res.relax_ops);
  EXPECT_EQ(prof.total_ops(), res.ops_executed);
  ASSERT_EQ(prof.replays().size(), 1u);
  EXPECT_EQ(prof.replays()[0].ops, res.ops_executed);
  EXPECT_EQ(prof.replays()[0].lanes, 1u);
}

TEST(ReplayProfiler, AccumulatesAcrossResetsAndBatchWidths) {
  const auto low = lower_design1(2, 4, 9);
  compile::ReplayProfiler prof;

  compile::CompiledEngine ce(low.net);
  ce.add_observer(&prof);
  ce.run_all();
  ce.reset();
  ce.run_all();

  compile::CompiledEngine batched(low.net, 4);
  batched.add_observer(&prof);
  batched.run_all();
  prof.finish();

  ASSERT_EQ(prof.replays().size(), 3u);
  EXPECT_EQ(prof.replays()[0].ops, low.net.num_ops());
  EXPECT_EQ(prof.replays()[1].ops, low.net.num_ops());
  // A multi-lane engine counts op-lane executions.
  EXPECT_EQ(prof.replays()[2].ops, low.net.num_ops() * 4u);
  EXPECT_EQ(prof.replays()[2].lanes, 4u);
  EXPECT_EQ(prof.total_ops(), low.net.num_ops() * 6u);
  for (const auto& agg : prof.levels()) {
    if (agg.ops == 0) continue;
    EXPECT_EQ(agg.visits, 3u);
  }
  EXPECT_GE(prof.replay_skew(), 0.0);
}

// ---------------------------------------------------------------------------
// Exported documents

TEST(ProfileJson, TimingFreeDocumentIsDeterministicAcrossConfigurations) {
  const auto render = [](const compile::CompiledNetlist& net,
                         std::uint32_t lanes) {
    compile::ReplayProfiler prof;
    if (lanes == 1) {
      compile::CompiledEngine ce(net);
      ce.add_observer(&prof);
      ce.run_all();
    } else {
      compile::CompiledEngine ce(net, lanes);
      ce.add_observer(&prof);
      ce.run_all();
    }
    prof.finish();
    obs::ProfileJsonOptions opt;
    opt.include_timing = false;
    return obs::profile_json("design1", net, prof, opt);
  };

  const auto compacted = lower_design1(2, 4, 11, /*compact=*/true);
  const auto ssa = lower_design1(2, 4, 11, /*compact=*/false);
  const std::string golden = render(compacted.net, 1);
  EXPECT_TRUE(balanced_json(golden));
  EXPECT_NE(golden.find("\"schema\": \"sysdp-profile-v1\""),
            std::string::npos);
  EXPECT_NE(golden.find("\"design\": \"design1\""), std::string::npos);
  // Timing fields are the nondeterministic half; they must be absent.
  EXPECT_EQ(golden.find("wall_ns"), std::string::npos);

  EXPECT_EQ(render(compacted.net, 1), golden);
  // Per-level structure ignores slot naming; only the tape block differs
  // between compacted and SSA tapes, so compare from the totals on.
  const std::string ssa_doc = render(ssa.net, 1);
  const auto tail = [](const std::string& doc) {
    const auto pos = doc.find("\"totals\"");
    return pos == std::string::npos ? doc : doc.substr(pos);
  };
  EXPECT_EQ(tail(ssa_doc), tail(golden));
}

TEST(ProfileJson, TimedDocumentCarriesTheTimingBlock) {
  const auto low = lower_design1(1, 4, 5);
  compile::CompiledEngine ce(low.net);
  compile::ReplayProfiler prof;
  ce.add_observer(&prof);
  ce.run_all();
  prof.finish();

  const std::string doc = obs::profile_json("d1", low.net, prof);
  EXPECT_TRUE(balanced_json(doc));
  EXPECT_NE(doc.find("\"timing\""), std::string::npos);
  EXPECT_NE(doc.find("\"replay_wall_ns\""), std::string::npos);
}

TEST(ProfileMetrics, FillsHistogramsCountersAndSkew) {
  const auto low = lower_design1(2, 4, 9);
  compile::CompiledEngine ce(low.net);
  compile::ReplayProfiler prof;
  ce.add_observer(&prof);
  ce.run_all();
  for (int r = 0; r < 3; ++r) {
    ce.reset();
    ce.run_all();
  }
  prof.finish();

  obs::MetricsRegistry metrics;
  obs::profile_metrics(metrics, prof);
  EXPECT_EQ(metrics.counter("replay.count"), 4u);
  EXPECT_EQ(metrics.counter("replay.ops"), low.net.num_ops() * 4u);
  ASSERT_EQ(metrics.histograms().count("replay.wall_ns"), 1u);
  EXPECT_EQ(metrics.histograms().at("replay.wall_ns").count(), 4u);
  ASSERT_EQ(metrics.histograms().count("replay.level_ns"), 1u);
  // The histograms render inside the sysdp-metrics-v2 document.
  const std::string doc = obs::metrics_json("d1", metrics, nullptr);
  EXPECT_NE(doc.find("\"schema\": \"sysdp-metrics-v2\""), std::string::npos);
  EXPECT_NE(doc.find("\"histograms\""), std::string::npos);
  EXPECT_TRUE(balanced_json(doc));
}

TEST(ReplayTrace, ChromeSpansAreWellFormedAndCycleAligned) {
  const auto low = lower_design1(2, 4, 9);
  compile::CompiledEngine ce(low.net);
  compile::ReplayProfiler prof;
  ce.add_observer(&prof);
  ce.run_all();
  prof.finish();

  obs::ChromeTraceWriter trace;
  obs::append_replay_trace(trace, "design1", prof, 4);
  EXPECT_GT(trace.size(), 0u);
  EXPECT_EQ(trace.dropped_events(), 0u);
  const std::string doc = trace.str();
  EXPECT_TRUE(balanced_json(doc));
  EXPECT_NE(doc.find("compiled replay (design1)"), std::string::npos);
  // One complete span per non-empty level.
  std::size_t spans = 0;
  for (std::size_t pos = doc.find("\"ph\": \"X\""); pos != std::string::npos;
       pos = doc.find("\"ph\": \"X\"", pos + 1)) {
    ++spans;
  }
  std::size_t nonempty = 0;
  for (const auto& agg : prof.levels()) nonempty += agg.ops > 0 ? 1u : 0u;
  EXPECT_EQ(spans, nonempty);
}

}  // namespace
}  // namespace sysdp
