// Telemetry layer: metrics registry, trace overflow policies, VCD
// waveforms, utilisation timelines, and the chrome-trace exporter.
//
// The observability contract has three legs, each pinned here:
//
//   * bounded sinks account for every discarded event (Trace policies,
//     ChromeTraceWriter caps) and arrays surface the count in RunResult;
//   * probes read committed state only, so documents are deterministic —
//     the VCD golden test fixes the byte-exact rendering;
//   * derived documents agree with the primary accounting: timeline
//     buckets sum to busy_steps, and the DnC scheduler spans reproduce the
//     paper's eq. (29) utilisation exactly.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "arrays/design1_modular.hpp"
#include "arrays/design3_feedback.hpp"
#include "dnc/metrics.hpp"
#include "dnc/schedule.hpp"
#include "graph/generators.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "obs/vcd.hpp"
#include "sim/engine.hpp"
#include "sim/module.hpp"
#include "sim/port.hpp"
#include "sim/stats.hpp"
#include "sim/thread_pool.hpp"
#include "sim/trace.hpp"

namespace sysdp {
namespace {

// ---------------------------------------------------------------------------
// Helpers

/// Structural JSON well-formedness: braces/brackets balance outside string
/// literals and never go negative.  The emitters write (never parse) JSON,
/// so this is the invariant a consumer's real parser depends on.
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
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
      case '[':
        ++depth;
        break;
      case '}':
      case ']':
        if (--depth < 0) return false;
        break;
      default:
        break;
    }
  }
  return depth == 0 && !in_string;
}

/// Two registers a VCD golden test can predict exactly: a parity bit and a
/// committed-cycle count.
class CounterModule final : public sim::Module {
 public:
  CounterModule() : sim::Module("ctr") {}

  void eval(sim::Cycle t) override {
    next_ = static_cast<std::int64_t>(t % 2);
  }
  void commit() override {
    parity_ = next_;
    ++count_;
  }
  void describe_ports(sim::PortSet& ports) const override {
    ports.writes_register(&parity_, "parity");
    ports.writes_register(&count_, "count");
  }

 private:
  std::int64_t parity_ = 0;
  std::int64_t next_ = 0;
  std::int64_t count_ = 0;
};

// ---------------------------------------------------------------------------
// MetricsRegistry

TEST(MetricsRegistryTest, CountSetAndDefaults) {
  obs::MetricsRegistry m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.counter("absent"), 0u);
  EXPECT_EQ(m.gauge("absent"), 0.0);

  m.count("evals");
  m.count("evals", 4);
  EXPECT_EQ(m.counter("evals"), 5u);
  m.set_counter("evals", 2);
  EXPECT_EQ(m.counter("evals"), 2u);
  m.set_gauge("util", 0.5);
  EXPECT_EQ(m.gauge("util"), 0.5);
  EXPECT_FALSE(m.empty());
}

TEST(MetricsRegistryTest, RenderingsAreSortedAndInsertionOrderFree) {
  obs::MetricsRegistry a;
  a.set_counter("zebra", 1);
  a.set_counter("apple", 22);
  a.set_gauge("mid", 0.5);

  obs::MetricsRegistry b;  // same content, reversed insertion order
  b.set_gauge("mid", 0.5);
  b.set_counter("apple", 22);
  b.set_counter("zebra", 1);

  EXPECT_EQ(a.to_text(), b.to_text());
  EXPECT_EQ(a.to_json(), b.to_json());
  // Counters render first, in sorted key order, aligned to the widest name.
  EXPECT_EQ(a.to_text(), "apple  22\nzebra  1\nmid    0.5\n");
  EXPECT_EQ(a.to_json(),
            "{\"counters\": {\"apple\": 22, \"zebra\": 1}, "
            "\"gauges\": {\"mid\": 0.5}}");
  EXPECT_TRUE(balanced_json(a.to_json()));
}

TEST(MetricsRegistryTest, MetricsV1DocumentIsWellFormed) {
  // Counters and gauges only — what the retired v1 schema carried — now
  // render under the one v2 schema name.
  obs::MetricsRegistry m;
  m.set_counter("run.cycles", 29);
  m.set_gauge("run.utilization_wall", 0.828);
  const std::string doc = obs::metrics_json("design1-modular[q4,m6]", m,
                                            nullptr);
  EXPECT_NE(doc.find("\"schema\": \"sysdp-metrics-v2\""), std::string::npos);
  EXPECT_EQ(doc.find("\"histograms\""), std::string::npos);
  EXPECT_NE(doc.find("\"design\": \"design1-modular[q4,m6]\""),
            std::string::npos);
  EXPECT_NE(doc.find("\"run.cycles\": 29"), std::string::npos);
  EXPECT_TRUE(balanced_json(doc));
}

TEST(HistogramTest, BucketBoundariesFollowBitWidth) {
  obs::Histogram h;
  h.record(0);  // bucket 0: zeros
  h.record(1);  // bucket 1: [1, 1]
  h.record(2);  // bucket 2: [2, 3]
  h.record(3);
  h.record(4);  // bucket 3: [4, 7]
  h.record(7);
  h.record(8);  // bucket 4: [8, 15]
  EXPECT_EQ(h.count(), 7u);
  EXPECT_EQ(h.sum(), 25u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 8u);
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[2], 2u);
  EXPECT_EQ(h.buckets()[3], 2u);
  EXPECT_EQ(h.buckets()[4], 1u);
}

TEST(HistogramTest, QuantilesResolveToBucketUpperBoundsClamped) {
  obs::Histogram empty;
  EXPECT_EQ(empty.quantile(0.5), 0u);

  obs::Histogram h;
  for (int i = 0; i < 9; ++i) h.record(5);  // bucket 3, upper bound 7
  h.record(100);  // bucket 7, upper bound 127 — but clamped to max 100
  // Rank 5 of 10 lands in bucket 3; its upper bound 7 exceeds every
  // recorded 5, within the documented 2x contract.
  EXPECT_EQ(h.quantile(0.50), 7u);
  // The top quantile clamps to the observed max, not the bucket bound.
  EXPECT_EQ(h.quantile(0.99), 100u);
  EXPECT_EQ(h.quantile(0.0), 7u);   // rank floors at 1
  EXPECT_EQ(h.quantile(-1.0), 7u);  // out-of-range q clamps
  EXPECT_TRUE(balanced_json(h.to_json()));
  EXPECT_NE(h.to_json().find("\"buckets\": [[7, 9], [127, 1]]"),
            std::string::npos);
}

TEST(HistogramTest, SingleSampleQuantilesClampIntoTheObservedRange) {
  obs::Histogram h;
  h.record(1000);  // bucket 10, upper bound 1023
  EXPECT_EQ(h.quantile(0.5), 1000u);  // clamped to max
  EXPECT_EQ(h.min(), 1000u);
  EXPECT_EQ(h.max(), 1000u);
}

TEST(MetricsRegistryTest, HistogramFreeRegistryRendersV2ByteForByte) {
  // One schema name whatever the registry holds: a registry that never
  // recorded a histogram renders v2 with no "histograms" object.
  obs::MetricsRegistry m;
  m.set_counter("run.cycles", 29);
  m.set_gauge("run.utilization_wall", 0.828);
  const std::string doc = obs::metrics_json("d1", m, nullptr);
  EXPECT_EQ(doc,
            "{\n  \"schema\": \"sysdp-metrics-v2\",\n"
            "  \"design\": \"d1\",\n"
            "  \"metrics\": {\"counters\": {\"run.cycles\": 29}, "
            "\"gauges\": {\"run.utilization_wall\": 0.828}}\n}\n");

  // One recorded sample adds the "histograms" object after the gauges;
  // the schema name and everything before it stay put.
  m.observe("replay.wall_ns", 4096);
  const std::string with_hist = obs::metrics_json("d1", m, nullptr);
  // Everything up to the gauges' closing brace.
  const std::string head = doc.substr(0, doc.size() - 4);
  EXPECT_EQ(with_hist.substr(0, head.size()), head);
  EXPECT_NE(with_hist.find("\"histograms\": {\"replay.wall_ns\": "),
            std::string::npos);
  EXPECT_TRUE(balanced_json(with_hist));
  // Histogram summaries join the text rendering.
  EXPECT_NE(m.to_text().find("replay.wall_ns"), std::string::npos);
  EXPECT_NE(m.to_text().find("count=1"), std::string::npos);
}

TEST(MetricsRegistryTest, WriteTextFileRoundTripsAndReportsFailure) {
  const std::filesystem::path dir(::testing::TempDir());
  const std::string path = (dir / "obs_test_metrics.json").string();
  const std::string content = "{\"counters\": {}}\n";
  obs::write_text_file(path, content);
  std::ifstream in(path, std::ios::binary);
  std::stringstream read_back;
  read_back << in.rdbuf();
  EXPECT_EQ(read_back.str(), content);
  std::filesystem::remove(path);

  const std::string bad =
      (dir / "obs_test_missing_dir" / "x.json").string();
  EXPECT_THROW(obs::write_text_file(bad, content), std::runtime_error);
}

// ---------------------------------------------------------------------------
// ActivityStats cached total

TEST(ActivityStatsTest, CachedTotalMatchesPerPeSum) {
  sim::ActivityStats stats(4);
  for (std::size_t round = 0; round < 7; ++round) {
    for (std::size_t pe = 0; pe <= round % 4; ++pe) stats.mark_busy(pe);
  }
  std::uint64_t manual = 0;
  for (std::size_t pe = 0; pe < stats.num_pes(); ++pe) {
    manual += stats.busy_cycles(pe);
  }
  EXPECT_EQ(stats.total_busy(), manual);
  EXPECT_GT(manual, 0u);

  // An out-of-range mark must not corrupt the cached sum.
  EXPECT_THROW(stats.mark_busy(4), std::out_of_range);
  EXPECT_EQ(stats.total_busy(), manual);

  EXPECT_DOUBLE_EQ(stats.utilization(manual),
                   1.0 / static_cast<double>(stats.num_pes()));
  stats.reset();
  EXPECT_EQ(stats.total_busy(), 0u);
  for (std::size_t pe = 0; pe < stats.num_pes(); ++pe) {
    EXPECT_EQ(stats.busy_cycles(pe), 0u);
  }
}

// ---------------------------------------------------------------------------
// Trace overflow policies

TEST(TraceOverflowTest, DropNewestKeepsEarliestAndCounts) {
  sim::Trace trace(3, sim::TraceOverflow::kDropNewest);
  for (std::int64_t i = 0; i < 5; ++i) {
    trace.record(static_cast<sim::Cycle>(i), "s", i);
  }
  ASSERT_EQ(trace.events().size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(trace.events()[i].value, static_cast<std::int64_t>(i));
  }
  EXPECT_EQ(trace.dropped_events(), 2u);
  EXPECT_TRUE(trace.dropped());
}

TEST(TraceOverflowTest, KeepLatestRetainsNewestInChronologicalOrder) {
  sim::Trace trace(3, sim::TraceOverflow::kKeepLatest);
  for (std::int64_t i = 0; i < 5; ++i) {
    trace.record(static_cast<sim::Cycle>(i), "s", i);
  }
  ASSERT_EQ(trace.events().size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(trace.events()[i].value, static_cast<std::int64_t>(i + 2));
    EXPECT_EQ(trace.events()[i].cycle, i + 2);
  }
  EXPECT_EQ(trace.dropped_events(), 2u);
  // The rotate-on-access must be stable across repeated reads and writes.
  trace.record(5, "s", 5);
  ASSERT_EQ(trace.events().size(), 3u);
  EXPECT_EQ(trace.events().back().value, 5);
  EXPECT_EQ(trace.events().front().value, 3);
}

TEST(TraceOverflowTest, KeepLatestWithZeroCapacityOnlyCounts) {
  sim::Trace trace(0, sim::TraceOverflow::kKeepLatest);
  trace.record(0, "s", 1);
  trace.record(1, "s", 2);
  EXPECT_TRUE(trace.events().empty());
  EXPECT_EQ(trace.dropped_events(), 2u);
}

TEST(TraceOverflowTest, ThrowPolicyAbortsInsteadOfTruncating) {
  sim::Trace trace(1, sim::TraceOverflow::kThrow);
  trace.record(0, "first", 1);
  EXPECT_THROW(trace.record(1, "second", 2), std::runtime_error);
  ASSERT_EQ(trace.events().size(), 1u);
  EXPECT_EQ(trace.events().front().signal, "first");
  EXPECT_EQ(trace.dropped_events(), 0u);
}

// Regression: a saturated sink used to vanish behind a latent flag; now the
// run reports exactly how many events the sink discarded, and the result
// itself is unaffected by the truncation.
TEST(TraceOverflowTest, Design3PropagatesDroppedCountIntoRunResult) {
  Rng rng(41);
  const auto nv = traffic_control_instance(5, 3, rng);

  Design3Feedback baseline(nv);
  const auto expect = baseline.run();
  EXPECT_EQ(expect.stats.trace_dropped, 0u);

  // (N-1)*m h_out events plus one min_out = 13; capacity 4 drops 9.
  Design3Feedback arr(nv);
  sim::Trace trace(4, sim::TraceOverflow::kKeepLatest);
  arr.set_trace(&trace);
  const auto res = arr.run();
  EXPECT_EQ(res.cost, expect.cost);
  EXPECT_EQ(res.stats.trace_dropped, 9u);
  EXPECT_EQ(trace.dropped_events(), 9u);
  // kKeepLatest retains the drain tail, ending in the final minimum.
  ASSERT_EQ(trace.events().size(), 4u);
  EXPECT_EQ(trace.events().back().signal, "min_out");
  EXPECT_EQ(trace.events().back().value, res.cost);
}

// ---------------------------------------------------------------------------
// VCD waveforms

TEST(VcdSinkTest, GoldenDocumentForHandRolledModule) {
  CounterModule mod;
  sim::Engine engine;
  obs::VcdSink vcd("top");
  engine.add(mod);
  engine.add_observer(&vcd);
  engine.run(3);

  const std::string expected =
      "$version sysdp obs::VcdSink $end\n"
      "$timescale 1ns $end\n"
      "$scope module top $end\n"
      " $scope module ctr $end\n"
      "  $var integer 64 ! parity $end\n"
      "  $var integer 64 \" count $end\n"
      " $upscope $end\n"
      "$upscope $end\n"
      "$enddefinitions $end\n"
      "#0\n"
      "$dumpvars\n"
      "b0 !\n"
      "b0 \"\n"
      "$end\n"
      "#1\n"
      "b1 \"\n"
      "#2\n"
      "b1 !\n"
      "b10 \"\n"
      "#3\n"
      "b0 !\n"
      "b11 \"\n";
  EXPECT_EQ(vcd.str(), expected);
  EXPECT_EQ(vcd.num_signals(), 2u);
}

TEST(VcdSinkTest, NegativeSamplesRenderFullWidth) {
  // GTKWave's signed-decimal view needs all 64 bits when the sign bit is
  // set; a minimal-width rendering would read as a huge positive number.
  class NegModule final : public sim::Module {
   public:
    NegModule() : sim::Module("neg") {}
    void eval(sim::Cycle) override {}
    void commit() override { val_ = -1; }
    void describe_ports(sim::PortSet& ports) const override {
      ports.writes_register(&val_, "val");
    }

   private:
    std::int64_t val_ = 0;
  };

  NegModule mod;
  sim::Engine engine;
  obs::VcdSink vcd;
  engine.add(mod);
  engine.add_observer(&vcd);
  engine.run(1);
  EXPECT_NE(vcd.str().find("b" + std::string(64, '1') + " !"),
            std::string::npos);
}

TEST(VcdSinkTest, DeduplicatesByStorageKeyFirstDeclarationWins) {
  class TwoViews final : public sim::Module {
   public:
    TwoViews() : sim::Module("two") {}
    void eval(sim::Cycle) override {}
    void commit() override { ++val_; }
    void describe_ports(sim::PortSet& ports) const override {
      ports.writes_register(&val_, "first_view");
      ports.writes_register(&val_, "second_view");
      ports.reads_register(&in_, "input_tap");
    }

   private:
    std::int64_t val_ = 0;
    std::int64_t in_ = 0;
  };

  {
    TwoViews mod;
    sim::Engine engine;
    obs::VcdSink vcd;
    engine.add(mod);
    engine.add_observer(&vcd);
    engine.run(1);
    EXPECT_EQ(vcd.num_signals(), 1u);  // duplicate key and kIn both skipped
    EXPECT_NE(vcd.str().find("first_view"), std::string::npos);
    EXPECT_EQ(vcd.str().find("second_view"), std::string::npos);
    EXPECT_EQ(vcd.str().find("input_tap"), std::string::npos);
  }
  {
    TwoViews mod;
    sim::Engine engine;
    obs::VcdSink vcd("sysdp", obs::VcdOptions{"1ns", true});
    engine.add(mod);
    engine.add_observer(&vcd);
    engine.run(1);
    EXPECT_EQ(vcd.num_signals(), 2u);  // include_inputs adds the tap
    EXPECT_NE(vcd.str().find("input_tap"), std::string::npos);
  }
}

TEST(VcdSinkTest, WriteFileMatchesStr) {
  CounterModule mod;
  sim::Engine engine;
  obs::VcdSink vcd;
  engine.add(mod);
  engine.add_observer(&vcd);
  engine.run(2);

  const std::filesystem::path path =
      std::filesystem::path(::testing::TempDir()) / "obs_test.vcd";
  vcd.write_file(path.string());
  std::ifstream in(path, std::ios::binary);
  std::stringstream read_back;
  read_back << in.rdbuf();
  EXPECT_EQ(read_back.str(), vcd.str());
  std::filesystem::remove(path);
}

/// Eval fails at a chosen cycle — the mid-replay crash the streaming
/// sinks' RAII contract is written for.
class ThrowAtCycleModule final : public sim::Module {
 public:
  explicit ThrowAtCycleModule(sim::Cycle fail_at)
      : sim::Module("bomb"), fail_at_(fail_at) {}
  void eval(sim::Cycle t) override {
    if (t == fail_at_) throw std::runtime_error("injected failure");
  }
  void commit() override { ++count_; }
  void describe_ports(sim::PortSet& ports) const override {
    ports.writes_register(&count_, "count");
  }

 private:
  sim::Cycle fail_at_;
  std::int64_t count_ = 0;
};

TEST(VcdSinkTest, StreamSurvivesAThrowingRunWithAWellFormedFile) {
  const std::filesystem::path path =
      std::filesystem::path(::testing::TempDir()) / "obs_test_throw.vcd";
  std::string expected;
  {
    ThrowAtCycleModule mod(2);
    sim::Engine engine;
    obs::VcdSink vcd;
    vcd.stream_to(path.string());
    engine.add(mod);
    engine.add_observer(&vcd);
    EXPECT_THROW(engine.run(5), std::runtime_error);
    expected = vcd.str();
    // The sink goes out of scope without close(): the destructor must
    // flush and close, exactly as during exception unwinding.
  }
  std::ifstream in(path, std::ios::binary);
  std::stringstream read_back;
  read_back << in.rdbuf();
  // Everything up to the failing cycle is on disk, cleanly terminated:
  // VCD is append-only, so the truncated document is valid as-is.
  EXPECT_EQ(read_back.str(), expected);
  EXPECT_NE(expected.find("$enddefinitions $end\n"), std::string::npos);
  EXPECT_NE(expected.find("#2\n"), std::string::npos);
  EXPECT_EQ(expected.find("#3"), std::string::npos);
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Utilisation timelines

TEST(TimelineSinkTest, BucketsDeltasExactly) {
  class BusyModule final : public sim::Module {
   public:
    explicit BusyModule(std::array<std::uint64_t, 2>& busy)
        : sim::Module("busy"), busy_(busy) {}
    void eval(sim::Cycle t) override { even_ = (t % 2 == 0); }
    void commit() override {
      ++busy_[0];            // PE 0 works every cycle
      if (even_) ++busy_[1];  // PE 1 works on even cycles only
    }

   private:
    std::array<std::uint64_t, 2>& busy_;
    bool even_ = false;
  };

  std::array<std::uint64_t, 2> busy{};
  BusyModule mod(busy);
  sim::Engine engine;
  obs::TimelineSink timeline(
      2, [&busy](std::size_t pe) { return busy[pe]; }, 2);
  engine.add(mod);
  engine.add_observer(&timeline);
  engine.run(5);
  timeline.finalize();
  timeline.finalize();  // idempotent

  EXPECT_EQ(timeline.cycles(), 5u);
  EXPECT_EQ(timeline.num_pes(), 2u);
  EXPECT_EQ(timeline.bucket_cycles(), 2u);
  EXPECT_EQ(timeline.num_buckets(), 3u);  // 2 + 2 + partial 1
  const std::vector<std::vector<std::uint64_t>> expected = {{2, 2, 1},
                                                            {1, 1, 1}};
  EXPECT_EQ(timeline.per_pe(), expected);
  EXPECT_EQ(timeline.aggregate_busy(), 8u);
  EXPECT_DOUBLE_EQ(timeline.utilization(), 0.8);

  const std::string doc = timeline.to_json();
  EXPECT_TRUE(balanced_json(doc));
  EXPECT_NE(doc.find("\"aggregate_busy\": 8"), std::string::npos);
  EXPECT_NE(doc.find("\"per_pe\": [[2, 2, 1], [1, 1, 1]]"),
            std::string::npos);
}

TEST(TimelineSinkTest, RejectsDegenerateConfiguration) {
  const auto busy = [](std::size_t) -> std::uint64_t { return 0; };
  EXPECT_THROW(obs::TimelineSink(2, busy, 0), std::invalid_argument);
  EXPECT_THROW(obs::TimelineSink(2, obs::TimelineSink::BusyFn{}),
               std::invalid_argument);
}

// The timeline's aggregate must equal the primary busy-step accounting of
// a real array run, and the aggregate must be invariant under bucket size.
TEST(TimelineSinkTest, AggregatesToDesign1BusySteps) {
  Rng rng(77);
  const auto mats = random_matrix_string(3, 6, rng);
  std::vector<Cost> v(6);
  std::uniform_int_distribution<Cost> dist(0, 99);
  for (auto& x : v) x = dist(rng);

  std::uint64_t busy_steps = 0;
  for (const sim::Cycle bucket : {sim::Cycle{1}, sim::Cycle{4}}) {
    Design1Modular arr(mats, v);
    sim::Engine engine(sim::Gating::kSparse);
    obs::TimelineSink timeline(
        arr.num_pes(), [&arr](std::size_t pe) { return arr.pe_busy(pe); },
        bucket);
    engine.add_observer(&timeline);
    const auto res = arr.run(engine);
    timeline.finalize();

    SCOPED_TRACE("bucket=" + std::to_string(bucket));
    EXPECT_EQ(timeline.aggregate_busy(), res.busy_steps);
    EXPECT_EQ(timeline.num_pes(), res.num_pes);
    EXPECT_EQ(timeline.cycles(), res.cycles);
    EXPECT_DOUBLE_EQ(timeline.utilization(), res.utilization_wall());
    EXPECT_EQ(timeline.num_buckets(),
              (res.cycles + bucket - 1) / bucket);
    if (busy_steps == 0) busy_steps = timeline.aggregate_busy();
    EXPECT_EQ(timeline.aggregate_busy(), busy_steps);
  }
}

// ---------------------------------------------------------------------------
// Chrome trace exporter

TEST(ChromeTraceTest, EnvelopeIsWellFormed) {
  obs::ChromeTraceWriter trace;
  trace.process_name(1, "proc \"quoted\"");
  trace.thread_name(1, 0, "lane");
  trace.complete_event("span", "cat", 1, 0, 0.0, 2.5);
  trace.counter_event("busy", 1, 1.0, "series", -3);
  EXPECT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace.dropped_events(), 0u);

  const std::string doc = trace.str();
  EXPECT_TRUE(balanced_json(doc));
  EXPECT_EQ(doc.find("{\"traceEvents\": ["), 0u);
  EXPECT_NE(doc.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\": \"C\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\": \"M\""), std::string::npos);
  EXPECT_NE(doc.find("proc \\\"quoted\\\""), std::string::npos);
  EXPECT_NE(doc.find("\"dropped_events\": 0"), std::string::npos);
}

TEST(ChromeTraceTest, StreamSurvivesAThrowingRunWithAParseableFile) {
  const std::filesystem::path path =
      std::filesystem::path(::testing::TempDir()) / "obs_test_throw.trace.json";
  try {
    obs::ChromeTraceWriter trace;
    trace.stream_to(path.string());
    trace.process_name(1, "doomed run");
    trace.complete_event("span", "cat", 1, 0, 0.0, 1.0);
    throw std::runtime_error("injected failure");
    // Unwinding destroys the writer without close(): the destructor must
    // finish the envelope so the file parses.
  } catch (const std::runtime_error&) {
  }
  std::ifstream in(path, std::ios::binary);
  std::stringstream read_back;
  read_back << in.rdbuf();
  const std::string doc = read_back.str();
  EXPECT_TRUE(balanced_json(doc));
  EXPECT_EQ(doc.find("{\"traceEvents\": ["), 0u);
  EXPECT_NE(doc.find("doomed run"), std::string::npos);
  EXPECT_NE(doc.find("\"ph\": \"X\""), std::string::npos);
  std::filesystem::remove(path);
}

TEST(ChromeTraceTest, BoundedWriterCountsDrops) {
  obs::ChromeTraceWriter trace(2);
  for (int i = 0; i < 5; ++i) {
    trace.complete_event("span", "cat", 1, 0, static_cast<double>(i), 1.0);
  }
  EXPECT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace.dropped_events(), 3u);
  EXPECT_NE(trace.str().find("\"dropped_events\": 3"), std::string::npos);
  EXPECT_TRUE(balanced_json(trace.str()));
}

// The DnC scheduler's span stream is the telemetry-side view of eq. (29):
// summing spans reconstructs busy_per_step exactly, and the span-derived
// utilisation equals the closed form at every (N, K) point.
TEST(ChromeTraceTest, ScheduleSpansReproduceEq29) {
  const std::pair<std::size_t, std::uint64_t> points[] = {
      {16, 2}, {32, 4}, {64, 3}};
  for (const auto& [n, k] : points) {
    SCOPED_TRACE("n=" + std::to_string(n) + " k=" + std::to_string(k));
    ScheduleWorkspace ws;
    std::vector<ScheduleSpan> spans;
    const ScheduleResult res = schedule_and_tree(
        n, k, SchedulePolicy::kHighestLevelFirst, ws, &spans);

    EXPECT_EQ(res.tasks, n - 1);
    EXPECT_EQ(spans.size(), res.tasks);
    EXPECT_EQ(res.makespan, dnc_time_eq29(n, k));

    std::vector<std::uint64_t> busy(res.makespan, 0);
    for (const ScheduleSpan& s : spans) {
      ASSERT_LT(s.start, res.makespan);
      ASSERT_LT(s.array, k);
      ++busy[s.start];
    }
    EXPECT_EQ(busy, res.busy_per_step);

    const double spans_pu =
        static_cast<double>(spans.size()) /
        (static_cast<double>(k) * static_cast<double>(res.makespan));
    EXPECT_DOUBLE_EQ(spans_pu, pu_eq29(n, k));
    EXPECT_DOUBLE_EQ(res.utilization(k), pu_eq29(n, k));

    // One complete event per executed product, plus the naming metadata.
    obs::ChromeTraceWriter trace;
    obs::append_schedule_trace(trace, spans, k, 1);
    EXPECT_EQ(trace.size(), 1 + k + spans.size());
    EXPECT_TRUE(balanced_json(trace.str()));
  }
}

TEST(ChromeTraceTest, TimelineCountersMatchBuckets) {
  std::array<std::uint64_t, 2> busy{};
  obs::TimelineSink timeline(
      2, [&busy](std::size_t pe) { return busy[pe]; }, 1);
  sim::Engine engine;  // drive the sink directly: no modules needed
  for (sim::Cycle t = 0; t < 3; ++t) {
    ++busy[0];
    if (t == 1) ++busy[1];
    timeline.on_cycle(engine, t);
  }
  timeline.finalize();

  obs::ChromeTraceWriter trace;
  obs::append_timeline_trace(trace, timeline, 2);
  // process_name + 3 buckets x (2 per-PE counters + 1 aggregate).
  EXPECT_EQ(trace.size(), 1u + 3u * 3u);
  EXPECT_TRUE(balanced_json(trace.str()));
  EXPECT_NE(trace.str().find("\"busy_total\""), std::string::npos);
}

TEST(ChromeTraceTest, PoolRecorderCapturesHostSpans) {
  sim::ThreadPool pool(2);
  obs::PoolTraceRecorder recorder;
  pool.set_observer(&recorder);
  std::atomic<int> hits{0};
  pool.parallel_for_dynamic(16, [&hits](std::size_t) { ++hits; });
  pool.set_observer(nullptr);
  EXPECT_EQ(hits.load(), 16);

  const auto spans = recorder.spans();
  ASSERT_FALSE(spans.empty());
  bool saw_chunk = false;
  for (const auto& s : spans) {
    EXPECT_LE(s.t0_ns, s.t1_ns);
    EXPECT_LT(s.lane, pool.num_lanes());
    saw_chunk = saw_chunk || s.kind == sim::PoolObserver::SpanKind::kChunk;
  }
  EXPECT_TRUE(saw_chunk);

  obs::ChromeTraceWriter trace;
  obs::append_pool_trace(trace, recorder, 3);
  EXPECT_GE(trace.size(), spans.size());
  EXPECT_TRUE(balanced_json(trace.str()));
}

// ---------------------------------------------------------------------------
// Observer attachment contract

TEST(EngineObserverTest, LateAttachmentIsRejected) {
  CounterModule mod;
  sim::Engine engine;
  engine.add(mod);
  sim::EngineObserver noop;  // default hooks: a no-op probe is legal
  engine.add_observer(&noop);
  engine.step();
  sim::EngineObserver late;
  EXPECT_THROW(engine.add_observer(&late), std::logic_error);
  EXPECT_EQ(engine.observers().size(), 1u);
}

}  // namespace
}  // namespace sysdp
