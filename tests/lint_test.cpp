// Tests for the netlist static-analysis layer: capture, the five lint
// checks against deliberately broken fixtures, clean passes over every
// shipped array model, wakeup-edge ablation, and the fail-fast debug mode.
#include <algorithm>
#include <functional>
#include <random>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/debug_lint.hpp"
#include "analysis/lint.hpp"
#include "analysis/netlist.hpp"
#include "arrays/design1_modular.hpp"
#include "arrays/design2_modular.hpp"
#include "arrays/design3_modular.hpp"
#include "arrays/gkt_modular.hpp"
#include "arrays/triangular_array.hpp"
#include "arrays/triangular_modular.hpp"
#include "graph/generators.hpp"
#include "sim/engine.hpp"
#include "sim/module.hpp"
#include "sim/port.hpp"

namespace sysdp {
namespace {

using analysis::Linter;
using analysis::Severity;

/// A do-nothing module whose connectivity is whatever the test declares —
/// the knob for building deliberately broken netlists.
class FixtureModule : public sim::Module {
 public:
  FixtureModule(std::string name, std::function<void(sim::PortSet&)> ports,
                bool comb = false,
                sim::SleepMode sleep = sim::SleepMode::kNever)
      : Module(std::move(name)),
        ports_(std::move(ports)),
        comb_(comb),
        sleep_(sleep) {}

  void eval(sim::Cycle) override {}
  void commit() override {}
  [[nodiscard]] bool combinational() const noexcept override { return comb_; }
  [[nodiscard]] sim::SleepMode sleep_mode() const noexcept override {
    return sleep_;
  }
  void describe_ports(sim::PortSet& ports) const override {
    if (ports_) ports_(ports);
  }

 private:
  std::function<void(sim::PortSet&)> ports_;
  bool comb_;
  sim::SleepMode sleep_;
};

std::size_t count_check(const analysis::LintReport& rep,
                        std::string_view check) {
  return static_cast<std::size_t>(
      std::count_if(rep.diagnostics.begin(), rep.diagnostics.end(),
                    [&](const analysis::Diagnostic& d) {
                      return d.check == check;
                    }));
}

analysis::LintReport lint_engine(const sim::Engine& engine,
                                 const analysis::CaptureOptions& opts = {}) {
  return Linter().run(analysis::capture(engine, opts), "fixture");
}

// ------------------------------------------- broken-netlist fixtures ------

TEST(Lint, MultipleDriversFires) {
  int shared = 0;
  FixtureModule a("a", [&](sim::PortSet& p) {
    p.writes_register(&shared, "shared");
  });
  FixtureModule b("b", [&](sim::PortSet& p) {
    p.writes_register(&shared, "shared");
  });
  sim::Engine engine;
  engine.add(a);
  engine.add(b);
  const auto rep = lint_engine(engine);
  EXPECT_EQ(count_check(rep, Linter::kMultipleDrivers), 1u);
  EXPECT_GT(rep.errors(), 0u);
}

TEST(Lint, RegisterSignalKindConflictFires) {
  int shared = 0;
  FixtureModule a("a", [&](sim::PortSet& p) {
    p.writes_register(&shared, "shared");
  });
  FixtureModule b(
      "b", [&](sim::PortSet& p) { p.drives_signal(&shared, "shared"); },
      /*comb=*/true);
  sim::Engine engine;
  engine.add(a);
  engine.add(b);
  const auto rep = lint_engine(engine);
  EXPECT_GE(count_check(rep, Linter::kMultipleDrivers), 1u);
}

TEST(Lint, CombinationalLoopFires) {
  int s1 = 0;
  int s2 = 0;
  FixtureModule a(
      "a",
      [&](sim::PortSet& p) {
        p.drives_signal(&s1, "s1");
        p.reads_signal(&s2, "s2");
      },
      /*comb=*/true);
  FixtureModule b(
      "b",
      [&](sim::PortSet& p) {
        p.drives_signal(&s2, "s2");
        p.reads_signal(&s1, "s1");
      },
      /*comb=*/true);
  sim::Engine engine;
  engine.add(a);
  engine.add(b);
  const auto rep = lint_engine(engine);
  EXPECT_GE(count_check(rep, Linter::kCombHazard), 1u);
  EXPECT_GT(rep.errors(), 0u);
}

TEST(Lint, NonCombinationalSignalDriverFires) {
  int sig = 0;
  int dummy = 0;
  // Driver forgot combinational(): the gated engine would evaluate it late.
  FixtureModule a("a", [&](sim::PortSet& p) { p.drives_signal(&sig, "sig"); });
  FixtureModule b("b", [&](sim::PortSet& p) {
    p.reads_signal(&sig, "sig");
    p.writes_register(&dummy, "dummy");
  });
  sim::Engine engine;
  engine.add(a);
  engine.add(b);
  const auto rep = lint_engine(engine);
  EXPECT_GE(count_check(rep, Linter::kCombHazard), 1u);
}

TEST(Lint, ListenerRegisteredBeforeDriverFires) {
  int sig = 0;
  FixtureModule listener("listener",
                         [&](sim::PortSet& p) { p.reads_signal(&sig, "sig"); });
  FixtureModule driver(
      "driver", [&](sim::PortSet& p) { p.drives_signal(&sig, "sig"); },
      /*comb=*/true);
  sim::Engine engine;
  engine.add(listener);  // reads the driver's *last-cycle* value
  engine.add(driver);
  const auto rep = lint_engine(engine);
  EXPECT_GE(count_check(rep, Linter::kCombHazard), 1u);
}

TEST(Lint, DanglingPortFires) {
  int nowhere = 0;
  FixtureModule a("a", [&](sim::PortSet& p) {
    p.reads_register(&nowhere, "nowhere");
  });
  sim::Engine engine;
  engine.add(a);
  const auto rep = lint_engine(engine);
  ASSERT_EQ(count_check(rep, Linter::kDanglingPort), 1u);
  EXPECT_EQ(rep.warnings(), 1u);  // default severity: warning, not error
  EXPECT_TRUE(rep.clean(Severity::kError));
  EXPECT_FALSE(rep.clean(Severity::kWarning));
}

TEST(Lint, OrphanModuleFires) {
  FixtureModule registered("registered", nullptr);
  FixtureModule orphan("orphan", nullptr);
  sim::Engine engine;
  engine.add(registered);
  analysis::CaptureOptions opts;
  opts.extra_modules = {&registered, &orphan};
  const auto rep = lint_engine(engine, opts);
  ASSERT_EQ(count_check(rep, Linter::kOrphanModule), 1u);
  EXPECT_EQ(rep.diagnostics[0].module, "orphan");
}

TEST(Lint, MissingWakeupEdgeFires) {
  int reg = 0;
  int sink = 0;
  FixtureModule writer("writer",
                       [&](sim::PortSet& p) { p.writes_register(&reg, "reg"); });
  FixtureModule sleeper(
      "sleeper",
      [&](sim::PortSet& p) {
        p.reads_register(&reg, "reg");
        p.writes_register(&sink, "sink");
      },
      /*comb=*/false, sim::SleepMode::kWakeable);
  sim::Engine engine(sim::Gating::kSparse);
  engine.add(writer);
  engine.add(sleeper);
  const auto broken = lint_engine(engine);
  EXPECT_EQ(count_check(broken, Linter::kWakeupCoverage), 1u);
  EXPECT_GT(broken.errors(), 0u);

  engine.add_wakeup(writer, sleeper);
  const auto fixed = lint_engine(engine);
  EXPECT_EQ(count_check(fixed, Linter::kWakeupCoverage), 0u);
}

// A retiring sleeper never reactivates, so its inputs need no coverage.
TEST(Lint, RetiringModuleNeedsNoWakeup) {
  int reg = 0;
  int sink = 0;
  FixtureModule writer("writer",
                       [&](sim::PortSet& p) { p.writes_register(&reg, "reg"); });
  FixtureModule retiree(
      "retiree",
      [&](sim::PortSet& p) {
        p.reads_register(&reg, "reg");
        p.writes_register(&sink, "sink");
      },
      /*comb=*/false, sim::SleepMode::kRetire);
  sim::Engine engine(sim::Gating::kSparse);
  engine.add(writer);
  engine.add(retiree);
  const auto rep = lint_engine(engine);
  EXPECT_EQ(count_check(rep, Linter::kWakeupCoverage), 0u);
}

// The retiming rule: a signal derived from a register may be covered by an
// edge from the register's writer instead of the signal's driver.
TEST(Lint, DerivedSignalCoveredByRegisterWriter) {
  int reg = 0;
  int sig = 0;
  int sink = 0;
  FixtureModule writer("writer",
                       [&](sim::PortSet& p) { p.writes_register(&reg, "reg"); });
  FixtureModule repeater(
      "repeater",
      [&](sim::PortSet& p) {
        p.reads_register(&reg, "reg");
        p.drives_signal(&sig, "sig");
        p.derives(&sig, &reg);
      },
      /*comb=*/true);
  FixtureModule sleeper(
      "sleeper",
      [&](sim::PortSet& p) {
        p.reads_signal(&sig, "sig");
        p.writes_register(&sink, "sink");
      },
      /*comb=*/false, sim::SleepMode::kWakeable);
  sim::Engine engine(sim::Gating::kSparse);
  engine.add(writer);
  engine.add(repeater);
  engine.add(sleeper);
  const auto uncovered = lint_engine(engine);
  EXPECT_EQ(count_check(uncovered, Linter::kWakeupCoverage), 1u);

  // No edge from the repeater itself — the writer's edge suffices.
  engine.add_wakeup(writer, sleeper);
  const auto covered = lint_engine(engine);
  EXPECT_EQ(count_check(covered, Linter::kWakeupCoverage), 0u);
}

TEST(Lint, SeverityOverride) {
  int nowhere = 0;
  FixtureModule a("a", [&](sim::PortSet& p) {
    p.reads_register(&nowhere, "nowhere");
  });
  sim::Engine engine;
  engine.add(a);
  Linter linter;
  linter.set_severity(Linter::kDanglingPort, Severity::kError);
  const auto rep = linter.run(analysis::capture(engine, {}), "fixture");
  EXPECT_GT(rep.errors(), 0u);
  EXPECT_THROW(Linter().set_severity("no-such-check", Severity::kNote),
               std::invalid_argument);
}

// --------------------------------------- shipped models must lint clean ---

template <typename Array>
analysis::LintReport lint_array(Array& arr, const std::string& name) {
  sim::Engine engine(sim::Gating::kSparse);
  arr.elaborate(engine);
  analysis::CaptureOptions opts;
  arr.describe_environment(opts.environment);
  return Linter().run(analysis::capture(engine, opts), name);
}

void expect_clean(const analysis::LintReport& rep) {
  EXPECT_EQ(rep.errors(), 0u) << rep.to_text();
  EXPECT_EQ(rep.warnings(), 0u) << rep.to_text();
}

TEST(LintModels, Design1Clean) {
  Rng rng(3);
  Design1Modular arr(random_matrix_string(3, 4, rng), {1, 2, 3, 4});
  expect_clean(lint_array(arr, "design1"));
}

TEST(LintModels, Design2Clean) {
  Rng rng(4);
  Design2Modular arr(random_matrix_string(3, 4, rng), {4, 3, 2, 1});
  expect_clean(lint_array(arr, "design2"));
}

TEST(LintModels, Design3Clean) {
  Rng rng(5);
  const auto graph = traffic_control_instance(4, 3, rng);
  Design3Modular arr(graph);
  expect_clean(lint_array(arr, "design3"));
}

TEST(LintModels, GktClean) {
  GktModularArray arr({5, 3, 8, 2, 6});
  expect_clean(lint_array(arr, "gkt"));
}

TEST(LintModels, TriangularFamilyClean) {
  TriangularModularArray<BstRule> bst(BstRule({3, 1, 4, 1, 5}), 5);
  expect_clean(lint_array(bst, "triangular-bst"));
  TriangularModularArray<PolygonRule> poly(PolygonRule({2, 4, 3, 5, 1, 6}), 6);
  expect_clean(lint_array(poly, "triangular-polygon"));
  TriangularModularArray<ChainRule> chain(ChainRule({5, 3, 8, 2, 6}), 4);
  expect_clean(lint_array(chain, "triangular-chain"));
}

// --------------------------------------------- wakeup-edge ablation -------

/// Remove each declared wakeup edge in turn and report which removals the
/// coverage check does NOT catch (as src/dst name pairs).
std::vector<std::pair<std::string, std::string>> uncaught_removals(
    const analysis::Netlist& net) {
  std::vector<std::pair<std::string, std::string>> uncaught;
  for (std::size_t k = 0; k < net.wakeups.size(); ++k) {
    analysis::Netlist cut = net;
    cut.wakeups.erase(cut.wakeups.begin() +
                      static_cast<std::ptrdiff_t>(k));
    const auto rep = Linter().run(cut, "ablated");
    if (count_check(rep, Linter::kWakeupCoverage) == 0) {
      uncaught.emplace_back(net.node(net.wakeups[k].src).name,
                            net.node(net.wakeups[k].dst).name);
    }
  }
  return uncaught;
}

template <typename Array>
analysis::Netlist capture_array(Array& arr, sim::Engine& engine) {
  arr.elaborate(engine);
  analysis::CaptureOptions opts;
  arr.describe_environment(opts.environment);
  return analysis::capture(engine, opts);
}

TEST(LintAblation, EveryDesign1EdgeIsEssential) {
  Rng rng(6);
  Design1Modular arr(random_matrix_string(2, 5, rng), {1, 2, 3, 4, 5});
  sim::Engine engine(sim::Gating::kSparse);
  const auto net = capture_array(arr, engine);
  ASSERT_GT(net.wakeups.size(), 0u);
  EXPECT_TRUE(uncaught_removals(net).empty());
}

TEST(LintAblation, EveryGktEdgeIsEssential) {
  GktModularArray arr({5, 3, 8, 2, 6, 4});
  sim::Engine engine(sim::Gating::kSparse);
  const auto net = capture_array(arr, engine);
  ASSERT_GT(net.wakeups.size(), 0u);
  EXPECT_TRUE(uncaught_removals(net).empty());
}

TEST(LintAblation, EveryTriangularEdgeIsEssential) {
  TriangularModularArray<ChainRule> chain(ChainRule({5, 3, 8, 2, 6}), 4);
  sim::Engine e1(sim::Gating::kSparse);
  const auto chain_net = capture_array(chain, e1);
  ASSERT_GT(chain_net.wakeups.size(), 0u);
  EXPECT_TRUE(uncaught_removals(chain_net).empty());

  TriangularModularArray<PolygonRule> poly(PolygonRule({2, 4, 3, 5, 1}), 5);
  sim::Engine e2(sim::Gating::kSparse);
  const auto poly_net = capture_array(poly, e2);
  ASSERT_GT(poly_net.wakeups.size(), 0u);
  EXPECT_TRUE(uncaught_removals(poly_net).empty());
}

// Design 3 declares one deliberate superset edge: the tail's *predecessor*
// also wakes the controller (commit-order coupling around the feedback
// handshake), which no dataflow edge witnesses.  Its removal is the single
// ablation the static check cannot catch; everything else must be caught.
TEST(LintAblation, Design3HasExactlyOneUncatchableEdge) {
  Rng rng(7);
  const auto graph = traffic_control_instance(4, 3, rng);
  Design3Modular arr(graph);
  sim::Engine engine(sim::Gating::kSparse);
  const auto net = capture_array(arr, engine);
  ASSERT_GT(net.wakeups.size(), 0u);

  std::size_t stations = 0;
  for (const auto& n : net.nodes) {
    if (n.name.rfind("pe", 0) == 0) ++stations;
  }
  ASSERT_GT(stations, 1u);

  const auto uncaught = uncaught_removals(net);
  ASSERT_EQ(uncaught.size(), 1u);
  EXPECT_EQ(uncaught[0].first, "pe" + std::to_string(stations - 2));
  EXPECT_EQ(uncaught[0].second, "controller");
}

// ----------------------------------------------- fail-fast debug mode -----

TEST(DebugLint, BrokenNetlistAbortsBeforeCycleZero) {
  int reg = 0;
  int sink = 0;
  FixtureModule writer("writer",
                       [&](sim::PortSet& p) { p.writes_register(&reg, "reg"); });
  FixtureModule sleeper(
      "sleeper",
      [&](sim::PortSet& p) {
        p.reads_register(&reg, "reg");
        p.writes_register(&sink, "sink");
      },
      /*comb=*/false, sim::SleepMode::kWakeable);
  sim::Engine engine(sim::Gating::kSparse);
  engine.add(writer);
  engine.add(sleeper);  // missing wakeup edge
  analysis::attach_debug_lint(engine);
  EXPECT_THROW(engine.step(), std::logic_error);
  EXPECT_EQ(engine.now(), 0u);  // aborted before any module evaluated
}

TEST(DebugLint, CleanNetlistRunsNormally) {
  Rng rng(8);
  Design1Modular arr(random_matrix_string(2, 3, rng), {1, 2, 3});
  sim::Engine engine(sim::Gating::kSparse);
  arr.elaborate(engine);
  analysis::attach_debug_lint(engine);
  // The shipped model is lint-clean apart from environment taps the debug
  // hook cannot know about; those surface as dangling-port *warnings*,
  // below the default kError threshold, so stepping succeeds.
  engine.step();
  EXPECT_EQ(engine.now(), 1u);
}

}  // namespace
}  // namespace sysdp
