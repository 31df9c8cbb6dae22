// Tests for the clocked simulation engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/batch.hpp"
#include "sim/bus.hpp"
#include "sim/engine.hpp"
#include "sim/module.hpp"
#include "sim/port.hpp"
#include "sim/register.hpp"
#include "sim/stats.hpp"
#include "sim/thread_pool.hpp"
#include "sim/trace.hpp"

namespace sysdp::sim {
namespace {

TEST(Register, TwoPhaseSemantics) {
  Register<int> r(1);
  EXPECT_EQ(r.read(), 1);
  r.write(2);
  EXPECT_EQ(r.read(), 1);  // not visible before the clock edge
  r.commit();
  EXPECT_EQ(r.read(), 2);
}

TEST(Register, HoldsWithoutWrite) {
  Register<int> r(5);
  r.commit();
  EXPECT_EQ(r.read(), 5);
}

TEST(Register, LastWriteWins) {
  Register<int> r(0);
  r.write(1);
  r.write(2);
  r.commit();
  EXPECT_EQ(r.read(), 2);
}

TEST(Register, ResetIsImmediate) {
  Register<int> r(0);
  r.write(9);
  r.reset(3);
  EXPECT_EQ(r.read(), 3);
  r.commit();
  EXPECT_EQ(r.read(), 3);  // the staged 9 was discarded
}

// A shift-register chain built from modules: data crosses one stage per
// cycle, proving the engine gives order-independent registered semantics.
class ShiftStage : public Module {
 public:
  ShiftStage(std::string name, const Register<int>* prev)
      : Module(std::move(name)), prev_(prev) {}

  void eval(Cycle) override {
    if (prev_) out_.write(prev_->read());
  }
  void commit() override { out_.commit(); }

  Register<int> out_{0};

 private:
  const Register<int>* prev_;
};

TEST(Engine, ShiftChainMovesOneStagePerCycle) {
  ShiftStage a("a", nullptr);
  ShiftStage b("b", &a.out_);
  ShiftStage c("c", &b.out_);
  Engine eng;
  // Deliberately register listeners before drivers: registered links must
  // still behave identically.
  eng.add(c);
  eng.add(b);
  eng.add(a);
  a.out_.reset(42);
  eng.step();
  EXPECT_EQ(b.out_.read(), 42);
  EXPECT_EQ(c.out_.read(), 0);
  eng.step();
  EXPECT_EQ(c.out_.read(), 42);
  EXPECT_EQ(eng.now(), 2u);
}

TEST(Engine, RunUntil) {
  ShiftStage a("a", nullptr);
  ShiftStage b("b", &a.out_);
  Engine eng;
  eng.add(a);
  eng.add(b);
  a.out_.reset(7);
  const auto hit = eng.run_until([&] { return b.out_.read() == 7; }, 10);
  EXPECT_TRUE(hit.satisfied);
  EXPECT_EQ(hit.cycles, 1u);  // a.out_ was preloaded; one hop into b
  const auto miss = eng.run_until([&] { return b.out_.read() == 8; }, 5);
  EXPECT_FALSE(miss.satisfied);
  EXPECT_EQ(miss.cycles, 5u);
}

TEST(Engine, RunUntilPredicateAlreadyTrueAtEntry) {
  ShiftStage a("a", nullptr);
  Engine eng;
  eng.add(a);
  int calls = 0;
  const auto res = eng.run_until(
      [&] {
        ++calls;
        return true;
      },
      100);
  EXPECT_TRUE(res.satisfied);
  EXPECT_EQ(res.cycles, 0u);  // no cycles consumed
  EXPECT_EQ(eng.now(), 0u);   // machine state untouched
  EXPECT_EQ(calls, 1);        // predicate checked exactly once
}

TEST(Engine, RunUntilChecksPredicateOncePerCycle) {
  ShiftStage a("a", nullptr);
  Engine eng;
  eng.add(a);
  int calls = 0;
  const auto res = eng.run_until(
      [&] {
        ++calls;
        return false;
      },
      4);
  EXPECT_FALSE(res.satisfied);
  EXPECT_EQ(res.cycles, 4u);
  EXPECT_EQ(calls, 5);  // entry check + one per cycle, no redundant recheck
}

TEST(Engine, AddWakeupAfterFirstStepThrows) {
  ShiftStage a("a", nullptr);
  ShiftStage b("b", &a.out_);
  Engine eng(Gating::kSparse);
  eng.add(a);
  eng.add(b);
  eng.add_wakeup(a, b);  // elaboration-time edges are fine
  eng.step();
  // Once time has started a module may already have been demoted without
  // the new edge's protection, so the engine must refuse the late edge.
  EXPECT_THROW(eng.add_wakeup(a, b), std::logic_error);
}

// Counts its evals and commits, so a double registration shows up as a
// doubled sweep.
class CountingModule : public Module {
 public:
  using Module::Module;
  void eval(Cycle) override { ++evals; }
  void commit() override { ++commits; }
  int evals = 0;
  int commits = 0;
};

TEST(Engine, AddTwiceThrowsAndKeepsOneSweep) {
  for (const Gating g : {Gating::kDense, Gating::kSparse}) {
    CountingModule m("twice");
    Engine eng(g);
    eng.add(m);
    try {
      eng.add(m);
      FAIL() << "a second add() of the same module was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("twice"), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(eng.num_modules(), 1u);
    eng.run(3);
    EXPECT_EQ(m.evals, 3);  // once per cycle, not twice
    EXPECT_EQ(m.commits, 3);
  }
}

TEST(Engine, AddAfterFirstStepThrows) {
  CountingModule a("a");
  CountingModule late("late");
  Engine eng;
  eng.add(a);
  eng.step();
  // on_elaborated has fired and the active lists are built: a module that
  // joins now would miss both, so the engine refuses it.
  EXPECT_THROW(eng.add(late), std::logic_error);
  EXPECT_EQ(eng.num_modules(), 1u);
}

TEST(Engine, AddWakeupRejectsModulesNotRegisteredHere) {
  CountingModule a("a");
  CountingModule b("b");
  CountingModule stranger("stranger");
  CountingModule foreign("foreign");
  Engine eng(Gating::kSparse);
  Engine other(Gating::kSparse);
  eng.add(a);
  eng.add(b);
  other.add(foreign);
  const auto expect_unregistered = [&](const Module& src, const Module& dst,
                                       const std::string& who) {
    try {
      eng.add_wakeup(src, dst);
      FAIL() << "edge " << src.name() << " -> " << dst.name()
             << " was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("not registered"), std::string::npos) << what;
      EXPECT_NE(what.find(who), std::string::npos) << what;
    }
  };
  expect_unregistered(stranger, a, "stranger");  // unregistered source
  expect_unregistered(a, stranger, "stranger");  // unregistered destination
  expect_unregistered(a, foreign, "foreign");    // another engine's module
  expect_unregistered(foreign, b, "foreign");
  EXPECT_TRUE(eng.wakeup_edges().empty());
  eng.add_wakeup(a, b);
  EXPECT_EQ(eng.wakeup_edges().size(), 1u);
}

// A module keeps only the index of its latest registration; an engine
// that registered it earlier must still wire it.
TEST(Engine, ModuleRegisteredWithTwoEnginesWiresInBoth) {
  CountingModule a("a");
  CountingModule b("b");
  CountingModule shared("shared");
  Engine first(Gating::kSparse);
  first.add(a);
  first.add(b);
  first.add(shared);  // index 2 here
  Engine second(Gating::kSparse);
  second.add(shared);  // index 0 there, the one it keeps
  first.add_wakeup(shared, a);
  first.add_wakeup(b, shared);
  second.add_wakeup(shared, shared);
  using Edge = std::pair<const Module*, const Module*>;
  EXPECT_EQ(first.wakeup_edges(),
            (std::vector<Edge>{{&b, &shared}, {&shared, &a}}));
  EXPECT_EQ(second.wakeup_edges(), (std::vector<Edge>{{&shared, &shared}}));
  EXPECT_THROW(second.add(shared), std::invalid_argument);
  first.run(2);
  second.run(3);
  EXPECT_EQ(shared.evals, 5);
  EXPECT_EQ(shared.commits, 5);
}

// wakeup_edges() is what analysis::capture and the lint read: sources in
// registration order, each source's edges in declaration order, however
// the declarations interleave.
TEST(Engine, WakeupEdgesGroupBySourceInDeclarationOrder) {
  CountingModule a("a");
  CountingModule b("b");
  CountingModule c("c");
  CountingModule d("d");
  Engine eng(Gating::kSparse);
  for (Module* m : {&a, &b, &c, &d}) eng.add(*m);
  eng.add_wakeup(c, a);
  eng.add_wakeup(a, d);
  eng.add_wakeup(c, b);
  eng.add_wakeup(a, b);
  eng.add_wakeup(b, c);
  eng.add_wakeup(a, c);
  using Edge = std::pair<const Module*, const Module*>;
  const std::vector<Edge> want = {{&a, &d}, {&a, &b}, {&a, &c},
                                  {&b, &c}, {&c, &a}, {&c, &b}};
  EXPECT_EQ(eng.wakeup_edges(), want);
  eng.run(2);  // building the stepping CSR does not reorder the view
  EXPECT_EQ(eng.wakeup_edges(), want);
}

TEST(Bus, SingleDriverPerCycle) {
  Bus<int> bus;
  bus.drive(0, 1);
  EXPECT_EQ(bus.sample(0), std::optional<int>(1));
  EXPECT_EQ(bus.sample(1), std::nullopt);
  EXPECT_THROW(bus.drive(0, 2), std::logic_error);
  bus.drive(1, 3);
  EXPECT_EQ(bus.sample(1), std::optional<int>(3));
  EXPECT_EQ(bus.drive_count(), 2u);
}

// Without a filter a port set keeps every declaration, with its label,
// kind, direction and sampler: what analysis::capture(), the VCD sinks
// and lint read.
TEST(PortSet, UnfilteredSetKeepsEveryDeclaration) {
  std::int64_t lane = 7;
  struct Flit {
    std::int64_t val;
  } flit{9};
  Register<int> reg;
  Bus<int> bus;
  for (PortSet ports : {PortSet(), PortSet(KeyFilter())}) {
    ports.writes_register(&lane, "lane");
    ports.reads_register(&flit, "flit");
    ports.drives_signal(&flit, "flit_probe",
                        [&flit] { return flit.val; });
    ports.writes(reg, "reg");
    ports.reads(bus, "bus");
    EXPECT_TRUE(ports.wants(&lane));
    EXPECT_TRUE(ports.wants(nullptr));
    const std::vector<Port>& got = ports.ports();
    ASSERT_EQ(got.size(), 5u);
    EXPECT_EQ(got[0].storage, &lane);
    EXPECT_EQ(got[0].label, "lane");
    EXPECT_EQ(got[0].dir, PortDir::kOut);
    ASSERT_TRUE(got[0].sample);
    EXPECT_EQ(got[0].sample(), 7);
    EXPECT_EQ(got[1].label, "flit");
    EXPECT_FALSE(got[1].sample);  // a struct lane stays opaque
    EXPECT_EQ(got[2].kind, PortKind::kSignal);
    ASSERT_TRUE(got[2].sample);
    EXPECT_EQ(got[2].sample(), 9);
    EXPECT_EQ(got[3].storage, &reg);
    EXPECT_EQ(got[4].storage, &bus);
    EXPECT_EQ(got[4].kind, PortKind::kSignal);
  }
}

// With a filter a set keeps only the declarations whose key it accepts,
// in declaration order, wants() answers the filter, and clear() keeps
// the filter.
TEST(PortSet, FilterKeepsOnlyAcceptedKeys) {
  std::int64_t a = 1;
  std::int64_t b = 2;
  std::int64_t c = 3;
  std::size_t asked = 0;
  PortSet ports([&](const void* key) {
    ++asked;
    return key == &a || key == &c;
  });
  EXPECT_TRUE(ports.wants(&a));
  EXPECT_FALSE(ports.wants(&b));
  EXPECT_TRUE(ports.wants(&c));
  EXPECT_EQ(asked, 3u);
  ports.reads_register(&b, "b");
  ports.writes_register(&c, "c");
  ports.reads_register(&a, "a");
  ports.writes_register(&b, "b");
  ASSERT_EQ(ports.ports().size(), 2u);
  EXPECT_EQ(ports.ports()[0].storage, &c);
  EXPECT_EQ(ports.ports()[0].label, "c");
  EXPECT_EQ(ports.ports()[0].dir, PortDir::kOut);
  ASSERT_TRUE(ports.ports()[0].sample);
  EXPECT_EQ(ports.ports()[0].sample(), 3);
  EXPECT_EQ(ports.ports()[1].storage, &a);
  EXPECT_EQ(ports.ports()[1].dir, PortDir::kIn);
  ports.clear();
  EXPECT_TRUE(ports.ports().empty());
  ports.writes_register(&b, "b");
  ports.writes_register(&a, "a");
  ASSERT_EQ(ports.ports().size(), 1u);
  EXPECT_EQ(ports.ports()[0].storage, &a);
  EXPECT_FALSE(ports.wants(&b));
}

TEST(Stats, UtilizationMath) {
  ActivityStats stats(4);
  for (int i = 0; i < 10; ++i) stats.mark_busy(0);
  for (int i = 0; i < 5; ++i) stats.mark_busy(1);
  EXPECT_EQ(stats.total_busy(), 15u);
  EXPECT_DOUBLE_EQ(stats.utilization(10), 15.0 / 40.0);
  stats.reset();
  EXPECT_EQ(stats.total_busy(), 0u);
}

TEST(Trace, RecordsAndRenders) {
  Trace t(4);
  t.record(0, "acc", 5);
  t.record(1, "acc", 7);
  EXPECT_EQ(t.events().size(), 2u);
  const auto csv = t.to_csv();
  EXPECT_NE(csv.find("0,acc,5"), std::string::npos);
  EXPECT_NE(csv.find("1,acc,7"), std::string::npos);
}

TEST(ThreadPool, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_lanes(), 1u);
  std::vector<int> hits(17, 0);
  pool.parallel_for_dynamic(hits.size(), [&](std::size_t i) { hits[i] = 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 17);
  EXPECT_EQ(pool.submit([] { return 41 + 1; }).get(), 42);
}

TEST(ThreadPool, SubmitRunsTasks) {
  ThreadPool pool(2);
  std::vector<std::future<int>> futs;
  for (int i = 0; i < 32; ++i) {
    futs.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 32; ++i) EXPECT_EQ(futs[static_cast<std::size_t>(i)].get(), i * i);
}

TEST(BatchRunner, ResultsInIndexOrderAndMatchSerial) {
  ThreadPool pool(3);
  BatchRunner batched(&pool);
  BatchRunner inline_runner(nullptr);
  const auto job = [](std::size_t i) {
    return static_cast<int>(i) * 3 + 1;
  };
  const auto a = batched.run(100, job);
  const auto b = inline_runner.run(100, job);
  EXPECT_EQ(a, b);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], static_cast<int>(i) * 3 + 1);
  }
}

// run_chunks is the pool path behind sysdp_tool --batch: ⌈n/w⌉ chunks of
// [0, n), every one `w` jobs wide except a short tail, returned in chunk
// order.  Width 0 means width 1.
TEST(BatchRunner, RunChunksCoversEveryJobOnceInOrder) {
  struct Chunk {
    std::size_t first;
    std::size_t count;
    bool operator==(const Chunk&) const = default;
  };
  for (const std::size_t workers : {0u, 1u, 3u}) {
    ThreadPool pool(workers);
    BatchRunner runner(&pool);
    for (const std::size_t n : {0u, 1u, 7u, 8u, 17u}) {
      std::vector<Chunk> width1;
      for (const std::size_t width : {1u, 0u, 8u}) {
        SCOPED_TRACE("workers=" + std::to_string(workers) +
                     " n=" + std::to_string(n) +
                     " width=" + std::to_string(width));
        std::vector<std::atomic<int>> hits(n);
        const auto chunks = runner.run_chunks(
            n, width, [&](std::size_t first, std::size_t count) {
              for (std::size_t i = first; i < first + count; ++i) {
                hits[i].fetch_add(1);
              }
              return Chunk{first, count};
            });
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(hits[i].load(), 1) << "job " << i;
        }
        const std::size_t w = width == 0 ? 1 : width;
        ASSERT_EQ(chunks.size(), (n + w - 1) / w);
        for (std::size_t c = 0; c < chunks.size(); ++c) {
          EXPECT_EQ(chunks[c].first, c * w) << "chunk " << c;
          EXPECT_EQ(chunks[c].count, std::min(w, n - c * w)) << "chunk " << c;
        }
        if (width == 1) width1 = chunks;
        if (width == 0) {
          EXPECT_EQ(chunks, width1);
        }
      }
    }
  }
}

TEST(Stats, ThroughputMath) {
  ThroughputStats t;
  t.cycles = 1000;
  t.module_evals = 16000;
  t.wall_seconds = 2.0;
  EXPECT_DOUBLE_EQ(t.cycles_per_sec(), 500.0);
  EXPECT_DOUBLE_EQ(t.evals_per_sec(), 8000.0);
  ThroughputStats zero;
  EXPECT_DOUBLE_EQ(zero.evals_per_sec(), 0.0);
  BatchSpeedup s;
  s.serial_seconds = 4.0;
  s.batch_seconds = 2.0;
  EXPECT_DOUBLE_EQ(s.speedup(), 2.0);
}

TEST(Trace, DropsBeyondCapacity) {
  Trace t(2);
  t.record(0, "a", 1);
  t.record(1, "a", 2);
  t.record(2, "a", 3);
  EXPECT_EQ(t.events().size(), 2u);
  EXPECT_TRUE(t.dropped());
}

}  // namespace
}  // namespace sysdp::sim
