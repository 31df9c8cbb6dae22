// Differential tests for the engine-backed generic triangular array:
// TriangularModularCore must agree with the analytic TriangularArray on
// every rule in the interval-DP family and be bit-identical across engine
// modes.
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "andor/pipeline_array.hpp"
#include "arrays/triangular_array.hpp"
#include "arrays/triangular_modular.hpp"
#include "sim/engine.hpp"
#include "sim/module.hpp"
#include "sim/port.hpp"

namespace sysdp {
namespace {

// Deterministic pseudo-random costs in [1, 20] (xorshift; no global RNG
// so test order cannot change inputs).
std::vector<Cost> make_costs(std::size_t n, std::uint64_t seed) {
  std::vector<Cost> out(n);
  std::uint64_t s = seed * 2654435761u + 1;
  for (std::size_t i = 0; i < n; ++i) {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    out[i] = static_cast<Cost>(s % 20) + 1;
  }
  return out;
}

// Upper-triangle cost equality between the modular and analytic results.
template <typename Analytic>
void expect_costs_match(const TriangularModularCore::Result& mod,
                        const Analytic& ref) {
  ASSERT_EQ(mod.cost.rows(), ref.cost.rows());
  ASSERT_EQ(mod.cost.cols(), ref.cost.cols());
  for (std::size_t i = 0; i < mod.cost.rows(); ++i) {
    for (std::size_t j = i; j < mod.cost.cols(); ++j) {
      EXPECT_EQ(mod.cost(i, j), ref.cost(i, j)) << "cell (" << i << ", " << j
                                                << ")";
    }
  }
  EXPECT_EQ(mod.total(), ref.total());
}

TEST(TriangularModular, BstMatchesAnalytic) {
  for (std::size_t n : {1u, 2u, 3u, 5u, 8u, 12u}) {
    const auto freq = make_costs(n, 11 * n + 3);
    const auto mod = run_bst_modular(freq);
    const auto ref = run_bst_array(freq);
    SCOPED_TRACE("n = " + std::to_string(n));
    expect_costs_match(mod, ref);
  }
}

TEST(TriangularModular, PolygonMatchesAnalytic) {
  for (std::size_t n : {2u, 3u, 4u, 6u, 9u, 13u}) {
    const auto weights = make_costs(n, 7 * n + 1);
    const auto mod = run_polygon_modular(weights);
    const auto ref = run_polygon_array(weights);
    SCOPED_TRACE("n = " + std::to_string(n));
    expect_costs_match(mod, ref);
  }
}

TEST(TriangularModular, ChainMatchesAnalytic) {
  for (std::size_t m : {1u, 2u, 4u, 7u, 11u}) {
    const auto dims = make_costs(m + 1, 5 * m + 9);
    const auto mod = run_chain_modular(dims);
    const auto ref = run_chain_array(dims);
    SCOPED_TRACE("matrices = " + std::to_string(m));
    expect_costs_match(mod, ref);
  }
}

// Classic fixed instance (CLRS 15.2): dims 30x35x15x5x10x20x25, optimal
// cost 15125.
TEST(TriangularModular, ChainClassicInstance) {
  const std::vector<Cost> dims{30, 35, 15, 5, 10, 20, 25};
  EXPECT_EQ(run_chain_modular(dims).total(), 15125);
}

// Bit-identity across dense/sparse: cost AND completion cycles match
// exactly (active/dense eval counters are simulator-side and excluded by
// design).
TEST(TriangularModular, BitIdenticalAcrossEngineModes) {
  struct Case {
    const char* name;
    sim::Gating gating;
  };
  const Case cases[] = {
      {"dense", sim::Gating::kDense},
      {"sparse", sim::Gating::kSparse},
  };
  const auto freq = make_costs(9, 42);
  const auto weights = make_costs(9, 43);
  const auto dims = make_costs(9, 44);
  const auto ref_bst = run_bst_modular(freq);
  const auto ref_poly = run_polygon_modular(weights);
  const auto ref_chain = run_chain_modular(dims);
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    for (const auto* ref : {&ref_bst, &ref_poly, &ref_chain}) {
      auto got = ref == &ref_bst    ? run_bst_modular(freq, c.gating)
                 : ref == &ref_poly ? run_polygon_modular(weights, c.gating)
                                    : run_chain_modular(dims, c.gating);
      ASSERT_EQ(got.cost.rows(), ref->cost.rows());
      for (std::size_t i = 0; i < got.cost.rows(); ++i) {
        for (std::size_t j = i; j < got.cost.cols(); ++j) {
          EXPECT_EQ(got.cost(i, j), ref->cost(i, j));
          EXPECT_EQ(got.done(i, j), ref->done(i, j));
        }
      }
      EXPECT_EQ(got.stats.busy_steps, ref->stats.busy_steps);
      EXPECT_EQ(got.stats.cycles, ref->stats.cycles);
    }
  }
}

// Activity gating must actually save evals on a sparse workload while the
// dense run evaluates every cell every cycle.
TEST(TriangularModular, SparseGatingSkipsIdleCells) {
  const auto freq = make_costs(12, 77);
  const auto dense = run_bst_modular(freq, sim::Gating::kDense);
  const auto sparse = run_bst_modular(freq, sim::Gating::kSparse);
  EXPECT_EQ(dense.stats.active_evals, dense.stats.dense_evals);
  EXPECT_LT(sparse.stats.active_evals, sparse.stats.dense_evals);
  EXPECT_EQ(dense.total(), sparse.total());
}

TEST(TriangularModular, SingleCellArrays) {
  EXPECT_EQ(run_bst_modular({5}).total(), 5);
  EXPECT_EQ(run_chain_modular({3, 4}).total(), 0);
  EXPECT_EQ(run_polygon_modular({2, 3}).total(), 0);
}

// A malformed rule whose sub-intervals leave the consumer's row/column
// must be rejected at compile time, not silently mis-wired.
struct BadRule {
  [[nodiscard]] Cost base(std::size_t) const { return 0; }
  [[nodiscard]] std::size_t splits(std::size_t, std::size_t) const {
    return 1;
  }
  [[nodiscard]] IntervalTerms terms(std::size_t, std::size_t,
                                    std::size_t) const {
    return {};
  }
  [[nodiscard]] std::pair<std::size_t, std::size_t> left_interval(
      std::size_t i, std::size_t, std::size_t) const {
    return {i + 1, i + 1};  // not on the consumer's row
  }
  [[nodiscard]] std::pair<std::size_t, std::size_t> right_interval(
      std::size_t, std::size_t j, std::size_t) const {
    return {j, j};
  }
  [[nodiscard]] std::size_t input_scalars() const { return 0; }
};

TEST(TriangularModular, RejectsOffAxisRule) {
  EXPECT_THROW((TriangularModularArray<BadRule>(BadRule{}, 3)),
               std::invalid_argument);
}

// Dense vs sparse bit-identity of one rule's run, field by field.
void expect_same_run(const TriangularModularCore::Result& dense,
                     const TriangularModularCore::Result& sparse) {
  ASSERT_EQ(dense.cost.rows(), sparse.cost.rows());
  for (std::size_t i = 0; i < dense.cost.rows(); ++i) {
    for (std::size_t j = i; j < dense.cost.cols(); ++j) {
      ASSERT_EQ(dense.cost(i, j), sparse.cost(i, j))
          << "cell (" << i << ", " << j << ")";
      ASSERT_EQ(dense.done(i, j), sparse.done(i, j))
          << "cell (" << i << ", " << j << ")";
    }
  }
  EXPECT_EQ(dense.stats.busy_steps, sparse.stats.busy_steps);
  EXPECT_EQ(dense.stats.cycles, sparse.stats.cycles);
}

// The whole family at the sizes the sweep benchmark runs (n 32-96), where
// one cell sees up to 95 flits per stream: costs equal the analytic
// model's, and the gated run is the dense run bit for bit.
TEST(TriangularModular, FamilyMatchesAnalyticAtBenchmarkSizes) {
  for (const std::size_t n : {32u, 64u, 96u}) {
    SCOPED_TRACE("n = " + std::to_string(n));
    const auto freq = make_costs(n, 17 * n + 1);
    const auto bst = run_bst_modular(freq, sim::Gating::kSparse);
    expect_costs_match(bst, run_bst_array(freq));
    expect_same_run(run_bst_modular(freq, sim::Gating::kDense), bst);

    const auto weights = make_costs(n, 19 * n + 2);
    const auto poly = run_polygon_modular(weights, sim::Gating::kSparse);
    expect_costs_match(poly, run_polygon_array(weights));
    expect_same_run(run_polygon_modular(weights, sim::Gating::kDense), poly);

    const auto dims = make_costs(n + 1, 23 * n + 3);
    const auto chain = run_chain_modular(dims, sim::Gating::kSparse);
    expect_costs_match(chain, run_chain_array(dims));
    expect_same_run(run_chain_modular(dims, sim::Gating::kDense), chain);
  }
}

// The simulated machine at n = 64 and 96, pinned to recorded counts: how
// a cell finds the candidates a flit feeds, where it stages operands and
// how the run detects completion is bookkeeping, and must not move a
// cycle, a fold or an eval.  Inputs come from make_costs, so the pins do
// not depend on the standard library's distributions.
TEST(TriangularModular, SimulatedCountsPinnedAtBenchmarkSizes) {
  struct Pin {
    std::size_t n;
    std::uint64_t cycles, busy_steps, active_evals, dense_evals;
  };
  // Each also pins the deepest operand staging any one cell needs and the
  // cycles its launches waited for a gap in a link (none for the chain).
  struct RulePin {
    Pin counts;
    std::uint64_t peak_operand_buffer, launch_waits;
  };
  const auto expect_pinned = [](const TriangularModularCore::Result& r,
                                const RulePin& g) {
    const Pin& p = g.counts;
    EXPECT_EQ(r.stats.cycles, p.cycles);
    EXPECT_EQ(r.stats.busy_steps, p.busy_steps);
    EXPECT_EQ(r.stats.active_evals, p.active_evals);
    EXPECT_EQ(r.stats.dense_evals, p.dense_evals);
    EXPECT_EQ(r.peak_operand_buffer, g.peak_operand_buffer);
    EXPECT_EQ(r.launch_waits, g.launch_waits);
  };
  const RulePin gkt_pins[] = {
      {{64, 126, 43680, 51775, 264160}, 66, 0},
      {{96, 190, 147440, 165727, 889296}, 98, 0},
  };
  for (const RulePin& g : gkt_pins) {
    const std::size_t n = g.counts.n;
    SCOPED_TRACE("gkt n = " + std::to_string(n));
    expect_pinned(run_chain_modular(make_costs(n + 1, 29 * n + 7)), g);
  }
  const RulePin bst_pins[] = {
      {{64, 126, 45696, 51775, 264160}, 68, 0},
      {{96, 190, 152000, 165727, 889296}, 100, 0},
  };
  for (const RulePin& g : bst_pins) {
    const std::size_t n = g.counts.n;
    SCOPED_TRACE("bst n = " + std::to_string(n));
    expect_pinned(run_bst_modular(make_costs(n, 31 * n + 11)), g);
  }
}

// input_scalars counts the scalars an array reads from its instance, and
// the rule states it: a chain of n matrices reads its n + 1 dims, a BST
// its key frequencies, a polygon its vertex weights.  Every chain witness
// reports the same count.
TEST(TriangularModular, InputScalarsComeFromTheRule) {
  const auto dims = make_costs(9, 51);  // eight matrices
  EXPECT_EQ(run_chain_array(dims).stats.input_scalars, dims.size());
  EXPECT_EQ(run_chain_modular(dims).stats.input_scalars, dims.size());
  EXPECT_EQ(SerializedChainArray(dims).run().stats.input_scalars,
            dims.size());
  const auto freq = make_costs(7, 52);
  EXPECT_EQ(run_bst_array(freq).stats.input_scalars, freq.size());
  EXPECT_EQ(run_bst_modular(freq).stats.input_scalars, freq.size());
  const auto weights = make_costs(6, 53);
  EXPECT_EQ(run_polygon_array(weights).stats.input_scalars, weights.size());
  EXPECT_EQ(run_polygon_modular(weights).stats.input_scalars,
            weights.size());
}

// Cell names reach VCD scopes and compiled provenance, so they are pinned
// here: t{i}_{j}, registered diagonal-major — the diagonal, then (0, 1),
// (1, 2), ..., then (0, 2), ...
TEST(TriangularModular, CellNamesPinnedInRegistrationOrder) {
  const auto pinned = [](std::size_t n) {
    std::vector<std::string> names;
    if (n == 1) names = {"0_0"};
    if (n == 2) names = {"0_0", "1_1", "0_1"};
    if (n == 5) {
      names = {"0_0", "1_1", "2_2", "3_3", "4_4", "0_1", "1_2", "2_3",
               "3_4", "0_2", "1_3", "2_4", "0_3", "1_4", "0_4"};
    }
    for (auto& name : names) name.insert(name.begin(), 't');
    return names;
  };
  const auto names_of = [](auto& array) {
    sim::Engine engine(sim::Gating::kSparse);
    array.elaborate(engine);
    std::vector<std::string> names;
    for (const sim::Module* m : engine.modules()) names.push_back(m->name());
    return names;
  };
  for (const std::size_t n : {1u, 2u, 5u}) {
    SCOPED_TRACE("n = " + std::to_string(n));
    TriangularModularArray<BstRule> bst(BstRule(make_costs(n, 5)), n);
    EXPECT_EQ(names_of(bst), pinned(n));
    TriangularModularArray<ChainRule> chain(ChainRule(make_costs(n + 1, 7)),
                                            n);
    EXPECT_EQ(names_of(chain), pinned(n));
    if (n >= 2) {  // a polygon needs two vertices
      TriangularModularArray<PolygonRule> poly(PolygonRule(make_costs(n, 9)),
                                               n);
      EXPECT_EQ(names_of(poly), pinned(n));
    }
  }
}

// Chain splits plus two candidates per cell that the diagonal (i, i) on
// the cell's row also feeds, so that one origin feeds three candidates of
// one cell (t = 0, t = j-i and t = j-i+1).  Candidate j-i clamps that
// operand away (use_left == 0), yet its arrival still gates the candidate.
struct TripleFeedRule {
  std::vector<Cost> dims;  // n + 1 chain dimensions

  [[nodiscard]] Cost base(std::size_t) const { return 0; }
  [[nodiscard]] std::size_t splits(std::size_t i, std::size_t j) const {
    return j - i + 2;
  }
  [[nodiscard]] IntervalTerms terms(std::size_t i, std::size_t j,
                                    std::size_t t) const {
    if (t < j - i) return {dims[i] * dims[i + t + 1] * dims[j + 1], true, true};
    if (t == j - i) return {dims[i] + dims[j + 1] + 7, false, true};
    return {dims[i] * dims[j + 1] + 3, true, true};
  }
  [[nodiscard]] std::pair<std::size_t, std::size_t> left_interval(
      std::size_t i, std::size_t j, std::size_t t) const {
    return t < j - i ? std::pair{i, i + t} : std::pair{i, i};
  }
  [[nodiscard]] std::pair<std::size_t, std::size_t> right_interval(
      std::size_t i, std::size_t j, std::size_t t) const {
    if (t < j - i) return {i + t + 1, j};
    return t == j - i ? std::pair{j, j} : std::pair{i + 1, j};
  }
  [[nodiscard]] std::size_t input_scalars() const { return dims.size(); }
};

TEST(TriangularModular, OneOriginFeedingThreeCandidatesMatchesAnalytic) {
  for (const std::size_t n : {1u, 2u, 3u, 6u, 11u, 24u}) {
    SCOPED_TRACE("n = " + std::to_string(n));
    const TripleFeedRule rule{make_costs(n + 1, 37 * n + 5)};
    const auto ref = TriangularArray<TripleFeedRule>(rule, n).run();
    TriangularModularArray<TripleFeedRule> arr(rule, n);
    const auto sparse = arr.run(sim::Gating::kSparse);
    expect_costs_match(sparse, ref);
    expect_same_run(arr.run(sim::Gating::kDense), sparse);
    // Every candidate folds exactly once: sum over cells of (j-i+2).
    EXPECT_EQ(sparse.stats.busy_steps, ref.stats.busy_steps);
  }
}

// A cell asks PortSet::wants() before it declares a port, so a filtered
// sweep (lowering's lane naming) must keep exactly the declarations an
// unfiltered sweep makes for the keys the filter accepts: same order,
// labels, kinds, directions and samplers.  The polygon rule has cells
// that never launch, so every launch-slot branch is declared both ways.
TEST(TriangularModular, FilteredPortsAreTheAcceptedUnfilteredOnes) {
  const auto check = [](const auto& declare) {
    sim::PortSet all;
    declare(all);
    std::set<const void*> odd;  // every other key the cell declares
    for (std::size_t k = 1; k < all.ports().size(); k += 2) {
      odd.insert(all.ports()[k].storage);
    }
    sim::PortSet kept([&odd](const void* key) { return odd.count(key) > 0; });
    declare(kept);
    std::vector<const sim::Port*> want;
    for (const sim::Port& p : all.ports()) {
      if (odd.count(p.storage) > 0) want.push_back(&p);
    }
    ASSERT_EQ(kept.ports().size(), want.size());
    for (std::size_t k = 0; k < want.size(); ++k) {
      const sim::Port& got = kept.ports()[k];
      EXPECT_EQ(got.storage, want[k]->storage);
      EXPECT_EQ(got.label, want[k]->label);
      EXPECT_EQ(got.kind, want[k]->kind);
      EXPECT_EQ(got.dir, want[k]->dir);
      ASSERT_EQ(static_cast<bool>(got.sample),
                static_cast<bool>(want[k]->sample));
      if (got.sample) {
        EXPECT_EQ(got.sample(), want[k]->sample());
      }
    }
  };
  const auto check_array = [&check](auto& arr) {
    sim::Engine engine(sim::Gating::kSparse);
    arr.elaborate(engine);
    for (const sim::Module* m : engine.modules()) {
      SCOPED_TRACE(m->name());
      check([m](sim::PortSet& ports) { m->describe_ports(ports); });
    }
    check([&arr](sim::PortSet& ports) { arr.describe_environment(ports); });
  };
  TriangularModularArray<BstRule> bst(BstRule(make_costs(6, 3)), 6);
  check_array(bst);
  TriangularModularArray<PolygonRule> poly(PolygonRule(make_costs(6, 4)), 6);
  check_array(poly);
}

// One candidate per cell, split in the middle at k = i + (j - i) / 2.  A
// cell completes as soon as its two origins have, so completions crowd
// onto the links while other flits are still shifting through, and a
// completion launch finds the receiver's link register occupied: the
// launch waits in its patient slot (TriangularModularCore::Cell::commit's
// waiting branch), and the cell may not sleep on it (the launch-slot
// clause of quiescent()).
struct MiddleSplitRule {
  std::vector<Cost> dims;  // n + 1 chain dimensions

  [[nodiscard]] Cost base(std::size_t) const { return 0; }
  [[nodiscard]] std::size_t splits(std::size_t, std::size_t) const {
    return 1;
  }
  [[nodiscard]] IntervalTerms terms(std::size_t i, std::size_t j,
                                    std::size_t) const {
    return {dims[i] * dims[mid(i, j) + 1] * dims[j + 1], true, true};
  }
  [[nodiscard]] std::pair<std::size_t, std::size_t> left_interval(
      std::size_t i, std::size_t j, std::size_t) const {
    return {i, mid(i, j)};
  }
  [[nodiscard]] std::pair<std::size_t, std::size_t> right_interval(
      std::size_t i, std::size_t j, std::size_t) const {
    return {mid(i, j) + 1, j};
  }
  [[nodiscard]] std::size_t input_scalars() const { return dims.size(); }

  [[nodiscard]] static std::size_t mid(std::size_t i, std::size_t j) {
    return i + (j - i) / 2;
  }
};

TEST(TriangularModular, MiddleSplitLaunchesWaitForAGapInTheLink) {
  struct Case {
    std::size_t n;
    std::uint64_t launch_waits;
  };
  for (const Case c : {Case{8, 26}, Case{16, 390}, Case{32, 4046}}) {
    SCOPED_TRACE("n = " + std::to_string(c.n));
    const MiddleSplitRule rule{make_costs(c.n + 1, 43 * c.n + 1)};
    const auto ref = TriangularArray<MiddleSplitRule>(rule, c.n).run();
    TriangularModularArray<MiddleSplitRule> arr(rule, c.n);
    const auto sparse = arr.run(sim::Gating::kSparse);
    const auto dense = arr.run(sim::Gating::kDense);
    expect_costs_match(sparse, ref);
    expect_same_run(dense, sparse);
    EXPECT_EQ(sparse.stats.busy_steps, ref.stats.busy_steps);
    EXPECT_GT(sparse.launch_waits, 0u);
    EXPECT_EQ(sparse.launch_waits, c.launch_waits);
    EXPECT_EQ(dense.launch_waits, sparse.launch_waits);
  }
}

// Cell (0, 1) has no candidates, so it never launches; cell (0, 2) names
// it as its left origin.  That operand would never arrive, and the
// constructor must say so rather than let the run hang to its bound.
struct SilentOriginRule {
  [[nodiscard]] Cost base(std::size_t) const { return 1; }
  [[nodiscard]] std::size_t splits(std::size_t i, std::size_t j) const {
    return i == 0 && j == 1 ? 0 : 1;
  }
  [[nodiscard]] IntervalTerms terms(std::size_t, std::size_t,
                                    std::size_t) const {
    return {};
  }
  [[nodiscard]] std::pair<std::size_t, std::size_t> left_interval(
      std::size_t i, std::size_t j, std::size_t) const {
    return {i, j - 1};
  }
  [[nodiscard]] std::pair<std::size_t, std::size_t> right_interval(
      std::size_t, std::size_t j, std::size_t) const {
    return {j, j};
  }
  [[nodiscard]] std::size_t input_scalars() const { return 0; }
};

TEST(TriangularModular, RejectsNonLaunchingOrigin) {
  try {
    TriangularModularArray<SilentOriginRule> arr(SilentOriginRule{}, 3);
    FAIL() << "a candidate fed by a silent cell was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "candidate origin is not a launching cell"),
              std::string::npos)
        << e.what();
  }
  // The same rule on two keys never consults (0, 1) as an origin.
  EXPECT_EQ(TriangularModularArray<SilentOriginRule>(SilentOriginRule{}, 2)
                .run()
                .total(),
            0);
}

}  // namespace
}  // namespace sysdp
