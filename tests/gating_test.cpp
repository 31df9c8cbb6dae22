// Activity gating: bit-identity and utilisation accounting.
//
// Gating::kSparse must be invisible in every result payload: a quiescent
// module's eval is an observational no-op by contract, and every input
// that can reactivate a sleeping module is covered by a wakeup edge, so a
// gated run visits a superset of the "useful" evals of a dense run and
// nothing else observable.  These tests pin that contract down for the
// engine-backed arrays (Designs 1-3 and the modular GKT cells), pin the
// modular GKT array cycle-exactly to the analytic chain model, and
// cross-check the engine's measured activity counter against the paper's
// processor-utilisation analysis.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "arrays/design1_modular.hpp"
#include "arrays/design2_modular.hpp"
#include "arrays/design3_modular.hpp"
#include "arrays/gkt_modular.hpp"
#include "arrays/graph_adapter.hpp"
#include "arrays/paper_metrics.hpp"
#include "arrays/triangular_array.hpp"
#include "graph/generators.hpp"
#include "sim/engine.hpp"
#include "sim/module.hpp"

namespace sysdp {
namespace {

template <typename T>
void expect_same_matrix(const Matrix<T>& a, const Matrix<T>& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      ASSERT_EQ(a(r, c), b(r, c)) << "at (" << r << ", " << c << ")";
    }
  }
}

template <typename V>
void expect_identical(const RunResult<V>& dense, const RunResult<V>& sparse) {
  EXPECT_EQ(dense.values, sparse.values);
  EXPECT_EQ(dense.cycles, sparse.cycles);
  EXPECT_EQ(dense.busy_steps, sparse.busy_steps);
  EXPECT_EQ(dense.num_pes, sparse.num_pes);
  EXPECT_EQ(dense.input_scalars, sparse.input_scalars);
}

std::pair<std::vector<Matrix<Cost>>, std::vector<Cost>> string_instance(
    std::size_t q, std::size_t m, std::uint64_t seed) {
  Rng rng(seed);
  auto mats = random_matrix_string(q, m, rng);
  std::vector<Cost> v(m);
  std::uniform_int_distribution<Cost> dist(0, 99);
  for (auto& x : v) x = dist(rng);
  return {std::move(mats), std::move(v)};
}

// ------------------------------------------- dense vs sparse identity -----

TEST(ActivityGating, Design1DenseVsSparseBitIdentical) {
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {1, 6}, {2, 4}, {3, 8}, {4, 16}, {5, 32}};
  for (const auto& [q, m] : shapes) {
    const auto [mats, v] = string_instance(q, m, q * 1000 + m);
    Design1Modular dense_arr(mats, v);
    const auto dense = dense_arr.run(sim::Gating::kDense);
    Design1Modular sparse_arr(mats, v);
    const auto sparse = sparse_arr.run(sim::Gating::kSparse);
    SCOPED_TRACE("q=" + std::to_string(q) + " m=" + std::to_string(m));
    expect_identical(dense, sparse);
    EXPECT_LE(sparse.active_evals, sparse.dense_evals);
  }
}

TEST(ActivityGating, Design2DenseVsSparseBitIdentical) {
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {2, 4}, {3, 8}, {4, 16}, {6, 24}};
  for (const auto& [q, m] : shapes) {
    const auto [mats, v] = string_instance(q, m, q * 2000 + m);
    Design2Modular dense_arr(mats, v);
    const auto dense = dense_arr.run(sim::Gating::kDense);
    Design2Modular sparse_arr(mats, v);
    const auto sparse = sparse_arr.run(sim::Gating::kSparse);
    SCOPED_TRACE("q=" + std::to_string(q) + " m=" + std::to_string(m));
    expect_identical(dense, sparse);
  }
}

TEST(ActivityGating, Design3DenseVsSparseBitIdentical) {
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {4, 4}, {8, 8}, {12, 16}, {16, 24}};
  for (const auto& [n, m] : shapes) {
    Rng rng(n * 31 + m);
    const auto nv = traffic_control_instance(n, m, rng);
    Design3Modular dense_arr(nv);
    const auto dense = dense_arr.run(sim::Gating::kDense);
    Design3Modular sparse_arr(nv);
    const auto sparse = sparse_arr.run(sim::Gating::kSparse);
    SCOPED_TRACE("n=" + std::to_string(n) + " m=" + std::to_string(m));
    EXPECT_EQ(dense.cost, sparse.cost);
    EXPECT_EQ(dense.path, sparse.path);
    expect_identical(dense.stats, sparse.stats);
  }
}

TEST(ActivityGating, GktModularDenseVsSparseBitIdentical) {
  for (const std::size_t n : {2u, 3u, 5u, 9u, 17u, 24u}) {
    Rng rng(500 + n);
    const auto dims = random_chain_dims(n, rng);
    GktModularArray arr(dims);
    const auto dense = arr.run(sim::Gating::kDense);
    const auto sparse = arr.run(sim::Gating::kSparse);
    SCOPED_TRACE("n=" + std::to_string(n));
    expect_same_matrix(dense.cost, sparse.cost);
    expect_same_matrix(dense.done, sparse.done);
    expect_identical(dense.stats, sparse.stats);
    EXPECT_EQ(dense.peak_operand_buffer, sparse.peak_operand_buffer);
  }
}

// ------------------------------------------------ GKT differentials -------

// The modular cell array must be cycle-exact against the analytic chain
// model, TriangularArray<ChainRule>: the same costs, per-cell completion
// cycles, busy work and cycle count, in both gating modes, and no link
// ever carries two values (run() throws if one does).  Every n up to 20,
// the sweep benchmark's 48 and 96 (a cell stages up to 95 operands per
// stream), and n in {2, 3, 5, 9, 17, 33} over three seeds.  The
// operand-buffer peak has no analytic counterpart; it is pinned in
// TriangularModular.SimulatedCountsPinnedAtBenchmarkSizes.
TEST(ActivityGating, GktModularMatchesChainArrayCycleExactly) {
  std::vector<std::vector<Cost>> chains;
  std::vector<std::size_t> sizes;
  for (std::size_t n = 1; n <= 20; ++n) sizes.push_back(n);
  sizes.insert(sizes.end(), {48, 96});
  for (const std::size_t n : sizes) {
    Rng rng(900 + n);
    chains.push_back(random_chain_dims(n, rng));
  }
  for (const std::uint64_t n : {2u, 3u, 5u, 9u, 17u, 33u}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      Rng rng(seed * 331 + n);
      chains.push_back(random_chain_dims(n, rng));
    }
  }
  for (std::size_t c = 0; c < chains.size(); ++c) {
    const auto& dims = chains[c];
    const std::size_t n = dims.size() - 1;
    const auto ref = run_chain_array(dims);
    GktModularArray mod(dims);
    const GktModularArray::Result runs[] = {
        mod.run(sim::Gating::kDense),
        mod.run(sim::Gating::kSparse),
    };
    for (const auto& r : runs) {
      SCOPED_TRACE("chain " + std::to_string(c) + ", n=" + std::to_string(n));
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i; j < n; ++j) {
          ASSERT_EQ(r.cost(i, j), ref.cost(i, j))
              << "(" << i << ", " << j << ")";
        }
      }
      expect_same_matrix(r.done, ref.ready);
      EXPECT_EQ(r.stats.cycles, ref.stats.cycles);
      EXPECT_EQ(r.stats.busy_steps, ref.stats.busy_steps);
    }
  }
}

// ---------------------------------------- utilisation vs paper PU --------

// The engine's measured activity (active evals / dense evals) is the
// simulator-side counterpart of the paper's processor utilisation, but the
// denominators differ: activity counts every module (host and collector
// included) while PU divides busy MACs by PEs only, so neither bounds the
// other.  What must hold exactly: a dense run reports activity 1, a gated
// run never performs more evals than dense, and every useful MAC implies
// one eval of the PE that did it — busy_steps <= active_evals.  Against
// the eq. (9) prediction the activity may only sit in a loose band: the
// gated engine skips exactly the evals the paper's analysis already calls
// idle, plus bounded per-module overhead (lazy quiescence polling).
TEST(ActivityGating, EngineActivityTracksPaperPuDesign1) {
  for (const std::size_t N : {4u, 8u, 16u}) {
    for (const std::size_t m : {4u, 8u, 16u}) {
      Rng rng(N * 100 + m);
      const auto g = with_single_source_sink(random_multistage(N - 1, m, rng));
      auto prob = to_string_product(g);
      Design1Modular dense_arr(prob.mats, prob.v);
      const auto dense = dense_arr.run(sim::Gating::kDense);
      EXPECT_DOUBLE_EQ(dense.engine_activity(), 1.0);
      Design1Modular sparse_arr(prob.mats, prob.v);
      const auto sparse = sparse_arr.run(sim::Gating::kSparse);
      const double pu_paper = analytic_pu_design12(N, m);
      SCOPED_TRACE("N=" + std::to_string(N) + " m=" + std::to_string(m));
      EXPECT_LE(sparse.engine_activity(), 1.0);
      EXPECT_GE(sparse.active_evals, sparse.busy_steps);
      EXPECT_GE(sparse.engine_activity(), pu_paper * 0.5);
    }
  }
}

TEST(ActivityGating, EngineActivityTracksPaperPuDesign2) {
  for (const std::size_t N : {4u, 8u, 16u}) {
    for (const std::size_t m : {4u, 8u}) {
      Rng rng(N * 200 + m);
      const auto g = with_single_source_sink(random_multistage(N - 1, m, rng));
      auto prob = to_string_product(g);
      Design2Modular dense_arr(prob.mats, prob.v);
      const auto dense = dense_arr.run(sim::Gating::kDense);
      EXPECT_DOUBLE_EQ(dense.engine_activity(), 1.0);
      Design2Modular sparse_arr(prob.mats, prob.v);
      const auto sparse = sparse_arr.run(sim::Gating::kSparse);
      SCOPED_TRACE("N=" + std::to_string(N) + " m=" + std::to_string(m));
      EXPECT_LE(sparse.engine_activity(), 1.0);
      EXPECT_GE(sparse.active_evals, sparse.busy_steps);
      EXPECT_GE(sparse.engine_activity(), analytic_pu_design12(N, m) * 0.5);
    }
  }
}

// The 2-D GKT wavefront is the paper's low-PU showcase: most cell-cycles
// are idle, so the gated engine must report activity well below 1 while
// still returning identical results (checked above).
TEST(ActivityGating, GktActivityReflectsWavefrontSparsity) {
  Rng rng(2024);
  const auto dims = random_chain_dims(32, rng);
  GktModularArray mod(dims);
  const auto r = mod.run(sim::Gating::kSparse);
  EXPECT_GT(r.stats.dense_evals, 0u);
  EXPECT_LT(r.stats.engine_activity(), 0.6);
  EXPECT_GE(r.stats.active_evals, r.stats.busy_steps);
}

// ------------------------------------------------ dense-fallback crossover

// Synthetic module for the fallback crossover: permanently busy or asleep
// from the first demotion poll on.  No wakeup edges exist, so the active
// set only changes at polls and the window activity is exact.
class DutyModule : public sim::Module {
 public:
  DutyModule(std::string name, bool busy)
      : Module(std::move(name)), busy_(busy) {}
  void eval(sim::Cycle) override { ++evals; }
  void commit() override {}
  [[nodiscard]] bool quiescent() const noexcept override { return !busy_; }

  std::uint64_t evals = 0;

 private:
  bool busy_;
};

// kDenseFallbackActivity is 15/16: with 16 modules, 15 permanently busy
// lanes sit exactly on the threshold (inclusive — must trip) and 14 sit
// one lane below it (must never trip).  The first poll is a warm-up that
// only sets the measurement mark, so the trip lands on the second poll.
TEST(ActivityGating, DenseFallbackCrossoverAtThreshold) {
  constexpr std::size_t kModules = 16;
  for (const std::size_t busy : {kModules - 2, kModules - 1}) {
    SCOPED_TRACE("busy=" + std::to_string(busy));
    std::vector<std::unique_ptr<DutyModule>> mods;
    sim::Engine eng(sim::Gating::kSparse);
    for (std::size_t i = 0; i < kModules; ++i) {
      mods.push_back(std::make_unique<DutyModule>("duty" + std::to_string(i),
                                                  i < busy));
      eng.add(*mods.back());
    }
    eng.run(32);
    const DutyModule& sleeper = *mods.back();
    if (busy == kModules - 1) {
      EXPECT_TRUE(eng.dense_fallback());
      EXPECT_EQ(eng.dense_fallback_cycle(), sim::Engine::kQuiescencePeriod);
      EXPECT_EQ(eng.effective_gating(), sim::Gating::kDense);
      // Dense stepping resumes sweeping the sleeper every cycle: one eval
      // before its first demotion plus everything after the trip.
      EXPECT_GT(sleeper.evals, 1u);
    } else {
      EXPECT_FALSE(eng.dense_fallback());
      EXPECT_EQ(eng.effective_gating(), sim::Gating::kSparse);
      // Demoted at the first poll and never woken again.
      EXPECT_EQ(sleeper.evals, 1u);
    }
    for (std::size_t i = 0; i < busy; ++i) {
      EXPECT_EQ(mods[i]->evals, 32u) << "module " << i;
    }
  }
}

// The fallback on a real array: Design 2 broadcasts every input to every
// PE, so a sparse run is dense in disguise and must trip the fallback —
// while staying bit-identical to the dense oracle.  The GKT wavefront is
// the opposite extreme: activity stays far below the threshold and the
// fallback must never engage.
TEST(ActivityGating, DenseFallbackEngagesOnBroadcastArrayOnly) {
  const auto [mats, v] = string_instance(4, 16, 4242);
  Design2Modular dense_arr(mats, v);
  const auto dense = dense_arr.run(sim::Gating::kDense);

  Design2Modular sparse_arr(mats, v);
  sim::Engine eng(sim::Gating::kSparse);
  const auto sparse = sparse_arr.run(eng);
  EXPECT_TRUE(eng.dense_fallback());
  EXPECT_EQ(eng.effective_gating(), sim::Gating::kDense);
  expect_identical(dense, sparse);

  Rng rng(77);
  const auto dims = random_chain_dims(24, rng);
  GktModularArray gkt(dims);
  sim::Engine wave_eng(sim::Gating::kSparse);
  (void)gkt.run(wave_eng);
  EXPECT_FALSE(wave_eng.dense_fallback());
  EXPECT_EQ(wave_eng.effective_gating(), sim::Gating::kSparse);
}

}  // namespace
}  // namespace sysdp
