// Scale tests: the simulators at sizes well beyond the unit-test sweeps.
// These guard against accidental quadratic blow-ups in the cycle loops and
// demonstrate that laptop-scale simulation covers the paper's regimes
// (Figure 6 uses N = 4096; Design 3's pitch is "many quantised values").
#include <gtest/gtest.h>

#include <algorithm>

#include "andor/level_schedule.hpp"
#include "arrays/design3_feedback.hpp"
#include "arrays/graph_adapter.hpp"
#include "arrays/paper_metrics.hpp"
#include "arrays/triangular_array.hpp"
#include "baseline/matrix_chain.hpp"
#include "baseline/multistage_dp.hpp"
#include "dnc/metrics.hpp"
#include "dnc/schedule.hpp"
#include "graph/generators.hpp"
#include "nonserial/elimination.hpp"
#include "nonserial/grouping.hpp"
#include "nonserial/nonserial_generators.hpp"

namespace sysdp {
namespace {

TEST(Scale, Design1WideAndDeep) {
  // 256 stages x 32 quantised values: ~262k multiply-accumulates through
  // the pipelined array.
  Rng rng(1);
  const auto g = random_multistage(256, 32, rng);
  const auto res = run_design1_shortest(g);
  EXPECT_EQ(res.values, forward_costs(g, 0));
  EXPECT_EQ(res.cycles, 255u * 32 + 31);
}

TEST(Scale, Design3LongHorizon) {
  // A 512-period inventory plan with 24 stock levels.
  Rng rng(2);
  const auto nv = inventory_instance(512, 24, rng, 60, 10);
  Design3Feedback arr(nv);
  const auto res = arr.run();
  const auto ref = solve_multistage(nv.materialize());
  EXPECT_EQ(res.cost, ref.cost);
  EXPECT_EQ(res.stats.cycles, 513u * 24);
  EXPECT_NEAR(res.stats.utilization_wall(), analytic_pu_design3(512, 24),
              1e-12);
}

TEST(Scale, GktLargeChain) {
  Rng rng(3);
  const auto dims = random_chain_dims(160, rng);
  const auto res = run_chain_array(dims);
  EXPECT_EQ(res.total(), matrix_chain_order(dims).total());
  EXPECT_LE(res.completion(), 2u * 160);
}

TEST(Scale, SchedulerAtFigure6Size) {
  // The full Figure 6 regime: N = 4096 leaves across a K sweep.
  for (const std::uint64_t k : {64u, 341u, 465u, 1024u}) {
    const auto res = schedule_and_tree(4096, k);
    EXPECT_EQ(res.tasks, 4095u);
    EXPECT_GE(res.makespan, dnc_time_eq29(4096, k) - 2);
  }
}

TEST(Scale, BroadcastAndPipelinedSchedulesAtLargeN) {
  EXPECT_EQ(simulate_chain_broadcast(1024).completion, 1024u);
  EXPECT_EQ(simulate_chain_pipelined(1024).completion, 2048u);
}

TEST(Scale, EliminationLongBand) {
  // 64 variables, domain 4, bandwidth 2: eq. (40) at length.
  Rng rng(4);
  const auto obj = random_banded_objective(64, 4, rng);
  const auto elim = solve_by_elimination(obj);
  EXPECT_EQ(elim.steps, eq40_steps(std::vector<std::size_t>(64, 4)));
  // Cross-check the optimum via the grouping transform (brute force is
  // 4^64 and obviously out of reach — the transforms ARE the oracle pair).
  const auto grouped = group_banded_to_serial(obj);
  EXPECT_EQ(solve_multistage(grouped.graph).cost, elim.cost);
}

}  // namespace
}  // namespace sysdp
