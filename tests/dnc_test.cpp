// Tests for the divide-and-conquer subsystem (Section 4): AND-tree shape,
// list scheduling, the eq. (29) time model, PU asymptotics (Proposition 1),
// and the KT^2 / AT^2 analyses (Theorem 1, Figure 6).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "dnc/and_tree.hpp"
#include "dnc/metrics.hpp"
#include "dnc/schedule.hpp"
#include "graph/generators.hpp"
#include "semiring/ops.hpp"

namespace sysdp {
namespace {

// ------------------------------------------------------------ AND-tree ----

TEST(AndTree, StructureInvariants) {
  for (std::size_t n : {1u, 2u, 3u, 7u, 16u, 33u}) {
    AndTree t(n);
    EXPECT_EQ(t.num_leaves(), n);
    EXPECT_EQ(t.size(), 2 * n - 1);
    std::size_t leaves = 0;
    for (std::size_t i = 0; i < t.size(); ++i) {
      const auto& node = t.node(i);
      if (node.is_leaf()) {
        ++leaves;
        EXPECT_EQ(node.hi - node.lo, 1u);
      } else {
        EXPECT_EQ(t.node(node.left).lo, node.lo);
        EXPECT_EQ(t.node(node.right).hi, node.hi);
        EXPECT_EQ(t.node(node.left).hi, t.node(node.right).lo);
      }
    }
    EXPECT_EQ(leaves, n);
    // Height is ceil(log2 n).
    std::size_t h = 0;
    while ((1u << h) < n) ++h;
    EXPECT_EQ(t.height(), h) << "n=" << n;
  }
}

TEST(AndTree, RejectsEmpty) { EXPECT_THROW(AndTree(0), std::invalid_argument); }

// ------------------------------------------------------------ schedule ----

TEST(Schedule, SingleArrayIsSequential) {
  const auto res = schedule_and_tree(64, 1);
  EXPECT_EQ(res.makespan, 63u);  // N - 1 products, one per step
  EXPECT_EQ(res.tasks, 63u);
  EXPECT_DOUBLE_EQ(res.utilization(1), 1.0);
}

TEST(Schedule, UnboundedArraysGiveTreeHeight)  {
  const auto res = schedule_and_tree(64, 1024);
  EXPECT_EQ(res.makespan, 6u);  // log2 64 levels
}

TEST(Schedule, TasksAlwaysNMinusOne) {
  for (std::size_t n : {2u, 5u, 17u, 64u, 100u}) {
    for (std::uint64_t k : {1u, 2u, 3u, 7u, 50u}) {
      EXPECT_EQ(schedule_and_tree(n, k).tasks, n - 1) << n << " " << k;
    }
  }
}

// E12: the Hu list schedule meets eq. (29) exactly while the arrays are
// not saturated (2K <= N) and never exceeds it.  Past saturation it may
// finish early, by less than bit_width(K) + 8 steps (the model's floor-log
// wind-down is approximate for non-power-of-two residues).  Every K up to
// 2N for N = 2-64 and 128-1024 (doubling), plus large-N spot checks.
TEST(Schedule, MakespanEqualsEq29BelowSaturation) {
  std::vector<std::pair<std::size_t, std::uint64_t>> grid;
  for (std::size_t n = 2; n <= 1024; n = n < 64 ? n + 1 : 2 * n) {
    for (std::uint64_t k = 1; k <= 2 * n; ++k) grid.emplace_back(n, k);
  }
  for (const std::uint64_t k : {2u, 8u, 31u, 100u, 341u}) {
    grid.emplace_back(4096, k);
  }
  for (const auto& [n, k] : grid) {
    const auto sim = schedule_and_tree(n, k).makespan;
    const auto model = dnc_time_eq29(n, k);
    if (2 * k <= n) {
      ASSERT_EQ(sim, model) << n << " " << k;
    } else {
      ASSERT_LE(sim, model) << n << " " << k;
      ASSERT_GE(sim + std::bit_width(k) + 8, model) << n << " " << k;
    }
  }
}

TEST(Schedule, PhasesPartitionMakespan) {
  const auto res = schedule_and_tree(4096, 100);
  EXPECT_EQ(res.computation + res.wind_down, res.makespan);
  EXPECT_GT(res.computation, 0u);
  EXPECT_GT(res.wind_down, 0u);
}

TEST(Schedule, RejectsZeroArrays) {
  EXPECT_THROW((void)schedule_and_tree(8, 0), std::invalid_argument);
}

TEST(ExecuteDnc, MatchesSequentialProductForAnyK) {
  Rng rng(3);
  const auto mats = random_matrix_string(13, 4, rng);
  const auto expect = string_mat_mul<MinPlus>(mats);
  for (std::uint64_t k : {1u, 2u, 3u, 5u, 16u}) {
    std::uint64_t steps = 0;
    const auto got = execute_dnc(mats, k, nullptr, &steps);
    EXPECT_TRUE(got == expect) << "k=" << k;
    EXPECT_EQ(steps, schedule_and_tree(13, k).makespan) << "k=" << k;
  }
}

TEST(ExecuteDnc, SingleMatrixPassesThrough) {
  Rng rng(4);
  const auto mats = random_matrix_string(1, 3, rng);
  EXPECT_TRUE(execute_dnc(mats, 4) == mats[0]);
}

// --------------------------------------------------------- eq. (29) -------

TEST(Eq29, HandValues) {
  // K = 1: T = N - 1 products... the model gives floor((N-1)/1) +
  // floor(log2(N + 1 - 1 - (N-1))) = N - 1 + 0.
  EXPECT_EQ(dnc_time_eq29(64, 1), 63u);
  // N = 8, K = 7: the 4 bottom products run in one step, then 2, then 1 —
  // three steps, which the model reproduces as T_c = 1 plus a 2-step
  // wind-down: floor(7/7) + floor(log2(8 + 7 - 1 - 7)) = 1 + 2.
  EXPECT_EQ(dnc_time_eq29(8, 7), 3u);
}

TEST(Eq29, MonotoneNonIncreasingInK) {
  for (std::uint64_t k = 1; k < 512; ++k) {
    EXPECT_GE(dnc_time_eq29(4096, k) + 1, dnc_time_eq29(4096, k + 1))
        << "k=" << k;
  }
}

TEST(Eq29, ApproximatedByEq30ForLargeN) {
  const double exact = static_cast<double>(dnc_time_eq29(1 << 20, 1024));
  const double approx = dnc_time_eq30(static_cast<double>(1 << 20), 1024.0);
  EXPECT_NEAR(exact, approx, 3.0);
}

// ------------------------------------------------------ Proposition 1 -----

TEST(Prop1, SqrtNProcessorsReachFullUtilization) {
  // c_inf = 0 for k = sqrt(N): PU -> 1 (the paper's worked example).
  double prev = 0.0;
  for (std::uint64_t e = 10; e <= 24; e += 2) {
    const std::uint64_t n = 1ull << e;
    const std::uint64_t k = 1ull << (e / 2);
    const double pu = pu_eq29(n, k);
    EXPECT_GE(pu + 1e-9, prev) << "n=" << n;  // improving towards 1
    prev = pu;
  }
  EXPECT_GT(prev, 0.99);
}

TEST(Prop1, LinearProcessorsDriveUtilizationToZero) {
  // c_inf = inf for k = N: PU -> 0.
  double prev = 1.0;
  for (std::uint64_t e = 10; e <= 24; e += 2) {
    const std::uint64_t n = 1ull << e;
    const double pu = pu_eq29(n, n);
    EXPECT_LE(pu, prev + 1e-9);
    prev = pu;
  }
  EXPECT_LT(prev, 0.10);
}

TEST(Prop1, CriticalGranularityApproachesHalfFromAbove) {
  // k = N / log2 N gives c_inf = 1, hence PU -> 1/(1 + 1) = 1/2.  The
  // finite-size value sits between the limit and the proof's upper bound
  // 1 / (1 + c * log2(k) / log2(N)) (eqs. 21-24), and descends towards the
  // limit as N grows.
  double prev = 1.0;
  for (std::uint64_t e = 12; e <= 24; e += 4) {
    const std::uint64_t n = 1ull << e;
    const auto k =
        static_cast<std::uint64_t>(static_cast<double>(n) / static_cast<double>(e));
    const double pu = pu_eq29(n, k);
    const double c_eff = std::log2(static_cast<double>(k)) / static_cast<double>(e);
    EXPECT_GE(pu, prop1_limit(1.0) - 1e-9) << "n=" << n;
    EXPECT_LE(pu, prop1_limit(c_eff) + 0.05) << "n=" << n;
    EXPECT_LE(pu, prev + 1e-9) << "n=" << n;  // monotone approach
    prev = pu;
  }
}

TEST(Prop1, ScaledGranularityBoundedByProofEnvelope) {
  const std::uint64_t n = 1ull << 24;
  for (const double c : {0.5, 2.0, 3.0}) {
    const auto k =
        static_cast<std::uint64_t>(c * static_cast<double>(n) / 24.0);
    const double pu = pu_eq29(n, k);
    const double c_eff =
        c * std::log2(static_cast<double>(k) / c) / 24.0;
    EXPECT_GE(pu, prop1_limit(c) - 1e-9) << "c=" << c;
    EXPECT_LE(pu, prop1_limit(c_eff) + 0.03) << "c=" << c;
  }
}

// ------------------------------------------------ Theorem 1 / Figure 6 ----

TEST(Thm1, St2MinimizedNearNOverLogN) {
  const double n = 65536.0;
  const double s_star = n / std::log2(n);
  const double at_star = st2_lower_bound(n, s_star);
  // Both much smaller and much larger granularities are asymptotically
  // worse (eqs. 27 and 28).
  EXPECT_GT(st2_lower_bound(n, s_star / 64.0), 4.0 * at_star);
  EXPECT_GT(st2_lower_bound(n, s_star * 64.0), 4.0 * at_star);
}

TEST(Fig6, MinimumNearNOverLogNFor4096) {
  // Figure 6: N = 4096; the paper reports the KT^2 minimum at K = 431 or
  // 465 processors; N / log2 N = 341.  The regenerated curve must bottom
  // out in that neighbourhood.
  const auto best = minimize_kt2(4096, 1200);
  EXPECT_GE(best.k, 300u);
  EXPECT_LE(best.k, 520u);
  // And the paper's two reported minima must beat naive granularities.
  EXPECT_LT(kt2_eq29(4096, 431), kt2_eq29(4096, 100));
  EXPECT_LT(kt2_eq29(4096, 465), kt2_eq29(4096, 1024));
}

TEST(Fig6, CurveIsRaggedBecauseOfDivisibility) {
  // "the curve is not smooth because the time needed in the wind-down phase
  // is decreased by 1 whenever N is divisible by K" — verify the
  // non-monotonic jitter exists near the minimum.
  bool up = false, down = false;
  for (std::uint64_t k = 300; k < 520; ++k) {
    const double a = kt2_eq29(4096, k);
    const double b = kt2_eq29(4096, k + 1);
    up = up || (b > a);
    down = down || (b < a);
  }
  EXPECT_TRUE(up);
  EXPECT_TRUE(down);
}

TEST(Kt2, UtilizationMonotoneDecreasingInK) {
  // "PU(k, N) increases monotonically with decreasing k".
  double prev = 2.0;
  for (std::uint64_t k : {1u, 2u, 4u, 16u, 64u, 341u, 1024u, 4095u}) {
    const double pu = pu_eq29(4096, k);
    EXPECT_LE(pu, prev + 1e-12) << "k=" << k;
    prev = pu;
  }
}

}  // namespace
}  // namespace sysdp
