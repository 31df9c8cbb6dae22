// E1 — eq. (9) / Section 3.2: Designs 1 and 2 on (N+1)-stage single-
// source/sink graphs.  Reproduces the iteration counts (N*m in the paper's
// accounting, which bills the initial load of D; (N-1)*m multiply
// iterations plus m-1 fill cycles in the simulator) and the processor
// utilisation PU = (N-2)/N + 1/(N m) -> 1.
#include <cinttypes>
#include <cstdio>
#include <iterator>
#include <optional>

#include "arrays/design1_modular.hpp"
#include "arrays/design2_modular.hpp"
#include "arrays/graph_adapter.hpp"
#include "arrays/paper_metrics.hpp"
#include "baseline/multistage_dp.hpp"
#include "bench_util.hpp"
#include "graph/generators.hpp"
#include "sim/batch.hpp"
#include "sim/thread_pool.hpp"

namespace {

using namespace sysdp;

MultistageGraph instance(std::size_t n, std::size_t m, std::uint64_t seed) {
  Rng rng(seed);
  return with_single_source_sink(random_multistage(n - 1, m, rng));
}

void report() {
  std::printf(
      "# E1: Designs 1/2 on (N+1)-stage graphs - iteration counts and PU "
      "(eq. 9)\n");
  std::printf(
      "%6s %4s | %10s %10s %10s | %9s %9s | %8s %8s\n", "N", "m",
      "serial", "d1 cycles", "d2 cycles", "d1 busy", "d2 busy", "PU(eq9)",
      "PU(meas)");
  for (const std::size_t n : {4u, 8u, 16u, 32u, 64u, 128u}) {
    for (const std::size_t m : {4u, 8u, 16u}) {
      const auto g = instance(n, m, n * 100 + m);
      const auto d1 = run_design1_shortest(g);
      const auto d2 = run_design2_shortest(g);
      const auto serial = serial_steps_design12(n, m);
      const double pu9 = analytic_pu_design12(n, m);
      const double pum =
          d1.utilization_iters(static_cast<std::uint64_t>(n) * m);
      std::printf(
          "%6zu %4zu | %10" PRIu64 " %10" PRIu64 " %10" PRIu64
          " | %9" PRIu64 " %9" PRIu64 " | %8.4f %8.4f\n",
          n, m, serial, d1.cycles, d2.cycles, d1.busy_steps, d2.busy_steps,
          pu9, pum);
    }
  }
  std::printf(
      "# paper: PU -> 1 as N, m grow; busy steps == sequential steps.\n\n");
}

void bm_design1(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto m = static_cast<std::size_t>(state.range(1));
  const auto g = instance(n, m, 42);
  for (auto _ : state) {
    auto res = run_design1_shortest(g);
    benchmark::DoNotOptimize(res.values);
  }
  state.counters["pu_eq9"] = analytic_pu_design12(n, m);
}
BENCHMARK(bm_design1)->Args({16, 8})->Args({64, 8})->Args({64, 16});

void bm_design2(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto m = static_cast<std::size_t>(state.range(1));
  const auto g = instance(n, m, 42);
  for (auto _ : state) {
    auto res = run_design2_shortest(g);
    benchmark::DoNotOptimize(res.values);
  }
}
BENCHMARK(bm_design2)->Args({16, 8})->Args({64, 8})->Args({64, 16});

void bm_sequential(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto m = static_cast<std::size_t>(state.range(1));
  const auto g = instance(n, m, 42);
  for (auto _ : state) {
    auto res = solve_multistage(g);
    benchmark::DoNotOptimize(res.cost);
  }
}
BENCHMARK(bm_sequential)->Args({16, 8})->Args({64, 8})->Args({64, 16});

// The whole E1 grid as one batch: every (N, m) point runs both modular
// designs on its own engine, so sweep points fan out across the pool.
// Arg(0) = serial loop; Arg(k) = k workers + caller.
void bm_e1_grid_batch(benchmark::State& state) {
  const auto workers = static_cast<std::size_t>(state.range(0));
  const std::size_t ns[] = {4, 8, 16, 32, 64};
  const std::size_t ms[] = {4, 8, 16};
  const std::size_t jobs = std::size(ns) * std::size(ms);
  const auto job = [&](std::size_t i) -> std::uint64_t {
    const std::size_t n = ns[i / std::size(ms)];
    const std::size_t m = ms[i % std::size(ms)];
    const auto g = instance(n, m, n * 100 + m);
    auto prob = to_string_product(g);
    Design1Modular d1(prob.mats, prob.v);
    Design2Modular d2(prob.mats, prob.v);
    return d1.run().busy_steps + d2.run().busy_steps;
  };
  std::optional<sysdp::sim::ThreadPool> pool;
  if (workers > 0) pool.emplace(workers);
  sysdp::sim::BatchRunner runner(pool ? &*pool : nullptr);
  for (auto _ : state) {
    auto results = runner.run(jobs, job);
    benchmark::DoNotOptimize(results);
  }
  state.counters["jobs"] = static_cast<double>(jobs);
  state.counters["lanes"] = static_cast<double>(runner.lanes());
}
BENCHMARK(bm_e1_grid_batch)
    ->Arg(0)
    ->Arg(1)
    ->Arg(3)
    ->Unit(benchmark::kMillisecond);

}  // namespace

SYSDP_BENCH_MAIN(report)
