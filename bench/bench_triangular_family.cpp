// Ablation A5 — the triangular-array family: the same wavefront timing
// solves every interval DP the paper names (matrix-chain order via GKT,
// optimal BST via TriangularArray<BstRule>), and the clocked serialised
// machine pins Proposition 3 exactly.  Completion scales linearly in N for
// all three.
#include <cinttypes>
#include <cstdio>
#include <iterator>
#include <optional>

#include "andor/pipeline_array.hpp"
#include "arrays/paper_metrics.hpp"
#include "arrays/triangular_array.hpp"
#include "baseline/matrix_chain.hpp"
#include "bench_util.hpp"
#include "graph/generators.hpp"
#include "sim/batch.hpp"
#include "sim/thread_pool.hpp"

namespace {

using namespace sysdp;

void report() {
  std::printf(
      "# A5: triangular-array family - completion cycles vs problem size\n");
  std::printf("%5s | %9s %9s %9s | %8s | %8s\n", "N", "gkt", "serial",
              "bst", "T_p=2N", "cells");
  Rng rng(3);
  for (const std::size_t n : {4u, 8u, 16u, 32u, 64u}) {
    const auto dims = random_chain_dims(n, rng);
    const TriangularArray<ChainRule> gkt(ChainRule(dims), n);
    const auto a = gkt.run();
    SerializedChainArray ser(dims);
    const auto b = ser.run();
    std::uniform_int_distribution<Cost> freq(1, 40);
    std::vector<Cost> f(n);
    for (auto& x : f) x = freq(rng);
    const auto c = run_bst_array(f);
    std::printf("%5zu | %9" PRIu64 " %9" PRIu64 " %9" PRIu64 " | %8" PRIu64
                " | %8zu\n",
                n, a.completion(), b.completion(), c.completion(),
                t_pipelined(n), gkt.num_cells());
  }
  std::printf(
      "# all three grow linearly; the clocked serialised machine equals "
      "2N exactly (Prop. 3); GKT and BST run within the same bound with "
      "nearest-neighbour wiring.\n\n");
}

void bm_gkt(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const auto dims = random_chain_dims(n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_chain_array(dims).cost);
  }
}
BENCHMARK(bm_gkt)->Arg(32)->Arg(64);

void bm_serialized_machine(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  const auto dims = random_chain_dims(n, rng);
  for (auto _ : state) {
    SerializedChainArray arr(dims);
    benchmark::DoNotOptimize(arr.run().cost);
  }
}
BENCHMARK(bm_serialized_machine)->Arg(32)->Arg(64);

void bm_bst_array(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  std::uniform_int_distribution<Cost> freq(1, 40);
  std::vector<Cost> f(n);
  for (auto& x : f) x = freq(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_bst_array(f).cost);
  }
}
BENCHMARK(bm_bst_array)->Arg(32)->Arg(64);

// The full family sweep (every size x {GKT, serialised, BST}) as one batch
// of independent simulations.  Arg(0) = serial loop baseline; Arg(k) = k
// pool workers + the caller.  This sweep is the headline workload of
// BENCH_SIM.json: sweep points share nothing, so the speedup tracks the
// host's core count.
void bm_family_sweep_batch(benchmark::State& state) {
  const auto workers = static_cast<std::size_t>(state.range(0));
  const std::size_t sizes[] = {16, 24, 32, 48, 64, 96, 128};
  constexpr std::size_t kKinds = 3;
  const std::size_t jobs = std::size(sizes) * kKinds;
  const auto job = [&](std::size_t i) -> std::uint64_t {
    const std::size_t n = sizes[i / kKinds];
    Rng rng(i);
    switch (i % kKinds) {
      case 0:
        return run_chain_array(random_chain_dims(n, rng)).stats.busy_steps;
      case 1: {
        SerializedChainArray arr(random_chain_dims(n, rng));
        return arr.run().stats.busy_steps;
      }
      default: {
        std::uniform_int_distribution<Cost> freq(1, 40);
        std::vector<Cost> f(n);
        for (auto& x : f) x = freq(rng);
        return run_bst_array(f).stats.busy_steps;
      }
    }
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
BENCHMARK(bm_family_sweep_batch)
    ->Arg(0)
    ->Arg(1)
    ->Arg(3)
    ->Unit(benchmark::kMillisecond);

}  // namespace

SYSDP_BENCH_MAIN(report)
