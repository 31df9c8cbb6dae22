// E8 — Proposition 3 / eq. (43) / Figure 8: serialising the AND/OR-graph
// with dummy nodes doubles the search time to T_p(N) = 2N but removes all
// broadcast buses (planar, systolic wiring); the GKT triangular array
// realises the serialised structure, matching Guibas et al.
#include <cinttypes>
#include <cstdio>

#include "andor/chain_builder.hpp"
#include "andor/level_schedule.hpp"
#include "andor/serialize.hpp"
#include "arrays/paper_metrics.hpp"
#include "arrays/triangular_array.hpp"
#include "baseline/matrix_chain.hpp"
#include "bench_util.hpp"
#include "graph/generators.hpp"

namespace {

using namespace sysdp;

void report() {
  std::printf(
      "# E8: Proposition 3 - serialised (pipelined) AND/OR search, "
      "T_p(N) = 2N; GKT array\n");
  std::printf("%5s | %8s %8s | %8s %8s | %9s %9s | %9s\n", "N", "T_p(sim)",
              "T_p(=2N)", "gkt done", "gkt ok", "dummies", "max chain",
              "gkt cells");
  Rng rng(1);
  for (const std::size_t n : {2u, 4u, 8u, 16u, 32u, 64u, 128u}) {
    const auto sched = simulate_chain_pipelined(n);
    const auto dims = random_chain_dims(n, rng);
    const TriangularArray<ChainRule> arr(ChainRule(dims), n);
    const auto gkt = arr.run();
    const bool ok = gkt.total() == matrix_chain_order(dims).total();
    const auto ser = serialize_andor(build_chain_andor(dims).graph);
    std::printf("%5zu | %8" PRIu64 " %8" PRIu64 " | %8" PRIu64 " %8s | "
                "%9" PRIu64 " %9" PRIu64 " | %9zu\n",
                n, sched.completion, t_pipelined(n), gkt.completion(),
                ok ? "yes" : "NO", ser.dummies_added, ser.longest_chain,
                arr.num_cells());
  }
  std::printf(
      "# paper: T_p = 2 T_d (the serialisation penalty); the GKT array "
      "finishes within the 2N bound with only nearest-neighbour wiring.\n\n");
}

void bm_pipelined_schedule(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto res = simulate_chain_pipelined(n);
    benchmark::DoNotOptimize(res.completion);
  }
}
BENCHMARK(bm_pipelined_schedule)->Arg(64)->Arg(256)->Arg(512);

void bm_chain_array(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  const auto dims = random_chain_dims(n, rng);
  for (auto _ : state) {
    auto res = run_chain_array(dims);
    benchmark::DoNotOptimize(res.cost);
  }
}
BENCHMARK(bm_chain_array)->Arg(16)->Arg(64)->Arg(128);

void bm_serialize(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  const auto chain = build_chain_andor(random_chain_dims(n, rng));
  for (auto _ : state) {
    auto ser = serialize_andor(chain.graph);
    benchmark::DoNotOptimize(ser.dummies_added);
  }
}
BENCHMARK(bm_serialize)->Arg(16)->Arg(64);

}  // namespace

SYSDP_BENCH_MAIN(report)
