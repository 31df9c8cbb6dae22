// Optimal matrix-multiplication order as a polyadic-nonserial DP problem
// (Sections 2.2, 4, 6.2).
//
// Builds the Figure 2 AND/OR-graph, serialises it with dummy nodes
// (Figure 8), runs the GKT triangular systolic array, and compares the
// broadcast (T_d = N) and pipelined (T_p = 2N) evaluation schedules —
// then uses the recovered order to drive the divide-and-conquer scheduler
// of Section 4 on k systolic arrays.
//
//   ./matrix_chain [matrices] [seed]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "andor/chain_builder.hpp"
#include "andor/level_schedule.hpp"
#include "andor/serialize.hpp"
#include "arrays/paper_metrics.hpp"
#include "arrays/triangular_array.hpp"
#include "baseline/matrix_chain.hpp"
#include "dnc/metrics.hpp"
#include "dnc/schedule.hpp"
#include "graph/generators.hpp"

int main(int argc, char** argv) {
  using namespace sysdp;
  const std::size_t n = argc > 1 ? std::stoul(argv[1]) : 8;
  const std::uint64_t seed = argc > 2 ? std::stoull(argv[2]) : 11;

  Rng rng(seed);
  const auto dims = random_chain_dims(n, rng, 5, 60);
  std::printf("matrix chain: %zu matrices, dims", n);
  for (Cost d : dims) std::printf(" %lld", static_cast<long long>(d));
  std::printf("\n\n");

  // Sequential table DP (eq. 6).
  const auto base = matrix_chain_order(dims);
  std::printf("sequential DP    : cost %s, order %s\n",
              cost_to_string(base.total()).c_str(),
              base.parenthesization().c_str());

  // AND/OR-graph search (Figure 2) and its serialisation (Figure 8).
  const auto chain = build_chain_andor(dims);
  std::printf("AND/OR-graph     : %zu nodes (%zu AND, %zu OR), serial: %s\n",
              chain.graph.size(), chain.graph.count(AndOrType::kAnd),
              chain.graph.count(AndOrType::kOr),
              chain.graph.is_serial() ? "yes" : "no");
  const auto ser = serialize_andor(chain.graph);
  std::printf("serialised       : +%llu dummy nodes, now serial: %s\n",
              static_cast<unsigned long long>(ser.dummies_added),
              ser.graph.is_serial() ? "yes" : "no");

  // Evaluation schedules: Propositions 2 and 3.
  std::printf("broadcast map    : T_d = %llu steps (= N)\n",
              static_cast<unsigned long long>(
                  simulate_chain_broadcast(n).completion));
  std::printf("pipelined map    : T_p = %llu steps (= 2N)\n",
              static_cast<unsigned long long>(
                  simulate_chain_pipelined(n).completion));

  // GKT triangular systolic array (the chain rule on the triangular array).
  const TriangularArray<ChainRule> gkt(ChainRule(dims), n);
  const auto run = gkt.run();
  std::printf("GKT array        : cost %s in %llu cycles on %zu cells\n",
              cost_to_string(run.total()).c_str(),
              static_cast<unsigned long long>(run.completion()),
              gkt.num_cells());

  // Section 4: once the order is known, execute the products on k arrays.
  std::printf("\ndivide-and-conquer execution of the string itself "
              "(unit-size stage matrices):\n");
  for (const std::uint64_t k : {1u, 4u, 16u}) {
    const auto sched = schedule_and_tree(n, k);
    std::printf("  k = %2llu arrays: %llu steps (eq. 29 predicts %llu), "
                "PU %.3f\n",
                static_cast<unsigned long long>(k),
                static_cast<unsigned long long>(sched.makespan),
                static_cast<unsigned long long>(dnc_time_eq29(n, k)),
                sched.utilization(k));
  }

  const bool ok = run.total() == base.total() &&
                  chain.solve() == base.total();
  std::printf("\nall methods agree: %s\n", ok ? "yes" : "NO");
  return ok ? 0 : 1;
}
