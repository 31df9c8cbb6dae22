#include "core/solver.hpp"

#include <algorithm>

#include "arrays/design3_feedback.hpp"
#include "arrays/graph_adapter.hpp"
#include "arrays/triangular_array.hpp"
#include "baseline/matrix_chain.hpp"
#include "baseline/multistage_dp.hpp"
#include "dnc/schedule.hpp"
#include "nonserial/elimination.hpp"
#include "nonserial/grouping.hpp"
#include "nonserial/serial_chain.hpp"

namespace sysdp {

SolveReport solve_monadic_serial(const MultistageGraph& g) {
  SolveReport rep;
  rep.cls = {Recursion::kMonadic, Structure::kSerial};
  rep.method = "Design 1: pipelined systolic string of matrix multiplications";
  const auto run = run_design1_shortest(g);
  rep.cost = *std::min_element(run.values.begin(), run.values.end());
  rep.work_steps = run.busy_steps;
  rep.cycles = run.cycles;
  // Path recovery needs the path-register extension (Design 3); for the
  // edge-cost form we trace the path with the sequential sweep.
  const auto ref = solve_multistage(g);
  rep.assignment = ref.path;
  return rep;
}

SolveReport solve_monadic_serial(const NodeValueGraph& g) {
  SolveReport rep;
  rep.cls = {Recursion::kMonadic, Structure::kSerial};
  rep.method = "Design 3: feedback systolic array with path registers";
  Design3Feedback array(g);
  auto run = array.run();
  rep.cost = run.cost;
  rep.assignment = std::move(run.path);
  rep.work_steps = run.stats.busy_steps;
  rep.cycles = run.stats.cycles;
  return rep;
}

SolveReport solve_polyadic_serial(const MultistageGraph& g, std::uint64_t k) {
  SolveReport rep;
  rep.cls = {Recursion::kPolyadic, Structure::kSerial};
  rep.method = "divide-and-conquer string product on " + std::to_string(k) +
               " systolic arrays";
  OpCount ops;
  std::uint64_t steps = 0;
  const Matrix<Cost> all = execute_dnc(g.matrix_string(), k, &ops, &steps);
  Cost best = kInfCost;
  for (std::size_t i = 0; i < all.rows(); ++i) {
    for (std::size_t j = 0; j < all.cols(); ++j) {
      best = std::min(best, all(i, j));
    }
  }
  rep.cost = best;
  rep.work_steps = ops.mac;
  rep.cycles = steps;  // makespan in units of T_1
  return rep;
}

SolveReport solve_chain_order(const std::vector<Cost>& dims) {
  SolveReport rep;
  rep.cls = {Recursion::kPolyadic, Structure::kNonserial};
  rep.method =
      "serialised AND/OR-graph on a triangular (GKT) systolic array";
  const auto run = run_chain_array(dims);
  rep.cost = run.total();
  rep.work_steps = run.stats.busy_steps;
  rep.cycles = run.stats.cycles;
  // assignment: run.split holds each subchain's split as an offset t from
  // its first matrix i (the split is k = i + t); expose the root split,
  // where i = 0 and t = k, so callers can recurse if needed.
  if (dims.size() > 2) rep.assignment = {run.split(0, dims.size() - 2)};
  return rep;
}

SolveReport solve_objective(const NonserialObjective& obj) {
  SolveReport rep;
  rep.cls = classify(obj, Recursion::kMonadic);

  if (rep.cls.structure == Structure::kSerial && obj.num_variables() >= 2 &&
      obj.combine() == Combine::kSum) {
    const auto chain = serial_to_multistage(obj);
    rep.method = "serial objective -> multistage graph -> Design 1";
    const auto run = run_design1_shortest(chain.graph);
    rep.cost = *std::min_element(run.values.begin(), run.values.end());
    rep.work_steps = run.busy_steps;
    rep.cycles = run.cycles;
    rep.assignment = chain.decode(solve_multistage(chain.graph).path);
    return rep;
  }

  // Nonserial: try the banded grouping transform of Section 6.1 first.
  bool banded = obj.num_variables() >= 3;
  for (const Term& t : obj.terms()) {
    if (t.scope.back() - t.scope.front() > 2) {
      banded = false;
      break;
    }
  }
  if (banded) {
    const auto grouped = group_banded_to_serial(obj);
    const bool minimax = grouped.combine == Combine::kMax;
    rep.method = minimax
                     ? "grouping transform (eq. 41) -> serial graph -> "
                       "(MIN,MAX) sweep"
                     : "grouping transform (eq. 41) -> serial multistage "
                       "graph -> DP sweep";
    const auto ref = minimax ? solve_multistage_minimax(grouped.graph)
                             : solve_multistage(grouped.graph);
    rep.cost = ref.cost;
    rep.work_steps = ref.ops.mac;
    rep.assignment = grouped.decode(ref.path);
    return rep;
  }

  rep.method = "general variable elimination (min-degree order)";
  auto res = solve_by_elimination(obj, min_degree_order(obj));
  rep.cost = res.cost;
  rep.work_steps = res.steps;
  rep.assignment = std::move(res.assignment);
  return rep;
}

}  // namespace sysdp
