// sweep: the paper-reproduction grids.  At each grid point the
// engine-backed array runs on sim::Engine under its default sparse gating,
// and the core solve façade (the default `sysdp_tool solve` route) solves
// the same instance.  One timed operation is one pass over the whole grid:
// its points differ in size by three orders of magnitude, so percentiles
// over single points would jump between grid sizes from run to run.
//
// Why: the interpreted simulator and the behavioural models do all of the
// work and nothing is compiled.  It drives sim differently from oneshot:
// gated and with no recorder, where oneshot's lowering runs the dense
// oracle.  Grids: E1 (Designs 1 and 2), E2 (Design 3 on traffic-control
// instances), and the GKT / optimal-BST triangular family at n 32-96.
#include <algorithm>
#include <optional>
#include <random>
#include <stdexcept>

#include "arrays/design1_modular.hpp"
#include "arrays/design2_modular.hpp"
#include "arrays/design3_modular.hpp"
#include "arrays/gkt_modular.hpp"
#include "arrays/graph_adapter.hpp"
#include "arrays/triangular_array.hpp"
#include "arrays/triangular_modular.hpp"
#include "baseline/matrix_chain.hpp"
#include "baseline/multistage_dp.hpp"
#include "bench.hpp"
#include "core/solver.hpp"
#include "generators.hpp"

namespace perfbench {

using namespace sysdp;

namespace {

constexpr std::size_t kSetupRounds = 5;
/// Floor on passes per run, so solve_ms_p90 has ten samples beyond it.
constexpr std::size_t kMinPasses = 100;

/// One grid point: N stages and m values per stage (E1, E2), or n keys or
/// matrices (triangular family, m unused).
struct Point {
  std::string_view family;
  std::size_t n = 0;
  std::size_t m = 0;
};

std::vector<Point> grid() {
  std::vector<Point> out;
  for (const std::size_t n : {4u, 8u, 16u, 32u, 64u, 128u}) {
    for (const std::size_t m : {4u, 8u, 16u}) {
      out.push_back({kDesign1, n, m});
      out.push_back({kDesign2, n, m});
    }
  }
  for (const std::size_t n : {4u, 8u, 16u, 32u, 64u}) {
    for (const std::size_t m : {3u, 6u, 12u, 24u}) {
      out.push_back({kDesign3, n, m});
    }
  }
  for (const std::size_t n : {32u, 48u, 64u, 80u, 96u}) {
    out.push_back({kGkt, n, 0});
    out.push_back({kBst, n, 0});
  }
  return out;
}

/// The instance at a point, with its baseline optimum.
struct Instance {
  MultistageGraph graph;                 // E1: (N+1)-stage graph
  std::optional<NodeValueGraph> values;  // E2: traffic-control graph
  MultistageGraph materialized;          // E2: its edge-cost form
  std::vector<Cost> dims;  // GKT: chain dimensions; BST: key frequencies
  Cost expected = 0;
};

Instance make_instance(const Point& p, std::uint64_t id, Rng& rng,
                       Tracer& tracer, LayerStats& stats) {
  Instance in;
  if (p.family == kDesign1 || p.family == kDesign2) {
    in.graph = design1_graph(p.n - 1, p.m, rng);
  } else if (p.family == kDesign3) {
    in.values = traffic_control_instance(p.n, p.m, rng);
    in.materialized = in.values->materialize();
  } else if (p.family == kGkt) {
    in.dims = random_chain_dims(p.n, rng);
  } else {
    std::uniform_int_distribution<Cost> freq(1, 40);
    in.dims.resize(p.n);
    for (auto& f : in.dims) f = freq(rng);
  }
  auto span = tracer.stage(p.family, id, "baseline.check");
  if (p.family == kDesign1 || p.family == kDesign2) {
    in.expected = solve_multistage(in.graph).cost;
  } else if (p.family == kDesign3) {
    in.expected = solve_multistage(in.materialized).cost;
  } else if (p.family == kGkt) {
    in.expected = matrix_chain_order(in.dims).total();
  } else {
    in.expected = optimal_bst(in.dims).total();
  }
  stats.sample(std::string(p.family) + ".baseline.check_ms", span.stop());
  return in;
}

/// What the engine-backed run reported.
struct SimFacts {
  Cost answer = kInfCost;
  StagePath path;  // Design 3's hardware path recovery
  std::uint64_t cycles = 0;
  std::uint64_t busy = 0;
  std::uint64_t active = 0;
  std::uint64_t dense = 0;
};

template <typename V>
void take_stats(SimFacts& f, const RunResult<V>& r) {
  f.cycles = r.cycles;
  f.busy = r.busy_steps;
  f.active = r.active_evals;
  f.dense = r.dense_evals;
}

SimFacts run_array(const Point& p, const Instance& in) {
  SimFacts f;
  if (p.family == kDesign1 || p.family == kDesign2) {
    auto prob = to_string_product(in.graph);
    auto& [mats, v] = prob;
    const auto r =
        p.family == kDesign1
            ? Design1Modular(std::move(mats), std::move(v)).run()
            : Design2Modular(std::move(mats), std::move(v)).run();
    f.answer = *std::min_element(r.values.begin(), r.values.end());
    take_stats(f, r);
  } else if (p.family == kDesign3) {
    auto r = Design3Modular(*in.values).run();
    f.answer = r.cost;
    f.path = std::move(r.path);
    take_stats(f, r.stats);
  } else if (p.family == kGkt) {
    const auto r = GktModularArray(in.dims).run();
    f.answer = r.total();
    take_stats(f, r.stats);
  } else {
    const auto r =
        TriangularModularArray<BstRule>(BstRule(in.dims), in.dims.size()).run();
    f.answer = r.total();
    take_stats(f, r.stats);
  }
  return f;
}

Cost solve_facade(const Point& p, const Instance& in) {
  if (p.family == kDesign1 || p.family == kDesign2) {
    return solve_monadic_serial(in.graph).cost;
  }
  if (p.family == kDesign3) return solve_monadic_serial(*in.values).cost;
  if (p.family == kGkt) return solve_chain_order(in.dims).cost;
  return run_bst_array(in.dims).total();  // the BST's behavioural model
}

/// The simulated counts EXPERIMENTS.md states in closed form, checked
/// exactly.  Returns a description of the first mismatch, or "".
std::string closed_form_mismatch(const Point& p, const SimFacts& f) {
  std::uint64_t cycles = 0;
  std::uint64_t busy = 0;
  bool check_cycles = true;
  const std::uint64_t n = p.n;
  const std::uint64_t m = p.m;
  if (p.family == kDesign1 || p.family == kDesign2) {
    busy = serial_steps_design12(n, m);  // E1: (N-2)m^2 + m
    cycles = (n - 1) * m;                // E1: (N-1)m multiply iterations
  } else if (p.family == kDesign3) {
    busy = serial_steps_design3(n, m);  // E2: (N-1)m^2 + m
    cycles = (n + 1) * m;               // E2: (N+1)m iterations
  } else if (p.family == kGkt) {
    busy = n * (n * n - 1) / 6;  // one fold per split of every interval
    cycles = 2 * n - 2;          // E8: completion 2N-2
  } else {
    // One fold per candidate root; the BST cells' launch slots may wait
    // for a gap, so its completion has no closed form.
    busy = n * (n * n - 1) / 6 + n * (n - 1) / 2;
    check_cycles = false;
  }
  if (f.busy != busy) {
    return "busy steps " + std::to_string(f.busy) + ", closed form " +
           std::to_string(busy);
  }
  if (check_cycles && f.cycles != cycles) {
    return "cycles " + std::to_string(f.cycles) + ", closed form " +
           std::to_string(cycles);
  }
  return "";
}

struct PointRecord {
  SimFacts sim;
  Cost facade = 0;
  double run_ms = 0;
  double facade_ms = 0;
};

/// Run the array and the façade on one instance.
void solve_point(const Point& p, std::uint64_t id, const Instance& in,
                 Tracer& tracer, PointRecord& rec) {
  {
    auto span = tracer.stage(p.family, id, "sim.run");
    rec.sim = run_array(p, in);
    rec.run_ms = span.stop();
  }
  auto span = tracer.stage(p.family, id, "core.solve");
  rec.facade = solve_facade(p, in);
  rec.facade_ms = span.stop();
}

std::string describe(const Point& p) {
  return std::string(p.family) + " n=" + std::to_string(p.n) +
         " m=" + std::to_string(p.m);
}

/// Check every answer and count against the baseline and closed forms.
bool check_point(const Point& p, const Instance& in, const PointRecord& rec,
                 Ledger& ledger) {
  std::string wrong;
  if (rec.sim.answer != in.expected) {
    wrong = "array answered " + std::to_string(rec.sim.answer);
  } else if (rec.facade != in.expected) {
    wrong = "facade answered " + std::to_string(rec.facade);
  } else if (p.family == kDesign3 &&
             in.materialized.path_cost(rec.sim.path) != in.expected) {
    wrong = "recovered path is not optimal";  // E2: path registers
  } else {
    wrong = closed_form_mismatch(p, rec.sim);
  }
  if (wrong.empty()) return true;
  ledger.fail(describe(p) + ": " + wrong + " (baseline " +
              std::to_string(in.expected) + ")");
  return false;
}

/// Run and check one point outside any pass (set-up); false, and a ledger
/// failure, on any fault.
bool run_checked(const Point& p, std::uint64_t id, const Instance& in,
                 Tracer& tracer, Ledger& ledger, PointRecord& rec) {
  ledger.attempt();
  try {
    solve_point(p, id, in, tracer, rec);
  } catch (const std::exception& e) {
    ledger.fail(describe(p) + ": " + e.what());
    return false;
  }
  return check_point(p, in, rec, ledger);
}

}  // namespace

Outcome run_sweep(const Options& opt, Tracer& tracer, Ledger& ledger) {
  Outcome out;
  Rng rng(opt.seed);
  LayerStats stats;
  std::uint64_t next_id = 0;
  const auto points = grid();

  // Set-up: no program state to build, so one warm-up run of the largest
  // point of each family, repeated; the median round is reported.
  const Point warm[] = {{kDesign1, 128, 16}, {kDesign2, 128, 16},
                        {kDesign3, 64, 24},  {kGkt, 96, 0},
                        {kBst, 96, 0}};
  for (std::size_t round = 0; round < kSetupRounds; ++round) {
    LayerStats unused;
    const std::uint64_t first_id = next_id;
    std::vector<Instance> instances;
    for (const auto& p : warm) {
      instances.push_back(make_instance(p, next_id++, rng, tracer, unused));
    }
    auto span = tracer.op("sweep", round, "perfbench.setup");
    for (std::size_t i = 0; i < std::size(warm); ++i) {
      PointRecord rec;
      run_checked(warm[i], first_id + i, instances[i], tracer, ledger, rec);
    }
    out.setup_s.push_back(span.stop() / 1e3);
  }

  // Grid order is fixed, so every run allocates in the same pattern and
  // the peak resident set does not depend on the seed.  Instances are
  // drawn before the pass and checked after it.
  std::uint64_t pass_id = 0;
  run_passes(opt.seconds, kMinPasses, [&] {
    std::vector<std::uint64_t> ids;
    std::vector<Instance> instances;
    for (const auto& p : points) {
      ids.push_back(next_id++);
      instances.push_back(make_instance(p, ids.back(), rng, tracer, stats));
    }
    std::vector<PointRecord> recs(points.size());
    std::vector<std::string> errors(points.size());
    double ms = 0;
    {
      auto span = tracer.op("sweep", pass_id++, "perfbench.pass");
      for (std::size_t i = 0; i < points.size(); ++i) {
        try {
          solve_point(points[i], ids[i], instances[i], tracer, recs[i]);
        } catch (const std::exception& e) {
          errors[i] = std::string("threw: ") + e.what();
        }
      }
      ms = span.stop();
    }
    out.busy_ms += ms;
    bool all_ok = true;
    double covered_ms = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      const Point& p = points[i];
      const PointRecord& rec = recs[i];
      covered_ms += rec.run_ms + rec.facade_ms;
      ledger.attempt();
      if (!errors[i].empty()) {
        ledger.fail(describe(p) + ": " + errors[i]);
        all_ok = false;
        continue;
      }
      if (!check_point(p, instances[i], rec, ledger)) {
        all_ok = false;
        continue;
      }
      ++out.instances;
      if (!tracer.enabled()) continue;
      const std::string f = std::string(p.family) + ".";
      stats.sample(f + "sim.run_ms", rec.run_ms);
      stats.sample(f + "sim.cycles", static_cast<double>(rec.sim.cycles));
      stats.sample(f + "sim.active_evals", static_cast<double>(rec.sim.active));
      stats.sample(f + "sim.dense_evals", static_cast<double>(rec.sim.dense));
      stats.add(f + "sim.active_total", static_cast<double>(rec.sim.active));
      stats.add(f + "sim.dense_total", static_cast<double>(rec.sim.dense));
      stats.sample(f + "core.solve_ms", rec.facade_ms);
    }
    if (all_ok) out.op_ms.push_back(ms);
    if (tracer.enabled()) stats.sample("coverage", covered_ms / ms);
    return std::size_t{1};
  });

  if (tracer.enabled()) {
    for (const std::string_view family :
         {kDesign1, kDesign2, kDesign3, kGkt, kBst}) {
      const std::string f = std::string(family) + ".";
      for (const char* name :
           {"sim.run_ms", "sim.cycles", "sim.active_evals", "sim.dense_evals",
            "core.solve_ms", "baseline.check_ms"}) {
        out.layers[f + name] = stats.median_of(f + name);
      }
      const double dense = stats.sum(f + "sim.dense_total");
      out.layers[f + "sim.activity"] =
          dense > 0 ? stats.sum(f + "sim.active_total") / dense : 0.0;
    }
    out.layers["coverage"] = stats.min_of("coverage");
  }
  return out;
}

}  // namespace perfbench
