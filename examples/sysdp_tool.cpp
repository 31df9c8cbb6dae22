// Command-line driver for the library.
//
//   sysdp_tool gen multistage <stages> <width> <seed>   write instance to stdout
//   sysdp_tool gen chain <matrices> <seed>
//   sysdp_tool gen objective <vars> <domain> <seed>     (banded, eq. 36)
//   sysdp_tool info <file>                              classify and describe
//   sysdp_tool solve <file> [k] [--metrics] [--engine=modular|compiled]
//                    [--batch=N]                        route per Table 1
//
// `solve` dispatches exactly as core/solver.hpp: multistage graphs to the
// Design 1 systolic array (plus divide-and-conquer when k > 1 is given),
// chains to the serialised AND/OR / GKT array, objectives to the
// classification-driven route of Section 6.  --engine=compiled routes the
// multistage and chain arrays through the compiled flat-tape backend
// (src/compile): the design is lowered once, replayed with per-op oracle
// checking, and the answer is printed only if the replay is bit-identical
// to the modular run.  --batch=N additionally replays the tape N times
// on a multi-lane compiled engine (chunks of 8 lanes), verifies every
// lane against the oracle, and reports the replay throughput — the
// multi-instance path the benchmarks use, driven from the CLI.
//
// Numeric arguments are read whole (examples/cli_args.hpp) and checked
// before the instance is loaded: a malformed number or an unknown option
// names itself and exits 2.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <string_view>

#include "analysis/tape_verify.hpp"
#include "andor/stage_reduction.hpp"
#include "arrays/design1_modular.hpp"
#include "arrays/gkt_modular.hpp"
#include "arrays/graph_adapter.hpp"
#include "cli_args.hpp"
#include "compile/engine.hpp"
#include "compile/lower.hpp"
#include "compile/profile.hpp"
#include "obs/replay.hpp"
#include "sim/batch.hpp"
#include "sim/stats.hpp"
#include "core/solver.hpp"
#include "core/table1.hpp"
#include "graph/generators.hpp"
#include "io/problem_io.hpp"
#include "nonserial/nonserial_generators.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace sysdp;

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  sysdp_tool gen multistage <stages> <width> <seed>\n"
               "  sysdp_tool gen chain <matrices> <seed>\n"
               "  sysdp_tool gen objective <vars> <domain> <seed>\n"
               "  sysdp_tool info <file>\n"
               "  sysdp_tool solve <file> [k] [--metrics]\n"
               "                  [--engine=modular|compiled] [--batch=N]\n"
               "  sysdp_tool reduce <file>      stage-reduction plan "
               "(multistage only)\n");
  return 2;
}

void print_report(const SolveReport& rep) {
  std::printf("class   : %s\n", to_string(rep.cls).c_str());
  std::printf("method  : %s\n", rep.method.c_str());
  std::printf("optimum : %s\n", cost_to_string(rep.cost).c_str());
  if (!rep.assignment.empty()) {
    std::printf("solution:");
    for (std::size_t v : rep.assignment) std::printf(" %zu", v);
    std::printf("\n");
  }
  if (rep.cycles > 0) {
    std::printf("cycles  : %llu\n",
                static_cast<unsigned long long>(rep.cycles));
  }
  std::printf("steps   : %llu\n",
              static_cast<unsigned long long>(rep.work_steps));
}

/// --metrics: the solve outcome as the shared counter-registry rendering
/// (same shape sysdp_trace emits), so scripted consumers parse one format.
/// `metrics` may already carry compiled-replay counters and the replay
/// latency histogram (see profiled_replays) — those render alongside.
void print_metrics(const SolveReport& rep, obs::MetricsRegistry& metrics) {
  metrics.set_counter("solve.cycles", rep.cycles);
  metrics.set_counter("solve.work_steps", rep.work_steps);
  metrics.set_counter("solve.assignment_len", rep.assignment.size());
  if (rep.cycles > 0) {
    metrics.set_gauge("solve.steps_per_cycle",
                      static_cast<double>(rep.work_steps) /
                          static_cast<double>(rep.cycles));
  }
  std::printf("metrics :\n%s", metrics.to_text().c_str());
}

int cmd_gen(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string kind = argv[0];
  using examples::unsigned_arg;
  if (kind == "multistage" && argc == 4) {
    const auto stages = unsigned_arg("<stages>", argv[1]);
    const auto width = unsigned_arg("<width>", argv[2]);
    Rng rng(unsigned_arg("<seed>", argv[3]));
    write_multistage(std::cout, random_multistage(stages, width, rng));
    return 0;
  }
  if (kind == "chain" && argc == 3) {
    // Zero matrices would write a file solve rejects.
    const auto matrices = unsigned_arg("<matrices>", argv[1], 1);
    Rng rng(unsigned_arg("<seed>", argv[2]));
    write_chain(std::cout, random_chain_dims(matrices, rng));
    return 0;
  }
  if (kind == "objective" && argc == 4) {
    const auto vars = unsigned_arg("<vars>", argv[1]);
    const auto domain = unsigned_arg("<domain>", argv[2]);
    Rng rng(unsigned_arg("<seed>", argv[3]));
    write_objective(std::cout, random_banded_objective(vars, domain, rng));
    return 0;
  }
  return usage();
}

int cmd_info(const std::string& path) {
  const auto problem = load_problem(path);
  std::visit(
      [](const auto& p) {
        using T = std::decay_t<decltype(p)>;
        if constexpr (std::is_same_v<T, MultistageGraph>) {
          std::printf("multistage graph: %zu stages, widths", p.num_stages());
          for (std::size_t s : p.stage_sizes()) std::printf(" %zu", s);
          std::printf(", %zu finite edges\n", p.num_finite_edges());
          std::printf("recommended: %s\n",
                      recommend({Recursion::kMonadic, Structure::kSerial})
                          .suitable_method.c_str());
        } else if constexpr (std::is_same_v<T, std::vector<Cost>>) {
          std::printf("matrix chain: %zu matrices\n", p.size() - 1);
          std::printf("recommended: %s\n",
                      recommend({Recursion::kPolyadic, Structure::kNonserial})
                          .suitable_method.c_str());
        } else {
          const auto cls = classify(p, Recursion::kMonadic);
          std::printf("objective: %zu variables, %zu terms, %s\n",
                      p.num_variables(), p.terms().size(),
                      to_string(cls).c_str());
          std::printf("recommended: %s\n",
                      recommend(cls).suitable_method.c_str());
        }
      },
      problem);
  return 0;
}

/// Replay `low` with per-op oracle checking; throws on any divergence so
/// a compiled-route answer is never printed unless it is bit-identical to
/// the modular run that produced the tape.  Static verification runs
/// first: a structurally broken tape is rejected before any cycle is
/// spent replaying it.
compile::CompiledEngine checked_replay(const compile::Lowered& low) {
  analysis::verify_tape_or_throw(low.net, "compiled tape");
  compile::CompiledEngine ce(low.net);
  const auto div = ce.run_all_checked();
  if (div.found || ce.verify_outputs().found) {
    throw std::runtime_error(
        "compiled replay diverged from the modular oracle");
  }
  return ce;
}

/// --metrics on a compiled route: profile nine further replays of the
/// verified tape so the metrics document carries a real replay-latency
/// distribution (replay.wall_ns histogram with p50/p90/p99) instead of a
/// single sample, plus the per-kind op counters.
void profiled_replays(const compile::Lowered& low,
                      obs::MetricsRegistry& metrics) {
  compile::ReplayProfiler prof;
  compile::CompiledEngine ce(low.net);
  ce.add_observer(&prof);
  ce.run_all();
  for (int r = 0; r < 8; ++r) {
    ce.reset();
    ce.run_all();
  }
  prof.finish();
  obs::profile_metrics(metrics, prof);
}

/// --batch=N: replay the tape across `n` oracle-bound lanes through the
/// compiled engine's lanes, in chunks of 8 (BatchRunner::run_chunks,
/// serial here — the bench drives the pooled version).  Every lane is
/// verified against the oracle's recorded outputs; any divergence throws.
/// Returns a human-readable throughput summary for the report.
std::string batched_replay(const compile::Lowered& low, std::uint64_t n) {
  constexpr std::size_t kWidth = 8;
  sim::BatchRunner runner(nullptr);
  sim::WallTimer timer;
  const auto verified = runner.run_chunks(
      static_cast<std::size_t>(n), kWidth,
      [&](std::size_t, std::size_t count) {
        compile::CompiledEngine be(low.net,
                                   static_cast<std::uint32_t>(count));
        be.run_all();
        for (std::uint32_t l = 0; l < be.lanes(); ++l) {
          if (be.verify_outputs(l).found) {
            throw std::runtime_error(
                "batched replay diverged from the modular oracle");
          }
        }
        return count;
      });
  const double secs = timer.seconds();
  std::uint64_t lanes_done = 0;
  for (const std::size_t c : verified) lanes_done += c;
  char buf[128];
  std::snprintf(buf, sizeof(buf), "; batch=%llu replays in %.3fs (%.0f inst/s)",
                static_cast<unsigned long long>(lanes_done), secs,
                secs > 0 ? static_cast<double>(lanes_done) / secs : 0.0);
  return buf;
}

/// The compiled routes' method-string suffix: the batched throughput when
/// --batch asked for more than one replay, else nothing.
std::string batch_suffix(const compile::Lowered& low, std::uint64_t batch) {
  return batch > 1 ? batched_replay(low, batch) : std::string();
}

/// --engine=compiled on a multistage graph: Design 1 lowered to a flat
/// tape.  The optimum comes from the replayed "out" lanes; path recovery
/// stays with the sequential sweep, exactly like the interpreted route.
SolveReport solve_monadic_compiled(const MultistageGraph& g,
                                   std::uint64_t batch,
                                   obs::MetricsRegistry* metrics) {
  SolveReport rep;
  rep.cls = {Recursion::kMonadic, Structure::kSerial};
  auto prob = to_string_product(g);
  Design1Modular arr(std::move(prob.mats), std::move(prob.v));
  const auto low = compile::lower_array(arr);
  const auto ce = checked_replay(low);
  if (metrics != nullptr) profiled_replays(low, *metrics);
  Cost best = kInfCost;
  for (const auto& o : low.net.outputs) {
    if (o.tag == "out") best = std::min(best, ce.value(o.slot));
  }
  rep.cost = best;
  rep.method = "Design 1 via compiled tape (" +
               std::to_string(low.net.num_ops()) + " ops, " +
               std::to_string(low.net.cycles()) + " levels" +
               batch_suffix(low, batch) + ")";
  rep.work_steps = low.net.num_ops();
  rep.cycles = low.net.cycles();
  rep.assignment = solve_monadic_serial(g).assignment;
  return rep;
}

/// --engine=compiled on a matrix chain: the GKT triangle lowered to a
/// flat tape; the root cell carries the optimum.
SolveReport solve_chain_compiled(const std::vector<Cost>& dims,
                                 std::uint64_t batch,
                                 obs::MetricsRegistry* metrics) {
  SolveReport rep;
  rep.cls = {Recursion::kPolyadic, Structure::kNonserial};
  GktModularArray arr(dims);
  const auto low = compile::lower_array(arr);
  const std::size_t n = dims.size() - 1;
  const auto ce = checked_replay(low);
  if (metrics != nullptr) profiled_replays(low, *metrics);
  rep.cost = n >= 2 ? ce.output("cell", n - 1) : 0;
  rep.method = "GKT array via compiled tape (" +
               std::to_string(low.net.num_ops()) + " ops, " +
               std::to_string(low.net.cycles()) + " levels" +
               batch_suffix(low, batch) + ")";
  rep.work_steps = low.net.num_ops();
  rep.cycles = low.net.cycles();
  return rep;
}

int cmd_solve(const std::string& path, std::uint64_t k, bool metrics,
              bool compiled, std::uint64_t batch) {
  const auto problem = load_problem(path);
  std::visit(
      [k, metrics, compiled, batch](const auto& p) {
        using T = std::decay_t<decltype(p)>;
        SolveReport rep;
        // Compiled routes fill the replay-latency histogram when asked.
        obs::MetricsRegistry registry;
        obs::MetricsRegistry* const prof =
            metrics && compiled ? &registry : nullptr;
        if constexpr (std::is_same_v<T, MultistageGraph>) {
          rep = k > 1         ? solve_polyadic_serial(p, k)
                : compiled    ? solve_monadic_compiled(p, batch, prof)
                              : solve_monadic_serial(p);
          if (compiled && k > 1) {
            std::fprintf(stderr,
                         "note: --engine=compiled ignored for k > 1 "
                         "(divide-and-conquer runs interpreted)\n");
          }
        } else if constexpr (std::is_same_v<T, std::vector<Cost>>) {
          rep = compiled ? solve_chain_compiled(p, batch, prof)
                         : solve_chain_order(p);
        } else {
          if (compiled) {
            std::fprintf(stderr,
                         "note: --engine=compiled supports multistage and "
                         "chain problems; objective uses the modular "
                         "route\n");
          }
          rep = solve_objective(p);
        }
        print_report(rep);
        if (metrics) print_metrics(rep, registry);
      },
      problem);
  return 0;
}

int cmd_reduce(const std::string& path) {
  const auto problem = load_problem(path);
  if (!std::holds_alternative<MultistageGraph>(problem)) {
    std::fprintf(stderr, "error: reduce needs a multistage problem\n");
    return 1;
  }
  const auto& g = std::get<MultistageGraph>(problem);
  const auto plan = plan_stage_reduction(g.stage_sizes());
  std::printf("stage sizes      :");
  for (std::size_t s : g.stage_sizes()) std::printf(" %zu", s);
  std::printf("\n");
  std::printf("optimal binary   : %llu comparisons\n",
              static_cast<unsigned long long>(plan.best_binary_comparisons));
  std::printf("left-to-right    : %llu comparisons\n",
              static_cast<unsigned long long>(plan.left_to_right_comparisons));
  std::printf("single p-arc AND : %llu comparisons\n",
              static_cast<unsigned long long>(plan.single_step_comparisons));
  std::printf("eliminate stages :");
  for (std::size_t s : plan.elimination_order) std::printf(" %zu", s);
  std::printf("\n");
  std::uint64_t actual = 0;
  const auto reduced = reduce_stages(g, plan.elimination_order, &actual);
  Cost best = kInfCost;
  for (std::size_t i = 0; i < reduced.rows(); ++i) {
    for (std::size_t j = 0; j < reduced.cols(); ++j) {
      best = std::min(best, reduced(i, j));
    }
  }
  std::printf("executed         : %llu comparisons, optimum %s\n",
              static_cast<unsigned long long>(actual),
              cost_to_string(best).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) return usage();
    const std::string cmd = argv[1];
    if (cmd == "gen") return cmd_gen(argc - 2, argv + 2);
    if (cmd == "info" && argc == 3) return cmd_info(argv[2]);
    if (cmd == "solve" && argc >= 3 && argc <= 9) {
      std::uint64_t k = 1;
      bool metrics = false;
      bool compiled = false;
      std::uint64_t batch = 1;
      for (int i = 3; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "--metrics") {
          metrics = true;
        } else if (arg == "--engine=compiled") {
          compiled = true;
        } else if (arg == "--engine=modular") {
          compiled = false;
        } else if (arg.rfind("--batch=", 0) == 0) {
          batch = examples::unsigned_arg("--batch", arg.substr(8));
        } else if (arg.rfind("--", 0) == 0) {
          throw examples::UsageError("unknown option '" + std::string(arg) +
                                     "'");
        } else {
          k = examples::unsigned_arg("k", arg);
        }
      }
      if (batch > 1 && !compiled) {
        std::fprintf(stderr,
                     "note: --batch requires --engine=compiled; ignored\n");
        batch = 1;
      }
      return cmd_solve(argv[2], k, metrics, compiled, batch);
    }
    if (cmd == "reduce" && argc == 3) return cmd_reduce(argv[2]);
    return usage();
  } catch (const examples::UsageError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
