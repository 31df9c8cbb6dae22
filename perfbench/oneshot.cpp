// oneshot: compiled single-shot solves of distinct instances given as
// text, each run from parse to checked answer along the route
// `sysdp_tool solve --engine=compiled` takes: read_problem, lower_array,
// verify_tape, CompiledEngine::run_all_checked and verify_outputs.
//
// Why: parse, lowering, compaction and verification do almost all of the
// work here and replay about 1%; nothing is rebound or batched.  The mix is
// Design 1 multistage graphs (6-16 stages x width 32-64, text of 15-180 KB)
// and GKT matrix chains (n 32-96; GKT lowering grows superlinearly, so
// larger chains would swamp the mix).
#include <algorithm>
#include <array>
#include <numeric>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>

#include "baseline/matrix_chain.hpp"
#include "baseline/multistage_dp.hpp"
#include "compile/engine.hpp"
#include "compiled.hpp"
#include "generators.hpp"

namespace perfbench {

using namespace sysdp;

namespace {

/// Instances per family in one pass.  Sizes are drawn one per stratum of
/// each range, so every pass carries the same spread of sizes and a run's
/// percentiles do not hinge on a lucky draw.
constexpr std::size_t kSlots = 8;
/// Floor on solves per run, so solve_ms_p90 has ten samples beyond it.
constexpr std::size_t kMinSolves = 100;
constexpr std::size_t kSetupRounds = 5;

struct TextInstance {
  std::string_view family;
  std::uint64_t id = 0;
  std::string shape;
  std::string text;
  Cost expected = 0;
};

/// A value from the j-th of kSlots equal strata of [lo, hi].
std::size_t stratum(std::size_t j, std::size_t lo, std::size_t hi, Rng& rng) {
  std::uniform_real_distribution<double> u(0.0, 1.0);
  const double width = static_cast<double>(hi - lo + 1) / kSlots;
  const auto off =
      static_cast<std::size_t>((static_cast<double>(j) + u(rng)) * width);
  return lo + std::min(off, hi - lo);
}

TextInstance design1_text(std::uint64_t id, std::size_t stages,
                          std::size_t width, Rng& rng, Tracer& tracer,
                          LayerStats& stats) {
  const MultistageGraph g = design1_graph(stages, width, rng);
  TextInstance in{kDesign1, id,
                  std::to_string(stages) + "x" + std::to_string(width), "", 0};
  std::ostringstream os;
  write_multistage(os, g);
  in.text = os.str();
  auto span = tracer.stage(kDesign1, id, "baseline.check");
  in.expected = solve_multistage(g).cost;
  stats.sample("design1.baseline.check_ms", span.stop());
  return in;
}

TextInstance gkt_text(std::uint64_t id, std::size_t n, Rng& rng,
                      Tracer& tracer, LayerStats& stats) {
  const std::vector<Cost> dims = random_chain_dims(n, rng);
  TextInstance in{kGkt, id, "n=" + std::to_string(n), "", 0};
  std::ostringstream os;
  write_chain(os, dims);
  in.text = os.str();
  auto span = tracer.stage(kGkt, id, "baseline.check");
  in.expected = matrix_chain_order(dims).total();
  stats.sample("gkt.baseline.check_ms", span.stop());
  return in;
}

/// One pass: kSlots instances of each family, sizes stratified (Design 1
/// stage counts and widths paired by a random permutation), in random
/// order.
std::vector<TextInstance> make_pass(Rng& rng, std::uint64_t& next_id,
                                    Tracer& tracer, LayerStats& stats) {
  std::array<std::size_t, kSlots> width_stratum{};
  std::iota(width_stratum.begin(), width_stratum.end(), std::size_t{0});
  std::shuffle(width_stratum.begin(), width_stratum.end(), rng);
  std::vector<TextInstance> pass;
  for (std::size_t j = 0; j < kSlots; ++j) {
    const std::size_t stages = stratum(j, 6, 16, rng);
    const std::size_t width = stratum(width_stratum[j], 32, 64, rng);
    pass.push_back(design1_text(next_id++, stages, width, rng, tracer, stats));
  }
  for (std::size_t j = 0; j < kSlots; ++j) {
    pass.push_back(gkt_text(next_id++, stratum(j, 32, 96, rng), rng, tracer,
                            stats));
  }
  std::shuffle(pass.begin(), pass.end(), rng);
  return pass;
}

struct SolveRecord {
  LoweringRecord low;
  double parse_ms = 0;
  double init_ms = 0;
  double replay_ms = 0;
  double harvest_ms = 0;
};

/// Text to checked answer.  Throws where the CLI would: on a verifier
/// error, a checked-replay divergence or outputs that differ from the
/// oracle's.
Cost solve(const TextInstance& in, Tracer& tracer, SolveRecord& rec,
           AnyProblem& problem) {
  {
    auto span = tracer.stage(in.family, in.id, "io.parse");
    std::istringstream is(in.text);
    problem = read_problem(is);
    rec.parse_ms = span.stop();
  }
  const auto low =
      lower_checked(in.family, in.id, problem, false, tracer, rec.low);
  std::optional<compile::CompiledEngine> engine;
  {
    auto span = tracer.stage(in.family, in.id, "compile.engine_init");
    engine.emplace(low.net);
    rec.init_ms = span.stop();
  }
  {
    auto span = tracer.stage(in.family, in.id, "compile.replay_checked");
    const auto div = engine->run_all_checked();
    rec.replay_ms = span.stop();
    if (div.found) {
      throw std::runtime_error("checked replay diverged at op " +
                               std::to_string(div.index));
    }
  }
  auto span = tracer.stage(in.family, in.id, "compile.harvest");
  if (engine->verify_outputs().found) {
    throw std::runtime_error("replayed outputs differ from the oracle's");
  }
  Cost best = kInfCost;
  for (const auto slot : answer_slots(in.family, low.net, problem)) {
    best = std::min(best, engine->value(slot));
  }
  rec.harvest_ms = span.stop();
  return best;
}

/// Solve `in` and check the answer; false (and a ledger failure) if it
/// throws or answers wrong.
bool solve_checked(const TextInstance& in, Tracer& tracer, Ledger& ledger,
                   SolveRecord& rec, AnyProblem& problem, Cost& got) {
  ledger.attempt();
  try {
    got = solve(in, tracer, rec, problem);
  } catch (const std::exception& e) {
    ledger.fail(std::string(in.family) + " " + in.shape + ": " + e.what());
    return false;
  }
  if (got != in.expected) {
    ledger.fail(std::string(in.family) + " " + in.shape + ": answered " +
                std::to_string(got) + ", baseline " +
                std::to_string(in.expected));
    return false;
  }
  return true;
}

}  // namespace

Outcome run_oneshot(const Options& opt, Tracer& tracer, Ledger& ledger) {
  Outcome out;
  Rng rng(opt.seed);
  LayerStats stats;
  std::uint64_t next_id = 0;

  // Set-up: the program has no state to build, so set-up is one warm-up
  // solve per family at the top of its size range, which lets the heap
  // and caches settle before timing.  Repeated; the median is reported.
  for (std::size_t round = 0; round < kSetupRounds; ++round) {
    LayerStats unused;
    const TextInstance warm[] = {
        design1_text(next_id++, 16, 64, rng, tracer, unused),
        gkt_text(next_id++, 96, rng, tracer, unused)};
    auto span = tracer.op("oneshot", round, "perfbench.setup");
    for (const auto& in : warm) {
      SolveRecord rec;
      AnyProblem problem;
      Cost got = 0;
      solve_checked(in, tracer, ledger, rec, problem, got);
    }
    out.setup_s.push_back(span.stop() / 1e3);
  }

  run_passes(opt.seconds, kMinSolves, [&] {
    const auto pass = make_pass(rng, next_id, tracer, stats);
    for (const auto& in : pass) {
      SolveRecord rec;
      AnyProblem problem;
      Cost got = 0;
      bool ok = false;
      double ms = 0;
      {
        auto span = tracer.op(in.family, in.id, "perfbench.solve");
        ok = solve_checked(in, tracer, ledger, rec, problem, got);
        ms = span.stop();
      }
      out.busy_ms += ms;
      if (!ok) continue;
      out.op_ms.push_back(ms);
      ++out.instances;
      if (!tracer.enabled()) continue;

      attribute(in.family, in.id, problem, false, tracer, rec.low);
      const std::string f = std::string(in.family) + ".";
      add_lowering(stats, in.family, rec.low);
      stats.sample(f + "io.parse_ms", rec.parse_ms);
      stats.add(f + "io.bytes", static_cast<double>(in.text.size()));
      stats.add(f + "io.parse_total_ms", rec.parse_ms);
      stats.sample(f + "compile.engine_init_ms", rec.init_ms);
      stats.sample(f + "compile.replay_checked_ms", rec.replay_ms);
      stats.add(f + "compile.replay_total_ms", rec.replay_ms);
      stats.add(f + "compile.ops_total", static_cast<double>(rec.low.ops));
      stats.sample(f + "compile.harvest_ms", rec.harvest_ms);
      stats.sample("coverage",
                   (rec.parse_ms + rec.low.lower_ms + rec.low.compact_ms +
                    rec.low.verify_ms + rec.init_ms + rec.replay_ms +
                    rec.harvest_ms) /
                       ms);
    }
    return pass.size();
  });

  if (tracer.enabled()) {
    for (const std::string_view family : {kDesign1, kGkt}) {
      const std::string f = std::string(family) + ".";
      report_lowering(stats, family, out.layers);
      const double parse_s = stats.sum(f + "io.parse_total_ms") / 1e3;
      out.layers[f + "io.parse_ms"] = stats.median_of(f + "io.parse_ms");
      out.layers[f + "io.parse_mb_per_s"] =
          parse_s > 0 ? stats.sum(f + "io.bytes") / 1e6 / parse_s : 0.0;
      for (const char* name :
           {"compile.engine_init_ms", "compile.replay_checked_ms",
            "compile.harvest_ms", "baseline.check_ms"}) {
        out.layers[f + name] = stats.median_of(f + name);
      }
      const double ops = stats.sum(f + "compile.ops_total");
      out.layers[f + "compile.replay_ns_per_op"] =
          ops > 0 ? stats.sum(f + "compile.replay_total_ms") * 1e6 / ops : 0.0;
    }
    out.layers["coverage"] = stats.min_of("coverage");
  }
  return out;
}

}  // namespace perfbench
