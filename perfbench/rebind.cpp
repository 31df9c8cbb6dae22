// rebind: one parameterised lowering per shape serves a stream of distinct
// same-shape instances, bound and replayed 8 lanes at a time through
// BatchedCompiledEngine::bind / run_all.  One timed operation is one round:
// a batch of each shape, so every operation does the same work and the
// latency percentiles do not fall between the two shapes' batch times.
//
// Why: bind and batched replay do almost all of the work; lowering and
// verification happen only in set-up.  Replay runs rebound lanes, batched,
// where oneshot replays the oracle binding one lane at a time.
//
// Each shape is lowered from a probe instance whose weights encode their
// own position, so the tape's parameter plane (one weight per op) is also
// the map from any instance of the shape to its weight table:
//   * Design 1: interior edges carry unique ids 1..E.  Source and sink
//     edges cost 0 in every instance, so the unparameterised vector the
//     sink folds into is shared by all of them.
//   * GKT: the dimensions are distinct primes, so each fold weight
//     r_a r_b r_c factors into its (a, b, c).
// Tables are built outside the timed region.
#include <algorithm>
#include <array>
#include <memory>
#include <stdexcept>

#include "baseline/matrix_chain.hpp"
#include "baseline/multistage_dp.hpp"
#include "compile/batch_engine.hpp"
#include "compiled.hpp"
#include "generators.hpp"

namespace perfbench {

using namespace sysdp;

namespace {

constexpr std::size_t kStages = 16;    // Design 1 16x96: 138k ops
constexpr std::size_t kWidth = 96;
constexpr std::size_t kMatrices = 96;  // GKT n = 96: 147k ops
constexpr std::uint32_t kLanes = 8;
/// Rounds generated together and then served back to back, so the
/// client's table generation does not evict the engines' tapes and weight
/// planes between every two rounds.
constexpr std::size_t kChunk = 4;
/// Floor on rounds per run, so solve_ms_p90 has ten samples beyond it.
constexpr std::size_t kMinRounds = 100;
constexpr std::size_t kSetupRounds = 5;

/// One instance of the stream: its weight table and its baseline optimum.
struct Bound {
  std::vector<Cost> table;
  Cost expected = 0;
};

/// A rebindable shape: the tape lowered once from the probe instance, the
/// batched engine replaying it, where the optimum lives, and the weight
/// map read off the probe's parameter plane.  Held by pointer, because the
/// engine borrows `low.net`.
struct Shape {
  std::string_view family;
  compile::Lowered low;
  std::unique_ptr<compile::BatchedCompiledEngine> engine;
  std::vector<sim::SlotId> answer;
  /// Design 1: per parameter, 0 for a source edge or 1 + the interior
  /// edge's index in interior_edges() order.
  std::vector<std::uint32_t> edge_of;
  /// GKT: per parameter, the dimension indices a < b < c of its weight.
  std::vector<std::array<std::uint8_t, 3>> dims_of;
};

/// Design 1 interior edge costs behind a leading 0, the value of every
/// source edge: stage-major, then row, then column.
std::vector<Cost> interior_edges(const MultistageGraph& g) {
  std::vector<Cost> out{0};
  out.reserve(1 + (kStages - 1) * kWidth * kWidth);
  for (std::size_t k = 1; k < kStages; ++k) {
    const auto& c = g.costs(k);
    for (std::size_t i = 0; i < kWidth; ++i) {
      for (std::size_t j = 0; j < kWidth; ++j) out.push_back(c(i, j));
    }
  }
  return out;
}

std::vector<Cost> design1_table(const Shape& sh, const MultistageGraph& g) {
  const auto edges = interior_edges(g);
  std::vector<Cost> table(sh.edge_of.size());
  for (std::size_t p = 0; p < table.size(); ++p) {
    table[p] = edges[sh.edge_of[p]];
  }
  return table;
}

std::vector<Cost> gkt_table(const Shape& sh, const std::vector<Cost>& dims) {
  std::vector<Cost> table(sh.dims_of.size());
  for (std::size_t p = 0; p < table.size(); ++p) {
    const auto& [a, b, c] = sh.dims_of[p];
    table[p] = dims[a] * dims[b] * dims[c];
  }
  return table;
}

MultistageGraph design1_probe() {
  MultistageGraph g =
      with_single_source_sink(MultistageGraph(kStages, kWidth, 0));
  Cost id = 1;
  for (std::size_t k = 1; k < kStages; ++k) {
    for (std::size_t i = 0; i < kWidth; ++i) {
      for (std::size_t j = 0; j < kWidth; ++j) g.set_edge(k, i, j, id++);
    }
  }
  return g;
}

std::vector<Cost> first_primes(std::size_t count) {
  std::vector<Cost> primes;
  for (Cost x = 2; primes.size() < count; ++x) {
    if (std::none_of(primes.begin(), primes.end(),
                     [x](Cost p) { return x % p == 0; })) {
      primes.push_back(x);
    }
  }
  return primes;
}

void require(bool ok, std::string_view family, const char* what) {
  if (!ok) {
    throw std::runtime_error(std::string(family) + " weight map: " + what);
  }
}

/// Read the Design 1 map off the probe's plane: every interior id exactly
/// once, every other weight 0.
void map_design1(Shape& sh, const MultistageGraph& probe) {
  const auto& params = sh.low.net.params;
  const std::size_t edges = (kStages - 1) * kWidth * kWidth;
  std::vector<std::uint8_t> seen(edges + 1, 0);
  sh.edge_of.resize(params.size());
  for (std::size_t p = 0; p < params.size(); ++p) {
    require(params[p] >= 0 && static_cast<std::size_t>(params[p]) <= edges,
            kDesign1, "a weight is not an edge id");
    sh.edge_of[p] = static_cast<std::uint32_t>(params[p]);
    if (params[p] > 0) {
      require(seen[sh.edge_of[p]]++ == 0, kDesign1, "an edge id repeats");
    }
  }
  require(std::count(seen.begin() + 1, seen.end(), 1) ==
              static_cast<std::ptrdiff_t>(edges),
          kDesign1, "an interior edge has no parameter");
  require(design1_table(sh, probe) == params, kDesign1,
          "mapping the probe does not reproduce its weights");
}

/// Read the GKT map off the probe's plane: factor each weight over the
/// probe's prime dimensions; every triple a < b < c exactly once.
void map_gkt(Shape& sh, const std::vector<Cost>& primes) {
  const auto& params = sh.low.net.params;
  const std::size_t d = primes.size();
  std::vector<std::uint8_t> seen(d * d * d, 0);
  sh.dims_of.resize(params.size());
  for (std::size_t p = 0; p < params.size(); ++p) {
    Cost w = params[p];
    std::array<std::uint8_t, 3> abc{};
    std::size_t next = 0;
    for (std::size_t f = 0; f < 3; ++f) {
      while (next < d && w % primes[next] != 0) ++next;
      require(next < d, kGkt, "a weight does not factor into three dims");
      abc[f] = static_cast<std::uint8_t>(next);
      w /= primes[next++];
    }
    require(w == 1, kGkt, "a weight does not factor into three dims");
    require(seen[(abc[0] * d + abc[1]) * d + abc[2]]++ == 0, kGkt,
            "a dims triple repeats");
    sh.dims_of[p] = abc;
  }
  require(params.size() == d * (d - 1) * (d - 2) / 6, kGkt,
          "a dims triple has no parameter");
  require(gkt_table(sh, primes) == params, kGkt,
          "mapping the probe does not reproduce its weights");
}

/// Lower, compact and verify the probe of `family`, read its weight map,
/// and load the batched engine: the shape's whole set-up.
std::unique_ptr<Shape> build_shape(std::string_view family, std::uint64_t id,
                                   Tracer& tracer, LoweringRecord& rec,
                                   AnyProblem& probe) {
  auto sh = std::make_unique<Shape>();
  sh->family = family;
  if (family == kDesign1) {
    probe = design1_probe();
  } else {
    probe = first_primes(kMatrices + 1);
  }
  sh->low = lower_checked(family, id, probe, true, tracer, rec);
  {
    auto span = tracer.stage(family, id, "perfbench.weight_map");
    if (family == kDesign1) {
      map_design1(*sh, std::get<MultistageGraph>(probe));
    } else {
      map_gkt(*sh, std::get<std::vector<Cost>>(probe));
    }
  }
  sh->answer = answer_slots(family, sh->low.net, probe);
  auto span = tracer.stage(family, id, "compile.batch_engine_init");
  sh->engine =
      std::make_unique<compile::BatchedCompiledEngine>(sh->low.net, kLanes);
  return sh;
}

/// A fresh instance of the shape, its table, and its baseline optimum.
Bound make_instance(const Shape& sh, std::uint64_t id, Rng& rng,
                    Tracer& tracer, LayerStats& stats) {
  Bound b;
  const std::string f = std::string(sh.family) + ".baseline.check_ms";
  if (sh.family == kDesign1) {
    const MultistageGraph g = design1_graph(kStages, kWidth, rng);
    b.table = design1_table(sh, g);
    auto span = tracer.stage(sh.family, id, "baseline.check");
    b.expected = solve_multistage(g).cost;
    stats.sample(f, span.stop());
  } else {
    const std::vector<Cost> dims = random_chain_dims(kMatrices, rng);
    b.table = gkt_table(sh, dims);
    auto span = tracer.stage(sh.family, id, "baseline.check");
    b.expected = matrix_chain_order(dims).total();
    stats.sample(f, span.stop());
  }
  return b;
}

struct BatchRecord {
  double bind_ms = 0;
  double replay_ms = 0;
  double harvest_ms = 0;
};

/// Bind `batch` to the lanes, replay, and read every lane's optimum.
std::array<Cost, kLanes> serve(Shape& sh, std::uint64_t id,
                               const std::vector<Bound>& batch, Tracer& tracer,
                               BatchRecord& rec) {
  auto& engine = *sh.engine;
  {
    auto span = tracer.stage(sh.family, id, "compile.bind");
    for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
      engine.bind(lane, batch[lane].table);
    }
    rec.bind_ms = span.stop();
  }
  {
    auto span = tracer.stage(sh.family, id, "compile.batch_replay");
    engine.reset();
    engine.run_all();
    rec.replay_ms = span.stop();
  }
  auto span = tracer.stage(sh.family, id, "compile.harvest");
  std::array<Cost, kLanes> got{};
  for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
    got[lane] = kInfCost;
    for (const auto slot : sh.answer) {
      got[lane] = std::min(got[lane], engine.value(slot, lane));
    }
  }
  rec.harvest_ms = span.stop();
  return got;
}

/// One round of the stream: a batch of kLanes instances per shape.
struct Round {
  std::uint64_t id = 0;
  std::vector<std::vector<Bound>> batches;  // parallel to the shapes
};

/// Serve one round as a timed operation, then check every lane.
void serve_round(const std::vector<std::unique_ptr<Shape>>& shapes,
                 const Round& round, Tracer& tracer, Ledger& ledger,
                 LayerStats& stats, Outcome& out) {
  std::vector<BatchRecord> recs(shapes.size());
  std::vector<std::array<Cost, kLanes>> got(shapes.size());
  std::vector<std::string> errors(shapes.size());
  double ms = 0;
  {
    auto span = tracer.op("rebind", round.id, "perfbench.round");
    for (std::size_t s = 0; s < shapes.size(); ++s) {
      try {
        got[s] = serve(*shapes[s], round.id, round.batches[s], tracer, recs[s]);
      } catch (const std::exception& e) {
        errors[s] = std::string("threw: ") + e.what();
      }
    }
    ms = span.stop();
  }
  out.busy_ms += ms;
  bool all_right = true;
  double covered_ms = 0;
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    const std::string family(shapes[s]->family);
    const BatchRecord& rec = recs[s];
    covered_ms += rec.bind_ms + rec.replay_ms + rec.harvest_ms;
    ledger.attempt(kLanes);
    if (!errors[s].empty()) {
      ledger.fail(family + " batch: " + errors[s], kLanes);
      all_right = false;
      continue;
    }
    for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
      const Cost expected = round.batches[s][lane].expected;
      if (got[s][lane] == expected) {
        ++out.instances;
      } else {
        ledger.fail(family + " lane " + std::to_string(lane) + ": answered " +
                    std::to_string(got[s][lane]) + ", baseline " +
                    std::to_string(expected));
        all_right = false;
      }
    }
    if (!tracer.enabled()) continue;
    const std::string f = family + ".";
    stats.sample(f + "compile.bind_ms", rec.bind_ms);
    stats.sample(f + "compile.batch_replay_ms", rec.replay_ms);
    stats.sample(f + "compile.harvest_ms", rec.harvest_ms);
    stats.add(f + "compile.bind_total_ms", rec.bind_ms);
    stats.add(f + "batch_total_ms",
              rec.bind_ms + rec.replay_ms + rec.harvest_ms);
  }
  if (all_right) out.op_ms.push_back(ms);
  if (tracer.enabled()) stats.sample("coverage", covered_ms / ms);
}

}  // namespace

Outcome run_rebind(const Options& opt, Tracer& tracer, Ledger& ledger) {
  Outcome out;
  Rng rng(opt.seed);
  LayerStats stats;
  constexpr std::string_view kFamilies[] = {kDesign1, kGkt};

  // Set-up, repeated and reported as the median round: per shape, lower
  // the probe, compact, verify, read the weight map and load the engine.
  std::vector<std::unique_ptr<Shape>> shapes;
  for (std::size_t round = 0; round < kSetupRounds; ++round) {
    shapes.clear();
    std::vector<std::pair<LoweringRecord, AnyProblem>> probes(
        std::size(kFamilies));
    {
      auto span = tracer.op("rebind", round, "perfbench.setup");
      for (std::size_t s = 0; s < std::size(kFamilies); ++s) {
        shapes.push_back(build_shape(kFamilies[s], round, tracer,
                                     probes[s].first, probes[s].second));
      }
      out.setup_s.push_back(span.stop() / 1e3);
    }
    if (!tracer.enabled()) continue;
    for (std::size_t s = 0; s < std::size(kFamilies); ++s) {
      attribute(kFamilies[s], round, probes[s].second, true, tracer,
                probes[s].first);
      add_lowering(stats, kFamilies[s], probes[s].first);
    }
  }

  std::uint64_t next_id = 0;
  run_passes(opt.seconds, kMinRounds, [&] {
    std::vector<Round> chunk(kChunk);
    for (auto& round : chunk) {
      round.id = next_id++;
      for (const auto& sh : shapes) {
        auto& batch = round.batches.emplace_back();
        for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
          batch.push_back(make_instance(*sh, round.id, rng, tracer, stats));
        }
      }
    }
    for (const auto& round : chunk) {
      serve_round(shapes, round, tracer, ledger, stats, out);
    }
    return chunk.size();
  });

  if (tracer.enabled()) {
    for (const auto& sh : shapes) {
      const std::string f = std::string(sh->family) + ".";
      report_lowering(stats, sh->family, out.layers);
      for (const char* name :
           {"compile.bind_ms", "compile.batch_replay_ms", "compile.harvest_ms",
            "baseline.check_ms"}) {
        out.layers[f + name] = stats.median_of(f + name);
      }
      const double batch_ms = stats.sum(f + "batch_total_ms");
      out.layers[f + "compile.bind_share"] =
          batch_ms > 0 ? stats.sum(f + "compile.bind_total_ms") / batch_ms
                       : 0.0;
      out.layers[f + "compile.batch_fallback_levels"] =
          static_cast<double>(sh->engine->fallback_levels());
    }
    out.layers["coverage"] = stats.min_of("coverage");
  }
  return out;
}

}  // namespace perfbench
