// bench_all — the perf-trajectory driver for the simulation backend.
//
// Runs the batched sweep workloads (the triangular family, the E1 design
// grid, the design ablation grid and a fill/drain-heavy Design 1 sweep)
// through google-benchmark with a JSON reporter (the programmatic
// equivalent of --benchmark_format=json), then re-times each sweep
// directly — serial loop versus the batch runner, in the same process and
// the same run — and aggregates everything into BENCH_SIM.json at the path
// given by --out= (default: ./BENCH_SIM.json).  Future PRs append to the
// trajectory by re-running this binary and diffing the JSON.
//
//   build/bench/bench_all --out=BENCH_SIM.json [--workers=N]
//                         [--baseline=OLD.json] [--reduced]
//                         [--engine-tolerance=F] [gbench flags]
//
// --baseline=OLD.json compares this run's per-benchmark medians against a
// previously committed BENCH_SIM.json and emits a "regressions" section;
// any benchmark more than 15% slower than its baseline median makes the
// binary exit nonzero, which is how CI gates perf regressions.  --reduced
// skips the google-benchmark pass (the aggregate pass alone carries every
// number the baseline comparison needs), halving CI wall-clock.
//
// --engine-tolerance=F tightens the gate for the engine_throughput and
// compiled_throughput entries (e.g. 0.02 for 2%): the former run with no
// observers attached, so they measure exactly the telemetry layer's
// when-off overhead — the "zero overhead when off" contract of
// sim/observer.hpp — and the latter are flat-tape replays steady enough
// for the same tight comparison.  The design1_modular_observed entry
// carries a no-op observer and is reported for trend-watching at the
// default tolerance.
//
// The compiled_throughput section also carries a baseline-free gate: the
// compiled tape must replay at least 3x faster than the interpreted dense
// serial run on two or more families, else the binary exits nonzero.
//
// The compiled_batch_throughput section measures compile::CompiledEngine's
// lane kernels: one parameterised lowering per family, replayed across B
// lanes at once, against B independent one-lane replays (the scalar
// kernel).  Its gate: per-instance throughput at B >= 8
// must be at least 2x the single-lane replay on two or more families.
// Each family also runs a rebind loop — 128 randomly re-weighted
// instances through the ONE lowering, no re-lowering — demonstrating the
// parameter plane's amortisation and reporting instances/sec.
//
// Speedup expectations scale with the host: on a >= 4-core machine the
// sweeps are embarrassingly parallel and the batch runner delivers >= 2x;
// the host block records hardware_concurrency so a 1-core container's
// ~1x is distinguishable from a regression.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "andor/pipeline_array.hpp"
#include "arrays/design1_modular.hpp"
#include "arrays/design2_modular.hpp"
#include "arrays/design3_modular.hpp"
#include "arrays/gkt_modular.hpp"
#include "arrays/graph_adapter.hpp"
#include "arrays/triangular_array.hpp"
#include "arrays/triangular_modular.hpp"
#include "compile/engine.hpp"
#include "compile/lower.hpp"
#include "graph/generators.hpp"
#include "sim/batch.hpp"
#include "sim/engine.hpp"
#include "sim/observer.hpp"
#include "sim/stats.hpp"
#include "sim/thread_pool.hpp"

namespace {

using namespace sysdp;

// ------------------------------------------------------------ sweeps ------
// Each sweep is a named list of independent simulation jobs; the job result
// is a checksum (busy steps) so the compiler cannot elide the run and the
// serial/batch passes can be cross-checked.

struct Sweep {
  const char* name;
  std::size_t jobs;
  std::function<std::uint64_t(std::size_t)> job;
};

Sweep triangular_family_sweep() {
  static const std::size_t sizes[] = {16, 24, 32, 48, 64, 96, 128};
  constexpr std::size_t kKinds = 3;
  return {"triangular_family", std::size(sizes) * kKinds,
          [](std::size_t i) -> std::uint64_t {
            const std::size_t n = sizes[i / kKinds];
            Rng rng(i);
            switch (i % kKinds) {
              case 0:
                return run_chain_array(random_chain_dims(n, rng))
                    .stats.busy_steps;
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
          }};
}

Sweep e1_grid_sweep() {
  static const std::size_t ns[] = {4, 8, 16, 32, 64};
  static const std::size_t ms[] = {4, 8, 16};
  return {"design12_e1_grid", std::size(ns) * std::size(ms),
          [](std::size_t i) -> std::uint64_t {
            const std::size_t n = ns[i / std::size(ms)];
            const std::size_t m = ms[i % std::size(ms)];
            Rng rng(n * 100 + m);
            const auto g =
                with_single_source_sink(random_multistage(n - 1, m, rng));
            auto prob = to_string_product(g);
            Design1Modular d1(prob.mats, prob.v);
            Design2Modular d2(prob.mats, prob.v);
            return d1.run().busy_steps + d2.run().busy_steps;
          }};
}

Sweep ablation_grid_sweep() {
  static const std::size_t ns[] = {8, 16, 32};
  static const std::size_t ms[] = {4, 8, 16};
  return {"ablation_designs_grid", std::size(ns) * std::size(ms),
          [](std::size_t i) -> std::uint64_t {
            const std::size_t n = ns[i / std::size(ms)];
            const std::size_t m = ms[i % std::size(ms)];
            Rng rng(n * 37 + m);
            const auto nv = traffic_control_instance(n, m, rng);
            const auto g = nv.materialize();
            auto prob = to_string_product(g);
            Design1Modular d1(prob.mats, prob.v);
            Design2Modular d2(prob.mats, prob.v);
            Design3Modular d3(nv);
            return d1.run().busy_steps + d2.run().busy_steps +
                   d3.run().stats.busy_steps;
          }};
}

/// Build the Q = 1 wide matrix-vector instance used by the fill/drain
/// sweep and the gating comparison: with a single multiply, PE p is active
/// for only m of the ~2m total cycles (fill while the vector streams in,
/// drain while results stream out), so roughly half of all dense evals are
/// idle — the workload activity gating targets.
std::pair<std::vector<Matrix<Cost>>, std::vector<Cost>> fill_drain_instance(
    std::size_t m, std::uint64_t seed) {
  Rng rng(seed);
  std::uniform_int_distribution<Cost> w(1, 40);
  Matrix<Cost> mat(m, m, 0);
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t c = 0; c < m; ++c) mat(r, c) = w(rng);
  }
  std::vector<Cost> v(m);
  for (auto& x : v) x = w(rng);
  return {std::vector<Matrix<Cost>>{std::move(mat)}, std::move(v)};
}

Sweep fill_drain_sweep() {
  static const std::size_t ms[] = {192, 256, 384};
  return {"design1_fill_drain", std::size(ms),
          [](std::size_t i) -> std::uint64_t {
            const std::size_t m = ms[i];
            auto [mats, v] = fill_drain_instance(m, 9000 + m);
            Design1Modular d1(std::move(mats), std::move(v));
            return d1.run().busy_steps;
          }};
}

std::vector<Sweep> all_sweeps() {
  std::vector<Sweep> s;
  s.push_back(triangular_family_sweep());
  s.push_back(e1_grid_sweep());
  s.push_back(ablation_grid_sweep());
  s.push_back(fill_drain_sweep());
  return s;
}

std::size_t g_workers = 0;  // resolved in main()

// Register each sweep as a pair of google-benchmark entries so the JSON
// report carries the same workloads the aggregate section summarises.
void register_gbench_sweeps() {
  for (auto& sweep : all_sweeps()) {
    for (const bool batched : {false, true}) {
      const std::string name =
          std::string("bm_sweep_") + sweep.name + (batched ? "/batch" : "/serial");
      benchmark::RegisterBenchmark(
          name.c_str(),
          [sweep, batched](benchmark::State& state) {
            std::optional<sim::ThreadPool> pool;
            if (batched) pool.emplace(g_workers);
            sim::BatchRunner runner(pool ? &*pool : nullptr);
            for (auto _ : state) {
              auto r = runner.run(sweep.jobs, sweep.job);
              benchmark::DoNotOptimize(r);
            }
            state.counters["jobs"] = static_cast<double>(sweep.jobs);
            state.counters["lanes"] = static_cast<double>(runner.lanes());
          })
          ->Unit(benchmark::kMillisecond);
    }
  }
}

// ------------------------------------------------------- measurement ------

/// Median of five timed runs of `body` — the unit the sweep and gating
/// baseline comparisons use, so a scheduling hiccup spanning a run or two
/// cannot fail CI.
template <typename F>
double median5_seconds(F&& body) {
  double t[5];
  for (double& x : t) {
    sim::WallTimer w;
    body();
    x = w.seconds();
  }
  std::sort(std::begin(t), std::end(t));
  return t[2];
}

/// Minimum of `reps` timed runs — for the engine_throughput entries, whose
/// gate tolerance (--engine-tolerance, 2% in CI) is far below the run-to-run
/// spread of a millisecond-scale body.  Scheduler noise on wall clock is
/// one-sided (contention only ever adds time), so the minimum is both the
/// least-biased estimate of the true cost and by far the steadiest, which is
/// what a tight cross-run comparison needs.
template <typename F>
double best_seconds(int reps, F&& body) {
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < reps; ++i) {
    sim::WallTimer w;
    body();
    best = std::min(best, w.seconds());
  }
  return best;
}

/// One dense-vs-sparse engine comparison: the same instance run with
/// activity gating off and on, plus the sparse run's eval accounting.
struct GatingEntry {
  std::string name;
  double dense_seconds = 0.0;
  double sparse_seconds = 0.0;
  std::uint64_t active_evals = 0;
  std::uint64_t dense_evals = 0;

  [[nodiscard]] double speedup() const {
    return sparse_seconds > 0.0 ? dense_seconds / sparse_seconds : 0.0;
  }
  [[nodiscard]] double activity() const {
    return dense_evals > 0 ? static_cast<double>(active_evals) /
                                 static_cast<double>(dense_evals)
                           : 1.0;
  }
};

std::vector<GatingEntry> measure_gating() {
  std::vector<GatingEntry> out;
  {
    GatingEntry e;
    e.name = "design1_fill_drain_m384";
    auto [mats, v] = fill_drain_instance(384, 9384);
    std::uint64_t dense_busy = 0, sparse_busy = 0;
    e.dense_seconds = median5_seconds([&] {
      Design1Modular d(mats, v);
      dense_busy = d.run(sim::Gating::kDense).busy_steps;
    });
    e.sparse_seconds = median5_seconds([&] {
      Design1Modular d(mats, v);
      const auto r = d.run(sim::Gating::kSparse);
      sparse_busy = r.busy_steps;
      e.active_evals = r.active_evals;
      e.dense_evals = r.dense_evals;
    });
    if (dense_busy != sparse_busy) {
      std::fprintf(stderr, "bench_all: gating diverges on %s\n",
                   e.name.c_str());
      std::exit(1);
    }
    out.push_back(std::move(e));
  }
  {
    GatingEntry e;
    e.name = "design3_traffic_n48_m12";
    Rng rng(4812);
    const auto nv = traffic_control_instance(48, 12, rng);
    std::uint64_t dense_busy = 0, sparse_busy = 0;
    e.dense_seconds = median5_seconds([&] {
      Design3Modular d(nv);
      dense_busy = d.run(sim::Gating::kDense).stats.busy_steps;
    });
    e.sparse_seconds = median5_seconds([&] {
      Design3Modular d(nv);
      const auto r = d.run(sim::Gating::kSparse);
      sparse_busy = r.stats.busy_steps;
      e.active_evals = r.stats.active_evals;
      e.dense_evals = r.stats.dense_evals;
    });
    if (dense_busy != sparse_busy) {
      std::fprintf(stderr, "bench_all: gating diverges on %s\n",
                   e.name.c_str());
      std::exit(1);
    }
    out.push_back(std::move(e));
  }
  {
    // The 2-D GKT array is the headline gating workload: the wavefront
    // keeps only the flit-carrying diagonal band of cells busy (~1/5 of
    // cell-cycles at n=96 — the paper's worst processor-utilisation case),
    // so skipping the idle cells pays far more than on the linear arrays.
    GatingEntry e;
    e.name = "gkt_modular_n96";
    Rng rng(96096);
    const auto dims = random_chain_dims(96, rng);
    GktModularArray arr(dims);
    std::uint64_t dense_busy = 0, sparse_busy = 0;
    Cost dense_total = 0, sparse_total = 0;
    e.dense_seconds = median5_seconds([&] {
      const auto r = arr.run(sim::Gating::kDense);
      dense_busy = r.stats.busy_steps;
      dense_total = r.total();
    });
    e.sparse_seconds = median5_seconds([&] {
      const auto r = arr.run(sim::Gating::kSparse);
      sparse_busy = r.stats.busy_steps;
      sparse_total = r.total();
      e.active_evals = r.stats.active_evals;
      e.dense_evals = r.stats.dense_evals;
    });
    if (dense_busy != sparse_busy || dense_total != sparse_total) {
      std::fprintf(stderr, "bench_all: gating diverges on %s\n",
                   e.name.c_str());
      std::exit(1);
    }
    out.push_back(std::move(e));
  }
  return out;
}

// ------------------------------------------------- compiled backend -------

/// One compiled-vs-interpreted throughput comparison: the same instance
/// through the modular engine (dense, serial — the semantics the tape
/// replays bit-identically) and through CompiledEngine's flat tape.
/// Lowering runs once, outside the timed region: a tape is replayable, so
/// its one-time cost amortises the way a netlist elaboration does.
struct CompiledSample {
  std::string name;
  std::uint64_t cycles = 0;
  std::uint64_t num_ops = 0;
  /// Activity accounting from the verification replay (ReplayResult):
  /// non-empty levels actually run, mean op-lanes per executed level, and
  /// how many design modules the tape's provenance attributes work to —
  /// the compiled counterparts of the interpreted utilisation columns.
  std::uint64_t levels_executed = 0;
  double level_occupancy = 0.0;
  std::uint64_t provenance_modules = 0;
  double interpreted_seconds = 0.0;
  double compiled_seconds = 0.0;

  [[nodiscard]] double speedup() const {
    return compiled_seconds > 0.0 ? interpreted_seconds / compiled_seconds
                                  : 0.0;
  }
  [[nodiscard]] double ops_per_sec() const {
    return compiled_seconds > 0.0
               ? static_cast<double>(num_ops) / compiled_seconds
               : 0.0;
  }
};

/// Floor for the in-binary compiled gate: at least two families must
/// replay >= this much faster than their interpreted dense serial run.
/// The measured margin is an order of magnitude beyond this — the floor
/// only has to separate "flat tape" from "accidentally re-interpreting".
constexpr double kCompiledSpeedupFloor = 3.0;

template <typename MakeArray, typename BusyOf>
CompiledSample measure_compiled_one(const char* name, MakeArray&& make,
                                    BusyOf&& busy_of) {
  CompiledSample s;
  s.name = name;
  std::uint64_t busy = 0;
  s.interpreted_seconds = best_seconds(9, [&] {
    auto arr = make();
    busy = busy_of(arr.run(sim::Gating::kDense));
  });
  auto arr = make();
  auto low = compile::lower_array(arr);
  s.cycles = low.net.cycles();
  s.num_ops = low.net.num_ops();
  compile::CompiledEngine ce(low.net);
  ce.run_all();
  // The tape must carry exactly the oracle's busy steps and reproduce its
  // recorded outputs — a silent mismatch here would make the timing below
  // a comparison of different computations.
  if (s.num_ops != busy || ce.verify_outputs().found) {
    std::fprintf(stderr, "bench_all: compiled backend diverges on %s\n",
                 name);
    std::exit(1);
  }
  const compile::ReplayResult rres = ce.result();
  if (rres.ops_executed != s.num_ops) {
    std::fprintf(stderr,
                 "bench_all: %s replay accounted %llu ops for a tape of "
                 "%llu\n",
                 name, static_cast<unsigned long long>(rres.ops_executed),
                 static_cast<unsigned long long>(s.num_ops));
    std::exit(1);
  }
  s.levels_executed = rres.levels_executed;
  s.level_occupancy = rres.level_occupancy();
  s.provenance_modules = low.net.provenance.modules.size();
  s.compiled_seconds = best_seconds(9, [&] {
    ce.reset();
    ce.run_all();
    benchmark::DoNotOptimize(ce.now());
  });
  return s;
}

std::vector<CompiledSample> measure_compiled(
    const std::vector<Matrix<Cost>>& mats, const std::vector<Cost>& v) {
  std::vector<CompiledSample> out;
  out.push_back(measure_compiled_one(
      "compiled_design1_96pe",
      [&] { return Design1Modular(mats, v); },
      [](const RunResult<Cost>& r) { return r.busy_steps; }));
  {
    Rng rng(96096);  // same instance as the gkt_modular_n96 gating entry
    const auto dims = random_chain_dims(96, rng);
    out.push_back(measure_compiled_one(
        "compiled_gkt_n96", [&] { return GktModularArray(dims); },
        [](const GktModularArray::Result& r) { return r.stats.busy_steps; }));
  }
  {
    Rng rng(777);
    std::uniform_int_distribution<Cost> freq(1, 40);
    std::vector<Cost> f(96);
    for (auto& x : f) x = freq(rng);
    const BstRule rule(f);
    out.push_back(measure_compiled_one(
        "compiled_bst_n96",
        [&] { return TriangularModularArray<BstRule>(rule, rule.num_keys()); },
        [](const TriangularModularArray<BstRule>::Result& r) {
          return r.stats.busy_steps;
        }));
  }
  return out;
}

// ------------------------------------------------ batched compiled --------

/// One family's batched-replay measurement: a single parameterised
/// lowering, timed single-lane (the scalar kernel) and at B in {8, 16}
/// (the lane kernels), plus a rebind loop that pushes 128 randomly
/// re-weighted instances through the same tape without re-lowering.
struct CompiledBatchSample {
  std::string name;
  std::uint64_t num_ops = 0;
  std::uint64_t num_params = 0;
  double single_seconds = 0.0;   ///< one single-lane replay
  double batch8_seconds = 0.0;   ///< one 8-lane batched replay
  double batch16_seconds = 0.0;  ///< one 16-lane batched replay
  std::uint64_t rebound_instances = 0;
  double rebind_seconds = 0.0;

  [[nodiscard]] double per_instance_speedup(double batch_seconds,
                                            std::uint32_t b) const {
    const double per = batch_seconds / static_cast<double>(b);
    return per > 0.0 ? single_seconds / per : 0.0;
  }
  [[nodiscard]] double speedup_b8() const {
    return per_instance_speedup(batch8_seconds, 8);
  }
  [[nodiscard]] double speedup_b16() const {
    return per_instance_speedup(batch16_seconds, 16);
  }
  [[nodiscard]] double rebind_instances_per_sec() const {
    return rebind_seconds > 0.0
               ? static_cast<double>(rebound_instances) / rebind_seconds
               : 0.0;
  }
};

/// Floor for the in-binary batched gate: per-instance throughput at B = 8
/// must reach this multiple of the single-lane compiled replay on two or
/// more families, else the lane-major layout has stopped vectorising.
constexpr double kBatchPerInstanceFloor = 2.0;

template <typename MakeArray>
CompiledBatchSample measure_compiled_batch_one(const char* name,
                                               MakeArray&& make) {
  CompiledBatchSample s;
  s.name = name;
  auto arr = make();
  compile::LowerOptions opt;
  opt.parameterise = true;
  const auto low = compile::lower_array(arr, opt);
  s.num_ops = low.net.num_ops();
  s.num_params = low.net.num_params();

  // Single-lane baseline, after a checked replay so the timing below is a
  // timing of the right computation.
  compile::CompiledEngine ce(low.net);
  ce.run_all_checked();
  if (ce.verify_outputs().found) {
    std::fprintf(stderr, "bench_all: compiled backend diverges on %s\n",
                 name);
    std::exit(1);
  }
  s.single_seconds = best_seconds(9, [&] {
    ce.reset();
    ce.run_all();
    benchmark::DoNotOptimize(ce.now());
  });

  const auto batch_time = [&](std::uint32_t b) {
    compile::CompiledEngine be(low.net, b);
    be.run_all();
    for (std::uint32_t lane = 0; lane < b; ++lane) {
      if (be.verify_outputs(lane).found || be.fallback_levels() != 0) {
        std::fprintf(stderr,
                     "bench_all: batched replay diverges on %s lane %u\n",
                     name, lane);
        std::exit(1);
      }
    }
    return best_seconds(9, [&] {
      be.reset();
      be.run_all();
      benchmark::DoNotOptimize(be.now());
    });
  };
  s.batch8_seconds = batch_time(8);
  s.batch16_seconds = batch_time(16);

  // Rebind loop: 16 batches x 8 lanes = 128 instances of the family shape
  // with fresh random weight tables, all through the ONE lowering above —
  // the tape is never re-lowered, only rebound.  Each batch's tables are
  // refilled in place before its timed region, which covers bind + reset +
  // run_all only: drawing 55k-147k weights per lane would otherwise
  // dominate it.  After the timer, every lane's declared outputs must
  // equal a one-lane replay of the same table.
  {
    constexpr std::uint32_t kLanes = 8;
    constexpr std::uint32_t kBatches = 16;
    compile::CompiledEngine be(low.net, kLanes);
    compile::CompiledEngine one(low.net);
    Rng rng(0xb1d5 + s.num_ops);
    std::uniform_int_distribution<Cost> wdist(1, 40);
    std::vector<std::vector<Cost>> tables(
        kLanes, std::vector<Cost>(low.net.num_params()));
    for (std::uint32_t batch = 0; batch < kBatches; ++batch) {
      for (auto& table : tables) {
        for (auto& x : table) x = wdist(rng);
      }
      sim::WallTimer wt;
      for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
        be.bind(lane, tables[lane]);
      }
      be.reset();
      be.run_all();
      s.rebind_seconds += wt.seconds();
      for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
        one.bind(0, tables[lane]);
        one.reset();
        one.run_all();
        for (const auto& out : low.net.outputs) {
          if (be.value(out.slot, lane) != one.value(out.slot)) {
            std::fprintf(stderr,
                         "bench_all: rebound replay diverges on %s batch %u "
                         "lane %u\n",
                         name, batch, lane);
            std::exit(1);
          }
        }
      }
    }
    s.rebound_instances = std::uint64_t{kBatches} * kLanes;
  }
  return s;
}

std::vector<CompiledBatchSample> measure_compiled_batch(
    const std::vector<Matrix<Cost>>& mats, const std::vector<Cost>& v) {
  // The three rebindable 96-wide families (Design 3 and the BST rule pin
  // instance data in interned constants, so they batch under the oracle
  // binding only and are covered by the lane-exactness tests instead).
  std::vector<CompiledBatchSample> out;
  out.push_back(measure_compiled_batch_one(
      "compiled_batch_design1_96pe",
      [&] { return Design1Modular(mats, v); }));
  {
    Rng rng(96096);  // same instance as the compiled_gkt_n96 entry
    const auto dims = random_chain_dims(96, rng);
    out.push_back(measure_compiled_batch_one(
        "compiled_batch_gkt_n96", [&] { return GktModularArray(dims); }));
  }
  {
    Rng rng(96955);
    const auto dims = random_chain_dims(96, rng);
    const ChainRule rule(dims);
    out.push_back(measure_compiled_batch_one(
        "compiled_batch_chain_n96", [&] {
          return TriangularModularArray<ChainRule>(rule,
                                                   rule.num_matrices());
        }));
  }
  return out;
}

// --------------------------------------------------------- baseline -------

struct MetricSample {
  std::string name;  ///< e.g. "triangular_family/serial"
  double seconds = 0.0;
};

struct Comparison {
  std::string name;
  double baseline_seconds = 0.0;
  double current_seconds = 0.0;
  double tolerance = 0.15;

  [[nodiscard]] double ratio() const {
    return baseline_seconds > 0.0 ? current_seconds / baseline_seconds : 1.0;
  }
};

constexpr double kRegressionTolerance = 0.15;

// -------------------------------------------------------- host block ------

/// Build type baked in by bench/CMakeLists.txt; "unspecified" when built
/// outside CMake (e.g. a compile_commands-driven tool run).
#ifndef SYSDP_BUILD_TYPE
#define SYSDP_BUILD_TYPE "unspecified"
#endif
constexpr const char* kBuildType = SYSDP_BUILD_TYPE;

/// Host SIMD ISA availability as a JSON string-array body.  On x86 this is
/// detected at runtime (__builtin_cpu_supports) because the batched
/// executor's lane kernels are function-multiversioned — the binary is
/// compiled at baseline ISA yet dispatches AVX-512F/AVX2 clones on capable
/// hosts, so compile-time macros would under-report what actually ran.
/// Recording it makes cross-host BENCH_SIM.json diffs explainable — a
/// 2x-per-instance host and a 4x host usually differ right here.
std::string simd_isa_flags() {
  std::vector<const char*> isa;
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  if (__builtin_cpu_supports("avx512f")) isa.push_back("avx512f");
  if (__builtin_cpu_supports("avx2")) isa.push_back("avx2");
  if (__builtin_cpu_supports("avx")) isa.push_back("avx");
  if (__builtin_cpu_supports("sse4.2")) isa.push_back("sse4.2");
#elif defined(__ARM_NEON)
  isa.push_back("neon");
#endif
  std::string out;
  for (std::size_t i = 0; i < isa.size(); ++i) {
    out += '"';
    out += isa[i];
    out += '"';
    if (i + 1 < isa.size()) out += ", ";
  }
  return out;
}

/// Entries gated by --engine-tolerance: the observer-free engine
/// throughput runs ("_observed" deliberately excluded — it carries a
/// no-op observer, so it measures when-on cost, not when-off overhead),
/// plus the compiled-tape replay timings, whose steadiness (flat arrays,
/// no dispatch) supports the same tight cross-run comparison.
bool engine_gated(const std::string& name) {
  if (name.rfind("compiled_", 0) == 0) return true;
  return name.rfind("design1_modular_", 0) == 0 &&
         name.find("_observed") == std::string::npos;
}

/// Pull {"name": ..., "<field>": X} pairs out of the named array section of
/// a BENCH_SIM.json written by this binary (one object per line — this is
/// a scanner for our own output format, not a general JSON parser).
std::vector<MetricSample> scan_section(const std::string& text,
                                       const std::string& section,
                                       const std::string& field,
                                       const std::string& suffix) {
  std::vector<MetricSample> out;
  const auto sec = text.find('"' + section + '"');
  if (sec == std::string::npos) return out;
  const auto sec_end = text.find(']', sec);
  std::size_t pos = sec;
  while (true) {
    const auto np = text.find("\"name\": \"", pos);
    if (np == std::string::npos || np > sec_end) break;
    const auto ns = np + 9;
    const auto ne = text.find('"', ns);
    if (ne == std::string::npos) break;
    const auto line_end = text.find('\n', ne);
    const auto fp = text.find('"' + field + "\": ", ne);
    if (fp != std::string::npos && fp < line_end) {
      out.push_back(MetricSample{
          text.substr(ns, ne - ns) + suffix,
          std::strtod(text.c_str() + fp + field.size() + 4, nullptr)});
    }
    pos = ne;
  }
  return out;
}

/// All comparable per-benchmark medians in a BENCH_SIM.json document.
std::vector<MetricSample> comparable_metrics(const std::string& text) {
  std::vector<MetricSample> out;
  for (auto& s : scan_section(text, "batch_sweeps", "serial_seconds",
                              "/serial")) {
    out.push_back(std::move(s));
  }
  for (auto& s : scan_section(text, "batch_sweeps", "batch_seconds",
                              "/batch")) {
    out.push_back(std::move(s));
  }
  for (auto& s : scan_section(text, "engine_throughput", "wall_seconds", "")) {
    out.push_back(std::move(s));
  }
  for (auto& s :
       scan_section(text, "compiled_throughput", "compiled_seconds", "")) {
    out.push_back(std::move(s));
  }
  for (auto& s : scan_section(text, "compiled_batch_throughput",
                              "batch8_seconds", "/b8")) {
    out.push_back(std::move(s));
  }
  for (auto& s : scan_section(text, "compiled_batch_throughput",
                              "batch16_seconds", "/b16")) {
    out.push_back(std::move(s));
  }
  for (auto& s : scan_section(text, "gating", "sparse_seconds", "/sparse")) {
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_SIM.json";
  std::string baseline_path;
  bool reduced = false;
  double engine_tolerance = kRegressionTolerance;
  g_workers = std::max<std::size_t>(sim::ThreadPool::default_workers(), 1);

  // Strip our own flags before handing argv to google-benchmark.
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else if (std::strncmp(argv[i], "--baseline=", 11) == 0) {
      baseline_path = argv[i] + 11;
    } else if (std::strcmp(argv[i], "--reduced") == 0) {
      reduced = true;
    } else if (std::strncmp(argv[i], "--engine-tolerance=", 19) == 0) {
      engine_tolerance = std::strtod(argv[i] + 19, nullptr);
      if (engine_tolerance <= 0.0) {
        std::fprintf(stderr, "bench_all: bad --engine-tolerance\n");
        return 1;
      }
    } else if (std::strncmp(argv[i], "--workers=", 10) == 0) {
      g_workers = static_cast<std::size_t>(std::strtoul(argv[i] + 10, nullptr, 10));
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  int pass_argc = static_cast<int>(passthrough.size());

  register_gbench_sweeps();
  benchmark::Initialize(&pass_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc, passthrough.data())) {
    return 1;
  }

  std::ostringstream gbench_json;
  if (!reduced) {
    std::printf("# bench_all: google-benchmark pass (JSON captured)\n");
    std::ostringstream gbench_err;
    benchmark::JSONReporter json_reporter;
    json_reporter.SetOutputStream(&gbench_json);
    json_reporter.SetErrorStream(&gbench_err);
    benchmark::RunSpecifiedBenchmarks(&json_reporter);
  }
  benchmark::Shutdown();

  // Direct serial-vs-batch timing, same process, same run: the headline
  // speedup numbers, each the median of three passes.  The batched pass's
  // results are cross-checked against the serial pass so a racy backend
  // fails loudly here, not just in CI.
  std::printf("# bench_all: aggregate pass (%zu workers + caller)\n",
              g_workers);
  // A pool below two workers cannot demonstrate any thread-level speedup;
  // flag it loudly (and in the JSON's "degraded" markers) so a ~1x batch
  // column from a small container is never read as a regression.
  const bool pool_degraded = g_workers < 2;
  if (pool_degraded) {
    std::fprintf(stderr,
                 "bench_all: warning: pool has %zu worker(s) on %u hardware "
                 "threads — thread-level speedups on this host are degraded, "
                 "not regressions\n",
                 g_workers, std::thread::hardware_concurrency());
  }
  sim::ThreadPool pool(g_workers);
  std::vector<std::pair<Sweep, sim::BatchSpeedup>> measured;
  for (auto& sweep : all_sweeps()) {
    sim::BatchSpeedup s;
    s.jobs = sweep.jobs;
    s.lanes = pool.num_lanes();
    std::vector<std::uint64_t> base, par;
    sim::BatchRunner serial(nullptr);
    s.serial_seconds =
        median5_seconds([&] { base = serial.run(sweep.jobs, sweep.job); });
    sim::BatchRunner batched(&pool);
    s.batch_seconds =
        median5_seconds([&] { par = batched.run(sweep.jobs, sweep.job); });
    if (base != par) {
      std::fprintf(stderr, "bench_all: batch results diverge on %s\n",
                   sweep.name);
      return 1;
    }
    std::printf("  %-24s jobs=%3zu serial=%8.3fms batch=%8.3fms speedup=%.2fx\n",
                sweep.name, s.jobs, s.serial_seconds * 1e3,
                s.batch_seconds * 1e3, s.speedup());
    measured.emplace_back(std::move(sweep), s);
  }

  // Dense versus activity-gated engine on the fill/drain-heavy workloads:
  // same instance, same process, gating the only variable.
  const auto gating = measure_gating();
  for (const auto& e : gating) {
    std::printf("  gating %-24s dense=%8.3fms sparse=%8.3fms speedup=%.2fx activity=%.3f\n",
                e.name.c_str(), e.dense_seconds * 1e3, e.sparse_seconds * 1e3,
                e.speedup(), e.activity());
  }

  // Engine-level throughput on one wide array (96 PEs): cycles simulated
  // and module-evals/sec on the gated engine.
  Rng rng(42);
  const auto g = with_single_source_sink(random_multistage(7, 96, rng));
  auto prob = to_string_product(g);
  struct EngineSample {
    sim::ThroughputStats t;
    std::uint64_t active_evals = 0;
    std::uint64_t dense_evals = 0;
  };
  const auto engine_run = [&] {
    EngineSample s;
    RunResult<Cost> res;
    s.t.wall_seconds = best_seconds(9, [&] {
      Design1Modular arr(prob.mats, prob.v);
      res = arr.run();
    });
    s.t.cycles = res.cycles;
    s.t.module_evals = res.active_evals;  // evals actually performed
    s.active_evals = res.active_evals;
    s.dense_evals = res.dense_evals;
    return s;
  };
  const auto eng_serial = engine_run();
  // Observer-attached variant: same workload with a do-nothing probe, so
  // the delta against design1_modular_serial is the telemetry layer's
  // when-on dispatch cost (the when-off cost is gated separately via
  // --engine-tolerance on the entry above).
  sim::EngineObserver noop_observer;
  const auto engine_run_observed = [&] {
    EngineSample s;
    RunResult<Cost> res;
    s.t.wall_seconds = best_seconds(9, [&] {
      Design1Modular arr(prob.mats, prob.v);
      sim::Engine engine(sim::Gating::kSparse);
      engine.add_observer(&noop_observer);
      res = arr.run(engine);
    });
    s.t.cycles = res.cycles;
    s.t.module_evals = res.active_evals;
    s.active_evals = res.active_evals;
    s.dense_evals = res.dense_evals;
    return s;
  };
  const auto eng_observed = engine_run_observed();
  std::printf("  engine 96-PE design1: serial %.0f evals/s, observed %.0f evals/s, activity %.3f\n",
              eng_serial.t.evals_per_sec(), eng_observed.t.evals_per_sec(),
              static_cast<double>(eng_serial.active_evals) /
                  static_cast<double>(eng_serial.dense_evals));

  // Compiled flat-tape replay versus the interpreted modular engine on the
  // same instances: the lowering pipeline's whole reason to exist.
  const auto compiled = measure_compiled(prob.mats, prob.v);
  std::size_t compiled_fast_families = 0;
  for (const auto& c : compiled) {
    if (c.speedup() >= kCompiledSpeedupFloor) ++compiled_fast_families;
    std::printf(
        "  compiled %-22s interpreted=%8.3fms compiled=%8.3fms speedup=%.1fx "
        "(%.0f ops/s, occupancy %.1f over %llu levels)\n",
        c.name.c_str(), c.interpreted_seconds * 1e3, c.compiled_seconds * 1e3,
        c.speedup(), c.ops_per_sec(), c.level_occupancy,
        static_cast<unsigned long long>(c.levels_executed));
  }

  // Batched compiled replay: one parameterised lowering per family, B
  // lanes per replay, per-instance throughput against the single-lane
  // replay, plus the 128-instance rebind loop on the same tape.
  const auto cbatch = measure_compiled_batch(prob.mats, prob.v);
  std::size_t batch_fast_families = 0;
  for (const auto& c : cbatch) {
    if (c.speedup_b8() >= kBatchPerInstanceFloor) ++batch_fast_families;
    std::printf(
        "  batch %-26s single=%8.3fms b8=%8.3fms (%.2fx/inst) "
        "b16=%8.3fms (%.2fx/inst) rebind=%llu inst @ %.0f inst/s\n",
        c.name.c_str(), c.single_seconds * 1e3, c.batch8_seconds * 1e3,
        c.speedup_b8(), c.batch16_seconds * 1e3, c.speedup_b16(),
        static_cast<unsigned long long>(c.rebound_instances),
        c.rebind_instances_per_sec());
  }

  const unsigned hw_threads = std::thread::hardware_concurrency();

  // ----------------------------------------------------------- output -----
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "bench_all: cannot write %s\n", out_path.c_str());
    return 1;
  }
  char buf[512];
  out << "{\n";
  out << "  \"schema\": \"sysdp-bench-sim-v3\",\n";
  out << "  \"host\": {\n";
  out << "    \"hardware_concurrency\": " << hw_threads << ",\n";
  out << "    \"pool_workers\": " << g_workers << ",\n";
  out << "    \"pool_lanes\": " << (g_workers + 1) << ",\n";
  out << "    \"degraded\": " << (pool_degraded ? "true" : "false") << ",\n";
  out << "    \"build_type\": \"" << kBuildType << "\",\n";
  out << "    \"simd\": [" << simd_isa_flags() << "]\n  },\n";

  // v3 sections are objects: the worker/host context each measurement ran
  // under rides with its entries, so a cross-host diff of one section is
  // self-explaining (a 1-worker container's ~1x batch column is marked
  // degraded right where it appears).  Sections that use no pool record
  // pool_workers 0 and are never degraded.
  const auto section_open = [&](const char* name, std::size_t workers,
                                bool degraded) {
    out << "  \"" << name << "\": {\n";
    out << "    \"pool_workers\": " << workers << ",\n";
    out << "    \"hardware_concurrency\": " << hw_threads << ",\n";
    out << "    \"degraded\": " << (degraded ? "true" : "false") << ",\n";
    out << "    \"entries\": [\n";
  };
  const auto section_close = [&] { out << "    ]\n  },\n"; };

  section_open("batch_sweeps", g_workers, pool_degraded);
  for (std::size_t i = 0; i < measured.size(); ++i) {
    const auto& [sweep, s] = measured[i];
    std::snprintf(buf, sizeof buf,
                  "    {\"name\": \"%s\", \"jobs\": %zu, \"lanes\": %zu, "
                  "\"serial_seconds\": %.6f, \"batch_seconds\": %.6f, "
                  "\"speedup\": %.3f}%s\n",
                  sweep.name, s.jobs, s.lanes, s.serial_seconds,
                  s.batch_seconds, s.speedup(),
                  i + 1 < measured.size() ? "," : "");
    out << buf;
  }
  section_close();

  section_open("gating", 0, false);
  for (std::size_t i = 0; i < gating.size(); ++i) {
    const auto& e = gating[i];
    std::snprintf(buf, sizeof buf,
                  "    {\"name\": \"%s\", \"dense_seconds\": %.6f, "
                  "\"sparse_seconds\": %.6f, \"speedup\": %.3f, "
                  "\"active_evals\": %llu, \"dense_evals\": %llu, "
                  "\"activity\": %.4f}%s\n",
                  e.name.c_str(), e.dense_seconds, e.sparse_seconds,
                  e.speedup(),
                  static_cast<unsigned long long>(e.active_evals),
                  static_cast<unsigned long long>(e.dense_evals),
                  e.activity(), i + 1 < gating.size() ? "," : "");
    out << buf;
  }
  section_close();

  const auto engine_entry = [&](const char* name, const EngineSample& s,
                                const char* trailer) {
    std::snprintf(buf, sizeof buf,
                  "    {\"name\": \"%s\", \"cycles\": %llu, "
                  "\"module_evals\": %llu, \"wall_seconds\": %.6f, "
                  "\"evals_per_sec\": %.0f, \"active_evals\": %llu, "
                  "\"dense_evals\": %llu, \"activity\": %.4f}%s\n",
                  name, static_cast<unsigned long long>(s.t.cycles),
                  static_cast<unsigned long long>(s.t.module_evals),
                  s.t.wall_seconds, s.t.evals_per_sec(),
                  static_cast<unsigned long long>(s.active_evals),
                  static_cast<unsigned long long>(s.dense_evals),
                  static_cast<double>(s.active_evals) /
                      static_cast<double>(s.dense_evals),
                  trailer);
    out << buf;
  };
  section_open("engine_throughput", 0, false);
  engine_entry("design1_modular_serial", eng_serial, ",");
  engine_entry("design1_modular_observed", eng_observed, "");
  section_close();

  section_open("compiled_throughput", 0, false);
  for (std::size_t i = 0; i < compiled.size(); ++i) {
    const auto& c = compiled[i];
    std::snprintf(buf, sizeof buf,
                  "    {\"name\": \"%s\", \"cycles\": %llu, "
                  "\"num_ops\": %llu, \"levels_executed\": %llu, "
                  "\"level_occupancy\": %.3f, \"provenance_modules\": %llu, "
                  "\"interpreted_seconds\": %.6f, "
                  "\"compiled_seconds\": %.6f, \"speedup\": %.3f, "
                  "\"compiled_ops_per_sec\": %.0f}%s\n",
                  c.name.c_str(), static_cast<unsigned long long>(c.cycles),
                  static_cast<unsigned long long>(c.num_ops),
                  static_cast<unsigned long long>(c.levels_executed),
                  c.level_occupancy,
                  static_cast<unsigned long long>(c.provenance_modules),
                  c.interpreted_seconds, c.compiled_seconds, c.speedup(),
                  c.ops_per_sec(), i + 1 < compiled.size() ? "," : "");
    out << buf;
  }
  section_close();

  section_open("compiled_batch_throughput", 0, false);
  for (std::size_t i = 0; i < cbatch.size(); ++i) {
    const auto& c = cbatch[i];
    std::snprintf(buf, sizeof buf,
                  "    {\"name\": \"%s\", \"num_ops\": %llu, "
                  "\"num_params\": %llu, \"single_seconds\": %.6f, "
                  "\"batch8_seconds\": %.6f, \"batch16_seconds\": %.6f, "
                  "\"per_instance_speedup_b8\": %.3f, "
                  "\"per_instance_speedup_b16\": %.3f, "
                  "\"rebound_instances\": %llu, "
                  "\"rebind_instances_per_sec\": %.0f}%s\n",
                  c.name.c_str(), static_cast<unsigned long long>(c.num_ops),
                  static_cast<unsigned long long>(c.num_params),
                  c.single_seconds, c.batch8_seconds, c.batch16_seconds,
                  c.speedup_b8(), c.speedup_b16(),
                  static_cast<unsigned long long>(c.rebound_instances),
                  c.rebind_instances_per_sec(),
                  i + 1 < cbatch.size() ? "," : "");
    out << buf;
  }
  section_close();

  // Baseline comparison: per-benchmark medians against a committed
  // BENCH_SIM.json; only benchmarks present in both documents compare.
  std::size_t regressed = 0;
  if (!baseline_path.empty()) {
    std::ifstream bl(baseline_path);
    if (!bl) {
      std::fprintf(stderr, "bench_all: cannot read baseline %s\n",
                   baseline_path.c_str());
      return 1;
    }
    const std::string text((std::istreambuf_iterator<char>(bl)),
                           std::istreambuf_iterator<char>());
    const auto old_metrics = comparable_metrics(text);
    std::ostringstream current_doc;
    {
      // The current metrics, in the same shape the scanner reads.
      std::ostringstream tmp;
      tmp << "  \"batch_sweeps\": [\n";
      for (const auto& [sweep, s] : measured) {
        std::snprintf(buf, sizeof buf,
                      "    {\"name\": \"%s\", \"serial_seconds\": %.6f, "
                      "\"batch_seconds\": %.6f},\n",
                      sweep.name, s.serial_seconds, s.batch_seconds);
        tmp << buf;
      }
      tmp << "  ],\n  \"engine_throughput\": [\n";
      std::snprintf(buf, sizeof buf,
                    "    {\"name\": \"design1_modular_serial\", "
                    "\"wall_seconds\": %.6f},\n"
                    "    {\"name\": \"design1_modular_observed\", "
                    "\"wall_seconds\": %.6f}\n  ],\n",
                    eng_serial.t.wall_seconds, eng_observed.t.wall_seconds);
      tmp << buf;
      tmp << "  \"compiled_throughput\": [\n";
      for (const auto& c : compiled) {
        std::snprintf(buf, sizeof buf,
                      "    {\"name\": \"%s\", \"compiled_seconds\": %.6f},\n",
                      c.name.c_str(), c.compiled_seconds);
        tmp << buf;
      }
      tmp << "  ],\n";
      tmp << "  \"compiled_batch_throughput\": [\n";
      for (const auto& c : cbatch) {
        std::snprintf(buf, sizeof buf,
                      "    {\"name\": \"%s\", \"batch8_seconds\": %.6f, "
                      "\"batch16_seconds\": %.6f},\n",
                      c.name.c_str(), c.batch8_seconds, c.batch16_seconds);
        tmp << buf;
      }
      tmp << "  ],\n";
      tmp << "  \"gating\": [\n";
      for (const auto& e : gating) {
        std::snprintf(buf, sizeof buf,
                      "    {\"name\": \"%s\", \"sparse_seconds\": %.6f},\n",
                      e.name.c_str(), e.sparse_seconds);
        tmp << buf;
      }
      tmp << "  ]\n";
      current_doc << tmp.str();
    }
    const auto new_metrics = comparable_metrics(current_doc.str());

    std::vector<Comparison> comps;
    for (const auto& nm : new_metrics) {
      for (const auto& om : old_metrics) {
        if (om.name == nm.name && om.seconds > 0.0) {
          const double tol = engine_gated(nm.name) ? engine_tolerance
                                                   : kRegressionTolerance;
          comps.push_back(Comparison{nm.name, om.seconds, nm.seconds, tol});
          break;
        }
      }
    }
    out << "  \"regressions\": {\n";
    out << "    \"baseline\": \"" << baseline_path << "\",\n";
    std::snprintf(buf, sizeof buf,
                  "    \"tolerance\": %.2f,\n    \"engine_tolerance\": %.2f,\n",
                  kRegressionTolerance, engine_tolerance);
    out << buf;
    out << "    \"compared\": " << comps.size() << ",\n";
    out << "    \"entries\": [\n";
    for (std::size_t i = 0; i < comps.size(); ++i) {
      const auto& c = comps[i];
      const bool bad = c.ratio() > 1.0 + c.tolerance;
      if (bad) ++regressed;
      std::snprintf(buf, sizeof buf,
                    "      {\"name\": \"%s\", \"baseline_seconds\": %.6f, "
                    "\"current_seconds\": %.6f, \"ratio\": %.3f, "
                    "\"tolerance\": %.2f, \"regressed\": %s}%s\n",
                    c.name.c_str(), c.baseline_seconds, c.current_seconds,
                    c.ratio(), c.tolerance, bad ? "true" : "false",
                    i + 1 < comps.size() ? "," : "");
      out << buf;
      std::printf("  baseline %-32s %8.3fms -> %8.3fms (%.2fx, tol %.0f%%)%s\n",
                  c.name.c_str(), c.baseline_seconds * 1e3,
                  c.current_seconds * 1e3, c.ratio(), c.tolerance * 100.0,
                  bad ? "  REGRESSED" : "");
    }
    out << "    ],\n";
    out << "    \"regressed\": " << regressed << "\n  },\n";
  } else {
    out << "  \"regressions\": null,\n";
  }

  // Raw google-benchmark report (--benchmark_format=json equivalent),
  // spliced in verbatim: it is already a JSON object.
  out << "  \"google_benchmark\": "
      << (gbench_json.str().empty() ? std::string("null") : gbench_json.str())
      << "\n";
  out << "}\n";
  out.flush();
  if (!out) {
    std::fprintf(stderr, "bench_all: write to %s failed\n", out_path.c_str());
    return 1;
  }
  std::printf("bench_all: wrote %s\n", out_path.c_str());

  // In-binary compiled gate (no baseline needed): the flat tape must beat
  // the interpreted dense serial run by kCompiledSpeedupFloor on at least
  // two families, or the lowering pipeline has stopped paying for itself.
  if (compiled_fast_families < 2) {
    std::fprintf(stderr,
                 "bench_all: compiled backend >= %.1fx interpreted on only "
                 "%zu/%zu families (need >= 2)\n",
                 kCompiledSpeedupFloor, compiled_fast_families,
                 compiled.size());
    return 2;
  }

  // Batched gate: replaying B = 8 lanes at once must deliver >= 2x the
  // per-instance throughput of the single-lane replay on at least two
  // families, or the lane-major layout has stopped vectorising.
  if (batch_fast_families < 2) {
    std::fprintf(stderr,
                 "bench_all: batched replay >= %.1fx per-instance at B=8 on "
                 "only %zu/%zu families (need >= 2)\n",
                 kBatchPerInstanceFloor, batch_fast_families, cbatch.size());
    return 2;
  }

  if (regressed > 0) {
    std::fprintf(stderr,
                 "bench_all: %zu benchmark(s) regressed beyond tolerance vs %s\n",
                 regressed, baseline_path.c_str());
    return 2;
  }
  return 0;
}
