// Determinism of job-level parallelism and of the telemetry documents.
//
// One simulation always runs on one thread; host threads enter only
// through sim::BatchRunner, which fans whole independent runs across a
// pool.  A sweep fanned across the pool must return exactly the results of
// the serial loop, in index order, for every thread count (including a
// pool with zero workers, the degenerate serial case).  The telemetry
// documents must likewise be byte-identical across the dense and sparse
// engine modes.
#include <gtest/gtest.h>

#include <cstddef>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "arrays/design1_modular.hpp"
#include "arrays/design2_modular.hpp"
#include "arrays/design3_modular.hpp"
#include "arrays/gkt_modular.hpp"
#include "arrays/triangular_array.hpp"
#include "graph/generators.hpp"
#include "obs/timeline.hpp"
#include "obs/vcd.hpp"
#include "sim/batch.hpp"
#include "sim/thread_pool.hpp"

namespace sysdp {
namespace {

// Worker counts to sweep: 0 = no workers (inline), 1 = single worker
// thread, then a few genuinely concurrent shapes.
const std::size_t kWorkerCounts[] = {0, 1, 2, 3, 7};

const sim::Gating kGatings[] = {sim::Gating::kDense, sim::Gating::kSparse};

struct Instance {
  std::vector<Matrix<Cost>> mats;
  std::vector<Cost> v;
};

Instance string_instance(std::size_t q, std::size_t m, std::uint64_t seed) {
  Rng rng(seed);
  Instance ins;
  ins.mats = random_matrix_string(q, m, rng);
  ins.v.resize(m);
  std::uniform_int_distribution<Cost> dist(0, 99);
  for (auto& x : ins.v) x = dist(rng);
  return ins;
}

/// Run jobs [0, n) in the serial loop, then across a pool of every size in
/// kWorkerCounts; `check(serial, batched)` compares one job's two results.
template <typename Make, typename Check>
void expect_sweep_matches_serial(std::size_t n, const Make& make,
                                 const Check& check) {
  sim::BatchRunner serial(nullptr);
  const auto base = serial.run(n, make);
  for (const std::size_t workers : kWorkerCounts) {
    sim::ThreadPool pool(workers);
    sim::BatchRunner batched(&pool);
    const auto par = batched.run(n, make);
    ASSERT_EQ(par.size(), base.size());
    for (std::size_t i = 0; i < n; ++i) {
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " job=" + std::to_string(i));
      check(base[i], par[i]);
    }
  }
}

template <typename V>
void expect_identical(const RunResult<V>& serial, const RunResult<V>& par) {
  EXPECT_EQ(serial.values, par.values);
  EXPECT_EQ(serial.cycles, par.cycles);
  EXPECT_EQ(serial.busy_steps, par.busy_steps);
  EXPECT_EQ(serial.num_pes, par.num_pes);
  EXPECT_EQ(serial.input_scalars, par.input_scalars);
  EXPECT_DOUBLE_EQ(serial.utilization_wall(), par.utilization_wall());
}

// The engine-backed arrays as batch jobs, one (instance, gating) run per
// job — the shape of the bench sweeps.  Job i runs instance i / 2 under
// kGatings[i % 2].
TEST(ParallelDeterminism, Design1BitIdenticalAcrossThreadCounts) {
  std::vector<Instance> ins;
  for (const auto& [q, m] : {std::pair<std::size_t, std::size_t>{2, 4},
                             {3, 8}, {4, 16}, {5, 32}}) {
    ins.push_back(string_instance(q, m, q * 1000 + m));
  }
  expect_sweep_matches_serial(
      2 * ins.size(),
      [&](std::size_t i) {
        return Design1Modular(ins[i / 2].mats, ins[i / 2].v)
            .run(kGatings[i % 2]);
      },
      [](const auto& serial, const auto& par) {
        expect_identical(serial, par);
      });
}

TEST(ParallelDeterminism, Design2BitIdenticalAcrossThreadCounts) {
  std::vector<Instance> ins;
  for (const auto& [q, m] : {std::pair<std::size_t, std::size_t>{2, 4},
                             {3, 8}, {4, 16}, {6, 24}}) {
    ins.push_back(string_instance(q, m, q * 2000 + m));
  }
  expect_sweep_matches_serial(
      2 * ins.size(),
      [&](std::size_t i) {
        return Design2Modular(ins[i / 2].mats, ins[i / 2].v)
            .run(kGatings[i % 2]);
      },
      [](const auto& serial, const auto& par) {
        expect_identical(serial, par);
      });
}

TEST(ParallelDeterminism, Design3BitIdenticalAcrossThreadCounts) {
  std::vector<NodeValueGraph> ins;
  for (const auto& [n, m] : {std::pair<std::size_t, std::size_t>{4, 4},
                             {8, 8}, {12, 16}, {16, 24}}) {
    Rng rng(n * 31 + m);
    ins.push_back(traffic_control_instance(n, m, rng));
  }
  expect_sweep_matches_serial(
      2 * ins.size(),
      [&](std::size_t i) {
        return Design3Modular(ins[i / 2]).run(kGatings[i % 2]);
      },
      [](const Design3Result& serial, const Design3Result& par) {
        EXPECT_EQ(serial.cost, par.cost);
        EXPECT_EQ(serial.path, par.path);
        expect_identical(serial.stats, par.stats);
      });
}

TEST(ParallelDeterminism, GktModularBitIdenticalAcrossThreadCounts) {
  std::vector<std::vector<Cost>> dims;
  for (const std::size_t n : {3u, 8u, 16u, 24u}) {
    Rng rng(300 + n);
    dims.push_back(random_chain_dims(n, rng));
  }
  expect_sweep_matches_serial(
      2 * dims.size(),
      [&](std::size_t i) {
        return GktModularArray(dims[i / 2]).run(kGatings[i % 2]);
      },
      [](const GktModularArray::Result& serial,
         const GktModularArray::Result& par) {
        EXPECT_EQ(serial.total(), par.total());
        EXPECT_EQ(serial.completion(), par.completion());
        EXPECT_EQ(serial.stats.cycles, par.stats.cycles);
        EXPECT_EQ(serial.stats.busy_steps, par.stats.busy_steps);
        EXPECT_EQ(serial.peak_operand_buffer, par.peak_operand_buffer);
      });
}

// The determinism contract extends to the telemetry documents: probes read
// committed state on cycle boundaries, so the VCD dump and the utilisation
// timeline must be *byte-identical* across every engine mode, not merely
// the scalar results.  One divergent waveform byte means an observer saw
// mid-cycle or gating-dependent state.
struct TelemetryDoc {
  std::string vcd;
  std::string timeline;
};

template <typename Array>
TelemetryDoc capture_telemetry(Array& arr, sim::Gating gating) {
  sim::Engine engine(gating);
  obs::VcdSink vcd;
  obs::TimelineSink timeline(
      arr.num_pes(), [&arr](std::size_t pe) { return arr.pe_busy(pe); });
  engine.add_observer(&vcd);
  engine.add_observer(&timeline);
  (void)arr.run(engine);
  timeline.finalize();
  return TelemetryDoc{vcd.str(), timeline.to_json()};
}

TEST(ParallelDeterminism, Design1TelemetryBitIdenticalAcrossModes) {
  const auto ins = string_instance(3, 8, 3008);
  Design1Modular ref_arr(ins.mats, ins.v);
  const auto ref = capture_telemetry(ref_arr, sim::Gating::kDense);
  ASSERT_FALSE(ref.vcd.empty());
  for (const sim::Gating gating : kGatings) {
    Design1Modular arr(ins.mats, ins.v);
    const auto doc = capture_telemetry(arr, gating);
    SCOPED_TRACE("sparse=" + std::to_string(gating == sim::Gating::kSparse));
    EXPECT_EQ(ref.vcd, doc.vcd);
    EXPECT_EQ(ref.timeline, doc.timeline);
  }
}

TEST(ParallelDeterminism, GktModularTelemetryBitIdenticalAcrossModes) {
  Rng rng(308);
  const auto dims = random_chain_dims(8, rng);
  GktModularArray ref_arr(dims);
  const auto ref = capture_telemetry(ref_arr, sim::Gating::kDense);
  ASSERT_FALSE(ref.vcd.empty());
  for (const sim::Gating gating : kGatings) {
    GktModularArray arr(dims);
    const auto doc = capture_telemetry(arr, gating);
    SCOPED_TRACE("sparse=" + std::to_string(gating == sim::Gating::kSparse));
    EXPECT_EQ(ref.vcd, doc.vcd);
    EXPECT_EQ(ref.timeline, doc.timeline);
  }
}

// The closed-form GKT and triangular models (no engine) as batch jobs.
TEST(ParallelDeterminism, GktBatchSweepMatchesSerialLoop) {
  const std::size_t sizes[] = {4, 8, 12, 16, 24, 32, 40, 48};
  expect_sweep_matches_serial(
      std::size(sizes),
      [&](std::size_t i) {
        Rng rng(100 + i);
        return run_chain_array(random_chain_dims(sizes[i], rng));
      },
      [](const auto& serial, const auto& par) {
        EXPECT_EQ(serial.total(), par.total());
        EXPECT_EQ(serial.completion(), par.completion());
        EXPECT_EQ(serial.stats.busy_steps, par.stats.busy_steps);
        EXPECT_DOUBLE_EQ(serial.stats.utilization_wall(),
                         par.stats.utilization_wall());
      });
}

TEST(ParallelDeterminism, TriangularBstBatchSweepMatchesSerialLoop) {
  const std::size_t sizes[] = {4, 8, 16, 24, 32, 48};
  expect_sweep_matches_serial(
      std::size(sizes),
      [&](std::size_t i) {
        Rng rng(7 * (i + 1));
        std::uniform_int_distribution<Cost> freq(1, 40);
        std::vector<Cost> f(sizes[i]);
        for (auto& x : f) x = freq(rng);
        return run_bst_array(f);
      },
      [](const auto& serial, const auto& par) {
        EXPECT_EQ(serial.total(), par.total());
        EXPECT_EQ(serial.completion(), par.completion());
        EXPECT_EQ(serial.stats.busy_steps, par.stats.busy_steps);
      });
}

}  // namespace
}  // namespace sysdp
