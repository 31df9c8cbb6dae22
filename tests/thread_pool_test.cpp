// ThreadPool unit tests: the degenerate zero-worker pool, dynamic index
// claiming, exception propagation through submit(), and one pool shared
// by several callers at once, each fanning whole engine runs across it
// (the sharing pattern BatchRunner and the bench harness rely on).
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <thread>
#include <vector>

#include "arrays/design1_modular.hpp"
#include "arrays/graph_adapter.hpp"
#include "graph/generators.hpp"
#include "sim/batch.hpp"
#include "sim/thread_pool.hpp"

namespace sysdp {
namespace {

TEST(ThreadPool, ZeroWorkersRunsInlineAndCoversEveryIndex) {
  sim::ThreadPool pool(0);
  EXPECT_EQ(pool.num_workers(), 0u);
  EXPECT_EQ(pool.num_lanes(), 1u);

  // parallel_for_dynamic must degenerate to a plain loop on the caller:
  // every index exactly once, in order (inline execution has no other
  // choice).
  std::vector<std::size_t> order;
  pool.parallel_for_dynamic(17, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 17u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);

  // submit runs inline too; the future is already satisfied on return.
  const std::thread::id caller = std::this_thread::get_id();
  auto fut = pool.submit([caller] {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    return 42;
  });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, DynamicParallelForCoversEveryIndexExactlyOnce) {
  // Dynamic claiming's one contract — each index runs exactly once — must
  // hold for every grain, including the heuristic grain 0, a grain of 1
  // (BatchRunner's choice), a grain that doesn't divide n, and one larger
  // than n.
  for (const std::size_t workers : {0u, 1u, 3u, 7u}) {
    sim::ThreadPool pool(workers);
    for (const std::size_t grain : {0u, 1u, 7u, 1000u}) {
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " grain=" + std::to_string(grain));
      std::vector<std::atomic<int>> hits(237);
      pool.parallel_for_dynamic(
          hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); }, grain);
      for (std::size_t i = 0; i < hits.size(); ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
      }
    }
    // n == 0 is a no-op, not a hang.
    pool.parallel_for_dynamic(0, [](std::size_t) { FAIL(); });
  }
}

TEST(ThreadPool, DynamicParallelForBalancesSkewedWork) {
  // The motivating case: one job much slower than the rest.  With dynamic
  // grain-1 claiming, no lane can get stuck with the slow job *plus* a
  // static share of fast ones, so results written by index stay correct
  // and all indices complete even under heavy skew.
  sim::ThreadPool pool(3);
  constexpr std::size_t kJobs = 64;
  std::vector<std::uint64_t> out(kJobs, 0);
  pool.parallel_for_dynamic(
      kJobs,
      [&](std::size_t i) {
        // Job 0 is ~kJobs times the work of the others.
        const std::uint64_t rounds = (i == 0) ? 400000 : 6000;
        std::uint64_t acc = i;
        for (std::uint64_t r = 0; r < rounds; ++r) {
          acc = acc * 6364136223846793005ULL + 1442695040888963407ULL;
        }
        out[i] = acc;
      },
      1);
  for (std::size_t i = 0; i < kJobs; ++i) {
    // Recompute serially: index-addressed slots must hold that index's
    // result no matter which lane claimed it.
    const std::uint64_t rounds = (i == 0) ? 400000 : 6000;
    std::uint64_t acc = i;
    for (std::uint64_t r = 0; r < rounds; ++r) {
      acc = acc * 6364136223846793005ULL + 1442695040888963407ULL;
    }
    EXPECT_EQ(out[i], acc) << "job " << i;
  }
}

TEST(ThreadPool, SubmitPropagatesExceptionsThroughTheFuture) {
  for (const std::size_t workers : {0u, 2u}) {
    sim::ThreadPool pool(workers);
    auto fut = pool.submit([]() -> int {
      throw std::runtime_error("task failed");
    });
    EXPECT_THROW((void)fut.get(), std::runtime_error);
    // The pool must survive a throwing task: later work still runs.
    auto ok = pool.submit([] { return 7; });
    EXPECT_EQ(ok.get(), 7);
  }
}

TEST(ThreadPool, OnePoolServesSeveralEnginesConcurrently) {
  // Several callers share one pool from different threads at once, each
  // fanning whole engine-backed simulations across it as batch jobs.
  // Each caller's parallel_for_dynamic has its own join state, so the
  // runs must neither deadlock nor perturb each other's results: every
  // concurrent run is bit-identical to its serial twin.
  Rng rng(77);
  const auto g = with_single_source_sink(random_multistage(7, 24, rng));
  auto prob = to_string_product(g);
  Design1Modular ref_arr(prob.mats, prob.v);
  const auto ref = ref_arr.run();

  sim::ThreadPool pool(3);
  sim::BatchRunner runner(&pool);
  constexpr std::size_t kCallers = 4;
  constexpr std::size_t kJobs = 3;
  std::vector<std::vector<RunResult<Cost>>> results(kCallers);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      results[c] = runner.run(kJobs, [&](std::size_t) {
        Design1Modular arr(prob.mats, prob.v);
        return arr.run();
      });
    });
  }
  for (auto& t : callers) t.join();
  for (std::size_t c = 0; c < kCallers; ++c) {
    ASSERT_EQ(results[c].size(), kJobs);
    for (const auto& r : results[c]) {
      EXPECT_EQ(r.values, ref.values) << "caller " << c;
      EXPECT_EQ(r.cycles, ref.cycles) << "caller " << c;
      EXPECT_EQ(r.busy_steps, ref.busy_steps) << "caller " << c;
    }
  }
}

}  // namespace
}  // namespace sysdp
