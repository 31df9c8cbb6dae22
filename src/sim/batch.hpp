// Batched sweep runner: many independent simulations across one pool.
//
// Every bench sweep (N-sweeps, K-sweeps, design ablations) runs a set of
// simulations that share nothing — each job builds its own array model,
// engine and stats — so they are embarrassingly parallel.  This is the only
// place host threads enter the simulator: each job still runs on one
// thread, and the pool spreads whole jobs across lanes.  BatchRunner keeps
// the sweep code shaped exactly like the serial loop it replaces: jobs are
// indexed 0..n-1, results come back in index order, and a pool with zero
// workers (or a null pool) degenerates to the serial loop, so thread-count
// sweeps including 1 need no special casing.
//
// Determinism: jobs must not share mutable state (each sweep point owns
// its instance); under that contract the result vector is bit-identical to
// the serial loop regardless of scheduling, which the batch tests assert
// for Designs 1-3, the GKT array and the triangular family.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "sim/stats.hpp"
#include "sim/thread_pool.hpp"

namespace sysdp::sim {

class BatchRunner {
 public:
  /// `pool == nullptr` means run every job inline on the caller.
  explicit BatchRunner(ThreadPool* pool) : pool_(pool) {}

  [[nodiscard]] std::size_t lanes() const noexcept {
    return pool_ != nullptr ? pool_->num_lanes() : 1;
  }

  /// Run `make(i)` for i in [0, n); returns results in index order.
  template <typename Fn>
  auto run(std::size_t n, Fn&& make)
      -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
    using R = std::invoke_result_t<Fn&, std::size_t>;
    std::vector<std::optional<R>> slots(n);
    auto body = [&](std::size_t i) { slots[i].emplace(make(i)); };
    if (pool_ != nullptr) {
      // Dynamic claiming, one job per claim: sweep points differ wildly in
      // cost (a 96-PE design next to a 4-PE one), so a static per-lane
      // split would serialise slow jobs behind each other.  Which lane
      // runs which job is scheduling-dependent; results stay bit-identical
      // because slots are addressed by index.
      pool_->parallel_for_dynamic(n, body, 1);
    } else {
      for (std::size_t i = 0; i < n; ++i) body(i);
    }
    std::vector<R> out;
    out.reserve(n);
    for (auto& s : slots) out.push_back(std::move(*s));
    return out;
  }

  /// Run `chunk(first, count)` over ⌈n/width⌉ contiguous chunks of
  /// [0, n) — every chunk is `width` jobs except a possibly-short tail —
  /// and return the chunk results in chunk-index order.  This is the lane
  /// path for SIMD-batched executors (compile::BatchedCompiledEngine):
  /// each chunk becomes one batched replay of `count` lanes on one pool
  /// lane, so pool parallelism multiplies with in-chunk vectorisation
  /// instead of competing with it.
  template <typename Fn>
  auto run_chunks(std::size_t n, std::size_t width, Fn&& chunk)
      -> std::vector<std::invoke_result_t<Fn&, std::size_t, std::size_t>> {
    const std::size_t w = width == 0 ? 1 : width;
    const std::size_t chunks = (n + w - 1) / w;
    return run(chunks, [&](std::size_t c) {
      const std::size_t first = c * w;
      return chunk(first, std::min(w, n - first));
    });
  }

 private:
  ThreadPool* pool_;
};

/// Time one sweep twice — serial loop, then batched across `pool` — and
/// report the measured speedup.  Results of the batched run are returned
/// through `out` (if non-null) so callers can cross-check bit-identity
/// with the serial pass.
template <typename Fn>
[[nodiscard]] BatchSpeedup measure_batch_speedup(
    ThreadPool& pool, std::size_t jobs, Fn&& make,
    std::vector<std::invoke_result_t<Fn&, std::size_t>>* out = nullptr) {
  using R = std::invoke_result_t<Fn&, std::size_t>;
  BatchSpeedup s;
  s.jobs = jobs;
  s.lanes = pool.num_lanes();

  BatchRunner serial(nullptr);
  WallTimer t1;
  std::vector<R> base = serial.run(jobs, make);
  s.serial_seconds = t1.seconds();

  BatchRunner batched(&pool);
  WallTimer t2;
  std::vector<R> par = batched.run(jobs, make);
  s.batch_seconds = t2.seconds();

  if (out != nullptr) *out = std::move(par);
  (void)base;
  return s;
}

}  // namespace sysdp::sim
