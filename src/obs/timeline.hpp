// Per-PE utilisation timelines: eq. (9) observable over time.
//
// ActivityStats answers "what fraction of PE-cycles did useful work" as a
// single end-of-run number.  TimelineSink buckets the same busy counters
// over cycles, so fill and drain transients — the phenomena behind the
// paper's PU formulas and behind the sparse-gating win — become visible as
// a heatmap instead of being averaged away.  By construction the sum of
// all buckets equals the end-of-run total, so the timeline *aggregates* to
// ActivityStats.utilization(); sysdp_trace asserts that equality on every
// run.
//
// The sink is array-agnostic: it samples an arbitrary per-PE cumulative
// busy counter through a closure (ActivityStats::busy_cycles for Designs
// 1–3, arena cell meta for GKT/triangular), taking a baseline at
// elaboration and recording per-bucket deltas after each cycle.  Because
// it reads committed monotone counters on cycle boundaries, its output is
// bit-identical across dense/sparse engine modes whenever the underlying
// run is.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/module.hpp"
#include "sim/observer.hpp"

namespace sysdp::obs {

class TimelineSink final : public sim::EngineObserver {
 public:
  /// Cumulative busy-cycle count of PE `pe` so far (monotone over a run).
  using BusyFn = std::function<std::uint64_t(std::size_t)>;

  /// Buckets of `bucket_cycles` cycles each; 1 gives a per-cycle timeline.
  TimelineSink(std::size_t num_pes, BusyFn busy, sim::Cycle bucket_cycles = 1);

  void on_elaborated(const sim::Engine& engine) override;
  void on_cycle(const sim::Engine& engine, sim::Cycle t) override;

  /// Engine-free driving surface (the observer overrides delegate here):
  /// the compiled-replay adapters (obs/replay.hpp) maintain their own busy
  /// counters from tape provenance and have no sim::Engine to pass.
  /// begin() re-baselines the counters; advance() records one cycle.
  void begin();
  void advance();

  /// Close the final (possibly partial) bucket.  Idempotent; str()-style
  /// accessors call it implicitly via the const overloads' contract that
  /// the run has ended.
  void finalize();

  [[nodiscard]] std::size_t num_pes() const noexcept { return prev_.size(); }
  [[nodiscard]] sim::Cycle bucket_cycles() const noexcept { return bucket_; }
  [[nodiscard]] sim::Cycle cycles() const noexcept { return cycles_; }
  [[nodiscard]] std::size_t num_buckets() const noexcept {
    return per_pe_.empty() ? 0 : per_pe_.front().size();
  }
  /// Busy-cycle deltas, [pe][bucket].
  [[nodiscard]] const std::vector<std::vector<std::uint64_t>>& per_pe()
      const noexcept {
    return per_pe_;
  }
  /// Sum of every bucket of every PE == busy steps observed over the run.
  [[nodiscard]] std::uint64_t aggregate_busy() const noexcept {
    return aggregate_;
  }
  /// aggregate / (cycles * num_pes): must equal ActivityStats::utilization
  /// over the same run.
  [[nodiscard]] double utilization() const noexcept;

  /// JSON object: {"bucket_cycles": B, "cycles": C, "num_pes": P,
  /// "aggregate_busy": A, "per_pe": [[...], ...]}.
  [[nodiscard]] std::string to_json() const;

 private:
  void close_bucket();

  BusyFn busy_;
  sim::Cycle bucket_;
  sim::Cycle cycles_ = 0;           ///< cycles observed
  sim::Cycle in_bucket_ = 0;        ///< cycles in the currently open bucket
  std::uint64_t aggregate_ = 0;
  std::vector<std::uint64_t> prev_;  ///< per-PE counter at last bucket close
  std::vector<std::vector<std::uint64_t>> per_pe_;  ///< [pe][bucket] deltas
};

}  // namespace sysdp::obs
