// Level-granular replay hooks for the compiled executor.
//
// The compiled backend's analogue of sim::EngineObserver: an observer
// attached to a CompiledEngine, at any lane count, hears the replay at
// dependency-level granularity — one on_level per level, carrying the op
// span the level executed and the live slot image.  The contract is
// pay-for-use: a detached engine pays one `observers_.empty()` branch
// per step() or run() call (the Release bench gate holds the detached
// path to the telemetry layer's 2% tolerance), while an attached engine
// additionally visits *empty* levels, because provenance bind events
// (elided register copies) land on levels that execute no ops.
//
// Observers attach at cycle 0 only (reset() first), mirroring the
// interpreted engine's add_observer contract, and hear on_replay_begin
// once per replay: at attach and again on every reset().
#pragma once

#include <cstdint>

#include "compile/program.hpp"
#include "sim/module.hpp"

namespace sysdp::compile {

/// Activity accounting of one replay — the compiled counterpart of the
/// interpreted RunResult fields bench_all reports.  Every count is in
/// op-lane executions (ops × lanes), consistent with ops_executed.
struct ReplayResult {
  sim::Cycle cycles = 0;          ///< levels stepped (now())
  std::uint32_t lanes = 1;        ///< batch width B
  std::uint64_t ops_executed = 0;
  std::uint64_t levels_executed = 0;  ///< non-empty levels actually run
  std::uint64_t levels_skipped = 0;   ///< empty levels bypassed by run()
  std::uint64_t mac_ops = 0;
  std::uint64_t fold_ops = 0;
  std::uint64_t relax_ops = 0;

  /// Mean op-lane executions per executed level per lane — the tape-level
  /// occupancy figure the per-stage profiles in the GPU-pipeline DP
  /// literature report.
  [[nodiscard]] double level_occupancy() const noexcept {
    const double denom =
        static_cast<double>(levels_executed) * static_cast<double>(lanes);
    return denom > 0.0 ? static_cast<double>(ops_executed) / denom : 0.0;
  }
};

class ReplayObserver {
 public:
  ReplayObserver() = default;
  ReplayObserver(const ReplayObserver&) = default;
  ReplayObserver& operator=(const ReplayObserver&) = default;
  ReplayObserver(ReplayObserver&&) = default;
  ReplayObserver& operator=(ReplayObserver&&) = default;
  virtual ~ReplayObserver() = default;

  /// A replay starts: the engine sits at cycle 0 with the initial slot
  /// image loaded.  `slots` is the lane-major slot file, borrowed for the
  /// duration of the call.
  virtual void on_replay_begin(const CompiledNetlist& net, const Cost* slots,
                               std::uint32_t lanes) {
    (void)net;
    (void)slots;
    (void)lanes;
  }

  /// Dependency level `t` finished: ops [lo, hi) executed (lo == hi for an
  /// empty level) and the slot image reflects every write up to and
  /// including level t — the state the interpreted engine exposes at VCD
  /// time t+1.
  virtual void on_level(const CompiledNetlist& net, sim::Cycle t,
                        std::uint32_t lo, std::uint32_t hi, const Cost* slots,
                        std::uint32_t lanes) {
    (void)net;
    (void)t;
    (void)lo;
    (void)hi;
    (void)slots;
    (void)lanes;
  }

  /// The tape's last level has executed (fired by run_all and a clean
  /// run_all_checked; a replay abandoned mid-tape never ends).
  virtual void on_replay_end(const CompiledNetlist& net) { (void)net; }
};

}  // namespace sysdp::compile
