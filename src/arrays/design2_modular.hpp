// Design 2 built from discrete hardware modules on the simulation engine.
//
// The monolithic Design2Broadcast model steps all PEs inside one object;
// this variant is the same Figure 4 architecture expressed structurally —
// one Module per hardware block, connected exactly as the figure draws
// them:
//
//   FeedbackUnit ──(broadcast Bus)──> PE_0 ... PE_{m-1}
//        ^                              │ S registers
//        └──────────────────────────────┘
//
// The FeedbackUnit drives the bus each cycle with either the external
// vector element (FIRST = 1) or the fed-back S register contents; each PE
// folds M(p, j) (x) bus into its accumulator and latches it into S on MOVE.
// Engine ordering (bus driver first, listeners after) gives the
// combinational broadcast semantics of the figure; registers give the
// clocked state.  Tests assert cycle-exact equivalence with the monolithic
// model — an ablation of modelling style, not of architecture.
#pragma once

#include <memory>
#include <vector>

#include "arrays/run_result.hpp"
#include "semiring/closed_semiring.hpp"
#include "semiring/matrix.hpp"
#include "sim/bus.hpp"
#include "sim/engine.hpp"
#include "sim/module.hpp"
#include "sim/port.hpp"
#include "sim/register.hpp"
#include "sim/stats.hpp"

namespace sysdp {

class Design2Modular {
 public:
  using V = MinPlus::value_type;

  /// Same shape contract as Design2Broadcast.
  Design2Modular(std::vector<Matrix<V>> mats, std::vector<V> v);
  ~Design2Modular();

  Design2Modular(const Design2Modular&) = delete;
  Design2Modular& operator=(const Design2Modular&) = delete;

  /// Run to completion.  The FeedbackUnit is the bus driver.  Design 2
  /// keeps every PE busy almost every cycle (that is its selling point in
  /// the paper), so activity gating only retires PEs beyond the
  /// rectangular final matrix's rows during the last multiply.
  [[nodiscard]] RunResult<V> run(sim::Gating gating = sim::Gating::kSparse);

  /// Run on a caller-constructed engine, so telemetry observers (VCD,
  /// timelines — sim/observer.hpp) can attach before time starts.  The
  /// engine must be fresh: no modules added, no cycles stepped; throws
  /// std::invalid_argument otherwise.
  [[nodiscard]] RunResult<V> run(sim::Engine& engine);

  /// Number of PEs (valid from construction, before elaborate()).
  [[nodiscard]] std::size_t num_pes() const noexcept { return m_; }
  /// Cumulative busy cycles of PE `pe` — the monotone counter utilisation
  /// timelines sample per cycle.
  [[nodiscard]] std::uint64_t pe_busy(std::size_t pe) const {
    return stats_.busy_cycles(pe);
  }

  /// Build the arena, modules, and bus wiring into `engine` without
  /// running a cycle (run() uses this; the lint CLI captures the netlist).
  void elaborate(sim::Engine& engine);

  /// Testbench-side taps for analysis::capture: the run loop harvests the
  /// S registers of the first final-matrix-rows PEs.
  void describe_environment(sim::PortSet& ports) const;

 private:
  class FeedbackUnit;
  class Pe;
  struct Arena;

  std::vector<Matrix<V>> mats_;
  std::vector<V> v_;
  std::size_t m_;
  sim::ActivityStats stats_;

  sim::Bus<V> bus_;
  std::unique_ptr<Arena> arena_;
  std::unique_ptr<FeedbackUnit> feedback_;
  std::vector<std::unique_ptr<Pe>> pes_;
};

}  // namespace sysdp
