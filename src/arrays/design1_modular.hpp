// Design 1 built from discrete hardware modules with *distributed* control.
//
// The monolithic Design1Pipeline derives each PE's phase from the global
// cycle counter; real systolic arrays have no such global view.  Here every
// PE runs its own iteration counter that starts when the first valid token
// reaches it — which happens exactly one cycle after its left neighbour
// started, reproducing Figure 3's "one-cycle delay between switching the
// control signals in P_{i+1} and P_i" from purely local information.  The
// ODD/MOVE decisions are then local functions of that counter.
//
// Hot PE state (the R and ACC token rails plus the control counters) lives
// in one contiguous per-array arena, struct-of-arrays by token field, so
// the engine's active-set sweep is cache-linear; the Pe modules are thin
// views indexing into it.  The array declares quiescence (a PE that has
// not started, or has drained, is skippable) and wakeup edges along the
// register dataflow (host -> P_0, P_{p-1} -> P_p, tail -> P_0), so an
// activity-gated engine skips idle PEs during pipeline fill and drain
// while staying bit-identical to the dense sweep.
//
// Tests assert cycle-exact equivalence with the monolithic model, which
// demonstrates that the paper's skewed control scheme needs no global
// wiring.
#pragma once

#include <memory>
#include <vector>

#include "arrays/run_result.hpp"
#include "semiring/closed_semiring.hpp"
#include "semiring/matrix.hpp"
#include "sim/engine.hpp"
#include "sim/port.hpp"
#include "sim/record.hpp"
#include "sim/stats.hpp"

namespace sysdp {

class Design1Modular {
 public:
  using V = MinPlus::value_type;

  /// Same shape contract as Design1Pipeline (square m x m matrices applied
  /// right to left; rectangular leftmost allowed).
  Design1Modular(std::vector<Matrix<V>> mats, std::vector<V> v);
  ~Design1Modular();

  Design1Modular(const Design1Modular&) = delete;
  Design1Modular& operator=(const Design1Modular&) = delete;

  /// Run to completion.  With Gating::kSparse (the default) idle PEs are
  /// skipped entirely; results are bit-identical to the dense run (the
  /// host input feed is the only combinational driver).
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

  /// Build the arena, modules, and wakeup wiring into `engine` without
  /// running a cycle.  run() uses this internally; the lint CLI and the
  /// analysis tests call it directly and capture the netlist.
  void elaborate(sim::Engine& engine);

  /// Testbench-side taps for analysis::capture: the run loop harvests the
  /// result values straight out of the ACC rail after the final cycles.
  void describe_environment(sim::PortSet& ports) const;

  /// What a narrated run records, from the matrix shapes: one MAC per
  /// entry of every matrix, m times the summed row counts ((N-2)m^2 + m
  /// for an N-stage graph, E1), and one lane per R and ACC register plus
  /// the host's input bus.
  [[nodiscard]] sim::NarrationExtent narration_extent() const;

 private:
  class Host;
  class Pe;
  struct Arena;

  std::vector<Matrix<V>> mats_;
  std::vector<V> v_;
  std::size_t m_;
  sim::ActivityStats stats_;
  std::unique_ptr<Arena> arena_;
  std::unique_ptr<Host> host_;
  std::vector<std::unique_ptr<Pe>> pes_;
};

}  // namespace sysdp
