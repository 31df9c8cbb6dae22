// Design 3 built from discrete hardware modules on the simulation engine.
//
// The structural counterpart of Design3Feedback, wired exactly as
// Figure 5 draws the array:
//
//    host ──> PE_0 ──> PE_1 ──> ... ──> PE_{m-1} ──┐
//      ^        ^K/H     ^K/H             ^K/H     │ completed (x, h)
//      └──────── FeedbackController <───────────────┘
//                 (single bus, round-robin station select)
//
// Each PE owns its R pipeline register, K/H feedback registers, and the
// F/A/C datapath; the controller owns the one-cycle feedback delay and the
// circulating-token station selector; P_{m-1} additionally owns the path
// registers.  Tests assert cycle-exact equivalence (cost, path, timing,
// busy work) with the monolithic model on randomized sweeps — the same
// modelling-style ablation as Design2Modular, for the hardest design.
#pragma once

#include <memory>
#include <vector>

#include "arrays/design3_feedback.hpp"
#include "graph/node_value_graph.hpp"
#include "sim/engine.hpp"
#include "sim/port.hpp"
#include "sim/stats.hpp"

namespace sysdp {

class Design3Modular {
 public:
  explicit Design3Modular(const NodeValueGraph& graph);
  ~Design3Modular();

  Design3Modular(const Design3Modular&) = delete;
  Design3Modular& operator=(const Design3Modular&) = delete;

  /// Run to completion.  The feedback controller is the only combinational
  /// driver.  With Gating::kSparse (default) stations sleep through
  /// pipeline fill and drain; wakeup edges along the R pipeline and the
  /// feedback path (controller -> P_0, P_{p-1} -> P_p, tail and its
  /// predecessor -> controller, tail -> every station for the round-robin
  /// K/H delivery) keep the gated run bit-identical.
  [[nodiscard]] Design3Result run(sim::Gating gating = sim::Gating::kSparse);

  /// Run on a caller-constructed engine, so telemetry observers (VCD,
  /// timelines — sim/observer.hpp) can attach before time starts.  The
  /// engine must be fresh: no modules added, no cycles stepped; throws
  /// std::invalid_argument otherwise.
  [[nodiscard]] Design3Result run(sim::Engine& engine);

  /// Number of PEs (valid from construction, before elaborate()).
  [[nodiscard]] std::size_t num_pes() const noexcept { return m_; }
  /// Cumulative busy cycles of PE `pe` — the monotone counter utilisation
  /// timelines sample per cycle.
  [[nodiscard]] std::uint64_t pe_busy(std::size_t pe) const {
    return stats_.busy_cycles(pe);
  }

  /// Build the arena, modules, and wakeup wiring into `engine` without
  /// running a cycle (run() uses this; the lint CLI captures the netlist).
  void elaborate(sim::Engine& engine);

  /// Testbench-side taps for analysis::capture: the run loop harvests the
  /// collector token and the predecessor table after the final cycle.
  void describe_environment(sim::PortSet& ports) const;

 private:
  class Controller;
  class Pe;
  struct Arena;

  const NodeValueGraph& graph_;
  std::size_t m_;
  std::size_t n_stages_;
  sim::ActivityStats stats_;
  std::unique_ptr<Arena> arena_;
  std::unique_ptr<Controller> controller_;
  std::vector<std::unique_ptr<Pe>> pes_;
};

}  // namespace sysdp
