// GKT triangular array built from discrete cell modules on the simulation
// engine.
//
// The structural counterpart of GktRtlArray: every upper-triangle cell
// (i, j) is one sim::Module owning the row/column link registers at its
// position; values hop one register per cycle along the row (rightward)
// and column (upward) streams, and a cell folds up to two ready candidates
// per cycle, exactly as the monolithic RTL loop does.  Tests assert
// cycle-exact equivalence (costs, completion cycles, busy work, operand
// buffer peak) with GktRtlArray.
//
// The point of the exercise is activity gating: a 2-D DP array is the
// paper's worst case for processor utilisation — cell (i, j) works only
// while operands ripple past it, so across a whole run only ~1/6 of all
// cell-cycles do anything.  GktRtlArray pays for every cell every cycle;
// here each cell reports quiescent() whenever its links are empty and no
// candidate is queued, wakeup edges follow the two incoming streams
// ((i, j-1) row-wise, (i+1, j) column-wise — launches travel the same
// arcs), and the gated engine skips the idle triangle.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "arrays/run_result.hpp"
#include "semiring/cost.hpp"
#include "semiring/matrix.hpp"
#include "sim/engine.hpp"
#include "sim/port.hpp"
#include "sim/record.hpp"

namespace sysdp {

class GktModularArray {
 public:
  explicit GktModularArray(std::vector<Cost> dims);
  ~GktModularArray();

  GktModularArray(const GktModularArray&) = delete;
  GktModularArray& operator=(const GktModularArray&) = delete;

  /// Same shape as GktRtlArray::Result so differential tests compare
  /// field-for-field.
  struct Result {
    Matrix<Cost> cost;
    Matrix<sim::Cycle> done;
    RunResult<Cost> stats;
    std::uint64_t peak_operand_buffer = 0;

    [[nodiscard]] Cost total() const { return cost(0, cost.cols() - 1); }
    [[nodiscard]] sim::Cycle completion() const {
      return done(0, done.cols() - 1);
    }
  };

  /// Simulate to completion.  With Gating::kSparse (default) idle cells
  /// sleep and the run is still bit-identical to the dense one, because a
  /// quiescent cell's eval is an observational no-op and both reactivating
  /// streams are covered by wakeup edges.  Throws std::logic_error if two
  /// values ever contend for one link register.
  [[nodiscard]] Result run(sim::Gating gating = sim::Gating::kSparse);

  /// Run on a caller-constructed engine, so telemetry observers (VCD,
  /// timelines — sim/observer.hpp) can attach before time starts.  The
  /// engine must be fresh: no modules added, no cycles stepped; throws
  /// std::invalid_argument otherwise.
  [[nodiscard]] Result run(sim::Engine& engine);

  /// Number of cells n(n+1)/2 (valid from construction, before
  /// elaborate()).
  [[nodiscard]] std::size_t num_pes() const noexcept {
    const std::size_t n = num_matrices();
    return n * (n + 1) / 2;
  }
  /// Cumulative busy cycles of cell `pe` (arena diagonal-major id) — the
  /// monotone counter utilisation timelines sample per cycle.  0 before
  /// elaboration.
  [[nodiscard]] std::uint64_t pe_busy(std::size_t pe) const;

  /// Build the arena, cells, and wakeup wiring into `engine` without
  /// running a cycle (run() uses this; the lint CLI captures the netlist).
  void elaborate(sim::Engine& engine);

  /// Testbench-side taps for analysis::capture: the boundary link
  /// registers (top row / last column) shift into the void by design.
  void describe_environment(sim::PortSet& ports) const;

  [[nodiscard]] std::size_t num_matrices() const noexcept {
    return dims_.size() - 1;
  }

  /// What a narrated run records, from n alone: one fold per split of
  /// every off-diagonal cell, n(n^2-1)/6 in all (the chain recurrence's
  /// busy steps), and one lane per off-diagonal cell's best.
  [[nodiscard]] sim::NarrationExtent narration_extent() const noexcept {
    const std::uint64_t n = num_matrices();
    return {(n - 1) * n * (n + 1) / 6, n * (n - 1) / 2};
  }

 private:
  class Cell;
  struct Arena;

  std::vector<Cost> dims_;
  std::unique_ptr<Arena> arena_;  ///< lanes and cells, once elaborated
};

}  // namespace sysdp
