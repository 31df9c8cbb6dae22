// Engine-backed triangular array for the whole interval-DP family.
//
// GktModularArray hard-codes the matrix-chain recurrence; this model runs
// any TriangularArray rule (chain, optimal BST, polygon triangulation) on
// discrete cell modules with the same transport fabric: per-cell row and
// column link registers, values hopping one register per cycle, completed
// results launched rightward along the row and upward along the column,
// each cell folding up to two ready candidates per cycle.
//
// Two generalisations over the GKT cells make the family fit:
//
//   * Origin-matched operands.  A rule's candidate t at cell (i, j) names
//     a left sub-interval on row i and a right sub-interval on column j.
//     The wrapper compiles these into per-candidate origin tables; a
//     passing flit is matched against the tables (one origin may feed
//     several candidates — the BST rule maps the adjacent diagonal cell
//     to two slots, as both the empty-left and empty-right trees clamp to
//     it).
//   * Patient launch slots.  GKT's single-occupancy theorem (at most one
//     value per link register per cycle) is proved for the chain
//     recurrence only; richer rules can collide a completion launch with
//     a through-shifting flit.  Instead of the GKT conflict assertion, a
//     staged launch waits in its slot until the receiver's link has a
//     gap.  Timing therefore need not match the analytic model
//     cycle-for-cycle — tests assert cost equality with TriangularArray
//     (and, for the chain rule, with the GKT arrays) plus bit-identical
//     results across dense and gated engines.
//
// The quiescence contract extends to the waiting slots: a cell sleeps
// only when its links are empty, its ready queue is drained, AND no
// launch is pending in its slots; wakeup edges follow the two incoming
// streams ((i, j-1) row-wise, (i+1, j) column-wise), exactly the arcs
// launches travel.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "arrays/run_result.hpp"
#include "semiring/cost.hpp"
#include "semiring/matrix.hpp"
#include "sim/engine.hpp"
#include "sim/port.hpp"

namespace sysdp {

/// Non-template machinery: arena, cell modules, transport, gating.  The
/// rule is pre-compiled into per-candidate specs by TriangularModularArray.
class TriangularModularCore {
 public:
  /// One candidate of one cell, rule-agnostic.  `row_origin` is the column
  /// b of the left operand's producer cell (i, b) on the consumer's row;
  /// `col_origin` is the row a of the right operand's producer (a, j) on
  /// the consumer's column.  An operand clamped away by the rule (e.g. an
  /// empty BST subtree) still gates arrival but contributes zero cost:
  /// use_left / use_right record that.
  struct Candidate {
    std::uint32_t row_origin = 0;
    std::uint32_t col_origin = 0;
    std::uint8_t use_left = 1;
    std::uint8_t use_right = 1;
    Cost local = 0;
  };

  /// `base[i]` is diagonal cell (i, i)'s value; `cands[i * n + j]` the
  /// candidate list of off-diagonal cell (i, j) (empty = trivially solved,
  /// value 0 at cycle 0, e.g. a polygon edge).  Throws invalid_argument
  /// if an origin names a cell that never launches (neither diagonal nor
  /// a candidate-bearing cell).
  TriangularModularCore(std::size_t n, std::vector<Cost> base,
                        std::vector<std::vector<Candidate>> cands);
  ~TriangularModularCore();

  TriangularModularCore(const TriangularModularCore&) = delete;
  TriangularModularCore& operator=(const TriangularModularCore&) = delete;

  struct Result {
    Matrix<Cost> cost;
    Matrix<sim::Cycle> done;
    RunResult<Cost> stats;

    [[nodiscard]] Cost total() const { return cost(0, cost.cols() - 1); }
    [[nodiscard]] sim::Cycle completion() const {
      return done(0, done.cols() - 1);
    }
  };

  /// Simulate until every cell has completed.  Bit-identical across dense
  /// and gated engines; throws std::logic_error if the array does not
  /// converge within the transport bound.
  [[nodiscard]] Result run(sim::Gating gating = sim::Gating::kSparse);

  /// Run on a caller-constructed engine, so telemetry observers (VCD,
  /// timelines — sim/observer.hpp) can attach before time starts.  The
  /// engine must be fresh: no modules added, no cycles stepped; throws
  /// std::invalid_argument otherwise.
  [[nodiscard]] Result run(sim::Engine& engine);

  /// Build the arena, cells, and wakeup wiring into `engine` without
  /// running a cycle (run() uses this; the lint CLI captures the netlist).
  void elaborate(sim::Engine& engine);

  /// Testbench-side taps for analysis::capture (boundary link tie-offs).
  void describe_environment(sim::PortSet& ports) const;

  [[nodiscard]] std::size_t size() const noexcept { return n_; }

  /// Number of cells n(n+1)/2 (valid from construction).
  [[nodiscard]] std::size_t num_pes() const noexcept {
    return n_ * (n_ + 1) / 2;
  }
  /// Cumulative busy cycles of cell `pe` (arena diagonal-major id) — the
  /// monotone counter utilisation timelines sample per cycle.  0 before
  /// elaboration.
  [[nodiscard]] std::uint64_t pe_busy(std::size_t pe) const;

 private:
  class Cell;
  struct Arena;

  std::size_t n_;
  std::vector<Cost> base_;
  std::vector<std::vector<Candidate>> cands_;
  std::unique_ptr<Arena> arena_;
  std::vector<std::unique_ptr<Cell>> cells_;
};

/// The generic triangular array on the simulation engine: compiles `Rule`
/// (same policy concept as TriangularArray) into origin tables and runs
/// the shared core.
template <typename Rule>
class TriangularModularArray {
 public:
  using Result = TriangularModularCore::Result;

  TriangularModularArray(const Rule& rule, std::size_t n)
      : core_(n, compile_base(rule, n), compile_cands(rule, n)) {}

  [[nodiscard]] Result run(sim::Gating gating = sim::Gating::kSparse) {
    return core_.run(gating);
  }
  [[nodiscard]] Result run(sim::Engine& engine) { return core_.run(engine); }
  void elaborate(sim::Engine& engine) { core_.elaborate(engine); }
  void describe_environment(sim::PortSet& ports) const {
    core_.describe_environment(ports);
  }
  [[nodiscard]] std::size_t size() const noexcept { return core_.size(); }
  [[nodiscard]] std::size_t num_pes() const noexcept {
    return core_.num_pes();
  }
  [[nodiscard]] std::uint64_t pe_busy(std::size_t pe) const {
    return core_.pe_busy(pe);
  }

 private:
  static std::vector<Cost> compile_base(const Rule& rule, std::size_t n) {
    std::vector<Cost> base(n);
    for (std::size_t i = 0; i < n; ++i) base[i] = rule.base(i);
    return base;
  }

  /// Evaluate the rule's interval geometry once per candidate.  The local
  /// cost is recovered by probing candidate() with zero operands — every
  /// interval rule's candidate is (use_left ? left : 0) + (use_right ?
  /// right : 0) + local, so the zero probe isolates `local`.
  static std::vector<std::vector<TriangularModularCore::Candidate>>
  compile_cands(const Rule& rule, std::size_t n) {
    std::vector<std::vector<TriangularModularCore::Candidate>> cands(n * n);
    for (std::size_t d = 1; d < n; ++d) {
      for (std::size_t i = 0; i + d < n; ++i) {
        const std::size_t j = i + d;
        const std::size_t k = rule.splits(i, j);
        auto& list = cands[i * n + j];
        list.reserve(k);
        for (std::size_t t = 0; t < k; ++t) {
          const auto [li, lj] = rule.left_interval(i, j, t);
          const auto [ri, rj] = rule.right_interval(i, j, t);
          if (li != i || lj > j || ri < i || rj != j) {
            throw std::invalid_argument(
                "TriangularModularArray: rule's sub-intervals must lie on "
                "the consumer's row and column");
          }
          TriangularModularCore::Candidate c;
          c.row_origin = static_cast<std::uint32_t>(lj);
          c.col_origin = static_cast<std::uint32_t>(ri);
          // Clamp detection: feed a sentinel through a zero probe.  If the
          // rule ignores an operand (empty sub-tree), a sentinel in that
          // slot does not move the result.
          const Cost local = rule.candidate(i, j, t, 0, 0);
          const Cost probe_l = rule.candidate(i, j, t, 1, 0);
          const Cost probe_r = rule.candidate(i, j, t, 0, 1);
          c.use_left = probe_l != local ? 1 : 0;
          c.use_right = probe_r != local ? 1 : 0;
          c.local = local;
          list.push_back(c);
        }
      }
    }
    return cands;
  }

  TriangularModularCore core_;
};

/// Convenience runners mirroring run_bst_array / run_polygon_array /
/// run_chain_array on the engine-backed model.
[[nodiscard]] TriangularModularCore::Result run_bst_modular(
    const std::vector<Cost>& freq,
    sim::Gating gating = sim::Gating::kSparse);
[[nodiscard]] TriangularModularCore::Result run_polygon_modular(
    const std::vector<Cost>& weights,
    sim::Gating gating = sim::Gating::kSparse);
[[nodiscard]] TriangularModularCore::Result run_chain_modular(
    const std::vector<Cost>& dims,
    sim::Gating gating = sim::Gating::kSparse);

}  // namespace sysdp
