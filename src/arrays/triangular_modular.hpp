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
//     The wrapper compiles these once into flat per-candidate tables in
//     arena order, and the core indexes them by origin: a passing flit
//     from (i, b) or (a, j) visits exactly the candidates it feeds (one
//     origin may feed several — the BST rule maps the adjacent diagonal
//     cell to two slots, as both the empty-left and empty-right trees
//     clamp to it).
//   * Patient launch slots.  GKT's single-occupancy theorem (at most one
//     value per link register per cycle) is proved for the chain
//     recurrence only; richer rules can collide a completion launch with
//     a through-shifting flit.  Instead of the GKT conflict assertion, a
//     staged launch waits in its slot until the receiver's link has a
//     gap.  Timing therefore need not match the analytic model
//     cycle-for-cycle — tests assert cost equality with TriangularArray
//     (and, for the chain rule, with GktModularArray) plus bit-identical
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
#include "sim/record.hpp"

namespace sysdp {

/// Non-template machinery: arena, cell modules, transport, gating.  The
/// rule is pre-compiled into flat candidate tables by
/// TriangularModularArray.
class TriangularModularCore {
 public:
  /// A rule compiled for an n-key array.  Cells are in arena order
  /// (diagonal-major: the n diagonal cells, then (0, 1), (1, 2), ...,
  /// then (0, 2), ...), and cell c owns candidates [first[c], first[c+1])
  /// in the rule's t order; the per-candidate vectors are parallel.
  /// For candidate t of cell (i, j), `row_origin` is the column b of the
  /// left operand's producer (i, b) on the consumer's row and
  /// `col_origin` the row a of the right operand's producer (a, j) on its
  /// column.  An operand clamped away by the rule (e.g. an empty BST
  /// subtree) still gates arrival but contributes zero cost: bit 0 of
  /// `use` is set when the left operand counts, bit 1 for the right.
  /// A cell with no candidates is trivially solved (value 0 at cycle 0,
  /// e.g. a polygon edge).
  struct Tables {
    std::vector<Cost> base;           ///< diagonal cell (i, i)'s value
    std::vector<std::uint32_t> first; ///< n(n+1)/2 + 1 prefix offsets
    std::vector<std::uint32_t> row_origin, col_origin;
    std::vector<std::uint8_t> use;
    std::vector<Cost> local;
    std::uint64_t input_scalars = 0;  ///< scalars the rule reads
  };

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

  /// What a narrated run records, from the compiled tables: one fold per
  /// candidate (the rule's busy steps) and one lane per cell's best.
  [[nodiscard]] sim::NarrationExtent narration_extent() const;

 private:
  template <typename Rule>
  friend class TriangularModularArray;
  class Cell;
  struct Arena;

  /// Takes a parked arena (SparePool) for an n-key array; throws
  /// invalid_argument if n is 0.  TriangularModularArray fills tables()
  /// and then calls index().
  explicit TriangularModularCore(std::size_t n);
  [[nodiscard]] Tables& tables();
  /// Validates the filled tables and builds the origin index.  Throws
  /// invalid_argument if an origin names a cell that never launches
  /// (neither diagonal nor a candidate-bearing cell).
  void index();
  [[nodiscard]] bool elaborated() const;

  std::size_t n_;
  /// The compiled tables, the origin index, the per-run lanes and the
  /// cells, in one recycled arena.
  std::unique_ptr<Arena> arena_;
};

/// The generic triangular array on the simulation engine: compiles `Rule`
/// (same policy concept as TriangularArray) into flat candidate tables
/// and runs the shared core.
template <typename Rule>
class TriangularModularArray {
 public:
  using Result = TriangularModularCore::Result;

  TriangularModularArray(const Rule& rule, std::size_t n) : core_(n) {
    compile(rule, n, core_.tables());
    core_.index();
  }

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
  [[nodiscard]] sim::NarrationExtent narration_extent() const {
    return core_.narration_extent();
  }

 private:
  /// Evaluate the rule's interval geometry and terms (IntervalTerms, see
  /// triangular_array.hpp) once per candidate, cells in arena order,
  /// writing `tab` by index once its sizes are known from the rule's split
  /// counts.
  static void compile(const Rule& rule, std::size_t n,
                      TriangularModularCore::Tables& tab) {
    const std::size_t cells = n * (n + 1) / 2;
    tab.input_scalars = rule.input_scalars();
    tab.base.resize(n);
    for (std::size_t i = 0; i < n; ++i) tab.base[i] = rule.base(i);
    tab.first.assign(cells + 1, 0);  // diagonal cells have no candidates
    std::size_t id = n;
    for (std::size_t d = 1; d < n; ++d) {
      for (std::size_t i = 0; i + d < n; ++i, ++id) {
        tab.first[id + 1] =
            tab.first[id] + static_cast<std::uint32_t>(rule.splits(i, i + d));
      }
    }
    const std::size_t total = tab.first[cells];
    tab.row_origin.resize(total);
    tab.col_origin.resize(total);
    tab.use.resize(total);
    tab.local.resize(total);
    std::size_t k = 0;
    for (std::size_t d = 1; d < n; ++d) {
      for (std::size_t i = 0; i + d < n; ++i) {
        const std::size_t j = i + d;
        const std::size_t splits = rule.splits(i, j);
        for (std::size_t t = 0; t < splits; ++t, ++k) {
          const auto [li, lj] = rule.left_interval(i, j, t);
          const auto [ri, rj] = rule.right_interval(i, j, t);
          if (li != i || lj > j || ri < i || rj != j) {
            throw std::invalid_argument(
                "TriangularModularArray: rule's sub-intervals must lie on "
                "the consumer's row and column");
          }
          const auto terms = rule.terms(i, j, t);
          tab.row_origin[k] = static_cast<std::uint32_t>(lj);
          tab.col_origin[k] = static_cast<std::uint32_t>(ri);
          tab.use[k] = static_cast<std::uint8_t>((terms.use_left ? 1 : 0) |
                                                 (terms.use_right ? 2 : 0));
          tab.local[k] = terms.local;
        }
      }
    }
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
