// Engine-backed triangular array for the whole interval-DP family.
//
// One wavefront template with the cell function as its parameter: every
// upper-triangle cell (i, j) is one sim::Module owning the row and column
// link registers at its position; completed results hop one register per
// cycle, launched rightward along the row and upward along the column,
// and each cell folds up to two ready candidates per cycle.  The rule
// (the policy concept of TriangularArray: chain, optimal BST, polygon
// triangulation) is the cell function: a cell calls its terms() and
// sub-intervals inline.  With ChainRule this is the Guibas-Kung-Thompson
// (GKT) array of Section 6.2, cycle for cycle TriangularArray<ChainRule>.
//
// Two generalisations over the chain recurrence make the family fit:
//
//   * Origin-matched operands.  A rule's candidate t at cell (i, j) names
//     a left sub-interval on row i and a right sub-interval on column j.
//     The constructor indexes each cell's candidates by origin once: a
//     passing flit from (i, b) or (a, j) visits exactly the candidates it
//     feeds, in ascending t (one origin may feed several — the BST rule
//     maps the adjacent diagonal cell to two slots, as both the empty-left
//     and empty-right trees clamp to it).  The index is cell-relative, and
//     a cell whose index equals its left neighbour's shares it, so a rule
//     whose geometry depends on j - i alone indexes one cell per diagonal.
//   * Patient launch slots.  GKT's single-occupancy theorem (at most one
//     value per link register per cycle) is proved for the chain
//     recurrence only; richer rules can collide a completion launch with
//     a through-shifting flit.  A staged launch waits in its slot until
//     the receiver's link has a gap, and the run counts those waits
//     (Result::launch_waits): none for the chain, as the theorem says.
//
// A 2-D DP array is the paper's worst case for processor utilisation: a
// cell works only while operands ripple past it, about a sixth of all
// cell-cycles for the chain, so the gated engine skips the idle triangle.
// The quiescence contract extends to the waiting slots: a cell sleeps
// only when its links are empty, its ready queue is drained, AND no
// launch is pending in its slots; wakeup edges follow the two incoming
// streams ((i, j-1) row-wise, (i+1, j) column-wise), exactly the arcs
// launches travel.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "arrays/cell_block.hpp"
#include "arrays/run_result.hpp"
#include "arrays/triangular_array.hpp"
#include "semiring/cost.hpp"
#include "semiring/matrix.hpp"
#include "sim/engine.hpp"
#include "sim/module.hpp"
#include "sim/port.hpp"
#include "sim/record.hpp"

namespace sysdp {

/// The rule-free machinery: arena, transport, gating, ports and the run
/// loop.  TriangularModularArray<Rule> adds the cell function.
class TriangularModularCore {
 public:
  struct Result {
    Matrix<Cost> cost;
    Matrix<sim::Cycle> done;
    RunResult<Cost> stats;  ///< stats.cycles is completion()
    /// Largest number of operands any one cell held staged while waiting
    /// for their partners: the per-cell buffer depth the design needs.
    std::uint64_t peak_operand_buffer = 0;
    /// Cycles that completion launches spent waiting in their slots for a
    /// gap in the receiver's link (0: every link register held at most one
    /// value per cycle).
    std::uint64_t launch_waits = 0;

    [[nodiscard]] Cost total() const { return cost(0, cost.cols() - 1); }
    /// The root cell's completion cycle.
    [[nodiscard]] sim::Cycle completion() const {
      return done(0, done.cols() - 1);
    }
  };

  ~TriangularModularCore();

  TriangularModularCore(const TriangularModularCore&) = delete;
  TriangularModularCore& operator=(const TriangularModularCore&) = delete;

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

  /// What a narrated run records, from the index: one fold per candidate
  /// (the rule's busy steps) and one lane per cell's best.
  [[nodiscard]] sim::NarrationExtent narration_extent() const;

 protected:
  /// A value in flight on a link, tagged by its origin cell (a, b).
  struct Flit {
    Cost val = 0;
    std::uint32_t a = 0;
    std::uint32_t b = 0;
  };

  /// The row and column link registers at one cell position, two-phase:
  /// cur is the flit sitting here this cycle, nxt is staged by the owner's
  /// eval (the through-shift from upstream), and whether a launch waits in
  /// the cell's row or column launch slot.  Packed per cell so a
  /// forwarding eval touches one or two cache lines, not a dozen arrays.
  struct LinkPair {
    Flit row_cur, col_cur;
    Flit row_nxt, col_nxt;
    std::uint8_t row_has = 0, col_has = 0;
    std::uint8_t row_nxt_has = 0, col_nxt_has = 0;
    std::uint8_t row_launch_set = 0, col_launch_set = 0;
  };

  /// Fold bookkeeping for one cell, likewise packed.
  struct CellMeta {
    Cost best = kInfCost;
    sim::Cycle done_at = 0;
    std::uint32_t busy = 0;    ///< candidates folded (first[] is 32-bit)
    std::uint32_t q_head = 0;  ///< next ready candidate to fold
    std::uint32_t q_len = 0;   ///< ready candidates pushed so far
    std::uint32_t remaining = 0;
    std::uint32_t staged = 0;  ///< operands held for unfolded candidates
    std::uint32_t peak = 0;    ///< most operands ever staged
    std::uint32_t waits = 0;   ///< cycles a launch waited in this cell's slots
    std::uint8_t is_done = 0;
    std::uint8_t fired = 0;  ///< launch already sent (diagonals at cycle 0)
  };

  /// Ends an origin chain in the index.
  static constexpr std::uint32_t kNoCandidate = 0xffffffffu;

  /// Per-array storage, parked in a SparePool when the array dies: the
  /// candidate index (built once per array, read-only across runs), and
  /// each run's packed link registers, fold metadata, the patient
  /// completion-launch slots, and each candidate's operand lanes (cell c's
  /// candidate t sits at lane first[c] + t, as does its ready FIFO's t-th
  /// entry).  Cell modules are thin lane views, registered diagonal-major.
  struct Arena {
    std::size_t n = 0;

    /// n(n+1)/2 + 1 prefix offsets of the cells' candidate lanes.
    std::vector<std::uint32_t> first;
    // The candidate index.  Cell (i, j) with d = j - i and s candidates
    // owns the pattern at index[pattern[c]]: d row heads (head b - i for
    // origin (i, b), b in [i, j)), d column heads (head a - i - 1 for
    // origin (a, j), a in (i, j]), then s row links and s column links.  A
    // head holds the first candidate t the origin feeds, the links chain
    // the others in ascending t, and kNoCandidate ends a chain.  Equal
    // neighbouring patterns are stored once.
    std::vector<std::uint32_t> index;
    std::vector<std::uint32_t> pattern;

    std::vector<LinkPair> link;
    std::vector<CellMeta> meta;

    // Patient launch slots: a completing cell stages the receiver's slot
    // (and its LinkPair flag); the receiver's commit merges it into the
    // link register at the first cycle with a gap (the slot stays pending
    // until then).  Each slot has exactly one possible launcher, which
    // launches at most once per run, so a still-pending slot can never be
    // re-staged.
    std::vector<Flit> row_launch, col_launch;

    // Per-candidate operand state: the sum of the counted operands that
    // have arrived (a clamped one adds nothing), which of them have arrived
    // (bit 0 left, bit 1 right), and the ready FIFO of candidate numbers t.
    // A sum or FIFO lane is written before it is read, so only `arrived`
    // starts cleared.
    std::vector<Cost> op_sum;
    std::vector<std::uint8_t> arrived;
    std::vector<std::uint32_t> q_store;

    /// Cells not yet complete; run_until polls it between cycles.
    std::size_t unfinished = 0;

    /// Tape recorder mirroring the fold datapath, or null when not
    /// lowering.  The streams need no mirroring: a flit's value is its
    /// origin cell's final best, so fold operands resolve against origin
    /// lanes; diagonal origins auto-initialise to their base value.
    sim::OpRecorder* rec = nullptr;

    CellBlock cells;  ///< arena (diagonal-major) order

    /// Lay out and clear the per-run state, reusing the buffers' capacity.
    /// Diagonal cells start done, holding kInfCost until the caller sets
    /// their base values.
    void reset_run();

    /// Stage operand `bit` (1 left, 2 right) of lane k, adding `v`; true
    /// once both have arrived.  The first operand is stored as is:
    /// sat_add(0, v) is v, so the lane needs no clearing.
    bool stage(std::uint32_t k, std::uint8_t bit, Cost v) {
      op_sum[k] = arrived[k] != 0 ? sat_add(op_sum[k], v) : v;
      return (arrived[k] |= bit) == 3;
    }

    /// A completed cell (a, b) launches rightward on row a and upward on
    /// column b by staging the receiver's (patient) launch slot.
    void launch(std::size_t a, std::size_t b, Cost v);

    /// Whether cell (i, j) ever launches a completion: diagonals always
    /// do, off-diagonal cells only when they have candidates.
    [[nodiscard]] bool launches(std::size_t i, std::size_t j) const {
      if (i == j) return true;
      const std::uint32_t c = cell_id(n, i, j);
      return first[c + 1] > first[c];
    }

    [[nodiscard]] std::uint32_t id(std::size_t i, std::size_t j) const {
      return cell_id(n, i, j);
    }

    /// SparePool hooks: drop the cells and per-run state, keep capacity.
    void retire() {
      cells.clear();
      meta.clear();
      rec = nullptr;
    }
    [[nodiscard]] std::size_t footprint() const;
  };

  /// The rule-free half of cell (i, j): its lanes, transport, gating and
  /// ports.  Diagonal cells launch their base value at cycle 0 and
  /// retire; off-diagonal cells observe the streams passing their
  /// position, hand each flit to the candidates its origin feeds, fold up
  /// to two ready candidates per cycle, and forward both streams one hop.
  /// TriangularModularArray<Rule>::RuleCell adds eval(), the cell function.
  class Cell : public sim::Module {
   public:
    void commit() override;
    [[nodiscard]] bool quiescent() const noexcept override;
    [[nodiscard]] sim::SleepMode sleep_mode() const noexcept override {
      return i_ == j_ ? sim::SleepMode::kRetire : sim::SleepMode::kWakeable;
    }
    [[nodiscard]] std::string format_name() const override;
    void describe_ports(sim::PortSet& ports) const override;

   protected:
    Cell(std::size_t i, std::size_t j, Arena& a);

    /// A diagonal cell's eval: launch the base value at cycle 0.
    void launch_base(sim::Cycle c);
    /// Narrate one fold to the recorder: the candidate's counted operands
    /// (the origins' best lanes, or the structural zero) and local cost.
    /// A clamped operand is the rule's structural zero, not a transported
    /// value; otherwise the fold reads the origin's lane, whose final best
    /// is the value its flit carried.
    void narrate(sim::OpRecorder& rec, Cost sum, const IntervalTerms& terms,
                 std::size_t left_end, std::size_t right_start) {
      CellMeta& mt = a_.meta[id_];
      const Cost* const lv = &a_.meta[a_.id(i_, left_end)].best;
      const Cost* const rv = &a_.meta[a_.id(right_start, j_)].best;
      // The flits must have delivered what the narrated lanes hold.
      if (sum != sat_add(terms.use_left ? *lv : 0, terms.use_right ? *rv : 0)) {
        throw std::logic_error(
            "TriangularModularCore: delivered operands differ from their "
            "origins' results");
      }
      const sim::SlotId sl =
          terms.use_left ? rec.lane(lv, *lv) : rec.constant(0);
      const sim::SlotId sr =
          terms.use_right ? rec.lane(rv, *rv) : rec.constant(0);
      rec.bind_now(&mt.best,
                   rec.fold(rec.lane(&mt.best, mt.best), sl, sr, terms.local));
    }
    /// The last candidate folded at cycle c: record it and launch.
    void complete(sim::Cycle c);
    /// Stage the through-shift: one hop from upstream.
    void shift() {
      LinkPair& lk = a_.link[id_];
      const LinkPair& lleft = a_.link[left_];
      const LinkPair& lbelow = a_.link[below_];
      lk.row_nxt = lleft.row_cur;
      lk.row_nxt_has = lleft.row_has;
      lk.col_nxt = lbelow.col_cur;
      lk.col_nxt_has = lbelow.col_has;
    }

    std::uint32_t i_, j_;
    std::uint32_t id_, left_, below_;
    std::uint32_t first_;   ///< the cell's first candidate and FIFO lane
    std::uint32_t splits_;  ///< its candidate count
    const std::uint32_t* pattern_;  ///< its index pattern (see Arena)
    Arena& a_;
  };

  /// Takes a parked arena (SparePool) for an n-key array; throws
  /// invalid_argument if n is 0.
  TriangularModularCore(std::size_t n, std::uint64_t input_scalars);
  [[nodiscard]] Arena& arena() noexcept { return *arena_; }
  /// Throws std::invalid_argument unless `engine` is fresh.
  static void require_fresh(const sim::Engine& engine);
  /// Lay out the run's state for `engine`'s recorder, before the cells.
  Arena& begin(sim::Engine& engine);
  /// Declare the wakeup edges between the registered cells.
  void wire(sim::Engine& engine);
  /// Run the elaborated engine until every cell has completed and read
  /// the result out; throws std::logic_error if the array does not
  /// converge within the transport bound.
  [[nodiscard]] Result finish(sim::Engine& engine);

 private:
  [[nodiscard]] bool elaborated() const;

  std::size_t n_;
  std::uint64_t input_scalars_;
  std::unique_ptr<Arena> arena_;
};

/// The generic triangular array on the simulation engine: runs `Rule`
/// (same policy concept as TriangularArray) as the cell function of the
/// shared core.
template <typename Rule>
class TriangularModularArray : public TriangularModularCore {
 public:
  /// Indexes the rule's candidates.  Throws std::invalid_argument if a
  /// sub-interval leaves the consumer's row or column, or names a cell
  /// that never launches (neither diagonal nor candidate-bearing).
  TriangularModularArray(Rule rule, std::size_t n)
      : TriangularModularCore(n, rule.input_scalars()), rule_(std::move(rule)) {
    index();
  }

  /// Simulate until every cell has completed.  Bit-identical across dense
  /// and gated engines; throws std::logic_error if the array does not
  /// converge within the transport bound.
  [[nodiscard]] Result run(sim::Gating gating = sim::Gating::kSparse) {
    sim::Engine engine(gating);
    return run(engine);
  }

  /// Run on a caller-constructed engine, so telemetry observers (VCD,
  /// timelines — sim/observer.hpp) can attach before time starts.  The
  /// engine must be fresh: no modules added, no cycles stepped; throws
  /// std::invalid_argument otherwise.
  [[nodiscard]] Result run(sim::Engine& engine) {
    require_fresh(engine);
    elaborate(engine);
    return finish(engine);
  }

  /// Build the arena, cells, and wakeup wiring into `engine` without
  /// running a cycle (run() uses this; the lint CLI captures the netlist).
  void elaborate(sim::Engine& engine) {
    Arena& a = begin(engine);
    for (std::size_t i = 0; i < size(); ++i) a.meta[i].best = rule_.base(i);
    a.cells.reset<RuleCell>(num_pes());
    for (std::size_t d = 0; d < size(); ++d) {
      for (std::size_t i = 0; i + d < size(); ++i) {
        engine.add(a.cells.emplace_back<RuleCell>(i, i + d, a, rule_));
      }
    }
    wire(engine);
  }

 private:
  /// A cell with the rule as its function: the only rule-specific code.
  class RuleCell final : public Cell {
   public:
    RuleCell(std::size_t i, std::size_t j, Arena& a, const Rule& rule)
        : Cell(i, j, a), rule_(rule) {}

    void eval(sim::Cycle c) override {
      if (i_ == j_) {
        launch_base(c);
        return;
      }
      Arena& a = a_;
      LinkPair& lk = a.link[id_];
      CellMeta& mt = a.meta[id_];
      std::uint32_t* const q = a.q_store.data() + first_;
      const std::uint32_t len0 = mt.q_len;  // candidates ready before c
      const std::uint32_t d = j_ - i_;

      // ---- observe: hand passing flits to the candidates they feed ----
      // A flit visits only its origin's chain, in ascending t, so the
      // ready FIFO fills in the order a scan of every candidate would.
      if (lk.row_has && lk.row_cur.a == i_) {
        const Flit& f = lk.row_cur;  // left operand from (i, f.b)
        const std::uint32_t* const next = pattern_ + 2 * d;
        for (std::uint32_t t = pattern_[f.b - i_]; t != kNoCandidate;
             t = next[t]) {
          const Cost v = rule_.terms(i_, j_, t).use_left ? f.val : 0;
          if (a.stage(first_ + t, 1, v)) q[mt.q_len++] = t;
          ++mt.staged;
        }
      }
      if (lk.col_has && lk.col_cur.b == j_) {
        const Flit& f = lk.col_cur;  // right operand from (f.a, j)
        const std::uint32_t* const next = pattern_ + 2 * d + splits_;
        for (std::uint32_t t = pattern_[d + f.a - i_ - 1]; t != kNoCandidate;
             t = next[t]) {
          const Cost v = rule_.terms(i_, j_, t).use_right ? f.val : 0;
          if (a.stage(first_ + t, 2, v)) q[mt.q_len++] = t;
          ++mt.staged;
        }
      }
      mt.peak = std::max(mt.peak, mt.staged);

      // ---- compute: fold up to two candidates ready before now --------
      if (!mt.is_done && mt.q_head < len0) {
        std::uint32_t taken = 0;
        while (mt.q_head < len0 && taken < 2) {
          const std::uint32_t t = q[mt.q_head];
          const IntervalTerms terms = rule_.terms(i_, j_, t);
          const Cost sum = a.op_sum[first_ + t];
          if (a.rec != nullptr) {
            narrate(*a.rec, sum, terms, rule_.left_interval(i_, j_, t).second,
                    rule_.right_interval(i_, j_, t).first);
          }
          mt.best = std::min(mt.best, sat_add(sum, terms.local));
          ++mt.busy;
          ++mt.q_head;
          ++taken;
          --mt.remaining;
          mt.staged -= 2;  // operands retire with their candidate
        }
        if (mt.remaining == 0) complete(c);
      }
      shift();
    }

   private:
    const Rule& rule_;
  };

  /// Check the rule's geometry and build the candidate index, cells in
  /// arena order: each cell's candidates are threaded onto their origins'
  /// chains back to front, so every chain runs in ascending t.
  void index() {
    Arena& a = arena();
    const std::size_t n = size();
    a.first.assign(num_pes() + 1, 0);  // diagonal cells have no candidates
    a.pattern.assign(num_pes(), 0);
    a.index.clear();
    // Whether cell (i, j) ever launches (Arena::launches, from the rule).
    const auto launches = [this](std::size_t i, std::size_t j) {
      return i == j || rule_.splits(i, j) > 0;
    };
    std::vector<std::uint32_t> p;  // the cell's pattern, before it is stored
    std::uint32_t id = static_cast<std::uint32_t>(n);
    for (std::size_t d = 1; d < n; ++d) {
      std::size_t prev = 0;  // where the previous cell's pattern starts
      for (std::size_t i = 0; i + d < n; ++i, ++id) {
        const std::size_t j = i + d;
        const std::size_t splits = rule_.splits(i, j);
        a.first[id + 1] = a.first[id] + static_cast<std::uint32_t>(splits);
        p.resize(2 * (d + splits));  // the links are all written below
        std::fill_n(p.begin(), 2 * d, kNoCandidate);
        std::uint32_t* const row_head = p.data();
        std::uint32_t* const col_head = row_head + d;
        std::uint32_t* const next_row = col_head + d;
        std::uint32_t* const next_col = next_row + splits;
        for (std::size_t t = splits; t-- > 0;) {
          const auto [li, lj] = rule_.left_interval(i, j, t);
          const auto [ri, rj] = rule_.right_interval(i, j, t);
          const std::size_t row = lj - i;      // wraps when lj < i
          const std::size_t col = ri - i - 1;  // wraps when ri <= i
          if (li != i || rj != j || row >= d || col >= d ||
              !launches(i, lj) || !launches(ri, j)) {
            throw std::invalid_argument(
                li != i || lj > j || ri < i || rj != j
                    ? "TriangularModularArray: rule's sub-intervals must lie "
                      "on the consumer's row and column"
                    : "TriangularModularCore: candidate origin is not a "
                      "launching cell");
          }
          const auto u = static_cast<std::uint32_t>(t);
          next_row[t] = std::exchange(row_head[row], u);
          next_col[t] = std::exchange(col_head[col], u);
        }
        // Store the pattern unless the previous cell's, the last stored,
        // is the same.
        if (i == 0 || a.index.size() - prev != p.size() ||
            !std::equal(p.begin(), p.end(),
                        a.index.begin() + static_cast<std::ptrdiff_t>(prev))) {
          prev = a.index.size();
          a.index.insert(a.index.end(), p.begin(), p.end());
        }
        a.pattern[id] = static_cast<std::uint32_t>(prev);
      }
    }
  }

  Rule rule_;
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
