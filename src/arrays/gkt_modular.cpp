#include "arrays/gkt_modular.hpp"

#include <stdexcept>
#include <string>

#include "arrays/cell_block.hpp"
#include "sim/module.hpp"
#include "sim/record.hpp"

namespace sysdp {

namespace {

/// A value in flight on a link: the m_{a,b} it carries, tagged by its
/// origin so consumers can pair operands.
struct Flit {
  Cost val = 0;
  std::uint32_t a = 0;  // origin cell (a, b)
  std::uint32_t b = 0;
};

/// The row and column link registers at one cell position, two-phase:
/// cur is the flit sitting here this cycle, nxt is staged by the owner's
/// eval (the through-shift from upstream).  Packed per cell so a
/// forwarding eval touches one or two cache lines, not a dozen arrays.
struct LinkPair {
  Flit row_cur, col_cur;
  Flit row_nxt, col_nxt;
  std::uint8_t row_has = 0, col_has = 0;
  std::uint8_t row_nxt_has = 0, col_nxt_has = 0;
};

/// Fold bookkeeping for one cell, likewise packed.
struct CellMeta {
  Cost best = kInfCost;
  sim::Cycle done_at = 0;
  std::uint64_t busy = 0;
  std::uint32_t q_head = 0;   ///< next ready candidate to fold
  std::uint32_t q_len = 0;    ///< ready candidates pushed so far
  std::uint32_t remaining = 0;
  std::uint32_t staged = 0;
  std::uint32_t peak = 0;
  std::uint8_t is_done = 0;
  std::uint8_t fired = 0;  ///< leaf: cycle-0 launch already sent
};

}  // namespace

/// Per-array arena holding every cell's state in contiguous per-cell
/// lanes: the packed link registers and fold metadata above, the operand
/// staging buffers and the ready queues (j-i lanes per cell, one per split
/// k in [i, j), at q_base[id] + (k - i)), the completion-launch bypass
/// slots that a finishing neighbour stages and the owner's commit merges,
/// and the cell modules themselves, thin lane views.  A destroyed array
/// parks its arena in a SparePool for the next one.
struct GktModularArray::Arena {
  std::size_t n = 0;

  std::vector<LinkPair> link;
  std::vector<CellMeta> meta;

  // Completion-launch bypass.  A real flit in both the through-shift (nxt)
  // and the launch slot is a link-register conflict, which would falsify
  // the single-occupancy design — commit throws.  The row and column
  // pending flags live in separate byte arrays, not one bitmask: a cell's
  // row launcher and column launcher are different cells, so every element
  // has exactly one writer.
  std::vector<Flit> row_launch, col_launch;
  std::vector<std::uint8_t> row_launch_set, col_launch_set;

  // Per-split lanes: cell id owns lanes q_base[id] + (k - i) for its
  // splits k in [i, j).  Operand staging sums m_{i,k} (row) and m_{k+1,j}
  // (column) into one lane as they arrive, which is the candidate's
  // sat_add(left, right) once both have; op_set marks the arrived ones
  // (bit 0 row, bit 1 column).  The ready-candidate FIFO q_store holds
  // split indices k; entries below the eval-entry watermark were ready
  // before the current cycle — exactly the analytic model's rule that a
  // candidate arriving at cycle a folds no earlier than cycle a + 1.
  // A sum or FIFO lane is written before it is read, so only op_set
  // starts cleared.
  std::vector<Cost> op_sum;
  std::vector<std::uint8_t> op_set;
  std::vector<std::uint32_t> q_store, q_base;

  /// Tape recorder mirroring the fold datapath, or null when not lowering.
  /// The streams need no mirroring: a flit's value is its origin cell's
  /// final best (origins always complete before their flits are consumed),
  /// so fold operands resolve directly against origin lanes.
  sim::OpRecorder* rec = nullptr;

  CellBlock<Cell> cells;  ///< arena (diagonal-major) order

  /// Lay out and clear every lane for an n-matrix chain, reusing the
  /// buffers' capacity.
  void reset(std::size_t n_in) {
    n = n_in;
    const std::size_t num_cells = n * (n + 1) / 2;
    link.assign(num_cells, LinkPair{});
    meta.assign(num_cells, CellMeta{});
    row_launch.assign(num_cells, Flit{});
    col_launch.assign(num_cells, Flit{});
    row_launch_set.assign(num_cells, 0);
    col_launch_set.assign(num_cells, 0);
    // Cell (i, j) owns j - i lanes, after those of the cells before it in
    // arena order.
    q_base.resize(num_cells + 1);
    q_base[0] = 0;
    std::size_t id = 0;
    for (std::size_t d = 0; d < n; ++d) {
      for (std::size_t i = 0; i + d < n; ++i, ++id) {
        q_base[id + 1] = q_base[id] + static_cast<std::uint32_t>(d);
        meta[id].remaining = static_cast<std::uint32_t>(d);
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      meta[i].is_done = 1;  // leaves (ids 0..n-1) complete at cycle 0
    }
    const std::size_t lanes = q_base[num_cells];
    if (op_sum.size() < lanes) {
      op_sum.resize(lanes);
      q_store.resize(lanes);
    }
    op_set.assign(lanes, 0);
  }

  /// SparePool hooks: drop the cells and per-cell state, keep capacity.
  void retire() {
    cells.clear();
    meta.clear();
    rec = nullptr;
  }
  [[nodiscard]] std::size_t footprint() const;

  /// Stage operand `bit` (1 row, 2 column) of split lane `l`; true once
  /// both have arrived.  The first operand is stored as is: sat_add(0, v)
  /// is v, so the lane needs no clearing.
  bool stage(std::size_t l, std::uint8_t bit, Cost v) {
    op_sum[l] = op_set[l] != 0 ? sat_add(op_sum[l], v) : v;
    return (op_set[l] |= bit) == 3;
  }

  /// Diagonal-major cell ids (cell_id): the completion wavefront sweeps
  /// outward one diagonal at a time, so at any cycle the cells carrying
  /// traffic are a band of consecutive diagonals — with this numbering
  /// the gated engine's (sorted) active set walks nearly contiguous arena
  /// lanes, and a cell's two upstreams sit adjacent in the previous
  /// diagonal.
  [[nodiscard]] std::uint32_t id(std::size_t i, std::size_t j) const {
    return cell_id(n, i, j);
  }

  /// A completed m_{a,b} launches rightward on row a and upward on column
  /// b by staging the *receiver's* launch slot.  Each slot has exactly one
  /// possible launcher and receivers only read it at commit, so concurrent
  /// cell evals never race here.
  void launch(std::size_t a, std::size_t b, Cost v) {
    const Flit f{v, static_cast<std::uint32_t>(a),
                 static_cast<std::uint32_t>(b)};
    if (b + 1 < n) {
      const std::uint32_t t = id(a, b + 1);
      if (row_launch_set[t]) {
        throw std::logic_error("GktModularArray: link register conflict");
      }
      row_launch[t] = f;
      row_launch_set[t] = 1;
    }
    if (a > 0) {
      const std::uint32_t t = id(a - 1, b);
      if (col_launch_set[t]) {
        throw std::logic_error("GktModularArray: link register conflict");
      }
      col_launch[t] = f;
      col_launch_set[t] = 1;
    }
  }
};

/// One cell (i, j).  Diagonal cells are the leaves: they launch their
/// (zero) value at cycle 0 and sleep forever after.  Off-diagonal cells
/// observe the streams passing their position, fold up to two ready
/// candidates per cycle, and forward both streams one hop.
class GktModularArray::Cell : public sim::Module {
 public:
  Cell(std::size_t i, std::size_t j, Arena& a, const std::vector<Cost>& dims)
      : i_(i),
        j_(j),
        id_(a.id(i, j)),
        left_(i == j ? 0 : a.id(i, j - 1)),
        below_(i == j ? 0 : a.id(i + 1, j)),
        a_(a),
        dims_(dims) {}

  void eval(sim::Cycle c) override {
    Arena& a = a_;
    const std::uint32_t id = id_;
    if (i_ == j_) {
      if (c == 0) {
        a.launch(i_, j_, 0);
        a.meta[id].fired = 1;
      }
      return;
    }
    LinkPair& lk = a.link[id];
    CellMeta& mt = a.meta[id];
    // Split k's lanes sit at base + k, i.e. q_base[id] + (k - i).
    const std::size_t base = a.q_base[id] - i_;
    std::uint32_t* const q = a.q_store.data() + a.q_base[id];
    const std::uint32_t len0 = mt.q_len;  // candidates ready before cycle c

    // ---- observe: sample the streams passing this position --------------
    if (lk.row_has) {
      const Flit& f = lk.row_cur;
      if (f.a == i_) {
        const std::size_t k = f.b;  // m_{i,k}
        if (k >= i_ && k < j_ && (a.op_set[base + k] & 1) == 0) {
          if (a.stage(base + k, 1, f.val)) {
            q[mt.q_len++] = static_cast<std::uint32_t>(k);
          }
          ++mt.staged;
        }
      }
    }
    if (lk.col_has) {
      const Flit& f = lk.col_cur;
      if (f.b == j_) {
        const std::size_t fa = f.a;  // m_{a,j}, pairs with k = a-1
        if (fa > i_ && fa <= j_ && (a.op_set[base + fa - 1] & 2) == 0) {
          if (a.stage(base + fa - 1, 2, f.val)) {
            q[mt.q_len++] = static_cast<std::uint32_t>(fa - 1);
          }
          ++mt.staged;
        }
      }
    }
    if (mt.staged > mt.peak) mt.peak = mt.staged;

    // ---- compute: fold up to two candidates that were ready before now --
    if (!mt.is_done && mt.q_head < len0) {
      std::uint32_t taken = 0;
      while (mt.q_head < len0 && taken < 2) {
        const std::size_t k = q[mt.q_head];
        const Cost w = dims_[i_] * dims_[k + 1] * dims_[j_ + 1];
        const Cost cand = sat_add(a.op_sum[base + k], w);
        if (sim::OpRecorder* const rec = a.rec; rec != nullptr) {
          // Diagonal-leaf origins launched the literal 0; every other
          // operand is the origin cell's (final) best lane, the value its
          // flit carried.
          const Cost* const lv = &a.meta[a.id(i_, k)].best;
          const Cost* const rv = &a.meta[a.id(k + 1, j_)].best;
          // The flits must have delivered what the narrated lanes hold.
          if (a.op_sum[base + k] !=
              sat_add(k == i_ ? 0 : *lv, k + 1 == j_ ? 0 : *rv)) {
            throw std::logic_error(
                "GktModularArray: delivered operands differ from their "
                "origins' results");
          }
          const sim::SlotId l =
              (k == i_) ? rec->constant(0) : rec->lane(lv, *lv);
          const sim::SlotId r =
              (k + 1 == j_) ? rec->constant(0) : rec->lane(rv, *rv);
          rec->bind_now(&mt.best,
                        rec->fold(rec->lane(&mt.best, mt.best), l, r, w));
        }
        if (cand < mt.best) mt.best = cand;
        ++mt.busy;
        ++mt.q_head;
        ++taken;
        --mt.remaining;
        mt.staged -= 2;  // operands retire with their candidate
      }
      if (mt.remaining == 0) {
        mt.is_done = 1;
        mt.done_at = c;
        a.launch(i_, j_, mt.best);
      }
    }

    // ---- stage the through-shift: one hop from upstream -----------------
    // Row upstream is (i, j-1), column upstream is (i+1, j); when either
    // is the diagonal leaf its registers are perpetually empty, so the
    // stage below correctly clears this cell's register.
    const LinkPair& lleft = a.link[left_];
    const LinkPair& lbelow = a.link[below_];
    lk.row_nxt = lleft.row_cur;
    lk.row_nxt_has = lleft.row_has;
    lk.col_nxt = lbelow.col_cur;
    lk.col_nxt_has = lbelow.col_has;
  }

  void commit() override {
    if (i_ == j_) return;
    Arena& a = a_;
    const std::uint32_t id = id_;
    LinkPair& lk = a.link[id];
    const std::uint8_t rl = a.row_launch_set[id];
    const std::uint8_t cl = a.col_launch_set[id];
    if ((rl | cl) == 0) {  // common case: plain clock edge on both links
      lk.row_cur = lk.row_nxt;
      lk.row_has = lk.row_nxt_has;
      lk.col_cur = lk.col_nxt;
      lk.col_has = lk.col_nxt_has;
      return;
    }
    if (rl) {
      if (lk.row_nxt_has) {
        throw std::logic_error("GktModularArray: link register conflict");
      }
      lk.row_cur = a.row_launch[id];
      lk.row_has = 1;
      a.row_launch_set[id] = 0;
    } else {
      lk.row_cur = lk.row_nxt;
      lk.row_has = lk.row_nxt_has;
    }
    if (cl) {
      if (lk.col_nxt_has) {
        throw std::logic_error("GktModularArray: link register conflict");
      }
      lk.col_cur = a.col_launch[id];
      lk.col_has = 1;
      a.col_launch_set[id] = 0;
    } else {
      lk.col_cur = lk.col_nxt;
      lk.col_has = lk.col_nxt_has;
    }
  }

  /// A leaf is quiescent once its cycle-0 launch fired.  A cell is
  /// quiescent when both its link registers are empty (nothing to observe
  /// or forward) and no folded-candidate work is queued; whether its
  /// result is still pending does not matter — only an arriving flit can
  /// change its state, and both streams are covered by wakeup edges.
  [[nodiscard]] bool quiescent() const noexcept override {
    const CellMeta& mt = a_.meta[id_];
    if (i_ == j_) return mt.fired != 0;
    const LinkPair& lk = a_.link[id_];
    return !lk.row_has && !lk.col_has && mt.q_head == mt.q_len;
  }

  /// Leaves retire after their cycle-0 launch; every other cell sleeps
  /// between flits and is reactivated by the two incoming streams.
  [[nodiscard]] sim::SleepMode sleep_mode() const noexcept override {
    return i_ == j_ ? sim::SleepMode::kRetire : sim::SleepMode::kWakeable;
  }

  [[nodiscard]] std::string format_name() const override {
    return "c" + std::to_string(i_) + "_" + std::to_string(j_);
  }

  /// Keys name the link registers (per-cell row/col streams) and the
  /// completion-launch slots.  A diagonal leaf never writes its own link
  /// registers, so downstream cells do not declare reads of leaf links
  /// (the tie-off convention) — leaf outputs travel via launch slots only.
  void describe_ports(sim::PortSet& ports) const override {
    const Arena& a = a_;
    const auto slot = [](const char* base, std::size_t i, std::size_t j) {
      return std::string(base) + "[" + std::to_string(i) + "," +
             std::to_string(j) + "]";
    };
    // Flit lanes are structs, so the port layer cannot infer a sampler;
    // probe the carried cost when a flit is present, 0 when the link is
    // empty (telemetry only — occupancy is the interesting waveform).
    const LinkPair* const lk = &a.link[id_];
    if (i_ != j_) {
      ports.writes_register(&lk->row_cur, slot("row", i_, j_),
                            [lk]() -> std::int64_t {
                              return lk->row_has != 0
                                         ? static_cast<std::int64_t>(
                                               lk->row_cur.val)
                                         : 0;
                            });
      ports.writes_register(&lk->col_cur, slot("col", i_, j_),
                            [lk]() -> std::int64_t {
                              return lk->col_has != 0
                                         ? static_cast<std::int64_t>(
                                               lk->col_cur.val)
                                         : 0;
                            });
      ports.reads_register(&a.row_launch[id_], slot("row_launch", i_, j_));
      ports.reads_register(&a.col_launch[id_], slot("col_launch", i_, j_));
      if (j_ > i_ + 1) {  // upstreams are real cells, not leaves
        ports.reads_register(&a.link[left_].row_cur, slot("row", i_, j_ - 1));
        ports.reads_register(&a.link[below_].col_cur,
                             slot("col", i_ + 1, j_));
      }
    }
    // Completion launch: stage the right neighbour's row slot and the
    // upper neighbour's column slot (leaves launch too, at cycle 0).
    if (j_ + 1 < a.n) {
      const std::uint32_t t = a.id(i_, j_ + 1);
      const Flit* const f = &a.row_launch[t];
      const std::uint8_t* const set = &a.row_launch_set[t];
      ports.writes_register(f, slot("row_launch", i_, j_ + 1),
                            [f, set]() -> std::int64_t {
                              return *set != 0
                                         ? static_cast<std::int64_t>(f->val)
                                         : 0;
                            });
    }
    if (i_ > 0) {
      const std::uint32_t t = a.id(i_ - 1, j_);
      const Flit* const f = &a.col_launch[t];
      const std::uint8_t* const set = &a.col_launch_set[t];
      ports.writes_register(f, slot("col_launch", i_ - 1, j_),
                            [f, set]() -> std::int64_t {
                              return *set != 0
                                         ? static_cast<std::int64_t>(f->val)
                                         : 0;
                            });
    }
  }

 private:
  std::size_t i_, j_;
  std::uint32_t id_, left_, below_;
  Arena& a_;
  const std::vector<Cost>& dims_;
};

GktModularArray::GktModularArray(std::vector<Cost> dims)
    : dims_(std::move(dims)) {
  if (dims_.size() < 2) {
    throw std::invalid_argument("GktModularArray: need at least one matrix");
  }
  for (Cost d : dims_) {
    if (d <= 0) {
      throw std::invalid_argument("GktModularArray: dims must be > 0");
    }
  }
}

std::size_t GktModularArray::Arena::footprint() const {
  return buffer_bytes(link) + buffer_bytes(meta) + buffer_bytes(row_launch) +
         buffer_bytes(col_launch) + buffer_bytes(row_launch_set) +
         buffer_bytes(col_launch_set) + buffer_bytes(op_sum) +
         buffer_bytes(op_set) + buffer_bytes(q_store) +
         buffer_bytes(q_base) + cells.capacity() * sizeof(Cell);
}

GktModularArray::~GktModularArray() {
  SparePool<Arena>::give(std::move(arena_));
}

void GktModularArray::elaborate(sim::Engine& engine) {
  const std::size_t n = num_matrices();
  if (arena_ == nullptr) arena_ = SparePool<Arena>::take();
  Arena& a = *arena_;
  a.reset(n);
  a.rec = engine.recorder();
  // Registered in arena-id (diagonal-major) order so the engine's module
  // index equals the arena lane and the sorted active set walks the arena
  // and the cell block sequentially.
  a.cells.reset(num_pes());
  for (std::size_t d = 0; d < n; ++d) {
    for (std::size_t i = 0; i + d < n; ++i) {
      engine.add(a.cells.emplace_back(i, i + d, a, dims_));
    }
  }
  // Wakeup edges follow the register dataflow: a cell can only be
  // reactivated by a flit arriving on its row stream (from (i, j-1)) or
  // its column stream (from (i+1, j)) — completion launches travel the
  // same arcs, and a launching cell is provably active the cycle before
  // (it holds the not-yet-folded candidates that complete it), so the
  // receiver is always awake to latch the launch.  Each cell declares its
  // row edge to (i, j+1), then its column edge to (i-1, j).
  std::size_t id = 0;
  for (std::size_t d = 0; d < n; ++d) {
    for (std::size_t i = 0; i + d < n; ++i, ++id) {
      const std::size_t j = i + d;
      if (j + 1 < n) engine.add_wakeup(a.cells[id], a.cells[a.id(i, j + 1)]);
      if (i > 0) engine.add_wakeup(a.cells[id], a.cells[a.id(i - 1, j)]);
    }
  }
}

void GktModularArray::describe_environment(sim::PortSet& ports) const {
  if (arena_ == nullptr) return;
  const std::size_t n = arena_->n;
  // Boundary tie-offs: the last column's row streams and the top row's
  // column streams shift off the edge of the triangle by design.
  for (std::size_t i = 0; i + 1 < n; ++i) {
    ports.reads_register(&arena_->link[arena_->id(i, n - 1)].row_cur,
                         "row[" + std::to_string(i) + "," +
                             std::to_string(n - 1) + "]");
  }
  for (std::size_t j = 1; j < n; ++j) {
    ports.reads_register(&arena_->link[arena_->id(0, j)].col_cur,
                         "col[0," + std::to_string(j) + "]");
  }
}

std::uint64_t GktModularArray::pe_busy(std::size_t pe) const {
  return arena_ != nullptr ? arena_->meta.at(pe).busy : 0;
}

GktModularArray::Result GktModularArray::run(sim::Gating gating) {
  sim::Engine engine(gating);
  return run(engine);
}

GktModularArray::Result GktModularArray::run(sim::Engine& engine) {
  if (engine.now() > 0 || engine.num_modules() > 0) {
    throw std::invalid_argument("GktModularArray::run: engine must be fresh");
  }
  const std::size_t n = num_matrices();
  elaborate(engine);

  const std::uint32_t root = arena_->id(0, n - 1);
  const sim::Cycle limit = 4 * static_cast<sim::Cycle>(n) + 16;
  const auto until = engine.run_until(
      [this, root] { return arena_->meta[root].is_done != 0; }, limit);
  if (!until.satisfied) {
    throw std::logic_error("GktModularArray: did not converge");
  }

  Result out{Matrix<Cost>(n, n, kInfCost), Matrix<sim::Cycle>(n, n, 0), {}, 0};
  out.stats.num_pes = n * (n + 1) / 2;
  out.stats.input_scalars = dims_.size();
  sim::OpRecorder* const rec = engine.recorder();
  for (std::size_t i = 0; i < n; ++i) {
    out.cost(i, i) = 0;
    for (std::size_t j = i + 1; j < n; ++j) {
      CellMeta& mt = arena_->meta[arena_->id(i, j)];
      if (mt.is_done) {
        out.cost(i, j) = mt.best;
        out.done(i, j) = mt.done_at;
        if (rec != nullptr) {
          rec->output("cell", static_cast<std::uint64_t>(i) * n + j,
                      rec->lane(&mt.best, mt.best), mt.best);
        }
      }
      out.stats.busy_steps += mt.busy;
      if (mt.peak > out.peak_operand_buffer) {
        out.peak_operand_buffer = mt.peak;
      }
    }
  }
  out.stats.cycles = out.completion();
  out.stats.active_evals = engine.active_evals();
  out.stats.dense_evals = engine.dense_evals();
  return out;
}

}  // namespace sysdp
