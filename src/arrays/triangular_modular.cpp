#include "arrays/triangular_modular.hpp"

#include <string>

#include "arrays/cell_block.hpp"
#include "sim/module.hpp"
#include "sim/record.hpp"
#include "arrays/triangular_array.hpp"

namespace sysdp {

namespace {

/// A value in flight on a link, tagged by its origin cell (a, b).
struct Flit {
  Cost val = 0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
};

/// The row and column link registers at one cell position, two-phase (see
/// GktModularArray::LinkPair — same fabric).
struct LinkPair {
  Flit row_cur, col_cur;
  Flit row_nxt, col_nxt;
  std::uint8_t row_has = 0, col_has = 0;
  std::uint8_t row_nxt_has = 0, col_nxt_has = 0;
};

struct CellMeta {
  Cost best = kInfCost;
  sim::Cycle done_at = 0;
  std::uint64_t busy = 0;
  std::uint32_t q_head = 0;  ///< next ready candidate to fold
  std::uint32_t q_len = 0;   ///< ready candidates pushed so far
  std::uint32_t remaining = 0;
  std::uint8_t is_done = 0;
  std::uint8_t fired = 0;  ///< launch already sent (diagonals at cycle 0)
};

/// Ends an origin chain (see Arena's origin index).
constexpr std::uint32_t kNoCandidate = 0xffffffffu;

}  // namespace

/// Per-array arena, parked in a SparePool when the array dies: the
/// compiled tables and their origin index (built once per array, read-only
/// across runs), and each run's packed link registers, fold metadata, the
/// patient completion-launch slots, and each candidate's arrived operands
/// and ready FIFO lane (candidate k of a cell sits at lane k, the FIFO of
/// cell c at lanes [first[c], first[c+1])).  Cell modules are thin lane
/// views, registered diagonal-major like GktModularArray.
struct TriangularModularCore::Arena {
  std::size_t n = 0;

  Tables tab;
  // Origin index.  Cell (i, j) owns j - i heads per stream, after those of
  // the cells before it in arena order: row head b - i for origin (i, b),
  // b in [i, j), and column head a - i - 1 for origin (a, j), a in (i, j].
  // A head holds the first candidate (an index into the per-candidate
  // tables) that the origin feeds; next_row / next_col chain the others
  // in ascending t, and kNoCandidate ends a chain.
  std::vector<std::uint32_t> row_head, col_head;
  std::vector<std::uint32_t> next_row, next_col;

  std::vector<LinkPair> link;
  std::vector<CellMeta> meta;

  // Patient launch slots: a completing cell stages the receiver's slot;
  // the receiver's commit merges it into the link register at the first
  // cycle with a gap (the slot stays pending until then).  Each slot has
  // exactly one possible launcher, which launches at most once per run,
  // so a still-pending slot can never be re-staged.
  std::vector<Flit> row_launch, col_launch;
  std::vector<std::uint8_t> row_launch_set, col_launch_set;

  // Per-candidate operand state: the sum of the counted operands that
  // have arrived (a clamped one adds nothing), which of them have arrived
  // (bit 0 left, bit 1 right), and the ready FIFO.  A sum or FIFO lane is
  // written before it is read, so only `arrived` starts cleared.
  std::vector<Cost> op_sum;
  std::vector<std::uint8_t> arrived;
  std::vector<std::uint32_t> q_store;

  /// Cells not yet complete; run_until polls it between cycles.
  std::size_t unfinished = 0;

  /// Tape recorder mirroring the fold datapath, or null when not lowering.
  /// As in GktModularArray, fold operands resolve against origin-cell best
  /// lanes; diagonal origins auto-initialise to their base value.
  sim::OpRecorder* rec = nullptr;

  CellBlock<Cell> cells;  ///< arena (diagonal-major) order

  /// Lay out and clear the per-run state for the compiled tables, reusing
  /// the buffers' capacity.
  void reset_run() {
    const std::size_t num_cells = n * (n + 1) / 2;
    link.assign(num_cells, LinkPair{});
    meta.assign(num_cells, CellMeta{});
    row_launch.assign(num_cells, Flit{});
    col_launch.assign(num_cells, Flit{});
    row_launch_set.assign(num_cells, 0);
    col_launch_set.assign(num_cells, 0);
    const std::vector<std::uint32_t>& first = tab.first;
    for (std::size_t i = 0; i < n; ++i) {
      meta[i].best = tab.base[i];  // diagonals are ids 0..n-1
      meta[i].is_done = 1;         // and complete at cycle 0
    }
    unfinished = 0;
    for (std::size_t id = n; id < num_cells; ++id) {
      CellMeta& mt = meta[id];
      mt.remaining = first[id + 1] - first[id];
      if (mt.remaining == 0) {
        // Trivially solved (e.g. a polygon edge): value 0 at cycle 0.
        // Such a cell still forwards traffic but never launches — index()
        // has verified nothing consumes it.
        mt.best = 0;
        mt.is_done = 1;
        mt.fired = 1;
      } else {
        ++unfinished;
      }
    }
    const std::size_t total = first[num_cells];
    if (op_sum.size() < total) {
      op_sum.resize(total);
      q_store.resize(total);
    }
    arrived.assign(total, 0);
  }

  /// Stage operand `bit` (1 left, 2 right) of candidate k, counting `v`
  /// only if the rule uses it; true once both have arrived.  The first
  /// operand is stored as is: sat_add(0, v) is v, so the lane needs no
  /// clearing.
  bool stage(std::uint32_t k, std::uint8_t bit, Cost v) {
    const Cost counted = (tab.use[k] & bit) != 0 ? v : 0;
    op_sum[k] = arrived[k] != 0 ? sat_add(op_sum[k], counted) : counted;
    return (arrived[k] |= bit) == 3;
  }

  /// SparePool hooks: drop the cells and per-run state, keep capacity.
  void retire() {
    cells.clear();
    meta.clear();
    rec = nullptr;
  }
  [[nodiscard]] std::size_t footprint() const;

  /// Whether cell (i, j) ever launches a completion: diagonals always do,
  /// off-diagonal cells only when they have candidates.
  [[nodiscard]] bool launches(std::size_t i, std::size_t j) const {
    if (i == j) return true;
    const std::uint32_t c = cell_id(n, i, j);
    return tab.first[c + 1] > tab.first[c];
  }

  [[nodiscard]] std::uint32_t id(std::size_t i, std::size_t j) const {
    return cell_id(n, i, j);
  }

  /// A completed cell (a, b) launches rightward on row a and upward on
  /// column b by staging the receiver's (patient) launch slot.
  void launch(std::size_t a, std::size_t b, Cost v) {
    const Flit f{v, static_cast<std::uint32_t>(a),
                 static_cast<std::uint32_t>(b)};
    if (b + 1 < n) {
      const std::uint32_t t = id(a, b + 1);
      if (row_launch_set[t]) {
        throw std::logic_error("TriangularModularCore: launch slot re-staged");
      }
      row_launch[t] = f;
      row_launch_set[t] = 1;
    }
    if (a > 0) {
      const std::uint32_t t = id(a - 1, b);
      if (col_launch_set[t]) {
        throw std::logic_error("TriangularModularCore: launch slot re-staged");
      }
      col_launch[t] = f;
      col_launch_set[t] = 1;
    }
  }
};

/// One cell (i, j).  Diagonal cells launch their base value at cycle 0 and
/// retire; off-diagonal cells observe the streams passing their position,
/// hand each flit to the candidates its origin feeds, fold up to two ready
/// candidates per cycle, and forward both streams one hop.
class TriangularModularCore::Cell : public sim::Module {
 public:
  /// `heads` is the offset of the cell's origin heads (see the core's
  /// origin index).
  Cell(std::size_t i, std::size_t j, std::size_t heads, Arena& a)
      : i_(i),
        j_(j),
        id_(a.id(i, j)),
        left_(i == j ? 0 : a.id(i, j - 1)),
        below_(i == j ? 0 : a.id(i + 1, j)),
        first_(a.tab.first[id_]),
        row_head_(a.row_head.data() + heads),
        col_head_(a.col_head.data() + heads),
        a_(a) {}

  void eval(sim::Cycle c) override {
    Arena& a = a_;
    const std::uint32_t id = id_;
    if (i_ == j_) {
      if (c == 0) {
        a.launch(i_, j_, a.meta[id].best);
        a.meta[id].fired = 1;
      }
      return;
    }
    LinkPair& lk = a.link[id];
    CellMeta& mt = a.meta[id];
    const Tables& tab = a.tab;
    std::uint32_t* const q = a.q_store.data() + first_;
    const std::uint32_t len0 = mt.q_len;  // candidates ready before cycle c

    // ---- observe: hand passing flits to the candidates they feed -------
    // A flit visits only its origin's chain, in ascending t, so the ready
    // FIFO fills in the same order a scan of every candidate would.
    if (lk.row_has && lk.row_cur.a == i_) {
      const Flit& f = lk.row_cur;  // left operand from (i, f.b)
      const std::uint32_t* const next = a.next_row.data();
      for (std::uint32_t k = row_head_[f.b - i_]; k != kNoCandidate;
           k = next[k]) {
        if (a.stage(k, 1, f.val)) q[mt.q_len++] = k;
      }
    }
    if (lk.col_has && lk.col_cur.b == j_) {
      const Flit& f = lk.col_cur;  // right operand from (f.a, j)
      const std::uint32_t* const next = a.next_col.data();
      for (std::uint32_t k = col_head_[f.a - i_ - 1]; k != kNoCandidate;
           k = next[k]) {
        if (a.stage(k, 2, f.val)) q[mt.q_len++] = k;
      }
    }

    // ---- compute: fold up to two candidates that were ready before now -
    if (!mt.is_done && mt.q_head < len0) {
      std::uint32_t taken = 0;
      while (mt.q_head < len0 && taken < 2) {
        const std::uint32_t k = q[mt.q_head];
        const Cost cand = sat_add(a.op_sum[k], tab.local[k]);
        if (sim::OpRecorder* const rec = a.rec; rec != nullptr) {
          // A clamped operand is the rule's structural zero, not a
          // transported value; otherwise read the origin's lane, whose
          // final best is the value its flit carried.
          const Cost* const lv = &a.meta[a.id(i_, tab.row_origin[k])].best;
          const Cost* const rv = &a.meta[a.id(tab.col_origin[k], j_)].best;
          const bool use_l = (tab.use[k] & 1) != 0;
          const bool use_r = (tab.use[k] & 2) != 0;
          // The flits must have delivered what the narrated lanes hold.
          if (a.op_sum[k] != sat_add(use_l ? *lv : 0, use_r ? *rv : 0)) {
            throw std::logic_error(
                "TriangularModularCore: delivered operands differ from "
                "their origins' results");
          }
          const sim::SlotId sl = use_l ? rec->lane(lv, *lv) : rec->constant(0);
          const sim::SlotId sr = use_r ? rec->lane(rv, *rv) : rec->constant(0);
          rec->bind_now(&mt.best, rec->fold(rec->lane(&mt.best, mt.best),
                                            sl, sr, tab.local[k]));
        }
        if (cand < mt.best) mt.best = cand;
        ++mt.busy;
        ++mt.q_head;
        ++taken;
        --mt.remaining;
      }
      if (mt.remaining == 0) {
        mt.is_done = 1;
        mt.done_at = c;
        --a.unfinished;
        a.launch(i_, j_, mt.best);
      }
    }

    // ---- stage the through-shift: one hop from upstream ----------------
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
    // Patient merge: a pending launch takes the link only in a cycle whose
    // through-shift leaves it empty; otherwise it keeps waiting.
    if (a.row_launch_set[id] && !lk.row_nxt_has) {
      lk.row_cur = a.row_launch[id];
      lk.row_has = 1;
      a.row_launch_set[id] = 0;
    } else {
      lk.row_cur = lk.row_nxt;
      lk.row_has = lk.row_nxt_has;
    }
    if (a.col_launch_set[id] && !lk.col_nxt_has) {
      lk.col_cur = a.col_launch[id];
      lk.col_has = 1;
      a.col_launch_set[id] = 0;
    } else {
      lk.col_cur = lk.col_nxt;
      lk.col_has = lk.col_nxt_has;
    }
  }

  /// A diagonal is quiescent once its cycle-0 launch fired.  A cell is
  /// quiescent when both links are empty, no folded-candidate work is
  /// queued, and no launch is waiting in its slots (a waiting launch
  /// needs this cell's commit to merge — sleeping on it would deadlock).
  [[nodiscard]] bool quiescent() const noexcept override {
    const CellMeta& mt = a_.meta[id_];
    if (i_ == j_) return mt.fired != 0;
    const LinkPair& lk = a_.link[id_];
    return !lk.row_has && !lk.col_has && mt.q_head == mt.q_len &&
           !a_.row_launch_set[id_] && !a_.col_launch_set[id_];
  }

  /// Diagonals retire after their one launch; every other cell sleeps
  /// between flits and is reactivated by the two incoming streams.
  [[nodiscard]] sim::SleepMode sleep_mode() const noexcept override {
    return i_ == j_ ? sim::SleepMode::kRetire : sim::SleepMode::kWakeable;
  }

  [[nodiscard]] std::string format_name() const override {
    return "t" + std::to_string(i_) + "_" + std::to_string(j_);
  }

  /// Same key model as GktModularArray: link registers and launch slots,
  /// with the leaf tie-off convention (a diagonal never writes its own
  /// links, so downstream cells do not declare reads of diagonal links).
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
      // A launch slot is staged only by the neighbour it belongs to; when
      // that neighbour never launches (a trivially-solved cell) the slot
      // stays architecturally empty and declaring the read would be a
      // dangling port.
      if (a.launches(i_, j_ - 1)) {
        ports.reads_register(&a.row_launch[id_], slot("row_launch", i_, j_));
      }
      if (a.launches(i_ + 1, j_)) {
        ports.reads_register(&a.col_launch[id_], slot("col_launch", i_, j_));
      }
      if (j_ > i_ + 1) {  // upstreams are real cells, not diagonals
        ports.reads_register(&a.link[left_].row_cur, slot("row", i_, j_ - 1));
        ports.reads_register(&a.link[below_].col_cur,
                             slot("col", i_ + 1, j_));
      }
    }
    // Completion launch targets (trivially-solved cells never launch).
    if (a.launches(i_, j_)) {
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
  }

 private:
  std::size_t i_, j_;
  std::uint32_t id_, left_, below_;
  std::uint32_t first_;  ///< the cell's first candidate and FIFO lane
  const std::uint32_t* row_head_;
  const std::uint32_t* col_head_;
  Arena& a_;
};

TriangularModularCore::TriangularModularCore(std::size_t n) : n_(n) {
  if (n_ == 0) throw std::invalid_argument("TriangularModularCore: empty");
  arena_ = SparePool<Arena>::take();
  arena_->n = n_;
}

TriangularModularCore::~TriangularModularCore() {
  SparePool<Arena>::give(std::move(arena_));
}

std::size_t TriangularModularCore::Arena::footprint() const {
  return buffer_bytes(tab.base) + buffer_bytes(tab.first) +
         buffer_bytes(tab.row_origin) + buffer_bytes(tab.col_origin) +
         buffer_bytes(tab.use) + buffer_bytes(tab.local) +
         buffer_bytes(row_head) + buffer_bytes(col_head) +
         buffer_bytes(next_row) + buffer_bytes(next_col) +
         buffer_bytes(link) + buffer_bytes(meta) + buffer_bytes(row_launch) +
         buffer_bytes(col_launch) + buffer_bytes(row_launch_set) +
         buffer_bytes(col_launch_set) + buffer_bytes(op_sum) +
         buffer_bytes(arrived) +
         buffer_bytes(q_store) + cells.capacity() * sizeof(Cell);
}

TriangularModularCore::Tables& TriangularModularCore::tables() {
  return arena_->tab;
}

sim::NarrationExtent TriangularModularCore::narration_extent() const {
  return {arena_->tab.first.back(), num_pes()};
}

bool TriangularModularCore::elaborated() const {
  return !arena_->meta.empty();
}

void TriangularModularCore::index() {
  // Every origin must name a cell that actually launches (a diagonal, or
  // an off-diagonal cell with at least one candidate).  Each cell's
  // candidates are threaded onto their origins' chains back to front, so
  // every chain runs in ascending t.
  Arena& a = *arena_;
  const Tables& tab = a.tab;
  std::size_t heads = 0;
  for (std::size_t d = 1; d < n_; ++d) heads += d * (n_ - d);
  const std::size_t total = tab.first[num_pes()];
  a.row_head.assign(heads, kNoCandidate);
  a.col_head.assign(heads, kNoCandidate);
  a.next_row.resize(total);
  a.next_col.resize(total);
  std::uint32_t* row_head = a.row_head.data();
  std::uint32_t* col_head = a.col_head.data();
  std::uint32_t id = static_cast<std::uint32_t>(n_);
  for (std::size_t d = 1; d < n_; ++d) {
    for (std::size_t i = 0; i + d < n_; ++i, ++id) {
      const std::size_t j = i + d;
      for (std::uint32_t k = tab.first[id + 1]; k-- > tab.first[id];) {
        const std::size_t b = tab.row_origin[k];
        const std::size_t o = tab.col_origin[k];
        if (b < i || b >= j || o <= i || o > j || !a.launches(i, b) ||
            !a.launches(o, j)) {
          throw std::invalid_argument(
              "TriangularModularCore: candidate origin is not a launching "
              "cell");
        }
        a.next_row[k] = row_head[b - i];
        row_head[b - i] = k;
        a.next_col[k] = col_head[o - i - 1];
        col_head[o - i - 1] = k;
      }
      row_head += d;
      col_head += d;
    }
  }
}

void TriangularModularCore::elaborate(sim::Engine& engine) {
  Arena& a = *arena_;
  a.reset_run();
  a.rec = engine.recorder();
  // Registered in arena-id (diagonal-major) order, like GktModularArray,
  // which is also the order of the origin heads (j - i per cell).
  a.cells.reset(num_pes());
  std::size_t heads = 0;
  for (std::size_t d = 0; d < n_; ++d) {
    for (std::size_t i = 0; i + d < n_; ++i, heads += d) {
      engine.add(a.cells.emplace_back(i, i + d, heads, a));
    }
  }
  // Wakeup edges follow the two transport streams, the only arcs a flit
  // (through-shift or patient launch) can arrive on: each cell declares
  // its row edge to (i, j+1), then its column edge to (i-1, j).
  std::size_t id = 0;
  for (std::size_t d = 0; d < n_; ++d) {
    for (std::size_t i = 0; i + d < n_; ++i, ++id) {
      const std::size_t j = i + d;
      if (j + 1 < n_) {
        engine.add_wakeup(a.cells[id], a.cells[a.id(i, j + 1)]);
      }
      if (i > 0) engine.add_wakeup(a.cells[id], a.cells[a.id(i - 1, j)]);
    }
  }
}

void TriangularModularCore::describe_environment(sim::PortSet& ports) const {
  if (!elaborated()) return;
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

std::uint64_t TriangularModularCore::pe_busy(std::size_t pe) const {
  return elaborated() ? arena_->meta.at(pe).busy : 0;
}

TriangularModularCore::Result TriangularModularCore::run(sim::Gating gating) {
  sim::Engine engine(gating);
  return run(engine);
}

TriangularModularCore::Result TriangularModularCore::run(sim::Engine& engine) {
  if (engine.now() > 0 || engine.num_modules() > 0) {
    throw std::invalid_argument(
        "TriangularModularCore::run: engine must be fresh");
  }
  const std::size_t n = n_;
  elaborate(engine);

  // Transport bound: every flit crosses at most n links, each candidate
  // fold costs at most one extra cycle, and a patient launch can wait at
  // most for the finite stream ahead of it — 8n + 32 covers the family
  // with generous slack.
  const sim::Cycle limit = 8 * static_cast<sim::Cycle>(n) + 32;
  const auto until = engine.run_until(
      [this] { return arena_->unfinished == 0; }, limit);
  if (!until.satisfied) {
    throw std::logic_error("TriangularModularCore: did not converge");
  }

  Result out{Matrix<Cost>(n, n, kInfCost), Matrix<sim::Cycle>(n, n, 0), {}};
  out.stats.num_pes = n * (n + 1) / 2;
  out.stats.input_scalars = n;
  sim::OpRecorder* const rec = engine.recorder();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const CellMeta& mt = arena_->meta[arena_->id(i, j)];
      out.cost(i, j) = mt.best;
      if (i != j) {
        out.done(i, j) = mt.done_at;
        out.stats.busy_steps += mt.busy;
      }
      if (rec != nullptr) {
        rec->output("cell", static_cast<std::uint64_t>(i) * n + j,
                    rec->lane(&mt.best, mt.best), mt.best);
      }
    }
  }
  out.stats.cycles = until.cycles;
  out.stats.active_evals = engine.active_evals();
  out.stats.dense_evals = engine.dense_evals();
  return out;
}

TriangularModularCore::Result run_bst_modular(const std::vector<Cost>& freq,
                                              sim::Gating gating) {
  const BstRule rule(freq);
  return TriangularModularArray<BstRule>(rule, rule.num_keys()).run(gating);
}

TriangularModularCore::Result run_polygon_modular(
    const std::vector<Cost>& weights, sim::Gating gating) {
  const PolygonRule rule(weights);
  return TriangularModularArray<PolygonRule>(rule, rule.num_vertices())
      .run(gating);
}

TriangularModularCore::Result run_chain_modular(const std::vector<Cost>& dims,
                                                sim::Gating gating) {
  const ChainRule rule(dims);
  return TriangularModularArray<ChainRule>(rule, rule.num_matrices())
      .run(gating);
}

}  // namespace sysdp
