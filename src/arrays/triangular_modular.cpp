#include "arrays/triangular_modular.hpp"

#include <algorithm>
#include <string>

#include "semiring/kernels.hpp"
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

/// Arena id of cell (i, j), i <= j: diagonal-major, so diagonal d = j - i
/// starts after the d*n - d(d-1)/2 cells of the diagonals below it.
[[nodiscard]] std::uint32_t cell_id(std::size_t n, std::size_t i,
                                    std::size_t j) {
  const std::size_t d = j - i;
  return static_cast<std::uint32_t>(d * n - d * (d - 1) / 2 + i);
}

}  // namespace

/// Per-run arena: the packed link registers, fold metadata, the patient
/// completion-launch slots, and each candidate's arrived operands and
/// ready FIFO lane (candidate k of a cell sits at lane k, the FIFO of
/// cell c at lanes [first[c], first[c+1])).  The compiled tables and the
/// origin index stay in the core, shared read-only by every run.  Cell
/// modules are thin lane views, registered diagonal-major like
/// GktModularArray.
struct TriangularModularCore::Arena {
  const TriangularModularCore& core;
  std::size_t n;

  std::vector<LinkPair> link;
  std::vector<CellMeta> meta;

  // Patient launch slots: a completing cell stages the receiver's slot;
  // the receiver's commit merges it into the link register at the first
  // cycle with a gap (the slot stays pending until then).  Each slot has
  // exactly one possible launcher, which launches at most once per run,
  // so a still-pending slot can never be re-staged.
  std::vector<Flit> row_launch, col_launch;
  std::vector<std::uint8_t> row_launch_set, col_launch_set;

  // Per-candidate operand state: the arrived values, which of them have
  // arrived (bit 0 left, bit 1 right), and the ready FIFO.
  std::vector<Cost> left_val, right_val;
  std::vector<std::uint8_t> arrived;
  std::vector<std::uint32_t> q_store;

  /// Cells not yet complete; run_until polls it between cycles.
  std::size_t unfinished = 0;

  /// Tape recorder mirroring the fold datapath, or null when not lowering.
  /// As in GktModularArray, fold operands resolve against origin-cell best
  /// lanes; diagonal origins auto-initialise to their base value.
  sim::OpRecorder* rec = nullptr;

  explicit Arena(const TriangularModularCore& c) : core(c), n(c.n_) {
    const std::size_t cells = n * (n + 1) / 2;
    link.resize(cells);
    meta.resize(cells);
    row_launch.resize(cells);
    col_launch.resize(cells);
    row_launch_set.assign(cells, 0);
    col_launch_set.assign(cells, 0);
    const std::vector<std::uint32_t>& first = core.tab_.first;
    for (std::size_t i = 0; i < n; ++i) {
      meta[i].best = core.tab_.base[i];  // diagonals are ids 0..n-1
      meta[i].is_done = 1;               // and complete at cycle 0
    }
    for (std::size_t id = n; id < cells; ++id) {
      CellMeta& mt = meta[id];
      mt.remaining = first[id + 1] - first[id];
      if (mt.remaining == 0) {
        // Trivially solved (e.g. a polygon edge): value 0 at cycle 0.
        // Such a cell still forwards traffic but never launches — the
        // constructor has verified nothing consumes it.
        mt.best = 0;
        mt.is_done = 1;
        mt.fired = 1;
      } else {
        ++unfinished;
      }
    }
    const std::size_t total = first[cells];
    left_val.resize(total);
    right_val.resize(total);
    arrived.resize(total);
    q_store.resize(total);
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
      : Module("t" + std::to_string(i) + "_" + std::to_string(j)),
        i_(i),
        j_(j),
        id_(a.id(i, j)),
        left_(i == j ? 0 : a.id(i, j - 1)),
        below_(i == j ? 0 : a.id(i + 1, j)),
        first_(a.core.tab_.first[id_]),
        row_head_(a.core.row_head_.data() + heads),
        col_head_(a.core.col_head_.data() + heads),
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
    const Tables& tab = a.core.tab_;
    std::uint32_t* const q = a.q_store.data() + first_;
    const std::uint32_t len0 = mt.q_len;  // candidates ready before cycle c

    // ---- observe: hand passing flits to the candidates they feed -------
    // A flit visits only its origin's chain, in ascending t, so the ready
    // FIFO fills in the same order a scan of every candidate would.
    if (lk.row_has && lk.row_cur.a == i_) {
      const Flit& f = lk.row_cur;  // left operand from (i, f.b)
      const std::uint32_t* const next = a.core.next_row_.data();
      for (std::uint32_t k = row_head_[f.b - i_]; k != kNoCandidate;
           k = next[k]) {
        a.left_val[k] = f.val;
        if ((a.arrived[k] |= 1) == 3) q[mt.q_len++] = k;
      }
    }
    if (lk.col_has && lk.col_cur.b == j_) {
      const Flit& f = lk.col_cur;  // right operand from (f.a, j)
      const std::uint32_t* const next = a.core.next_col_.data();
      for (std::uint32_t k = col_head_[f.a - i_ - 1]; k != kNoCandidate;
           k = next[k]) {
        a.right_val[k] = f.val;
        if ((a.arrived[k] |= 2) == 3) q[mt.q_len++] = k;
      }
    }

    // ---- compute: fold up to two candidates that were ready before now -
    if (!mt.is_done && mt.q_head < len0) {
      std::uint32_t taken = 0;
      while (mt.q_head < len0 && taken < 2) {
        const std::uint32_t k = q[mt.q_head];
        const bool use_left = (tab.use[k] & 1) != 0;
        const bool use_right = (tab.use[k] & 2) != 0;
        const Cost l = use_left ? a.left_val[k] : 0;
        const Cost r = use_right ? a.right_val[k] : 0;
        const Cost cand = kern::interval_candidate(l, r, tab.local[k]);
        if (sim::OpRecorder* const rec = a.rec; rec != nullptr) {
          // A clamped operand is the rule's structural zero, not a
          // transported value; otherwise read the origin's lane.
          const sim::SlotId sl =
              use_left ? rec->lane(&a.meta[a.id(i_, tab.row_origin[k])].best,
                                   l)
                       : rec->constant(0);
          const sim::SlotId sr =
              use_right
                  ? rec->lane(&a.meta[a.id(tab.col_origin[k], j_)].best, r)
                  : rec->constant(0);
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
      if (a.core.launches(i_, j_ - 1)) {
        ports.reads_register(&a.row_launch[id_], slot("row_launch", i_, j_));
      }
      if (a.core.launches(i_ + 1, j_)) {
        ports.reads_register(&a.col_launch[id_], slot("col_launch", i_, j_));
      }
      if (j_ > i_ + 1) {  // upstreams are real cells, not diagonals
        ports.reads_register(&a.link[left_].row_cur, slot("row", i_, j_ - 1));
        ports.reads_register(&a.link[below_].col_cur,
                             slot("col", i_ + 1, j_));
      }
    }
    // Completion launch targets (trivially-solved cells never launch).
    if (a.core.launches(i_, j_)) {
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

TriangularModularCore::TriangularModularCore(std::size_t n, Tables tables)
    : n_(n), tab_(std::move(tables)) {
  if (n_ == 0) throw std::invalid_argument("TriangularModularCore: empty");
  const std::size_t cells = n_ * (n_ + 1) / 2;
  if (tab_.base.size() != n_ || tab_.first.size() != cells + 1 ||
      tab_.first[n_] != 0 ||
      !std::is_sorted(tab_.first.begin(), tab_.first.end())) {
    throw std::invalid_argument("TriangularModularCore: bad table shape");
  }
  const std::size_t total = tab_.first[cells];
  if (tab_.row_origin.size() != total || tab_.col_origin.size() != total ||
      tab_.use.size() != total || tab_.local.size() != total) {
    throw std::invalid_argument("TriangularModularCore: bad table shape");
  }
  // Every origin must name a cell that actually launches (a diagonal, or
  // an off-diagonal cell with at least one candidate).  Each cell's
  // candidates are threaded onto their origins' chains back to front, so
  // every chain runs in ascending t.
  std::size_t heads = 0;
  for (std::size_t d = 1; d < n_; ++d) heads += d * (n_ - d);
  row_head_.assign(heads, kNoCandidate);
  col_head_.assign(heads, kNoCandidate);
  next_row_.resize(total);
  next_col_.resize(total);
  std::uint32_t* row_head = row_head_.data();
  std::uint32_t* col_head = col_head_.data();
  std::uint32_t id = static_cast<std::uint32_t>(n_);
  for (std::size_t d = 1; d < n_; ++d) {
    for (std::size_t i = 0; i + d < n_; ++i, ++id) {
      const std::size_t j = i + d;
      for (std::uint32_t k = tab_.first[id + 1]; k-- > tab_.first[id];) {
        const std::size_t b = tab_.row_origin[k];
        const std::size_t a = tab_.col_origin[k];
        if (b < i || b >= j || !launches(i, b) || a <= i || a > j ||
            !launches(a, j)) {
          throw std::invalid_argument(
              "TriangularModularCore: candidate origin is not a launching "
              "cell");
        }
        next_row_[k] = row_head[b - i];
        row_head[b - i] = k;
        next_col_[k] = col_head[a - i - 1];
        col_head[a - i - 1] = k;
      }
      row_head += d;
      col_head += d;
    }
  }
}

bool TriangularModularCore::launches(std::size_t i, std::size_t j) const {
  if (i == j) return true;
  const std::uint32_t c = cell_id(n_, i, j);
  return tab_.first[c + 1] > tab_.first[c];
}

TriangularModularCore::~TriangularModularCore() = default;

void TriangularModularCore::elaborate(sim::Engine& engine) {
  arena_ = std::make_unique<Arena>(*this);
  arena_->rec = engine.recorder();
  cells_.clear();
  // Registered in arena-id (diagonal-major) order, like GktModularArray,
  // which is also the order of the origin heads (j - i per cell).
  std::size_t heads = 0;
  for (std::size_t d = 0; d < n_; ++d) {
    for (std::size_t i = 0; i + d < n_; ++i, heads += d) {
      cells_.push_back(std::make_unique<Cell>(i, i + d, heads, *arena_));
      engine.add(*cells_.back());
    }
  }
  // Wakeup edges follow the two transport streams, the only arcs a flit
  // (through-shift or patient launch) can arrive on.
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t j = i; j < n_; ++j) {
      const std::uint32_t id = arena_->id(i, j);
      if (j + 1 < n_) {
        engine.add_wakeup(*cells_[id], *cells_[arena_->id(i, j + 1)]);
      }
      if (i > 0) {
        engine.add_wakeup(*cells_[id], *cells_[arena_->id(i - 1, j)]);
      }
    }
  }
}

void TriangularModularCore::describe_environment(sim::PortSet& ports) const {
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

std::uint64_t TriangularModularCore::pe_busy(std::size_t pe) const {
  return arena_ != nullptr ? arena_->meta.at(pe).busy : 0;
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
