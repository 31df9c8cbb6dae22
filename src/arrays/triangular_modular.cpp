#include "arrays/triangular_modular.hpp"

#include <string>

namespace sysdp {

void TriangularModularCore::Arena::reset_run() {
  const std::size_t num_cells = n * (n + 1) / 2;
  link.assign(num_cells, LinkPair{});
  meta.assign(num_cells, CellMeta{});
  row_launch.assign(num_cells, Flit{});
  col_launch.assign(num_cells, Flit{});
  for (std::size_t i = 0; i < n; ++i) {
    meta[i].is_done = 1;  // diagonals are ids 0..n-1 and complete at cycle 0
  }
  unfinished = 0;
  for (std::size_t id = n; id < num_cells; ++id) {
    CellMeta& mt = meta[id];
    mt.remaining = first[id + 1] - first[id];
    if (mt.remaining == 0) {
      // Trivially solved (e.g. a polygon edge): value 0 at cycle 0.  Such
      // a cell still forwards traffic but never launches — the index has
      // verified nothing consumes it.
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

void TriangularModularCore::Arena::launch(std::size_t a, std::size_t b,
                                          Cost v) {
  const Flit f{v, static_cast<std::uint32_t>(a), static_cast<std::uint32_t>(b)};
  if (b + 1 < n) {
    const std::uint32_t t = id(a, b + 1);
    if (link[t].row_launch_set) {
      throw std::logic_error("TriangularModularCore: launch slot re-staged");
    }
    row_launch[t] = f;
    link[t].row_launch_set = 1;
  }
  if (a > 0) {
    const std::uint32_t t = id(a - 1, b);
    if (link[t].col_launch_set) {
      throw std::logic_error("TriangularModularCore: launch slot re-staged");
    }
    col_launch[t] = f;
    link[t].col_launch_set = 1;
  }
}

std::size_t TriangularModularCore::Arena::footprint() const {
  return buffer_bytes(first) + buffer_bytes(index) + buffer_bytes(pattern) +
         buffer_bytes(link) + buffer_bytes(meta) + buffer_bytes(row_launch) +
         buffer_bytes(col_launch) + buffer_bytes(op_sum) +
         buffer_bytes(arrived) + buffer_bytes(q_store) + cells.capacity();
}

TriangularModularCore::Cell::Cell(std::size_t i, std::size_t j, Arena& a)
    : i_(static_cast<std::uint32_t>(i)),
      j_(static_cast<std::uint32_t>(j)),
      id_(a.id(i, j)),
      left_(i == j ? 0 : a.id(i, j - 1)),
      below_(i == j ? 0 : a.id(i + 1, j)),
      first_(a.first[id_]),
      splits_(a.first[id_ + 1] - first_),
      pattern_(a.index.data() + a.pattern[id_]),
      a_(a) {}

void TriangularModularCore::Cell::launch_base(sim::Cycle c) {
  if (c == 0) {
    a_.launch(i_, j_, a_.meta[id_].best);
    a_.meta[id_].fired = 1;
  }
}

void TriangularModularCore::Cell::complete(sim::Cycle c) {
  CellMeta& mt = a_.meta[id_];
  mt.is_done = 1;
  mt.done_at = c;
  --a_.unfinished;
  a_.launch(i_, j_, mt.best);
}

void TriangularModularCore::Cell::commit() {
  if (i_ == j_) return;
  Arena& a = a_;
  LinkPair& lk = a.link[id_];
  const std::uint8_t rl = lk.row_launch_set;
  const std::uint8_t cl = lk.col_launch_set;
  if ((rl | cl) == 0) {  // common case: plain clock edge on both links
    lk.row_cur = lk.row_nxt;
    lk.row_has = lk.row_nxt_has;
    lk.col_cur = lk.col_nxt;
    lk.col_has = lk.col_nxt_has;
    return;
  }
  // Patient merge: a pending launch takes the link only in a cycle whose
  // through-shift leaves it empty; otherwise it keeps waiting.
  if (rl && !lk.row_nxt_has) {
    lk.row_cur = a.row_launch[id_];
    lk.row_has = 1;
    lk.row_launch_set = 0;
  } else {
    a.meta[id_].waits += rl;
    lk.row_cur = lk.row_nxt;
    lk.row_has = lk.row_nxt_has;
  }
  if (cl && !lk.col_nxt_has) {
    lk.col_cur = a.col_launch[id_];
    lk.col_has = 1;
    lk.col_launch_set = 0;
  } else {
    a.meta[id_].waits += cl;
    lk.col_cur = lk.col_nxt;
    lk.col_has = lk.col_nxt_has;
  }
}

/// A diagonal is quiescent once its cycle-0 launch fired.  A cell is
/// quiescent when both links are empty, no folded-candidate work is
/// queued, and no launch is waiting in its slots (a waiting launch needs
/// this cell's commit to merge — sleeping on it would deadlock).
bool TriangularModularCore::Cell::quiescent() const noexcept {
  const CellMeta& mt = a_.meta[id_];
  if (i_ == j_) return mt.fired != 0;
  const LinkPair& lk = a_.link[id_];
  return !lk.row_has && !lk.col_has && mt.q_head == mt.q_len &&
         !lk.row_launch_set && !lk.col_launch_set;
}

std::string TriangularModularCore::Cell::format_name() const {
  return "t" + std::to_string(i_) + "_" + std::to_string(j_);
}

/// Keys name the link registers and launch slots, with the leaf tie-off
/// convention: a diagonal never writes its own links, so downstream cells
/// do not declare reads of diagonal links.  Each declaration asks
/// wants() first, so a filtered sweep (lowering's lane naming) formats no
/// label and builds no sampler for a key it would drop.
void TriangularModularCore::Cell::describe_ports(sim::PortSet& ports) const {
  const Arena& a = a_;
  const auto slot = [](const char* base, std::size_t i, std::size_t j) {
    return std::string(base) + "[" + std::to_string(i) + "," +
           std::to_string(j) + "]";
  };
  // Flit lanes are structs, so the port layer cannot infer a sampler;
  // probe the carried cost while `has` is set, 0 otherwise (telemetry
  // only — occupancy is the interesting waveform).
  const auto writes = [&](const Flit* f, const std::uint8_t* has,
                          const char* base, std::size_t i, std::size_t j) {
    if (!ports.wants(f)) return;
    ports.writes_register(f, slot(base, i, j), [f, has]() -> std::int64_t {
      return *has != 0 ? static_cast<std::int64_t>(f->val) : 0;
    });
  };
  const auto reads = [&](const Flit* f, const char* base, std::size_t i,
                         std::size_t j) {
    if (ports.wants(f)) ports.reads_register(f, slot(base, i, j));
  };
  const LinkPair& lk = a.link[id_];
  if (i_ != j_) {
    writes(&lk.row_cur, &lk.row_has, "row", i_, j_);
    writes(&lk.col_cur, &lk.col_has, "col", i_, j_);
    // A launch slot is staged only by the neighbour it belongs to; when
    // that neighbour never launches (a trivially-solved cell) the slot
    // stays architecturally empty and declaring the read would be a
    // dangling port.
    if (a.launches(i_, j_ - 1)) reads(&a.row_launch[id_], "row_launch", i_, j_);
    if (a.launches(i_ + 1, j_)) reads(&a.col_launch[id_], "col_launch", i_, j_);
    if (j_ > i_ + 1) {  // upstreams are real cells, not diagonals
      reads(&a.link[left_].row_cur, "row", i_, j_ - 1);
      reads(&a.link[below_].col_cur, "col", i_ + 1, j_);
    }
  }
  // Completion launch targets (trivially-solved cells never launch).
  if (a.launches(i_, j_)) {
    if (j_ + 1 < a.n) {
      const std::uint32_t t = a.id(i_, j_ + 1);
      writes(&a.row_launch[t], &a.link[t].row_launch_set, "row_launch", i_,
             j_ + 1);
    }
    if (i_ > 0) {
      const std::uint32_t t = a.id(i_ - 1, j_);
      writes(&a.col_launch[t], &a.link[t].col_launch_set, "col_launch",
             i_ - 1, j_);
    }
  }
}

TriangularModularCore::TriangularModularCore(std::size_t n,
                                             std::uint64_t input_scalars)
    : n_(n), input_scalars_(input_scalars) {
  if (n_ == 0) throw std::invalid_argument("TriangularModularCore: empty");
  arena_ = SparePool<Arena>::take();
  arena_->n = n_;
}

TriangularModularCore::~TriangularModularCore() {
  SparePool<Arena>::give(std::move(arena_));
}

sim::NarrationExtent TriangularModularCore::narration_extent() const {
  return {arena_->first.back(), num_pes()};
}

bool TriangularModularCore::elaborated() const {
  return !arena_->meta.empty();
}

void TriangularModularCore::require_fresh(const sim::Engine& engine) {
  if (engine.now() > 0 || engine.num_modules() > 0) {
    throw std::invalid_argument(
        "TriangularModularCore::run: engine must be fresh");
  }
}

TriangularModularCore::Arena& TriangularModularCore::begin(
    sim::Engine& engine) {
  Arena& a = *arena_;
  a.reset_run();
  a.rec = engine.recorder();
  return a;
}

void TriangularModularCore::wire(sim::Engine& engine) {
  // Wakeup edges follow the two transport streams, the only arcs a flit
  // (through-shift or patient launch) can arrive on: each cell declares
  // its row edge to (i, j+1), then its column edge to (i-1, j).  The cells
  // are the engine's only modules, registered in arena-id order.
  const std::vector<sim::Module*>& cells = engine.modules();
  const Arena& a = *arena_;
  std::size_t id = 0;
  for (std::size_t d = 0; d < n_; ++d) {
    for (std::size_t i = 0; i + d < n_; ++i, ++id) {
      const std::size_t j = i + d;
      if (j + 1 < n_) engine.add_wakeup(*cells[id], *cells[a.id(i, j + 1)]);
      if (i > 0) engine.add_wakeup(*cells[id], *cells[a.id(i - 1, j)]);
    }
  }
}

void TriangularModularCore::describe_environment(sim::PortSet& ports) const {
  if (!elaborated()) return;
  const std::size_t n = arena_->n;
  // Boundary tie-offs: the last column's row streams and the top row's
  // column streams shift off the edge of the triangle by design.
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const Flit* const f = &arena_->link[arena_->id(i, n - 1)].row_cur;
    if (ports.wants(f)) {
      ports.reads_register(
          f, "row[" + std::to_string(i) + "," + std::to_string(n - 1) + "]");
    }
  }
  for (std::size_t j = 1; j < n; ++j) {
    const Flit* const f = &arena_->link[arena_->id(0, j)].col_cur;
    if (ports.wants(f)) {
      ports.reads_register(f, "col[0," + std::to_string(j) + "]");
    }
  }
}

std::uint64_t TriangularModularCore::pe_busy(std::size_t pe) const {
  return elaborated() ? arena_->meta.at(pe).busy : 0;
}

TriangularModularCore::Result TriangularModularCore::finish(
    sim::Engine& engine) {
  const std::size_t n = n_;
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
  out.stats.num_pes = num_pes();
  out.stats.input_scalars = input_scalars_;
  sim::OpRecorder* const rec = engine.recorder();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const CellMeta& mt = arena_->meta[arena_->id(i, j)];
      out.cost(i, j) = mt.best;
      if (i != j) {
        out.done(i, j) = mt.done_at;
        out.stats.busy_steps += mt.busy;
        out.peak_operand_buffer = std::max<std::uint64_t>(
            out.peak_operand_buffer, mt.peak);
        out.launch_waits += mt.waits;
      }
      if (rec != nullptr) {
        rec->output("cell", static_cast<std::uint64_t>(i) * n + j,
                    rec->lane(&mt.best, mt.best), mt.best);
      }
    }
  }
  out.stats.cycles = out.completion();
  out.stats.active_evals = engine.active_evals();
  out.stats.dense_evals = engine.dense_evals();
  return out;
}

TriangularModularCore::Result run_bst_modular(const std::vector<Cost>& freq,
                                              sim::Gating gating) {
  BstRule rule(freq);
  const std::size_t n = rule.num_keys();
  return TriangularModularArray<BstRule>(std::move(rule), n).run(gating);
}

TriangularModularCore::Result run_polygon_modular(
    const std::vector<Cost>& weights, sim::Gating gating) {
  PolygonRule rule(weights);
  const std::size_t n = rule.num_vertices();
  return TriangularModularArray<PolygonRule>(std::move(rule), n).run(gating);
}

TriangularModularCore::Result run_chain_modular(const std::vector<Cost>& dims,
                                                sim::Gating gating) {
  ChainRule rule(dims);
  const std::size_t n = rule.num_matrices();
  return TriangularModularArray<ChainRule>(std::move(rule), n).run(gating);
}

}  // namespace sysdp
