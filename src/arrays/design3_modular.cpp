#include "arrays/design3_modular.hpp"

#include <cstdint>
#include <stdexcept>

#include "semiring/kernels.hpp"
#include "sim/module.hpp"
#include "sim/record.hpp"
#include "sim/register.hpp"
#include "sim/stats.hpp"

namespace sysdp {

namespace {

/// A node token travelling the R pipeline (Figure 5's data format: node
/// value, stage tag, running h, winning station).
struct Token {
  Cost x = 0;
  std::size_t stage = 0;  // 1..N; N+1 marks the collector
  std::size_t idx = 0;
  Cost h = kInfCost;
  std::size_t arg = 0;
  bool valid = false;
};

/// A completed (x, h) pair on the feedback path.
struct Pair {
  Cost x = 0;
  Cost h = kInfCost;
  std::size_t stage = 0;
  bool valid = false;
};

}  // namespace

/// Per-array arena for the station-local hot state: the R pipeline rail as
/// a bank of two-phase registers (struct-of-arrays by token field) and the
/// K/H feedback registers.  K/H loads are combinational (write-then-commit
/// inside eval in the original model), so they need no staging — a plain
/// store is the identical semantics.
struct Design3Modular::Arena {
  // R rail, two-phase.
  std::vector<Cost> r_x, r_x_nxt, r_h, r_h_nxt;
  std::vector<std::size_t> r_stage, r_stage_nxt, r_idx, r_idx_nxt, r_arg,
      r_arg_nxt;
  std::vector<std::uint8_t> r_valid, r_valid_nxt, r_written;
  // K/H feedback registers, immediate.
  std::vector<Cost> kh_x, kh_h;
  std::vector<std::size_t> kh_stage;
  std::vector<std::uint8_t> kh_valid;

  /// Tape recorder mirroring the cost plane, or null when not lowering.
  /// Token x/stage/idx fields and the K/H match logic are control (they
  /// never depend on accumulated costs), so only h and arg are narrated.
  sim::OpRecorder* rec = nullptr;

  explicit Arena(std::size_t n)
      : r_x(n, 0), r_x_nxt(n, 0),
        r_h(n, kInfCost), r_h_nxt(n, kInfCost),
        r_stage(n, 0), r_stage_nxt(n, 0),
        r_idx(n, 0), r_idx_nxt(n, 0),
        r_arg(n, 0), r_arg_nxt(n, 0),
        r_valid(n, 0), r_valid_nxt(n, 0), r_written(n, 0),
        kh_x(n, 0), kh_h(n, kInfCost), kh_stage(n, 0), kh_valid(n, 0) {}

  [[nodiscard]] Token r_read(std::size_t p) const {
    return Token{r_x[p], r_stage[p], r_idx[p], r_h[p], r_arg[p],
                 r_valid[p] != 0};
  }
  void r_write(std::size_t p, const Token& t) {
    r_x_nxt[p] = t.x;
    r_stage_nxt[p] = t.stage;
    r_idx_nxt[p] = t.idx;
    r_h_nxt[p] = t.h;
    r_arg_nxt[p] = t.arg;
    r_valid_nxt[p] = t.valid ? 1 : 0;
    r_written[p] = 1;
  }
  void r_commit(std::size_t p) {
    if (r_written[p]) {
      r_x[p] = r_x_nxt[p];
      r_stage[p] = r_stage_nxt[p];
      r_idx[p] = r_idx_nxt[p];
      r_h[p] = r_h_nxt[p];
      r_arg[p] = r_arg_nxt[p];
      r_valid[p] = r_valid_nxt[p];
      r_written[p] = 0;
    }
  }
};

/// Default-token invariant the gating relies on: invalid tokens in the R
/// pipeline are always exactly Token{} (the controller only ever emits
/// Token{} as "no input", and stations forward tokens verbatim), so a
/// skipped station's stale invalid register is bit-identical to the
/// rewrite a dense eval would have staged.
///
/// Owns the feedback bus: latches P_{m-1}'s completed pair for one cycle
/// and presents it to the selected station (round-robin), plus the host
/// input feeder for P_0.  Also the home of the path registers and the
/// collector capture (both physically live next to P_{m-1}; kept here so
/// the PE stays a pure datapath).
class Design3Modular::Controller : public sim::Module {
 public:
  Controller(const NodeValueGraph& graph, std::size_t m, std::size_t n)
      : Module("controller"), graph_(graph), m_(m), n_(n),
        pred_(n, std::vector<std::size_t>(m, 0)) {}

  void eval(sim::Cycle c) override {
    // Host input for P_0 this cycle.
    input_ = Token{};
    if (c < static_cast<sim::Cycle>(n_) * m_) {
      const std::size_t k = static_cast<std::size_t>(c) / m_ + 1;
      const std::size_t i = static_cast<std::size_t>(c) % m_;
      input_ = Token{graph_.value(k - 1, i), k, i,
                     k == 1 ? Cost{0} : kInfCost, 0, true};
    } else if (c == static_cast<sim::Cycle>(n_) * m_) {
      input_ = Token{0, n_ + 1, 0, kInfCost, 0, true};  // collector
    }
    // Feedback delivery: the pair captured last cycle goes to station
    // c mod m (the circulating token selects the pick-up station).
    delivery_ = in_flight_.read();
    delivery_station_ = static_cast<std::size_t>(c) % m_;
  }

  void commit() override { in_flight_.commit(); }

  /// The stations read input()/delivery() in the cycle they are computed.
  [[nodiscard]] bool combinational() const noexcept override { return true; }

  /// Nothing left to feed forward (inputs exhausted) and nothing in flight
  /// on the feedback path, presented or latched.  All three members are
  /// only mutated by this module's own eval/commit, and a valid capture
  /// from the tail can only happen in a cycle where the tail's wakeup
  /// edges have already re-activated the controller.
  [[nodiscard]] bool quiescent() const noexcept override {
    return !input_.valid && !delivery_.valid && !in_flight_.read().valid;
  }

  /// Called by P_{m-1} during eval with its outgoing token (registered:
  /// visible to stations only next cycle).
  void capture(sim::Cycle c, const Token& t) {
    if (!t.valid) {
      in_flight_.write(Pair{});
      return;
    }
    if (t.stage <= n_) {
      in_flight_.write(Pair{t.x, t.h, t.stage, true});
      if (t.stage >= 2) pred_[t.stage - 1][t.idx] = t.arg;
    } else {
      in_flight_.write(Pair{});
      collector_ = t;
      done_cycle_ = c;
    }
  }

  [[nodiscard]] const Token& input() const noexcept { return input_; }
  [[nodiscard]] std::size_t width() const noexcept { return m_; }
  [[nodiscard]] const Pair& delivery() const noexcept { return delivery_; }
  [[nodiscard]] std::size_t delivery_station() const noexcept {
    return delivery_station_;
  }
  [[nodiscard]] const Token& collector() const noexcept { return collector_; }
  [[nodiscard]] const std::vector<std::vector<std::size_t>>& pred() const {
    return pred_;
  }

  /// Storage keys for the port declarations of the modules (and the
  /// testbench) that touch controller-owned state via capture()/harvest.
  [[nodiscard]] const void* in_flight_key() const noexcept {
    return &in_flight_;
  }
  [[nodiscard]] const void* collector_key() const noexcept {
    return &collector_;
  }
  [[nodiscard]] const void* pred_key() const noexcept { return &pred_; }

  /// Telemetry probes for the controller-owned struct lanes the tail PE
  /// declares (the port layer cannot infer samplers for them).
  [[nodiscard]] std::int64_t in_flight_probe() const {
    const Pair f = in_flight_.read();
    return f.valid ? static_cast<std::int64_t>(f.h) : 0;
  }
  [[nodiscard]] std::int64_t collector_probe() const {
    return collector_.valid ? static_cast<std::int64_t>(collector_.h) : 0;
  }
  /// Path-register occupancy: how many predecessor entries are nonzero so
  /// far — a staircase waveform that tracks completed stages.
  [[nodiscard]] std::int64_t pred_probe() const {
    std::int64_t filled = 0;
    for (const auto& row : pred_) {
      for (const std::size_t arg : row) filled += arg != 0 ? 1 : 0;
    }
    return filled;
  }

  /// Sleeps once the feed is exhausted and the feedback path is empty;
  /// the tail (and its predecessor) wakeup edges reactivate it.
  [[nodiscard]] sim::SleepMode sleep_mode() const noexcept override {
    return sim::SleepMode::kWakeable;
  }

  /// `delivery` combinationally re-presents the latched in-flight pair —
  /// the derivation lets wakeup-coverage accept the tail's edges to the
  /// stations in place of controller -> station edges (which would keep
  /// the whole array awake during pipeline fill).
  void describe_ports(sim::PortSet& ports) const override {
    // Struct-valued lanes carry explicit probes: the input token shows
    // the node value being fed, the delivery pair its prefix cost h (0
    // while no token is in flight, so waveforms read as activity bursts).
    ports.drives_signal(&input_, "ctrl.input", [this]() -> std::int64_t {
      return input_.valid ? static_cast<std::int64_t>(input_.x) : 0;
    });
    ports.drives_signal(&delivery_, "ctrl.delivery",
                        [this]() -> std::int64_t {
                          return delivery_.valid
                                     ? static_cast<std::int64_t>(delivery_.h)
                                     : 0;
                        });
    ports.reads_register(&in_flight_, "in_flight");
    ports.derives(&delivery_, &in_flight_);
  }

 private:
  const NodeValueGraph& graph_;
  std::size_t m_;
  std::size_t n_;
  sim::Register<Pair> in_flight_;
  Token input_;
  Pair delivery_;
  std::size_t delivery_station_ = 0;
  Token collector_;
  sim::Cycle done_cycle_ = 0;
  std::vector<std::vector<std::size_t>> pred_;
};

/// One PE of Figure 5(b): R register, K/H feedback registers, and the
/// F (edge cost) / A (add) / C (compare) datapath.  State lives in the
/// shared arena; the module is a thin lane view.
class Design3Modular::Pe : public sim::Module {
 public:
  Pe(std::size_t index, const NodeValueGraph& graph, Controller& ctrl,
     Arena& a, bool is_tail, sim::ActivityStats& stats, std::size_t n)
      : Module("pe" + std::to_string(index)),
        index_(index),
        graph_(graph),
        ctrl_(ctrl),
        a_(a),
        is_tail_(is_tail),
        stats_(stats),
        n_(n) {}

  void eval(sim::Cycle c) override {
    Arena& a = a_;
    const std::size_t p = index_;
    sim::OpRecorder* const rec = a.rec;
    // Same-cycle feedback load (the paper's walkthrough: an arriving token
    // meets the pair delivered this very iteration).
    if (ctrl_.delivery().valid && ctrl_.delivery_station() == p) {
      const Pair& d = ctrl_.delivery();
      a.kh_x[p] = d.x;
      a.kh_h[p] = d.h;
      a.kh_stage[p] = d.stage;
      a.kh_valid[p] = 1;
      // The K/H load forwards the in-flight pair's prefix cost: a copy,
      // visible intra-cycle (the fold below may fire this very eval).
      if (rec != nullptr) {
        rec->bind_now(&a.kh_h[p], rec->lane(ctrl_.in_flight_key(), d.h));
      }
    }
    Token in = (p == 0) ? ctrl_.input() : a.r_read(p - 1);
    sim::SlotId s_in = 0;
    const bool track = rec != nullptr && in.valid;
    if (track) {
      // Host-fed tokens carry constant prefixes (0 from the source stage,
      // +inf otherwise); pipelined tokens ride the left neighbour's rail
      // lane as an (h, arg) pair.
      s_in = (p == 0)
                 ? rec->constant_pair(in.h, static_cast<Cost>(in.arg))
                 : rec->lane_pair(&a.r_x[p - 1], in.h,
                                  static_cast<Cost>(in.arg));
    }
    if (in.valid && in.stage >= 2) {
      if (a.kh_valid[p] && a.kh_stage[p] + 1 == in.stage) {
        const Cost edge =
            in.stage <= n_
                ? graph_.transition_cost(in.stage - 2, a.kh_x[p], in.x)
                : Cost{0};
        if (track) {
          s_in = rec->relax(s_in, rec->lane(&a.kh_h[p], a.kh_h[p]), edge,
                            static_cast<Cost>(p));
        }
        const Cost cand = sat_add(a.kh_h[p], edge);
        kern::fold_min(cand, p, in.h, in.arg);
        stats_.mark_busy(p);
      }
    }
    a.r_write(p, in);
    if (track) rec->bind_staged(&a.r_x[p], s_in);
    if (is_tail_) {
      if (rec != nullptr) {
        if (in.valid && in.stage <= n_) {
          rec->bind_staged(ctrl_.in_flight_key(), s_in);
          // The path register write: the token's winning station becomes
          // the predecessor entry for (stage, idx).
          if (in.stage >= 2) {
            rec->output_arg("pred",
                            static_cast<std::uint64_t>(in.stage - 1) *
                                    ctrl_.width() +
                                in.idx,
                            s_in, static_cast<Cost>(in.arg));
          }
        } else {
          rec->bind_staged(ctrl_.in_flight_key(), rec->constant(kInfCost));
          if (in.valid) rec->bind_now(ctrl_.collector_key(), s_in);
        }
      }
      ctrl_.capture(c, in);  // registered hand-off to feedback
    }
  }

  void commit() override { a_.r_commit(index_); }

  /// No valid token in the R register means the last input was invalid and
  /// eval would only rewrite Token{} over Token{}: skippable.  A pending
  /// K/H pair alone does no work (the datapath fires on token arrival),
  /// and every token/delivery that could arrive is covered by a wakeup
  /// edge from its producer.
  [[nodiscard]] bool quiescent() const noexcept override {
    return a_.r_valid[index_] == 0;
  }

  /// Sleeps between tokens; the R-pipeline and feedback wakeup edges
  /// reactivate it.
  [[nodiscard]] sim::SleepMode sleep_mode() const noexcept override {
    return sim::SleepMode::kWakeable;
  }

  void describe_ports(sim::PortSet& ports) const override {
    const std::size_t p = index_;
    ports.reads_signal(&ctrl_.delivery(), "ctrl.delivery");
    ports.writes_register(&a_.r_x[p], "r[" + std::to_string(p) + "]");
    if (p == 0) {
      ports.reads_signal(&ctrl_.input(), "ctrl.input");
    } else {
      ports.reads_register(&a_.r_x[p - 1],
                           "r[" + std::to_string(p - 1) + "]");
    }
    if (is_tail_) {
      // capture(): staged write of the controller's in-flight pair (a
      // two-phase register latched at the controller's commit) plus the
      // harvest-only collector token and predecessor table.
      ports.writes_register(ctrl_.in_flight_key(), "in_flight",
                            [c = &ctrl_] { return c->in_flight_probe(); });
      ports.writes_register(ctrl_.collector_key(), "collector",
                            [c = &ctrl_] { return c->collector_probe(); });
      ports.writes_register(ctrl_.pred_key(), "pred",
                            [c = &ctrl_] { return c->pred_probe(); });
    }
  }

 private:
  std::size_t index_;
  const NodeValueGraph& graph_;
  Controller& ctrl_;
  Arena& a_;
  bool is_tail_;
  sim::ActivityStats& stats_;
  std::size_t n_;
};

Design3Modular::Design3Modular(const NodeValueGraph& graph)
    : graph_(graph),
      m_(graph.stage_size(0)),
      n_stages_(graph.num_stages()),
      stats_(m_) {
  if (!graph.uniform_width()) {
    throw std::invalid_argument("Design3Modular: non-uniform width");
  }
}

Design3Modular::~Design3Modular() = default;

void Design3Modular::elaborate(sim::Engine& engine) {
  stats_.reset();
  arena_ = std::make_unique<Arena>(m_);
  arena_->rec = engine.recorder();
  controller_ = std::make_unique<Controller>(graph_, m_, n_stages_);
  engine.add(*controller_);  // bus driver before the stations
  pes_.clear();
  for (std::size_t p = 0; p < m_; ++p) {
    pes_.push_back(std::make_unique<Pe>(p, graph_, *controller_, *arena_,
                                        p + 1 == m_, stats_, n_stages_));
    engine.add(*pes_.back());
  }
  // Wakeup edges follow the register dataflow.  The R pipeline:
  // controller -> P_0 and P_{p-1} -> P_p.  The feedback path: the tail
  // stages the controller's in-flight pair (so the tail AND whatever can
  // wake the tail — its predecessor — must wake the controller, or a
  // staged capture would miss its commit), and a latched pair is delivered
  // to station (c mod m), so the tail wakes every station.
  engine.add_wakeup(*controller_, *pes_.front());
  for (std::size_t p = 1; p < m_; ++p) {
    engine.add_wakeup(*pes_[p - 1], *pes_[p]);
  }
  engine.add_wakeup(*pes_.back(), *controller_);
  if (m_ > 1) engine.add_wakeup(*pes_[m_ - 2], *controller_);
  // Station 0 is skipped: the controller cannot be quiescent while a
  // delivery is pending, so the controller -> P_0 pipeline edge already
  // covers P_0's delivery input.
  for (std::size_t p = 1; p < m_; ++p) {
    engine.add_wakeup(*pes_.back(), *pes_[p]);
  }
}

void Design3Modular::describe_environment(sim::PortSet& ports) const {
  if (controller_ == nullptr) return;
  ports.reads_register(controller_->collector_key(), "collector");
  ports.reads_register(controller_->pred_key(), "pred");
  // The tail's R lane has no right neighbour (the hand-off to the feedback
  // path is the staged capture, not this register): architectural tie-off.
  ports.reads_register(&arena_->r_x[m_ - 1],
                       "r[" + std::to_string(m_ - 1) + "]");
}

sim::NarrationExtent Design3Modular::narration_extent() const {
  const std::uint64_t m = m_;
  const std::uint64_t stages = n_stages_;
  return {.ops = (stages > 0 ? stages - 1 : 0) * m * m + m};
}

Design3Result Design3Modular::run(sim::Gating gating) {
  sim::Engine engine(gating);
  return run(engine);
}

Design3Result Design3Modular::run(sim::Engine& engine) {
  if (engine.now() > 0 || engine.num_modules() > 0) {
    throw std::invalid_argument("Design3Modular::run: engine must be fresh");
  }
  elaborate(engine);

  const sim::Cycle total = static_cast<sim::Cycle>(n_stages_ + 1) * m_;
  engine.run(total);

  Design3Result out;
  out.stats.num_pes = m_;
  out.stats.cycles = total;
  out.stats.busy_steps = stats_.total_busy();
  out.stats.input_scalars =
      static_cast<std::uint64_t>(n_stages_) * m_;  // node values only
  out.stats.active_evals = engine.active_evals();
  out.stats.dense_evals = engine.dense_evals();
  const Token& col = controller_->collector();
  out.cost = col.h;
  if (sim::OpRecorder* const rec = engine.recorder(); rec != nullptr) {
    const sim::SlotId s_col = rec->lane_pair(
        controller_->collector_key(), col.h, static_cast<Cost>(col.arg));
    rec->output("cost", 0, s_col, col.h);
    rec->output_arg("arg", 0, s_col, static_cast<Cost>(col.arg));
  }
  if (!is_inf(out.cost)) {
    out.path.assign(n_stages_, 0);
    out.path[n_stages_ - 1] = col.arg;
    const auto& pred = controller_->pred();
    for (std::size_t k = n_stages_ - 1; k > 0; --k) {
      out.path[k - 1] = pred[k][out.path[k]];
    }
  }
  return out;
}

}  // namespace sysdp
