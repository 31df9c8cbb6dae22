#include "arrays/design1_modular.hpp"

#include <cstdint>
#include <stdexcept>

#include "semiring/kernels.hpp"
#include "sim/module.hpp"
#include "sim/record.hpp"
#include "sim/stats.hpp"

namespace sysdp {

namespace {

struct Token {
  Design1Modular::V val{};
  std::size_t idx = 0;
  std::size_t q = 0;
  bool valid = false;
};

}  // namespace

/// Per-array arena holding every PE's hot state, struct-of-arrays by token
/// field.  Each rail is a bank of two-phase registers (one lane per PE):
/// *_nxt stages the write, written gates the latch, so the semantics are
/// exactly Register<Token> with the storage flattened for cache-linear
/// sweeps.
struct Design1Modular::Arena {
  using V = Design1Modular::V;

  /// One SoA bank of two-phase token registers.
  struct Rail {
    std::vector<V> val, val_nxt;
    std::vector<std::size_t> idx, idx_nxt;
    std::vector<std::size_t> q, q_nxt;
    std::vector<std::uint8_t> valid, valid_nxt, written;

    void init(std::size_t n) {
      val.assign(n, V{});
      val_nxt.assign(n, V{});
      idx.assign(n, 0);
      idx_nxt.assign(n, 0);
      q.assign(n, 0);
      q_nxt.assign(n, 0);
      valid.assign(n, 0);
      valid_nxt.assign(n, 0);
      written.assign(n, 0);
    }
    void write(std::size_t p, V v, std::size_t i, std::size_t qq, bool ok) {
      val_nxt[p] = v;
      idx_nxt[p] = i;
      q_nxt[p] = qq;
      valid_nxt[p] = ok ? 1 : 0;
      written[p] = 1;
    }
    void commit(std::size_t p) {
      if (written[p]) {
        val[p] = val_nxt[p];
        idx[p] = idx_nxt[p];
        q[p] = q_nxt[p];
        valid[p] = valid_nxt[p];
        written[p] = 0;
      }
    }
    [[nodiscard]] Token read(std::size_t p) const {
      return Token{val[p], idx[p], q[p], valid[p] != 0};
    }
  };

  Rail r;    ///< moving rail (pass-through register)
  Rail acc;  ///< accumulator rail
  /// Lowering hook (sim/record.hpp), null in normal runs.  Lane keys are
  /// the rails' value-element addresses — the same keys describe_ports
  /// declares, so the compiled netlist and the captured one coincide.
  sim::OpRecorder* rec = nullptr;
  // Distributed control, one lane per PE: the local iteration counter kept
  // in already-decoded form (multiply index q, 1-based, and position j in
  // the current multiply) so the hot eval path never divides.
  std::vector<std::uint8_t> started, advance;
  std::vector<std::size_t> q_ctl, j_ctl;

  explicit Arena(std::size_t n) {
    r.init(n);
    acc.init(n);
    started.assign(n, 0);
    advance.assign(n, 0);
    q_ctl.assign(n, 1);
    j_ctl.assign(n, 0);
  }
};

/// Host-side I/O: feeds the initial vector into P_0 and harvests mode-B
/// final results streaming out of P_{m-1}.  (The host legitimately sees the
/// global cycle count; the PEs do not.)
class Design1Modular::Host : public sim::Module {
 public:
  Host(const std::vector<V>& v, std::size_t m, std::size_t q_total,
       std::size_t final_rows)
      : Module("host"), v_(v), m_(m), q_total_(q_total),
        final_rows_(final_rows), out_(final_rows, MinPlus::zero()) {}

  void eval(sim::Cycle c) override {
    input_ = Token{};
    if (c < m_) input_ = Token{v_[c], static_cast<std::size_t>(c), 1, true};
    exhausted_ = c + 1 >= m_;
    if (rec_ != nullptr) {
      // The fed element (or the idle token's 0) is an instance constant;
      // bind_now because P_0 samples the bus lane this same cycle.
      rec_->bind_now(&input_, rec_->constant(input_.val));
    }
  }
  void commit() override {}

  /// P_0 reads input() in the same cycle it is computed.
  [[nodiscard]] bool combinational() const noexcept override { return true; }

  /// Once the vector is fed, every further eval leaves input() invalid:
  /// the feed is a no-op and the gated engine may skip it.
  [[nodiscard]] bool quiescent() const noexcept override {
    return exhausted_ && !input_.valid;
  }

  /// Sample the tail PE's accumulator output after each clock edge.
  void harvest(const Token& tail_acc) {
    if (tail_acc.valid && tail_acc.q == q_total_ &&
        tail_acc.idx < final_rows_) {
      out_[tail_acc.idx] = tail_acc.val;
    }
  }

  [[nodiscard]] const Token& input() const noexcept { return input_; }
  [[nodiscard]] std::vector<V>& out() noexcept { return out_; }

  void set_recorder(sim::OpRecorder* rec) noexcept { rec_ = rec; }

  /// The feed retires for good once the vector is exhausted.
  [[nodiscard]] sim::SleepMode sleep_mode() const noexcept override {
    return sim::SleepMode::kRetire;
  }
  void describe_ports(sim::PortSet& ports) const override {
    // Token is a struct lane, so the probe is explicit: waveforms show the
    // fed value while a token is in flight and 0 between tokens.
    ports.drives_signal(&input_, "host.input", [this]() -> std::int64_t {
      return input_.valid ? static_cast<std::int64_t>(input_.val) : 0;
    });
  }

 private:
  const std::vector<V>& v_;
  std::size_t m_;
  std::size_t q_total_;
  std::size_t final_rows_;
  Token input_;
  std::vector<V> out_;
  bool exhausted_ = false;
  sim::OpRecorder* rec_ = nullptr;
};

/// One PE with distributed control: a local iteration counter that starts
/// on the first valid token, from which ODD/MOVE are derived.  Dual output
/// rails (R and ACC) let the *receiver's* mode select the moving value, the
/// registered equivalent of Figure 3(b)'s output multiplexer with its
/// per-PE control delay.  All state lives in the shared arena; the module
/// is a thin lane view.
class Design1Modular::Pe : public sim::Module {
 public:
  Pe(std::size_t index, const std::vector<Matrix<V>>& mats, Host& host,
     Arena& a, sim::ActivityStats& stats, std::size_t m)
      : Module("pe" + std::to_string(index)),
        index_(index),
        mats_(mats),
        host_(host),
        a_(a),
        stats_(stats),
        m_(m) {}

  void eval(sim::Cycle) override {
    Arena& a = a_;
    const std::size_t p = index_;
    a.advance[p] = 0;
    const std::size_t q = a.q_ctl[p];
    const std::size_t j = a.j_ctl[p];
    if (q > mats_.size()) return;  // drained
    const bool mode_a = (q % 2 == 1);
    const Matrix<V>& mat = mats_[mats_.size() - q];

    if (mode_a) {
      Token in;
      if (p == 0) {
        in = (q == 1) ? host_.input() : a.acc.read(m_ - 1);
        if (in.valid && q != 1 && in.q != q - 1) in.valid = false;
      } else {
        in = a.r.read(p - 1);
      }
      if (!a.started[p] && !in.valid) return;  // not my turn yet
      a.advance[p] = 1;
      sim::OpRecorder* const rec = a.rec;
      sim::SlotId s_in = 0;
      if (rec != nullptr) {
        // Narrate the pass-through: the R write is a pure copy, so it is a
        // rebind of the lane to the source's slot, not a tape op.
        s_in = (p == 0) ? ((q == 1) ? rec->lane(&host_.input(), in.val)
                                    : rec->lane(&a.acc.val[m_ - 1], in.val))
                        : rec->lane(&a.r.val[p - 1], in.val);
        rec->bind_staged(&a.r.val[p], s_in);
      }
      a.r.write(p, in.val, in.idx, in.q, in.valid);
      if (in.valid && p < mat.rows()) {
        const V base = (j == 0) ? MinPlus::zero() : a.acc.val[p];
        if (rec != nullptr) {
          const sim::SlotId s_base = (j == 0)
                                         ? rec->constant(MinPlus::zero())
                                         : rec->lane(&a.acc.val[p], base);
          rec->bind_staged(&a.acc.val[p],
                           rec->mac(s_base, mat(p, in.idx), s_in));
        }
        a.acc.write(p, kern::mac<MinPlus>(base, mat(p, in.idx), in.val), p, q,
                    true);
        stats_.mark_busy(p);
      }
    } else {
      a.advance[p] = 1;
      const Token stationary = (j == 0) ? a.acc.read(p) : a.r.read(p);
      sim::OpRecorder* const rec = a.rec;
      sim::SlotId s_st = 0;
      if (rec != nullptr) {
        s_st = (j == 0) ? rec->lane(&a.acc.val[p], stationary.val)
                        : rec->lane(&a.r.val[p], stationary.val);
      }
      if (j == 0) {
        if (rec != nullptr) rec->bind_staged(&a.r.val[p], s_st);
        a.r.write(p, stationary.val, stationary.idx, stationary.q,
                  stationary.valid);
      }
      Token partial;
      if (p == 0) {
        partial = (j < mat.rows()) ? Token{MinPlus::zero(), j, q, true}
                                   : Token{};
      } else {
        partial = a.acc.read(p - 1);
        if (partial.valid && partial.q != q) partial.valid = false;
      }
      if (partial.valid) {
        if (rec != nullptr) {
          const sim::SlotId s_part =
              (p == 0) ? rec->constant(MinPlus::zero())
                       : rec->lane(&a.acc.val[p - 1], partial.val);
          rec->bind_staged(&a.acc.val[p],
                           rec->mac(s_part, mat(partial.idx, p), s_st));
        }
        a.acc.write(p,
                    kern::mac<MinPlus>(partial.val, mat(partial.idx, p),
                                       stationary.val),
                    partial.idx, q, true);
        stats_.mark_busy(p);
      } else {
        if (rec != nullptr) {
          rec->bind_staged(&a.acc.val[p], rec->constant(V{}));
        }
        a.acc.write(p, V{}, 0, 0, false);
      }
    }
  }

  void commit() override {
    Arena& a = a_;
    const std::size_t p = index_;
    a.r.commit(p);
    a.acc.commit(p);
    if (a.advance[p]) {
      a.started[p] = 1;
      if (++a.j_ctl[p] == m_) {
        a.j_ctl[p] = 0;
        ++a.q_ctl[p];
      }
    }
  }

  /// Skippable before the first valid token arrives (the wakeup edge from
  /// the left neighbour / host restarts us) and after the last multiply
  /// drains.  A started, undrained PE must run every cycle: its local
  /// iteration counter is live control state.
  [[nodiscard]] bool quiescent() const noexcept override {
    return !a_.started[index_] || a_.q_ctl[index_] > mats_.size();
  }

  /// Sleeps before the first token and reactivates on input: the wakeup
  /// edges from the left neighbour / host / tail must cover every read.
  [[nodiscard]] sim::SleepMode sleep_mode() const noexcept override {
    return sim::SleepMode::kWakeable;
  }

  /// Arena lanes are named by the address of their value element; the R
  /// and ACC rails are banks of two-phase registers.
  void describe_ports(sim::PortSet& ports) const override {
    const std::size_t p = index_;
    ports.writes_register(&a_.r.val[p], "r[" + std::to_string(p) + "]");
    ports.writes_register(&a_.acc.val[p], "acc[" + std::to_string(p) + "]");
    if (p == 0) {
      ports.reads_signal(&host_.input(), "host.input");
      ports.reads_register(&a_.acc.val[m_ - 1],
                           "acc[" + std::to_string(m_ - 1) + "]");
    } else {
      ports.reads_register(&a_.r.val[p - 1],
                           "r[" + std::to_string(p - 1) + "]");
      ports.reads_register(&a_.acc.val[p - 1],
                           "acc[" + std::to_string(p - 1) + "]");
    }
  }

 private:
  std::size_t index_;
  const std::vector<Matrix<V>>& mats_;
  Host& host_;
  Arena& a_;
  sim::ActivityStats& stats_;
  std::size_t m_;
};

Design1Modular::Design1Modular(std::vector<Matrix<V>> mats, std::vector<V> v)
    : mats_(std::move(mats)), v_(std::move(v)), m_(v_.size()), stats_(m_) {
  if (mats_.empty()) throw std::invalid_argument("Design1Modular: no matrices");
  if (m_ == 0) throw std::invalid_argument("Design1Modular: empty vector");
  for (std::size_t i = 0; i < mats_.size(); ++i) {
    if (mats_[i].cols() != m_ ||
        (mats_[i].rows() != m_ && !(i == 0 && mats_[i].rows() <= m_))) {
      throw std::invalid_argument("Design1Modular: bad matrix shape");
    }
  }
}

Design1Modular::~Design1Modular() = default;

void Design1Modular::elaborate(sim::Engine& engine) {
  const std::size_t Q = mats_.size();
  const std::size_t r = mats_.front().rows();
  stats_.reset();
  arena_ = std::make_unique<Arena>(m_);
  arena_->rec = engine.recorder();
  host_ = std::make_unique<Host>(v_, m_, Q, r);
  host_->set_recorder(engine.recorder());
  engine.add(*host_);
  pes_.clear();
  for (std::size_t p = 0; p < m_; ++p) {
    pes_.push_back(
        std::make_unique<Pe>(p, mats_, *host_, *arena_, stats_, m_));
    engine.add(*pes_.back());
  }
  // Wakeup edges follow the register dataflow: the host feed starts P_0,
  // each PE's R/ACC rails feed its right neighbour, and the tail's ACC
  // rail feeds back into P_0 between multiplies.
  engine.add_wakeup(*host_, *pes_.front());
  for (std::size_t p = 1; p < m_; ++p) {
    engine.add_wakeup(*pes_[p - 1], *pes_[p]);
  }
  engine.add_wakeup(*pes_.back(), *pes_.front());
}

void Design1Modular::describe_environment(sim::PortSet& ports) const {
  if (arena_ == nullptr) return;
  // Mode-B harvests sample the tail ACC lane each cycle; a mode-A finish
  // reads the final results in place across the first r lanes.
  ports.reads_register(&arena_->acc.val[m_ - 1],
                       "acc[" + std::to_string(m_ - 1) + "]");
  if (mats_.size() % 2 == 1) {
    for (std::size_t p = 0; p < mats_.front().rows(); ++p) {
      ports.reads_register(&arena_->acc.val[p],
                           "acc[" + std::to_string(p) + "]");
    }
  }
  // The tail R lane has no right neighbour; declare the architectural
  // tie-off so the pass-through writes don't read as dangling.
  ports.reads_register(&arena_->r.val[m_ - 1],
                       "r[" + std::to_string(m_ - 1) + "]");
}

sim::NarrationExtent Design1Modular::narration_extent() const {
  std::uint64_t rows = 0;
  for (const Matrix<V>& mat : mats_) rows += mat.rows();
  return {rows * m_, 2 * m_ + 1};
}

RunResult<Design1Modular::V> Design1Modular::run(sim::Gating gating) {
  sim::Engine engine(gating);
  return run(engine);
}

RunResult<Design1Modular::V> Design1Modular::run(sim::Engine& engine) {
  if (engine.now() > 0 || engine.num_modules() > 0) {
    throw std::invalid_argument("Design1Modular::run: engine must be fresh");
  }
  const std::size_t Q = mats_.size();
  const std::size_t r = mats_.front().rows();
  elaborate(engine);

  const bool final_mode_a = (Q % 2 == 1);
  const sim::Cycle total = (Q - 1) * m_ + (m_ - 1) + (r - 1) + 1;
  sim::OpRecorder* const rec = engine.recorder();
  for (sim::Cycle c = 0; c < total; ++c) {
    engine.step();
    if (!final_mode_a) {
      const Token tail = arena_->acc.read(m_ - 1);
      if (rec != nullptr && tail.valid && tail.q == Q && tail.idx < r) {
        rec->output("out", tail.idx,
                    rec->lane(&arena_->acc.val[m_ - 1], tail.val), tail.val);
      }
      host_->harvest(tail);
    }
  }

  RunResult<V> res;
  res.num_pes = m_;
  res.cycles = total;
  res.busy_steps = stats_.total_busy();
  res.input_scalars = m_ + res.busy_steps;
  res.active_evals = engine.active_evals();
  res.dense_evals = engine.dense_evals();
  if (final_mode_a) {
    for (std::size_t p = 0; p < r; ++p) {
      host_->out()[p] = arena_->acc.val[p];
      if (rec != nullptr) {
        rec->output("out", p, rec->lane(&arena_->acc.val[p], host_->out()[p]),
                    host_->out()[p]);
      }
    }
  }
  res.values = host_->out();
  return res;
}

}  // namespace sysdp
