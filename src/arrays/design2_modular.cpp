#include "arrays/design2_modular.hpp"

#include <cstdint>
#include <stdexcept>

#include "semiring/kernels.hpp"
#include "sim/record.hpp"

namespace sysdp {

namespace {

/// Per-cycle control decode shared by the modules: multiply index (1-based)
/// and local iteration j for global cycle c on an m-wide array.
struct Phase {
  std::size_t q;
  std::size_t j;
};

Phase decode(sim::Cycle c, std::size_t m) {
  return Phase{static_cast<std::size_t>(c) / m + 1,
               static_cast<std::size_t>(c) % m};
}

}  // namespace

/// Per-array arena for the hot PE state: the ACC two-phase register bank
/// (value + written flag, one lane per PE), the S result registers, and
/// the MOVE/drained control bits — flattened so the per-cycle sweep walks
/// contiguous memory instead of chasing one heap object per PE.
struct Design2Modular::Arena {
  using V = Design2Modular::V;

  std::vector<V> acc, acc_nxt, s;
  std::vector<std::uint8_t> acc_written, move, drained;

  /// Tape recorder mirroring the datapath, or null when not lowering.
  sim::OpRecorder* rec = nullptr;

  explicit Arena(std::size_t n)
      : acc(n, MinPlus::zero()),
        acc_nxt(n, MinPlus::zero()),
        s(n, MinPlus::zero()),
        acc_written(n, 0),
        move(n, 0),
        drained(n, 0) {}
};

/// Drives the broadcast bus: the external input vector during the first
/// multiply (FIRST = 1), the fed-back S registers afterwards.
class Design2Modular::FeedbackUnit : public sim::Module {
 public:
  FeedbackUnit(sim::Bus<V>& bus, const std::vector<V>& v, std::size_t m)
      : Module("feedback"), bus_(bus), v_(v), m_(m) {}

  void eval(sim::Cycle c) override {
    phase_ = decode(c, m_);
    bus_.drive(c, phase_.q == 1 ? v_[phase_.j] : s_snapshot_[phase_.j]);
  }
  void commit() override {}

  /// Drives the broadcast bus the PEs sample in the same cycle.
  [[nodiscard]] bool combinational() const noexcept override { return true; }

  /// The cycle decode, computed once per cycle for all PEs (the unit is a
  /// combinational driver, so it is stable before any PE evaluates).
  [[nodiscard]] const Phase& phase() const noexcept { return phase_; }

  /// The PEs publish their S registers here on MOVE (the feedback wiring).
  std::vector<V> s_snapshot_;

  /// The bus combinationally re-presents registered state: the external
  /// vector (constant) or the fed-back S snapshots.
  void describe_ports(sim::PortSet& ports) const override {
    ports.drives(bus_, "bus");
    for (std::size_t p = 0; p < m_; ++p) {
      ports.reads_register(&s_snapshot_[p],
                           "s_snapshot[" + std::to_string(p) + "]");
      ports.derives(&bus_, &s_snapshot_[p]);
    }
  }

 private:
  sim::Bus<V>& bus_;
  const std::vector<V>& v_;
  std::size_t m_;
  Phase phase_{1, 0};
};

/// One processing element of Figure 4(b): accumulator, S register, and the
/// add/compare datapath fed from the broadcast bus.  State lives in the
/// shared arena; the module is a thin lane view.
class Design2Modular::Pe : public sim::Module {
 public:
  Pe(std::size_t index, const std::vector<Matrix<V>>& mats,
     sim::Bus<V>& bus, FeedbackUnit& feedback, Arena& a,
     sim::ActivityStats& stats, std::size_t m)
      : Module("pe" + std::to_string(index)),
        index_(index),
        mats_(mats),
        bus_(bus),
        feedback_(feedback),
        a_(a),
        stats_(stats),
        m_(m) {}

  void eval(sim::Cycle c) override {
    const std::size_t p = index_;
    const auto [q, j] = feedback_.phase();
    if (q > mats_.size()) return;
    const Matrix<V>& mat = mats_[mats_.size() - q];
    if (p >= mat.rows()) {
      // Only the (possibly rectangular) leftmost matrix can be short, and
      // it runs last: this PE has no further work in this run.
      if (q == mats_.size()) a_.drained[p] = 1;
      return;
    }
    const auto x = bus_.sample(c);
    if (!x.has_value()) throw std::logic_error("Design2Modular: dead bus");
    const V base = (j == 0) ? MinPlus::zero() : a_.acc[p];
    if (sim::OpRecorder* const rec = a_.rec; rec != nullptr) {
      // During the first multiply the bus carries the external vector
      // (constants on the tape); afterwards it re-presents the fed-back S
      // snapshot lanes.  MOVE forwards the freshly staged ACC slot into the
      // S register and the feedback snapshot — pure copies, elided to
      // binding updates.
      const sim::SlotId s_x = (q == 1)
                                  ? rec->constant(*x)
                                  : rec->lane(&feedback_.s_snapshot_[j], *x);
      const sim::SlotId s_base = (j == 0) ? rec->constant(MinPlus::zero())
                                          : rec->lane(&a_.acc[p], base);
      const sim::SlotId s_mac = rec->mac(s_base, mat(p, j), s_x);
      rec->bind_staged(&a_.acc[p], s_mac);
      if (j + 1 == m_) {
        rec->bind_staged(&a_.s[p], s_mac);
        rec->bind_staged(&feedback_.s_snapshot_[p], s_mac);
      }
    }
    a_.acc_nxt[p] = kern::mac<MinPlus>(base, mat(p, j), *x);
    a_.acc_written[p] = 1;
    stats_.mark_busy(p);
    a_.move[p] = (j + 1 == m_) ? 1 : 0;  // MOVE fires at the multiply bound
  }

  void commit() override {
    const std::size_t p = index_;
    if (a_.acc_written[p]) {
      a_.acc[p] = a_.acc_nxt[p];
      a_.acc_written[p] = 0;
    }
    if (a_.move[p]) {
      a_.s[p] = a_.acc[p];
      feedback_.s_snapshot_[p] = a_.s[p];
      a_.move[p] = 0;
    }
  }

  /// A PE beyond the final matrix's rows never works again; no wakeup
  /// edge exists into Design 2 PEs, so it sleeps through the drain.
  [[nodiscard]] bool quiescent() const noexcept override {
    return a_.drained[index_] != 0;
  }

  /// Once drained a Design 2 PE never reactivates: retirement, not sleep,
  /// so no wakeup edge into it is required.
  [[nodiscard]] sim::SleepMode sleep_mode() const noexcept override {
    return sim::SleepMode::kRetire;
  }

  void describe_ports(sim::PortSet& ports) const override {
    const std::size_t p = index_;
    ports.reads(bus_, "bus");
    ports.writes_register(&a_.s[p], "s[" + std::to_string(p) + "]");
    ports.writes_register(&feedback_.s_snapshot_[p],
                          "s_snapshot[" + std::to_string(p) + "]");
  }

  [[nodiscard]] V result() const { return a_.s[index_]; }

 private:
  std::size_t index_;
  const std::vector<Matrix<V>>& mats_;
  sim::Bus<V>& bus_;
  FeedbackUnit& feedback_;
  Arena& a_;
  sim::ActivityStats& stats_;
  std::size_t m_;
};

Design2Modular::Design2Modular(std::vector<Matrix<V>> mats, std::vector<V> v)
    : mats_(std::move(mats)), v_(std::move(v)), m_(v_.size()), stats_(m_) {
  if (mats_.empty()) throw std::invalid_argument("Design2Modular: no matrices");
  if (m_ == 0) throw std::invalid_argument("Design2Modular: empty vector");
  for (std::size_t i = 0; i < mats_.size(); ++i) {
    if (mats_[i].cols() != m_ ||
        (mats_[i].rows() != m_ && !(i == 0 && mats_[i].rows() <= m_))) {
      throw std::invalid_argument("Design2Modular: bad matrix shape");
    }
  }
}

Design2Modular::~Design2Modular() = default;

void Design2Modular::elaborate(sim::Engine& engine) {
  stats_.reset();
  arena_ = std::make_unique<Arena>(m_);
  arena_->rec = engine.recorder();
  feedback_ = std::make_unique<FeedbackUnit>(bus_, v_, m_);
  feedback_->s_snapshot_.assign(m_, MinPlus::zero());
  engine.add(*feedback_);  // bus driver first
  pes_.clear();
  for (std::size_t p = 0; p < m_; ++p) {
    pes_.push_back(std::make_unique<Pe>(p, mats_, bus_, *feedback_, *arena_,
                                        stats_, m_));
    engine.add(*pes_.back());
  }
}

void Design2Modular::describe_environment(sim::PortSet& ports) const {
  if (arena_ == nullptr) return;
  // Result harvest reads the first final-matrix-rows S registers; the
  // remaining lanes are tied off (their PEs drain during the last multiply).
  for (std::size_t p = 0; p < m_; ++p) {
    ports.reads_register(&arena_->s[p], "s[" + std::to_string(p) + "]");
  }
}

RunResult<Design2Modular::V> Design2Modular::run(sim::Gating gating) {
  sim::Engine engine(gating);
  return run(engine);
}

RunResult<Design2Modular::V> Design2Modular::run(sim::Engine& engine) {
  if (engine.now() > 0 || engine.num_modules() > 0) {
    throw std::invalid_argument("Design2Modular::run: engine must be fresh");
  }
  elaborate(engine);

  const sim::Cycle total = static_cast<sim::Cycle>(mats_.size()) * m_;
  engine.run(total);

  RunResult<V> res;
  res.num_pes = m_;
  res.cycles = total;
  res.busy_steps = stats_.total_busy();
  res.input_scalars = m_ + res.busy_steps;  // vector + one element per MAC
  res.active_evals = engine.active_evals();
  res.dense_evals = engine.dense_evals();
  const std::size_t r = mats_.front().rows();
  res.values.reserve(r);
  sim::OpRecorder* const rec = engine.recorder();
  for (std::size_t p = 0; p < r; ++p) {
    const V val = pes_[p]->result();
    if (rec != nullptr) {
      rec->output("out", p, rec->lane(&arena_->s[p], val), val);
    }
    res.values.push_back(val);
  }
  return res;
}

}  // namespace sysdp
