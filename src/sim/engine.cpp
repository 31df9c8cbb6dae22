#include "sim/engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "sim/observer.hpp"

namespace sysdp::sim {

namespace {

constexpr Cycle kQuiescencePeriod = Engine::kQuiescencePeriod;

}  // namespace

void Engine::add(Module& m) {
  const auto idx = static_cast<std::uint32_t>(modules_.size());
  modules_.push_back(&m);
  module_index_.emplace(&m, idx);
  wake_.emplace_back();
  active_.push_back(1);  // every module evaluates in its first cycle
  is_driver_.push_back(m.combinational() ? 1 : 0);
  (m.combinational() ? driver_idx_ : reg_idx_).push_back(idx);
  gated_init_ = false;  // active lists are rebuilt on the next gated step
}

std::size_t Engine::index_of(const Module& m) const {
  const auto it = module_index_.find(&m);
  if (it == module_index_.end()) {
    throw std::invalid_argument("Engine::add_wakeup: module not registered");
  }
  return it->second;
}

void Engine::add_wakeup(const Module& src, const Module& dst) {
  if (now_ > 0) {
    throw std::logic_error(
        "Engine::add_wakeup: wakeup edges must be declared before the first "
        "step() — a module may already have gone quiescent without this "
        "edge's protection (edge " +
        src.name() + " -> " + dst.name() + " declared at cycle " +
        std::to_string(now_) + ")");
  }
  wake_[index_of(src)].push_back(static_cast<std::uint32_t>(index_of(dst)));
  gated_init_ = false;  // the CSR edge view is stale
}

void Engine::add_observer(EngineObserver* obs) {
  if (obs == nullptr) {
    throw std::invalid_argument("Engine::add_observer: null observer");
  }
  if (now_ > 0) {
    throw std::logic_error(
        "Engine::add_observer: observers must attach before the first "
        "step() — on_elaborated has already fired (now at cycle " +
        std::to_string(now_) + ")");
  }
  observers_.push_back(obs);
}

std::vector<std::pair<const Module*, const Module*>> Engine::wakeup_edges()
    const {
  std::vector<std::pair<const Module*, const Module*>> edges;
  for (std::size_t i = 0; i < wake_.size(); ++i) {
    for (const std::uint32_t d : wake_[i]) {
      edges.emplace_back(modules_[i], modules_[d]);
    }
  }
  return edges;
}

void Engine::step_dense() {
  for (Module* m : modules_) m->eval(now_);
  for (Module* m : modules_) m->commit();
  active_evals_ += modules_.size();
}

void Engine::init_gated() {
  active_drivers_.clear();
  active_regs_.clear();
  for (const std::uint32_t i : driver_idx_) {
    if (active_[i]) active_drivers_.push_back(i);
  }
  for (const std::uint32_t i : reg_idx_) {
    if (active_[i]) active_regs_.push_back(i);
  }
  wake_off_.assign(modules_.size() + 1, 0);
  wake_edges_.clear();
  for (std::size_t i = 0; i < modules_.size(); ++i) {
    wake_edges_.insert(wake_edges_.end(), wake_[i].begin(), wake_[i].end());
    wake_off_[i + 1] = static_cast<std::uint32_t>(wake_edges_.size());
  }
  gated_init_ = true;
}

void Engine::step_gated() {
  if (!gated_init_) init_gated();
  for (const std::uint32_t i : active_drivers_) modules_[i]->eval(now_);
  for (const std::uint32_t i : active_regs_) modules_[i]->eval(now_);
  for (const std::uint32_t i : active_drivers_) modules_[i]->commit();
  for (const std::uint32_t i : active_regs_) modules_[i]->commit();
  active_evals_ += active_drivers_.size() + active_regs_.size();
  refresh_active();
}

void Engine::refresh_active() {
  // Phase 1 — demotion, only every kQuiescencePeriod cycles: polling the
  // virtual quiescent() per active module per cycle would eat the savings
  // of the skipped evals, and a module demoted late only runs extra no-op
  // evals (quiescence contract), so results are unchanged.  Sleeping
  // modules are never re-queried: quiescent() depends only on self-mutated
  // state, which cannot have changed while asleep.
  if ((now_ % kQuiescencePeriod) == 0) {
    // Adaptive fallback: refresh_active runs inside cycle now_'s step, after
    // its evals were counted, so the window (mark_cycle, now_] is exactly
    // now_ - mark_cycle cycles of active_evals_ growth.  If that window ran
    // at or above kDenseFallbackActivity of a dense sweep, gating is pure
    // bookkeeping overhead — revert to dense stepping for good.
    if (now_ > fallback_mark_cycle_ || fallback_mark_evals_ > 0) {
      const std::uint64_t window_active = active_evals_ - fallback_mark_evals_;
      const std::uint64_t window_dense =
          static_cast<std::uint64_t>(modules_.size()) *
          (now_ + 1 - fallback_mark_cycle_);
      if (window_dense > 0 &&
          static_cast<double>(window_active) >=
              kDenseFallbackActivity * static_cast<double>(window_dense)) {
        dense_fallback_ = true;
        fallback_cycle_ = now_;
        return;  // no more demotion or wakeup bookkeeping needed
      }
    }
    fallback_mark_evals_ = active_evals_;
    fallback_mark_cycle_ = now_ + 1;
    std::size_t kept = 0;
    for (const std::uint32_t i : active_drivers_) {  // keep driver order
      if (modules_[i]->quiescent()) {
        active_[i] = 0;
      } else {
        active_drivers_[kept++] = i;
      }
    }
    active_drivers_.resize(kept);
    kept = 0;
    for (const std::uint32_t i : active_regs_) {
      if (modules_[i]->quiescent()) {
        active_[i] = 0;
      } else {
        active_regs_[kept++] = i;
      }
    }
    active_regs_.resize(kept);
  }
  // Phase 2 — wakeup: every module still active fires its declared edges;
  // a sleeping target is appended to the active set for the next cycle.
  // Iterating the post-demotion lists matches the eager semantics on poll
  // cycles (only non-quiescent modules wake successors); between polls the
  // set is a superset of the eager one, which is harmless — the extra
  // members are quiescent, so their evals are no-ops.  Steady-state cost
  // is one flag test per edge; appends happen only on sleep->active
  // transitions.
  // Newly woken modules are collected first (they must not fire their own
  // edges until the cycle *they* are active in) and appended after.
  woken_.clear();
  const auto fire = [this](const std::vector<std::uint32_t>& list) {
    for (const std::uint32_t i : list) {
      const std::uint32_t hi = wake_off_[i + 1];
      for (std::uint32_t e = wake_off_[i]; e < hi; ++e) {
        const std::uint32_t d = wake_edges_[e];
        if (!active_[d]) {
          active_[d] = 1;
          woken_.push_back(d);
        }
      }
    }
  };
  fire(active_drivers_);
  fire(active_regs_);
  if (woken_.empty()) return;
  // Both active lists are kept sorted by module index (registration
  // order): drivers need it for bus visibility, and for the register-only
  // sweep an in-order walk keeps the per-module state accesses streaming —
  // an unordered active set defeats the hardware prefetcher and costs more
  // than the gating saves.
  std::sort(woken_.begin(), woken_.end());
  const auto regs_mid = static_cast<std::ptrdiff_t>(active_regs_.size());
  for (const std::uint32_t d : woken_) {
    if (is_driver_[d]) {
      auto pos = active_drivers_.begin();
      while (pos != active_drivers_.end() && *pos < d) ++pos;
      active_drivers_.insert(pos, d);
    } else {
      active_regs_.push_back(d);
    }
  }
  std::inplace_merge(active_regs_.begin(), active_regs_.begin() + regs_mid,
                     active_regs_.end());
}

void Engine::step() {
  if (now_ == 0) {
    if (elaboration_check_) {
      // One-shot: the netlist is complete (add/add_wakeup reject changes
      // once time starts), so the verdict cannot change on later cycles.
      const auto check = std::move(elaboration_check_);
      elaboration_check_ = nullptr;
      check(*this);
    }
    for (EngineObserver* obs : observers_) obs->on_elaborated(*this);
  }
  if (gating_ == Gating::kSparse && !dense_fallback_) {
    step_gated();
  } else {
    step_dense();
  }
  ++now_;
  dense_evals_ += modules_.size();
  if (!observers_.empty()) {
    // now_ - 1 just completed: registers hold their post-edge values.
    for (EngineObserver* obs : observers_) obs->on_cycle(*this, now_ - 1);
  }
}

void Engine::run(Cycle n) {
  for (Cycle i = 0; i < n; ++i) step();
}

RunUntilResult Engine::run_until(const std::function<bool()>& done,
                                 Cycle max_cycles) {
  if (done()) return {true, 0};
  for (Cycle i = 1; i <= max_cycles; ++i) {
    step();
    if (done()) return {true, i};
  }
  return {false, max_cycles};
}

}  // namespace sysdp::sim
