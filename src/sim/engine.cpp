#include "sim/engine.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "sim/observer.hpp"

namespace sysdp::sim {

void Engine::frozen(const char* call, const std::string& what) const {
  throw std::logic_error(std::string("Engine::") + call + ": " + what +
                         " after the first step() (now at cycle " +
                         std::to_string(now_) + ")");
}

void Engine::add(Module& m) {
  if (now_ > 0) frozen("add", "module " + m.name());
  if (registered(m)) {
    throw std::invalid_argument("Engine::add: module " + m.name() +
                                " is already registered");
  }
  const auto idx = static_cast<std::uint32_t>(modules_.size());
  m.engine_index_ = idx;
  modules_.push_back(&m);
  active_.push_back(1);  // every module evaluates in its first cycle
  is_driver_.push_back(m.combinational() ? 1 : 0);
  (m.combinational() ? active_drivers_ : active_regs_).push_back(idx);
}

void Engine::add_wakeup(const Module& src, const Module& dst) {
  if (now_ > 0) {
    frozen("add_wakeup", "edge " + src.name() + " -> " + dst.name());
  }
  const std::uint32_t s = find_index(src);
  edges_.emplace_back(s, find_index(dst));
}

std::uint32_t Engine::find_index(const Module& m) const {
  if (registered(m)) return m.engine_index_;
  // Cold path: m was registered here and since with another engine, or
  // never here.
  const auto it = std::find(modules_.begin(), modules_.end(), &m);
  if (it == modules_.end()) {
    throw std::invalid_argument("Engine::add_wakeup: module " + m.name() +
                                " not registered with this engine");
  }
  return static_cast<std::uint32_t>(it - modules_.begin());
}

void Engine::add_observer(EngineObserver* obs) {
  if (obs == nullptr) {
    throw std::invalid_argument("Engine::add_observer: null observer");
  }
  if (now_ > 0) frozen("add_observer", "observer");
  observers_.push_back(obs);
}

void Engine::build_wake_csr(std::vector<std::uint32_t>& off,
                            std::vector<std::uint32_t>& dst) const {
  // Stable counting sort by source: count, prefix-sum, scatter in
  // declaration order through a per-source cursor.
  off.assign(modules_.size() + 1, 0);
  for (const auto& e : edges_) ++off[e.first + 1];
  std::partial_sum(off.begin(), off.end(), off.begin());
  std::vector<std::uint32_t> at(off.begin(), off.end() - 1);
  dst.resize(edges_.size());
  for (const auto& [s, d] : edges_) dst[at[s]++] = d;
}

std::vector<std::pair<const Module*, const Module*>> Engine::wakeup_edges()
    const {
  std::vector<std::uint32_t> off, dst;
  build_wake_csr(off, dst);
  std::vector<std::pair<const Module*, const Module*>> edges;
  for (std::size_t s = 0; s < modules_.size(); ++s) {
    for (std::uint32_t e = off[s]; e < off[s + 1]; ++e) {
      edges.emplace_back(modules_[s], modules_[dst[e]]);
    }
  }
  return edges;
}

void Engine::step_dense() {
  for (Module* m : modules_) m->eval(now_);
  for (Module* m : modules_) m->commit();
  active_evals_ += modules_.size();
}

void Engine::step_gated() {
  if (now_ == 0) build_wake_csr(wake_off_, wake_edges_);  // netlist frozen
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
