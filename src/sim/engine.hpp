// Clocked simulation engine.
//
// Runs a set of modules through eval/commit phases on the calling thread.
// The paper's parallelism lives inside the simulated array (every PE steps
// in lock-step each cycle), so one run never spreads across host threads;
// independent runs parallelise through sim::BatchRunner instead.
//
// The *gating* mode selects how each cycle sweeps the modules:
//
//   * Gating::kDense: every module evaluates and commits every cycle (the
//     classic cycle-accurate sweep), in registration order — drivers of
//     combinational buses first, so listeners see their outputs.
//   * Gating::kSparse: the engine keeps an active set.  After each commit
//     phase it asks every evaluated module Module::quiescent(); a
//     quiescent module is dropped from the set and is neither evaluated
//     nor committed again until a wakeup edge (add_wakeup) fires — i.e.
//     until a declared predecessor ends a cycle non-quiescent.  Active
//     combinational drivers evaluate before every register-only module.
//     Because a quiescent module's eval is an observational no-op by
//     contract, and every input that can reactivate it is covered by an
//     edge, the gated run is bit-identical to the dense run while skipping
//     the virtual-dispatch cost of idle PEs — the work-efficiency analogue
//     of the paper's processor-utilisation analysis, where large PE
//     fractions idle during pipeline fill/drain.
//
// The engine never owns modules: array models own their PEs and register
// them for stepping.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/module.hpp"

namespace sysdp::sim {

class EngineObserver;
class OpRecorder;

/// Outcome of Engine::run_until: whether the predicate fired and how many
/// cycles were consumed getting there (0 if it already held at entry).
struct RunUntilResult {
  bool satisfied = false;
  Cycle cycles = 0;
};

/// Execution mode of the eval/commit sweep: dense (every module, every
/// cycle) or sparse (skip quiescent modules, neighbour wakeup).
enum class Gating : std::uint8_t { kDense, kSparse };

class Engine {
 public:
  /// Dense engine.
  Engine() = default;

  /// Engine with an explicit gating mode.
  explicit Engine(Gating gating) : gating_(gating) {}

  // Elaboration — add, add_wakeup, add_observer — must finish before time
  // starts: each throws std::logic_error after the first step(), when a
  // late module or observer would have missed on_elaborated and a late
  // edge could not guard the cycles already stepped.

  /// Register a module under the next dense engine index, which the
  /// module keeps for O(1) lookups.  Order matters for combinational bus
  /// visibility: drivers first, listeners after.  Throws
  /// std::invalid_argument if `m` is already registered (it would step
  /// twice per cycle).  A module may belong to several engines, but it
  /// keeps only its latest index: a repeat add() is caught only when that
  /// latest registration is with this engine, and add_wakeup on an engine
  /// that registered `m` earlier finds it by a linear search.
  void add(Module& m);

  /// Declare a wakeup edge for Gating::kSparse: whenever `src` ends a
  /// cycle active and non-quiescent, `dst` is evaluated the next cycle.
  /// Array builders declare one edge per register-dataflow arc that can
  /// carry a reactivating value (left PE -> right PE, host -> first PE,
  /// tail -> feedback consumer, ...).  Both modules must already be
  /// add()ed here; throws std::invalid_argument otherwise.  Ignored
  /// (harmless) in dense mode.
  void add_wakeup(const Module& src, const Module& dst);

  /// Install a check that runs once, at the first step(), after the
  /// netlist is fully elaborated and before any module evaluates.  The
  /// analysis layer uses this for the opt-in debug mode that lints every
  /// engine at elaboration and fails fast (analysis::attach_debug_lint);
  /// the hook keeps sim free of a dependency on the analysis library.
  /// Throwing from the check aborts the run before cycle 0.
  void set_elaboration_check(std::function<void(const Engine&)> check) {
    elaboration_check_ = std::move(check);
  }

  /// Attach a telemetry probe (see sim/observer.hpp).  The observer is
  /// borrowed, not owned, and must outlive the engine's stepping;
  /// on_elaborated fires exactly once, at cycle 0.  With no observers
  /// attached the per-cycle cost is a single empty()-check.
  void add_observer(EngineObserver* obs);

  /// Attached observers, in attachment (= notification) order.
  [[nodiscard]] const std::vector<EngineObserver*>& observers()
      const noexcept {
    return observers_;
  }

  /// Attach an op recorder (sim/record.hpp) for trace-based lowering.  The
  /// recorder is borrowed, not owned.  Array models query recorder() during
  /// elaboration and narrate their semiring ops and register writes into
  /// it; with none attached every narration site is a single never-taken
  /// branch.  Must be set before elaboration (the first add()) so no write
  /// escapes the narration; throws std::logic_error otherwise.
  void set_recorder(OpRecorder* rec) {
    if (!modules_.empty() || now_ > 0) {
      throw std::logic_error(
          "Engine::set_recorder: attach before elaboration — modules bind "
          "the recorder when they register");
    }
    recorder_ = rec;
  }

  /// The attached op recorder, or nullptr.
  [[nodiscard]] OpRecorder* recorder() const noexcept { return recorder_; }

  /// Advance one clock cycle.
  void step();

  /// Advance `n` cycles.
  void run(Cycle n);

  /// Step until `done()` returns true, up to `max_cycles`.  The predicate
  /// is checked once at entry (0 cycles consumed if it already holds) and
  /// once after each cycle — never twice for the same machine state.
  [[nodiscard]] RunUntilResult run_until(const std::function<bool()>& done,
                                         Cycle max_cycles);

  [[nodiscard]] Cycle now() const noexcept { return now_; }
  [[nodiscard]] std::size_t num_modules() const noexcept {
    return modules_.size();
  }

  /// Registered modules in registration (= evaluation) order.  Read-only
  /// connectivity introspection for the analysis layer.
  [[nodiscard]] const std::vector<Module*>& modules() const noexcept {
    return modules_;
  }

  /// Declared wakeup edges as (src, dst) module pairs: sources in
  /// registration order, each source's edges in declaration order (the
  /// order of the CSR the gated sweep walks).  Read-only view for the
  /// analysis layer.
  [[nodiscard]] std::vector<std::pair<const Module*, const Module*>>
  wakeup_edges() const;

  [[nodiscard]] Gating gating() const noexcept { return gating_; }

  /// Window activity at or above which a sparse engine stops gating: the
  /// per-module bookkeeping of Gating::kSparse is pure overhead when almost
  /// nothing sleeps (measured: design3_traffic at 99% activity ran 0.79x
  /// dense speed under gating).  15/16 keeps genuinely sparse phases —
  /// pipeline fill/drain, wavefronts — comfortably below the trigger.
  static constexpr double kDenseFallbackActivity = 0.9375;

  /// Quiescence is polled every this many cycles.  Between polls an active
  /// module stays active unconditionally, so a module sleeps up to
  /// kQuiescencePeriod - 1 cycles late — by the quiescence contract those
  /// extra evals are observational no-ops, and idle phases worth gating
  /// (pipeline fill/drain) last O(array width) cycles, so the amortised
  /// saving dwarfs the delay.  The adaptive fallback judges its first
  /// activity window — and can first trip — at the second poll, cycle
  /// kQuiescencePeriod.
  static constexpr Cycle kQuiescencePeriod = 4;

  /// True once a Gating::kSparse engine has reverted to dense sweeps
  /// because measured window activity reached kDenseFallbackActivity.  The
  /// fallback is one-way: an instance hot enough to trip it has already
  /// shown its sleepers are not worth tracking.  Results are unchanged —
  /// dense stepping is the gated path's own correctness oracle.
  [[nodiscard]] bool dense_fallback() const noexcept {
    return dense_fallback_;
  }

  /// Cycle at which the fallback engaged (meaningful if dense_fallback()).
  [[nodiscard]] Cycle dense_fallback_cycle() const noexcept {
    return fallback_cycle_;
  }

  /// The gating mode actually steering step(): requested mode until the
  /// adaptive fallback trips, kDense after.
  [[nodiscard]] Gating effective_gating() const noexcept {
    return dense_fallback_ ? Gating::kDense : gating_;
  }

  /// Module evaluations actually performed so far — the numerator of
  /// activity().  In dense mode this is modules x cycles; in sparse mode
  /// only active modules count.
  [[nodiscard]] std::uint64_t active_evals() const noexcept {
    return active_evals_;
  }
  /// What a dense sweep would have cost: modules x cycles stepped.
  [[nodiscard]] std::uint64_t dense_evals() const noexcept {
    return dense_evals_;
  }
  /// Measured engine activity: active evals / dense evals in [0, 1].  The
  /// simulator-side counterpart of the paper's processor utilisation,
  /// though with a different denominator (every registered module, not
  /// just PEs): an active module is not always doing a useful MAC, and
  /// every useful MAC happens inside an active eval.
  [[nodiscard]] double activity() const noexcept {
    return dense_evals_ > 0 ? static_cast<double>(active_evals_) /
                                  static_cast<double>(dense_evals_)
                            : 1.0;
  }

 private:
  void step_dense();
  void step_gated();
  /// Post-commit bookkeeping: every active module wakes its declared
  /// successors each cycle (sleeping targets are appended to the active
  /// lists); quiescence is polled — and sleepers demoted — only every
  /// kQuiescencePeriod cycles, keeping the virtual quiescent() call off
  /// the per-cycle critical path.  A late demotion only runs extra no-op
  /// evals, so results are unchanged.
  void refresh_active();
  /// Throws the std::logic_error of an elaboration call made after the
  /// first step().
  [[noreturn]] void frozen(const char* call, const std::string& what) const;
  /// Whether `m`'s latest registration is with this engine.
  [[nodiscard]] bool registered(const Module& m) const noexcept {
    return m.engine_index_ < modules_.size() &&
           modules_[m.engine_index_] == &m;
  }
  /// `m`'s index here; throws std::invalid_argument if `m` is not
  /// registered with this engine.
  [[nodiscard]] std::uint32_t find_index(const Module& m) const;
  /// CSR of edges_: successors of module i are dst[off[i] .. off[i+1]),
  /// in declaration order.
  void build_wake_csr(std::vector<std::uint32_t>& off,
                      std::vector<std::uint32_t>& dst) const;

  std::vector<Module*> modules_;   ///< all, in registration order
  /// Wakeup edges as (src, dst) module indices, in declaration order.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges_;
  /// CSR of edges_, built at the first gated step: successors of module i are
  /// wake_edges_[wake_off_[i] .. wake_off_[i+1]) — one contiguous walk per
  /// refresh instead of a pointer chase per active module.
  std::vector<std::uint32_t> wake_off_, wake_edges_;
  std::vector<std::uint8_t> active_;     ///< active flag per module
  std::vector<std::uint8_t> is_driver_;  ///< combinational flag per module
  /// Persistent active sets, seeded by add() with every module, then
  /// maintained incrementally (wake appends, demote removes).  Both stay
  /// sorted by registration index: drivers need it for bus visibility;
  /// register-only modules don't (two-phase registers make their eval
  /// order unobservable), but an in-order sweep keeps per-module state
  /// accesses streaming for the hardware prefetcher.
  std::vector<std::uint32_t> active_drivers_;
  std::vector<std::uint32_t> active_regs_;
  std::vector<std::uint32_t> woken_;  ///< refresh_active scratch
  std::function<void(const Engine&)> elaboration_check_;
  std::vector<EngineObserver*> observers_;
  OpRecorder* recorder_ = nullptr;
  Gating gating_ = Gating::kDense;
  Cycle now_ = 0;
  std::uint64_t active_evals_ = 0;
  std::uint64_t dense_evals_ = 0;
  /// Adaptive fallback bookkeeping: active_evals_ / now_ as of the last
  /// quiescence poll, so each poll judges only the window since the one
  /// before it (a dense fill phase must not poison a long sparse tail).
  bool dense_fallback_ = false;
  Cycle fallback_cycle_ = 0;
  std::uint64_t fallback_mark_evals_ = 0;
  Cycle fallback_mark_cycle_ = 0;
};

}  // namespace sysdp::sim
