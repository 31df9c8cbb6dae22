// Executor for compiled flat-netlist programs.
//
// CompiledEngine replays a CompiledNetlist's op tape level by level.  It
// is the engine mode next to the dense and sparse interpreters: the same
// cycle semantics (now() advances one dependency level per step, and
// a value changes on exactly the cycle it changed in the modular oracle),
// but the per-cycle work is a tight loop over packed 32-byte ops and one
// flat value array — no virtual eval/commit dispatch, no module state, no
// two-phase staging (lowering already resolved it into SSA slots).
//
// Everything is bounds-resolved at lowering time, so the hot loop indexes
// raw arrays; `step_checked` additionally compares every op result with
// the oracle's recorded value, which the differential suite runs on every
// design instance.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "compile/aligned.hpp"
#include "compile/program.hpp"
#include "compile/replay_observer.hpp"
#include "semiring/cost.hpp"
#include "sim/engine.hpp"  // sim::RunUntilResult — one loop shape, two engines
#include "sim/module.hpp"

namespace sysdp::compile {

/// First divergence found by a checked replay (op-level) or output
/// verification; index is an op index or output index respectively.
/// Checked replay additionally attributes the diverging op through the
/// tape's provenance tables (module instance + declared port label), so a
/// failing differential test names the design signal, not just a flat op
/// index; both strings stay empty when the tape carries no op_lane plane
/// or the op is an unnamed intermediate.
struct Divergence {
  bool found = false;
  std::uint64_t index = 0;
  Cost got = 0;
  Cost expected = 0;
  std::string module;
  std::string label;
};

class CompiledEngine {
 public:
  /// Borrows `net`, which must outlive the engine.
  explicit CompiledEngine(const CompiledNetlist& net);

  /// Rewind to cycle 0 and restore the initial slot image.  Op-destination
  /// slots keep stale values from a previous run — harmless, since SSA
  /// guarantees every one is rewritten before any op or output reads it.
  void reset();

  /// Execute one dependency level (one oracle cycle).  No-op past the end
  /// of the tape (the oracle's drained tail cycles are empty levels too).
  void step();

  /// Execute `n` levels.
  void run(sim::Cycle n);

  /// Execute the whole tape.
  void run_all();

  /// Step until `done(*this)` holds, checking once at entry and once per
  /// cycle — the same contract as sim::Engine::run_until, so harnesses can
  /// drive either engine through one shape of loop.
  [[nodiscard]] sim::RunUntilResult run_until(
      const std::function<bool(const CompiledEngine&)>& done,
      sim::Cycle max_cycles);

  [[nodiscard]] sim::Cycle now() const noexcept { return now_; }
  [[nodiscard]] sim::Cycle cycles() const noexcept { return net_->cycles(); }
  [[nodiscard]] Cost value(sim::SlotId slot) const { return slots_[slot]; }
  [[nodiscard]] std::uint64_t ops_executed() const noexcept {
    return ops_executed_;
  }
  /// Empty dependency levels bypassed by run()/run_all() through the
  /// precomputed skip-list (gated tapes are mostly empty levels); step()
  /// still visits every level, so stepping callers see 0 here.
  [[nodiscard]] std::uint64_t levels_skipped() const noexcept {
    return levels_skipped_;
  }
  [[nodiscard]] const CompiledNetlist& program() const noexcept {
    return *net_;
  }

  /// Activity accounting so far: levels executed/skipped and the per-kind
  /// op split, matching the interpreted RunResult fields bench_all reads.
  [[nodiscard]] ReplayResult result() const noexcept {
    return {now_,     1,        ops_executed_, levels_executed_,
            levels_skipped_, mac_ops_, fold_ops_,     relax_ops_};
  }

  /// Attach a replay observer (borrowed; must outlive the engine).  Only
  /// legal at cycle 0 — reset() first — mirroring sim::Engine's contract;
  /// fires on_replay_begin immediately and again on every reset().  While
  /// any observer is attached, run()/run_all() visit every level instead
  /// of walking the non-empty skip-list, because provenance bind events
  /// land on empty levels too; the detached path is unchanged.
  void add_observer(ReplayObserver* obs);

  /// Install a per-instance weight table on a parameterised tape: op `i`
  /// replays with `weights[ops[i].param]` instead of the baked immediate.
  /// The schedule, slots and outputs' *locations* are unchanged — only the
  /// values flowing through them.  Throws std::invalid_argument if the
  /// tape is not parameterised or the table length is not num_params().
  void bind(std::vector<Cost> weights);

  /// Restore the weight binding the oracle ran with (the default).
  void bind_oracle();

  /// True while the engine replays the oracle's own weight binding — the
  /// only binding the tape's recorded expectations describe.  Checked
  /// replay and verify_outputs() require this.
  [[nodiscard]] bool oracle_bound() const noexcept { return oracle_bound_; }

  /// Checked variant of step(): every op result is compared against the
  /// oracle value recorded at lowering time.  Returns the first
  /// divergence, if any — a non-divergent full replay is the op-level
  /// proof of cycle-exact bit-identity with the modular engine.  Throws
  /// std::logic_error under a non-oracle weight binding: the recorded
  /// expectations describe the oracle's weights only.
  Divergence step_checked();

  /// run_all + step_checked: replay the whole tape, stop at the first
  /// op-level divergence.
  Divergence run_all_checked();

  /// Compare every declared output slot with the oracle's observed value.
  /// Throws std::logic_error under a non-oracle weight binding.
  [[nodiscard]] Divergence verify_outputs() const;

  /// Value of output `tag[index]`; throws std::out_of_range if absent.
  [[nodiscard]] Cost output(std::string_view tag, std::uint64_t index) const;

 private:
  /// kKind lifts a homogeneous level's op kind to a compile-time constant
  /// (-1 = mixed, per-op switch): single-kind levels — which is every
  /// level the tape optimizer's kind-major reordering produces, and most
  /// recorded ones — run a switch-free loop.
  template <typename S, bool kChecked, bool kParam, int kKind = -1>
  Divergence exec_level(std::uint32_t lo, std::uint32_t hi);
  template <typename S, bool kParam>
  void exec_level_kind(int kind, std::uint32_t lo, std::uint32_t hi);
  void exec_level_dispatch(sim::Cycle t, std::uint32_t lo, std::uint32_t hi);
  /// Attribute an op-level divergence to its design signal via the tape's
  /// provenance plane (no-op when unavailable).
  void annotate_divergence(Divergence& d) const;
  void require_oracle_binding(const char* site) const;
  /// Per-kind accounting for the level at `t` (precomputed triples).
  void account_level(sim::Cycle t);
  void notify_level(sim::Cycle t, std::uint32_t lo, std::uint32_t hi);
  void notify_end();

  const CompiledNetlist* net_;
  AlignedVec<Cost> slots_;
  /// Per-instance weight table (bind()); empty means the baked immediates
  /// (the oracle binding) are in effect.
  std::vector<Cost> weights_;
  /// Skip-list of non-empty dependency levels, precomputed at
  /// construction: run()/run_all() iterate this instead of paying a
  /// per-level comparison on gated tapes' long empty stretches.
  std::vector<std::uint32_t> live_levels_;
  /// Per-level op counts by kind (mac, fold, relax), precomputed at
  /// construction so the executed-level accounting is three adds.
  std::vector<std::array<std::uint32_t, 3>> level_kinds_;
  std::vector<ReplayObserver*> observers_;
  sim::Cycle now_ = 0;
  std::uint64_t ops_executed_ = 0;
  std::uint64_t levels_executed_ = 0;
  std::uint64_t levels_skipped_ = 0;
  std::uint64_t mac_ops_ = 0;
  std::uint64_t fold_ops_ = 0;
  std::uint64_t relax_ops_ = 0;
  bool oracle_bound_ = true;
};

}  // namespace sysdp::compile
