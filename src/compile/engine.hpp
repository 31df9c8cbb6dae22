// Executor for compiled flat-netlist programs.
//
// CompiledEngine replays a CompiledNetlist's op tape level by level over B
// lanes (instances) at once.  It is the engine mode next to the dense and
// sparse interpreters: the same cycle semantics (now() advances one
// dependency level per step, and a value changes on exactly the cycle it
// changed in the modular oracle), but the per-cycle work is a tight loop
// over packed 32-byte ops and one flat value array — no virtual
// eval/commit dispatch, no module state, no two-phase staging (lowering
// already resolved it into SSA slots).
//
// At load time every level is cut into maximal same-kind runs in tape
// order, which keeps an in-level read of an earlier op's result correct
// whatever the two kinds.  One driver hands each run to a kind-specialised
// kernel of one of two widths:
//
//   * B = 1: the scalar kernel, a handful of int64 instructions per op.  A
//     lane loop of width 1 replays about 3x slower, so the lane count, not
//     the tape, picks the kernel.
//   * B > 1: the lane kernels.  The slot file is lane-major
//     (`slots[slot*B + lane]`, 64-byte aligned), so an op is a loop over B
//     contiguous, independent int64 elements that auto-vectorisers turn
//     into SIMD.  This is sound because the designs' control is
//     value-independent, so every lane follows the identical schedule, and
//     because lowering is SSA, so an op's destination row never aliases a
//     source row.
//
// Lanes bind weight tables independently on parameterised tapes
// (LowerOptions::parameterise): one lowering of a family shape serves B
// weight assignments per replay.  A lane binds its table by reference:
// replay reads the caller's table in place, once, much as the paper's
// arrays take costs from the host as they consume them, and nothing stages
// a copy.  Every lane is bit-identical to a one-lane replay of the same
// binding, which the differential suite proves lane by lane;
// `step_checked` additionally compares every op result with the oracle's
// recorded value.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "compile/aligned.hpp"
#include "compile/program.hpp"
#include "compile/replay_observer.hpp"
#include "semiring/cost.hpp"
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

/// One maximal same-kind span of a level, in tape order: ops [lo, hi) are
/// all of `kind`, executed back to back by one monomorphic kernel.
/// Namespace-scope because the kernels are free functions (the lane
/// kernels are compiled per ISA via function multiversioning, engine.cpp)
/// and need to name the type.
struct KindRun {
  std::uint32_t lo = 0;
  std::uint32_t hi = 0;
  OpKind kind = OpKind::kMac;
};

class CompiledEngine {
 public:
  /// Borrows `net`, which must outlive the engine.  `lanes` is the batch
  /// width B; every lane starts oracle-bound.  Throws std::invalid_argument
  /// if `lanes` is zero.
  explicit CompiledEngine(const CompiledNetlist& net, std::uint32_t lanes = 1);

  [[nodiscard]] std::uint32_t lanes() const noexcept { return lanes_; }

  /// Rewind every lane to cycle 0 and restore the initial slot image.
  /// Op-destination slots keep stale values from a previous run — harmless,
  /// since SSA guarantees every one is rewritten before any op or output
  /// reads it.  Weight bindings survive: a rebound lane replays its
  /// instance again, exactly like an oracle-bound one replays the oracle's.
  void reset();

  /// Execute one dependency level (one oracle cycle) on every lane.  No-op
  /// past the end of the tape (the oracle's drained tail cycles are empty
  /// levels too).
  void step();

  /// Execute `n` levels.
  void run(sim::Cycle n);

  /// Execute the whole tape.
  void run_all();

  [[nodiscard]] sim::Cycle now() const noexcept { return now_; }
  [[nodiscard]] sim::Cycle cycles() const noexcept { return net_->cycles(); }

  /// Lane `lane`'s value of `slot`.
  [[nodiscard]] Cost value(sim::SlotId slot, std::uint32_t lane = 0) const {
    return slots_[std::size_t{slot} * lanes_ + lane];
  }

  /// Op-lane executions retired (ops per level × lanes).
  [[nodiscard]] std::uint64_t ops_executed() const noexcept {
    return ops_executed_;
  }
  /// Empty dependency levels bypassed by run()/run_all() (gated tapes are
  /// mostly empty levels, and they own no runs); step() still visits every
  /// level, so stepping callers see 0 here.
  [[nodiscard]] std::uint64_t levels_skipped() const noexcept {
    return levels_skipped_;
  }
  /// Levels holding more than one op kind, i.e. cut into several runs.  No
  /// lowered tape has one: each design lowers to a single op kind.
  [[nodiscard]] std::uint64_t fallback_levels() const noexcept {
    return fallback_levels_;
  }

  /// Activity accounting so far, in op-lane executions like
  /// ops_executed(): levels executed/skipped and the per-kind op split,
  /// matching the interpreted RunResult fields bench_all reads.
  [[nodiscard]] ReplayResult result() const noexcept {
    return {now_,     lanes_,   ops_executed_, levels_executed_,
            levels_skipped_, mac_ops_, fold_ops_,     relax_ops_};
  }

  /// Attach a replay observer (borrowed; must outlive the engine).  Only
  /// legal at cycle 0 — reset() first — mirroring sim::Engine's contract;
  /// fires on_replay_begin immediately and again on every reset().  While
  /// any observer is attached, run()/run_all() visit every level, because
  /// provenance bind events land on empty levels too; the detached path is
  /// unchanged.  on_level's slot image is lane-major.
  void add_observer(ReplayObserver* obs);

  /// Bind a per-instance weight table to one lane of a parameterised tape:
  /// op `i` replays with `weights[ops[i].param]` instead of the baked
  /// immediate.  The schedule, slots and outputs' *locations* are unchanged
  /// — only the values flowing through them.
  ///
  /// Binds by reference, as the engine borrows its netlist: nothing is
  /// copied, and replay reads the caller's table in place.  `weights` must
  /// outlive the binding and stay unchanged until the lane is rebound,
  /// restored with bind_oracle(), or the engine is destroyed: every replay
  /// in that span reads it.  Refilling a bound table in place and binding
  /// it again is the intended way to serve a stream of instances.  A table equal to `net.params` (the
  /// tape's own, recognised by address, or any equal copy) leaves the lane
  /// oracle-bound.  Throws std::invalid_argument on a non-parameterised
  /// tape, a bad lane, or a wrong-length table.
  void bind(std::uint32_t lane, const std::vector<Cost>& weights);
  /// A temporary would be freed before the replay that reads it.
  void bind(std::uint32_t lane, const std::vector<Cost>&& weights) = delete;

  /// Restore lane `lane` to the oracle's weight binding (the default).
  void bind_oracle(std::uint32_t lane);

  /// True while lane `lane` replays the oracle's own weight binding — the
  /// only binding the tape's recorded expectations describe.  Checked
  /// replay and verify_outputs() require this.
  [[nodiscard]] bool oracle_bound(std::uint32_t lane) const {
    return weights_[lane] == net_->params.data();
  }

  /// Checked variant of step() on a one-lane engine: every op result is
  /// compared against the oracle value recorded at lowering time.  Returns
  /// the first divergence, if any — a non-divergent full replay is the
  /// op-level proof of cycle-exact bit-identity with the modular engine.
  /// A divergent level is left out of the activity accounting.  Throws
  /// std::logic_error if the engine has more than one lane, or under a
  /// non-oracle weight binding: the recorded expectations describe the
  /// oracle's weights only.
  Divergence step_checked();

  /// run_all + step_checked: replay the whole tape, stop at the first
  /// op-level divergence.
  Divergence run_all_checked();

  /// Compare lane `lane`'s declared outputs with the oracle's observed
  /// values.  Throws std::logic_error if the lane is not oracle-bound.
  [[nodiscard]] Divergence verify_outputs(std::uint32_t lane = 0) const;

  /// Lane `lane`'s value of output `tag[index]`; throws std::out_of_range
  /// if absent.
  [[nodiscard]] Cost output(std::string_view tag, std::uint64_t index,
                            std::uint32_t lane = 0) const;

 private:
  /// Level boundary t, a CSR over levels into runs_ plus prefix counts:
  /// level t owns runs [marks_[t].run, marks_[t+1].run), and the counts
  /// are what the levels before t hold.  Empty levels own no runs, and
  /// run() accounts any stretch of levels with one subtraction per
  /// counter.
  struct LevelMark {
    std::uint32_t run = 0;
    std::uint32_t live = 0;  ///< non-empty levels
    std::uint32_t mac = 0;   ///< kMac ops
    std::uint32_t fold = 0;  ///< kFold ops
  };

  /// Execute runs [rlo, rhi) on every lane.  `checked` (one oracle-bound
  /// lane only) compares each result with its recorded value and returns
  /// the first divergent op's index; ~0u means none diverged.
  std::uint32_t exec_runs(std::uint32_t rlo, std::uint32_t rhi,
                          bool checked = false);
  /// Activity accounting for levels [from, to), in O(1) off the level
  /// marks; returns how many of them hold ops.
  std::uint64_t account(sim::Cycle from, sim::Cycle to);
  void notify_level(sim::Cycle t);
  void notify_end();
  /// Point lane `lane` at table `w`, keeping rebound_lanes_ in step.
  void set_weights(std::uint32_t lane, const Cost* w);

  const CompiledNetlist* net_;
  std::uint32_t lanes_;
  /// Lane-major slot file: `slots_[slot*lanes_ + lane]`, 64-byte aligned
  /// so every row starts SIMD-friendly.
  AlignedVec<Cost> slots_;
  /// Lane l's weight table, borrowed: `net_->params.data()` while the
  /// lane is oracle-bound, else the table bind() was given.  A rebound op
  /// reads its B weights as `weights_[l][op.param]`.  While every lane is
  /// oracle-bound, replay takes the baked-immediate path and reads none.
  std::vector<const Cost*> weights_;
  std::uint32_t rebound_lanes_ = 0;  ///< lanes not oracle-bound
  /// Tape-order runs, level by level.
  std::vector<KindRun> runs_;
  std::vector<LevelMark> marks_;
  std::vector<ReplayObserver*> observers_;
  sim::Cycle now_ = 0;
  std::uint64_t ops_executed_ = 0;
  std::uint64_t levels_executed_ = 0;
  std::uint64_t levels_skipped_ = 0;
  std::uint64_t mac_ops_ = 0;
  std::uint64_t fold_ops_ = 0;
  std::uint64_t relax_ops_ = 0;
  std::uint64_t fallback_levels_ = 0;
};

}  // namespace sysdp::compile
