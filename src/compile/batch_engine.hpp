// Batched executor: one compiled tape replayed across B instances at once.
//
// The scalar CompiledEngine already removed dispatch and pointer chasing;
// what is left per op is a handful of scalar int64 operations — too little
// work to feed a superscalar core from one instance.  BatchedCompiledEngine
// widens the data instead of the code: it replays ONE op tape over B lanes
// (instances) simultaneously, with the slot file laid out lane-major
// (`slots[slot*B + lane]`, 64-byte aligned) so that executing an op is a
// loop over B contiguous, independent int64 elements — the shape
// auto-vectorisers turn into SIMD without a single intrinsic.
//
// Two structural facts make this sound:
//
//   * the designs' control is value-independent (tags, counters, validity
//     bits), so every lane follows the identical schedule — there is no
//     divergence to mask; and
//   * lowering is SSA (every op's destination is a fresh slot), so the
//     destination row never aliases a source row and the lane loops carry
//     no loop-carried dependence.
//
// At load time each dependency level's ops are stable-partitioned into
// kind-major runs (all kMac, then all kFold, then all kRelax) so the lane
// loops stay monomorphic — same kernel, thousands of iterations, no
// branch in sight.  Stable partition preserves the order of same-kind ops,
// which is where all in-level RAW dependences live (in-place fold chains
// recorded in oracle order); if a level ever carries a cross-kind RAW that
// the partition would invert, construction detects it and falls back to
// original-order homogeneous runs for that level (none of the paper
// designs trigger this — each lowers to a single op kind — but the check
// keeps the reordering honest for future tapes).
//
// Lanes bind weight tables independently on parameterised tapes
// (LowerOptions::parameterise): one lowering of a family shape serves B
// weight assignments per replay, and thousands across replays.  Per-lane
// results are bit-identical to a scalar CompiledEngine replay of the same
// binding; the differential suite proves it lane by lane.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "compile/aligned.hpp"
#include "compile/engine.hpp"  // Divergence
#include "compile/program.hpp"
#include "compile/weight_planes.hpp"
#include "semiring/cost.hpp"
#include "sim/module.hpp"

namespace sysdp::compile {

/// One homogeneous span of a batched execution order: ops order[lo..hi)
/// are all of `kind`, executed back to back by one monomorphic lane
/// kernel.  Namespace-scope (not nested in the engine) because the lane
/// kernels are free functions compiled per ISA via function
/// multiversioning (batch_engine.cpp) and need to name the type.
struct KindRun {
  std::uint32_t lo = 0;
  std::uint32_t hi = 0;
  OpKind kind = OpKind::kMac;
};

class BatchedCompiledEngine {
 public:
  /// Borrows `net`, which must outlive the engine.  `lanes` is the batch
  /// width B; every lane starts oracle-bound.  Throws std::invalid_argument
  /// if `lanes` is zero.
  BatchedCompiledEngine(const CompiledNetlist& net, std::uint32_t lanes);

  [[nodiscard]] std::uint32_t lanes() const noexcept { return lanes_; }

  /// Rewind every lane to cycle 0 and restore the initial slot image.
  /// Per-lane weight bindings survive, like CompiledEngine::reset().
  void reset();

  /// Execute one dependency level across all lanes.  No-op past the end.
  void step();

  /// Execute `n` levels via the non-empty-level skip-list.
  void run(sim::Cycle n);

  /// Execute the whole tape.
  void run_all();

  [[nodiscard]] sim::Cycle now() const noexcept { return now_; }
  [[nodiscard]] sim::Cycle cycles() const noexcept { return net_->cycles(); }

  /// Lane `lane`'s value of `slot`.
  [[nodiscard]] Cost value(sim::SlotId slot, std::uint32_t lane) const {
    return slots_[std::size_t{slot} * lanes_ + lane];
  }

  /// Lane `lane`'s value of output `tag[index]`; throws std::out_of_range
  /// if absent.
  [[nodiscard]] Cost output(std::string_view tag, std::uint64_t index,
                            std::uint32_t lane) const;

  /// Install a per-instance weight table on one lane (parameterised tapes
  /// only).  Throws std::invalid_argument on a non-parameterised tape, a
  /// bad lane, or a wrong-length table.
  void bind(std::uint32_t lane, const std::vector<Cost>& weights) {
    weights_.bind(lane, weights);
  }

  /// Restore lane `lane` to the oracle's weight binding.
  void bind_oracle(std::uint32_t lane) { weights_.bind_oracle(lane); }

  /// True while lane `lane` replays the oracle's own weight binding.
  [[nodiscard]] bool oracle_bound(std::uint32_t lane) const {
    return weights_.oracle_bound(lane);
  }

  /// Compare lane `lane`'s declared outputs with the oracle's observed
  /// values.  Throws std::logic_error if the lane is not oracle-bound —
  /// the recorded expectations describe the oracle binding only.
  [[nodiscard]] Divergence verify_outputs(std::uint32_t lane) const {
    return weights_.verify_outputs(slots_.data(), lane);
  }

  /// Op-lane executions retired (ops per level × lanes).
  [[nodiscard]] std::uint64_t ops_executed() const noexcept {
    return ops_executed_;
  }
  /// Empty levels bypassed by run()/run_all() via the skip-list.
  [[nodiscard]] std::uint64_t levels_skipped() const noexcept {
    return levels_skipped_;
  }
  /// Kind-major runs the tape was partitioned into at load time.
  [[nodiscard]] std::uint64_t kind_runs() const noexcept {
    return runs_.size();
  }
  /// Levels where a cross-kind in-level RAW forced original-order runs.
  [[nodiscard]] std::uint64_t fallback_levels() const noexcept {
    return fallback_levels_;
  }

  /// Activity accounting so far, in op-lane executions (ops × lanes) like
  /// ops_executed(), matching CompiledEngine::result()'s shape.
  [[nodiscard]] ReplayResult result() const noexcept {
    return {now_,     lanes_,   ops_executed_, levels_executed_,
            levels_skipped_, mac_ops_, fold_ops_,     relax_ops_};
  }

  /// Attach a replay observer — the same contract as
  /// CompiledEngine::add_observer: cycle 0 only, on_replay_begin fires at
  /// attach and on every reset(), observed runs visit every level, the
  /// detached path is unchanged.  on_level's slot image is lane-major.
  void add_observer(ReplayObserver* obs);

 private:
  void exec_level(std::uint32_t level);
  void notify_level(sim::Cycle t);
  void notify_end();

  const CompiledNetlist* net_;
  std::uint32_t lanes_;
  /// Lane-major slot file: `slots_[slot*lanes_ + lane]`, 64-byte aligned
  /// so every row starts SIMD-friendly.
  AlignedVec<Cost> slots_;
  /// Lane-planar weight tables (compile/weight_planes.hpp): lane l's
  /// table is one contiguous plane, chosen so bind(lane) is a sequential
  /// copy, not a lane-major scatter dirtying a cache line per parameter.
  /// A rebound op pays with B weight reads at stride P instead of one row.
  /// Per 8-lane Design 1 16x96 / GKT 96 batch (perfbench rebind), bind is
  /// 1.7 / 1.8 ms against 6.3 / 6.7 ms lane-major, replay 1.53 / 2.26 ms
  /// against 1.29 / 1.92 ms.  While every lane is oracle-bound, replay
  /// takes the baked-immediate path and never streams the planes.
  WeightPlanes weights_;
  /// Kind-major execution order: permutation of op indices, level by level.
  std::vector<std::uint32_t> order_;
  std::vector<KindRun> runs_;
  /// CSR over levels into `runs_`: level t executes runs
  /// [level_run_off_[t], level_run_off_[t+1]).
  std::vector<std::uint32_t> level_run_off_;
  std::vector<std::uint32_t> live_levels_;
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
