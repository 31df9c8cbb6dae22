// Tape optimizer: a pass pipeline over CompiledNetlist.
//
// Three passes, run on the *uncompacted* SSA tape lowering emits (before
// compact_slots() renames the slot file — every legality argument below
// leans on single assignment):
//
//   1. dead-op elimination — ops no declared output and no provenance
//      bind can observe through any def→use chain are pruned, turning the
//      tape verifier's output-reachability warnings into actual work
//      removed.  Roots are the outputs' defining ops *and* every slot a
//      ProvenanceBind samples: waveform adapters replay bound slots, so
//      an op feeding only a waveform is live, not dead.
//   2. level fusion — adjacent dependency levels merge when every def→use
//      edge crossing the pair boundary is absent (conservative) or
//      same-kind (aggressive): the verifier admits same-level reads of a
//      value produced earlier in the level by a same-kind op (an in-level
//      chain), and the batched executor's kind-major partition is stable
//      within one kind, so chain order survives every executor.  Fused
//      groups are capped at `max_fused_ops`: compaction's slot reuse is
//      level-granular, so one unbounded fused level would hold the whole
//      SSA slot file live and evict the replay's working set — the cap
//      trades the last few level boundaries for a cache-resident slot
//      file.  Provenance bind stamps are remapped monotonically
//      (stamp t+1 samples the end of level t; SSA slots hold their one
//      value from definition onward, so sampling at the fused level's end
//      reads the identical value).
//   3. kind-major + locality reordering — inside each (possibly fused)
//      level, ops regroup kind-major and each single-kind run sorts by
//      destination slot, so the executors' branch-free kernels stream
//      long homogeneous, slot-ascending spans.  Levels with in-level
//      chains keep chain order: a stable partition is applied only when
//      every in-level edge joins same-kind ops, and a run never sorts
//      when one of its own ops is a chain endpoint.
//
// Every pass preserves all nine analysis::TapeVerifier checks and
// bit-identical replay values: op order only changes where SSA proves the
// touched slots disjoint, and op *count* only changes where no output or
// bind can tell.  Pass order matters — DCE first (fewer edges to block
// fusion), fusion second (reordering then sees the final level extents),
// compaction last (outside this module, in lower_array()).
#pragma once

#include <cstdint>

#include "compile/program.hpp"

namespace sysdp::compile {

struct OptimizeOptions {
  /// 0: pipeline disabled.  1: conservative — DCE, edge-free fusion,
  /// in-level reordering; the level structure an observer sees keeps its
  /// dependence meaning.  2: aggressive — fusion additionally absorbs
  /// same-kind def→use edges as in-level chains, collapsing systolic
  /// pipelines (mac→mac accumulator chains, fold recurrences) to a handful
  /// of wide levels; maximal replay throughput, but waveform stamps
  /// compress.
  int level = 1;
  /// Upper bound on ops per fused level (see header comment).
  std::uint32_t max_fused_ops = 4096;
};

/// What the pipeline did — bench sections and lint variants report these;
/// the fuzz harness asserts the counts are monotone.
struct OptimizeStats {
  int level = 0;
  std::uint64_t ops_before = 0;
  std::uint64_t ops_after = 0;
  std::uint64_t levels_before = 0;
  std::uint64_t levels_after = 0;
  std::uint64_t ops_pruned = 0;       ///< dead-op elimination
  std::uint64_t levels_fused = 0;     ///< levels merged away
  std::uint64_t levels_reordered = 0; ///< levels whose op order changed
};

/// Run the full pipeline at `opt.level` in place.  Throws std::logic_error
/// on a compacted tape: slot reuse breaks the SSA reasoning every pass
/// depends on, and lowering always optimizes before compacting.
OptimizeStats optimize_tape(CompiledNetlist& net,
                            const OptimizeOptions& opt = {});

// Individual passes, exposed so the fuzz harness can drive each alone.
// All three require an uncompacted tape (std::logic_error otherwise) and
// return the same counter the pipeline aggregates.

/// Prune ops unreachable from every output and provenance bind.  Returns
/// ops removed.
std::uint64_t prune_dead_ops(CompiledNetlist& net);

/// Merge adjacent levels subject to the edge rule; `allow_chain_edges`
/// selects the aggressive variant.  Returns levels removed.
std::uint64_t fuse_levels(CompiledNetlist& net, bool allow_chain_edges,
                          std::uint32_t max_fused_ops = 4096);

/// Kind-major + slot-ascending reordering inside every level.  Returns
/// levels whose order changed.
std::uint64_t reorder_levels(CompiledNetlist& net);

}  // namespace sysdp::compile
