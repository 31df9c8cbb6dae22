// Thread-parallel replay of one compiled tape: threads × SIMD lanes.
//
// The systolic arrays the paper builds are level-synchronous by
// construction — every op in a dependency level reads only values settled
// by the end of the previous level — so a level is a data-parallel op set
// and the natural thread decomposition is horizontal: slice each wide
// level into contiguous op slabs, one per pool lane, with one barrier per
// level and no atomics anywhere near the register file.  That is exactly
// the work-efficient DP schedule Ding/Gu/Sun advocate, applied to an
// already-recorded tape instead of a live recurrence.
//
// What makes the static slicing sound is computed, not assumed: at load
// time each level's in-level conflicts (RAW chains from in-place fold
// recurrences and — on compacted tapes — the slot reuse compaction
// introduced) are turned into forbidden cut points, and the ideal
// equal-work slab boundaries are nudged forward to the nearest safe cut.
// Every conflicting pair therefore lands in one slab, executed in tape
// order by one thread; replay is bit-identical to the serial engine on
// EVERY tape, verified or not, because the constraints come from the ops
// themselves.  A level narrower than `min_parallel_width` stays serial:
// the ReplayProfiler's per-level wall-clock shows a fork-join point costs
// roughly a microsecond of barrier latency while a slab of a few hundred
// ops costs the same — below that width, threads only add overhead (the
// fill/drain ramps of every design, where the optimizer's level fusion is
// the right tool instead).
//
// Scheduling: ONE ThreadPool::parallel_for spans the whole replay — each
// participant walks a precomputed segment plan (runs of serial levels
// executed by participant 0, parallel levels executed slab-per-
// participant) and meets the others at a lightweight sense-reversing
// barrier between segments.  Forking the cv-based pool once per level
// would cost more than most levels contain; forking once per REPLAY
// amortises it to nothing, and consecutive serial levels share a single
// barrier.  The engine needs the pool to itself while run_all() is in
// flight (its workers block on the replay barrier).
//
// Lanes compose exactly as in BatchedCompiledEngine: the slot file is
// lane-major (`slots[slot*lanes + lane]`, 64-byte aligned), per-lane
// weight bindings live in the same lane-planar WeightPlanes, and each
// slab's lane loop auto-vectorises — threads × lanes.  Observers are
// deliberately not supported: the ReplayObserver contract delivers levels
// one at a time with a settled slot image, which is precisely the
// serialisation this engine exists to remove; profile the serial engines,
// then replay here.
#pragma once

#include <atomic>
#include <cstdint>
#include <string_view>
#include <vector>

#include "compile/aligned.hpp"
#include "compile/engine.hpp"  // Divergence
#include "compile/program.hpp"
#include "compile/replay_observer.hpp"
#include "compile/weight_planes.hpp"
#include "semiring/cost.hpp"
#include "sim/module.hpp"
#include "sim/thread_pool.hpp"

namespace sysdp::compile {

/// Construction knobs for ParallelCompiledEngine (namespace scope so the
/// constructor can default it — an in-class aggregate with member
/// initialisers cannot appear as its own class's default argument).
struct ParallelReplayOptions {
  /// SIMD batch width B (instances per thread step), as in
  /// BatchedCompiledEngine.  Total parallelism is threads × lanes.
  std::uint32_t lanes = 1;
  /// Levels with fewer ops than this execute serially on participant 0.
  /// Default sized so a slab per lane clearly outweighs one barrier
  /// (~1 µs ≈ a few hundred op-executions on this backend's ~2–3 ns/op).
  std::uint32_t min_parallel_width = 256;
};

class ParallelCompiledEngine {
 public:
  using Options = ParallelReplayOptions;

  /// Borrows `net` and `pool`; both must outlive the engine.  `pool` may
  /// be nullptr (or have zero workers) — the plan then degenerates to one
  /// serial segment and run_all() executes inline, which keeps
  /// worker-count sweeps (0/1/2/...) trivial.  Throws std::invalid_argument
  /// if `opt.lanes` is zero.
  ParallelCompiledEngine(const CompiledNetlist& net, sim::ThreadPool* pool,
                         Options opt = {});

  [[nodiscard]] std::uint32_t lanes() const noexcept { return lanes_; }
  /// Concurrent participants the plan was sliced for (pool lanes:
  /// workers + caller; 1 without a pool).
  [[nodiscard]] std::uint32_t participants() const noexcept {
    return participants_;
  }

  /// Rewind every lane to cycle 0 and restore the initial slot image.
  /// Per-lane weight bindings survive, like the other engines' reset().
  void reset();

  /// Replay the whole tape.  Replay granularity is the whole tape by
  /// design — the barrier plan spans it; there is no step().  Requires
  /// exclusive use of the pool for the duration of the call.
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
  /// only); same contract as BatchedCompiledEngine::bind.
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
  /// values.  Throws std::logic_error if the lane is not oracle-bound.
  [[nodiscard]] Divergence verify_outputs(std::uint32_t lane) const {
    return weights_.verify_outputs(slots_.data(), lane);
  }

  /// Activity accounting, in op-lane executions (ops × lanes) like the
  /// batched engine.  Counts are whole-tape totals once run_all() has
  /// completed, zero before — there is no partial replay to account.
  [[nodiscard]] ReplayResult result() const noexcept;

  // Plan introspection, for the bench sections and the threshold
  // heuristics' validation.

  /// Levels the plan slices across participants.
  [[nodiscard]] std::uint64_t parallel_levels() const noexcept {
    return parallel_levels_;
  }
  /// Non-empty levels the plan keeps serial (too narrow, or no pool).
  [[nodiscard]] std::uint64_t serial_levels() const noexcept {
    return serial_levels_;
  }
  /// Barrier meeting points per replay (one per plan segment).
  [[nodiscard]] std::uint64_t plan_segments() const noexcept {
    return segments_.size();
  }
  /// Slab boundaries moved off their equal-work position to respect an
  /// in-level conflict — nonzero means the conflict analysis actually
  /// constrained the slicing.
  [[nodiscard]] std::uint64_t cuts_adjusted() const noexcept {
    return cuts_adjusted_;
  }

 private:
  /// One entry of the replay plan.  A serial segment covers levels
  /// [level_lo, level_hi) and runs whole on participant 0; a parallel
  /// segment covers exactly one level, pre-sliced into participants_
  /// contiguous op slabs at cuts_[cut_off .. cut_off + participants_].
  struct Segment {
    std::uint32_t level_lo = 0;
    std::uint32_t level_hi = 0;
    std::uint32_t cut_off = 0;
    bool parallel = false;
  };

  void build_plan(std::uint32_t min_parallel_width);
  void exec_ops(std::uint32_t lo, std::uint32_t hi, const Cost* wtab);
  void run_plan(std::uint32_t participant, const Cost* wtab);

  const CompiledNetlist* net_;
  sim::ThreadPool* pool_;
  std::uint32_t lanes_;
  std::uint32_t participants_ = 1;
  /// Lane-major slot file: `slots_[slot*lanes_ + lane]`.
  AlignedVec<Cost> slots_;
  /// Lane-planar weight tables, as in BatchedCompiledEngine: bind(lane)
  /// is one sequential copy, a rebound op reads its weights at stride P.
  WeightPlanes weights_;

  std::vector<Segment> segments_;
  /// Slab boundaries (global op indices) of the parallel segments.
  std::vector<std::uint32_t> cuts_;
  std::uint64_t parallel_levels_ = 0;
  std::uint64_t serial_levels_ = 0;
  std::uint64_t cuts_adjusted_ = 0;

  /// Sense-reversing barrier state, reused across segments: arrivals of
  /// the current generation, and the generation counter participants wait
  /// on.  Cache-line sized via AlignedVec would be overkill for two words.
  std::atomic<std::uint32_t> arrived_{0};
  std::atomic<std::uint64_t> generation_{0};

  sim::Cycle now_ = 0;
  bool replayed_ = false;
  /// Whole-tape totals, precomputed at construction (per single lane).
  std::uint64_t total_ops_ = 0;
  std::uint64_t total_mac_ = 0;
  std::uint64_t total_fold_ = 0;
  std::uint64_t total_relax_ = 0;
  std::uint64_t nonempty_levels_ = 0;
};

}  // namespace sysdp::compile
