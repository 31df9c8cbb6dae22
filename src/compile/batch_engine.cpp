#include "compile/batch_engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <unordered_map>

#include "compile/lane_math.hpp"
#include "semiring/closed_semiring.hpp"

namespace sysdp::compile {

// The branchless lane primitives (sel / lane_sat_add / the weight-class
// lift) and the SYSDP_LANE_IVDEP / SYSDP_LANE_CLONES codegen macros live
// in compile/lane_math.hpp.
using lanes::lane_sat_add;
using lanes::lane_sat_add_w;
using lanes::with_w_class;

namespace {

[[nodiscard]] constexpr std::uint8_t kind_rank(OpKind k) noexcept {
  return static_cast<std::uint8_t>(k);
}

/// True if stable-partitioning this level's ops by kind would invert a
/// writer→reader pair, i.e. some op reads a slot written earlier in the
/// level by an op of a LATER partition rank.  SSA rules out WAW and WAR
/// entirely (every destination is freshly allocated after its readers'
/// sources), so RAW inversion is the only hazard.  Same-kind pairs keep
/// their order under a stable partition, so only cross-kind pairs count.
[[nodiscard]] bool cross_kind_raw(const CompiledNetlist& net, std::uint32_t lo,
                                  std::uint32_t hi) {
  std::unordered_map<sim::SlotId, OpKind> writer;
  for (std::uint32_t i = lo; i < hi; ++i) {
    const Op& op = net.ops[i];
    const auto inverted = [&](sim::SlotId src) {
      const auto it = writer.find(src);
      return it != writer.end() && kind_rank(op.kind) < kind_rank(it->second);
    };
    if (inverted(op.a) || inverted(op.b)) return true;
    if (op.kind == OpKind::kFold && inverted(op.c)) return true;
    if (op.kind == OpKind::kRelax && inverted(op.a + 1)) return true;
    writer[op.dst] = op.kind;
    if (op.kind == OpKind::kRelax) writer[op.dst + 1] = op.kind;
  }
  return false;
}

}  // namespace

BatchedCompiledEngine::BatchedCompiledEngine(const CompiledNetlist& net,
                                             std::uint32_t lanes)
    : net_(&net),
      lanes_(lanes),
      weights_(net, lanes, "BatchedCompiledEngine") {
  if (lanes == 0) {
    throw std::invalid_argument("BatchedCompiledEngine: zero lanes");
  }
  slots_.resize(std::size_t{net.num_slots} * lanes, 0);

  // Partition each level into kind-major runs (see class comment).  The
  // execution order is a permutation of op indices; runs delimit the
  // homogeneous spans a single monomorphic kernel sweeps.
  order_.reserve(net.ops.size());
  level_run_off_.reserve(net.cycle_off.size());
  level_run_off_.push_back(0);
  for (std::uint32_t t = 0; t + 1 < net.cycle_off.size(); ++t) {
    const std::uint32_t lo = net.cycle_off[t];
    const std::uint32_t hi = net.cycle_off[t + 1];
    if (hi > lo) {
      live_levels_.push_back(t);
      const auto seg = static_cast<std::uint32_t>(order_.size());
      if (!cross_kind_raw(net, lo, hi)) {
        for (const OpKind k :
             {OpKind::kMac, OpKind::kFold, OpKind::kRelax}) {
          for (std::uint32_t i = lo; i < hi; ++i) {
            if (net.ops[i].kind == k) order_.push_back(i);
          }
        }
      } else {
        ++fallback_levels_;
        for (std::uint32_t i = lo; i < hi; ++i) order_.push_back(i);
      }
      // Emit runs at kind boundaries of the (possibly reordered) segment.
      std::uint32_t run_lo = seg;
      for (std::uint32_t k = seg + 1; k < order_.size(); ++k) {
        if (net.ops[order_[k]].kind != net.ops[order_[run_lo]].kind) {
          runs_.push_back({run_lo, k, net.ops[order_[run_lo]].kind});
          run_lo = k;
        }
      }
      runs_.push_back({run_lo, static_cast<std::uint32_t>(order_.size()),
                       net.ops[order_[run_lo]].kind});
    }
    level_run_off_.push_back(static_cast<std::uint32_t>(runs_.size()));
  }
  reset();
}

void BatchedCompiledEngine::reset() {
  for (const SlotInit& in : net_->init) {
    Cost* const row = slots_.data() + std::size_t{in.slot} * lanes_;
    for (std::uint32_t l = 0; l < lanes_; ++l) row[l] = in.value;
  }
  now_ = 0;
  ops_executed_ = 0;
  levels_executed_ = 0;
  levels_skipped_ = 0;
  mac_ops_ = 0;
  fold_ops_ = 0;
  relax_ops_ = 0;
  for (ReplayObserver* obs : observers_) {
    obs->on_replay_begin(*net_, slots_.data(), lanes_);
  }
}

void BatchedCompiledEngine::add_observer(ReplayObserver* obs) {
  if (obs == nullptr) {
    throw std::invalid_argument(
        "BatchedCompiledEngine::add_observer: null observer");
  }
  if (now_ != 0) {
    throw std::logic_error(
        "BatchedCompiledEngine::add_observer: observers attach at cycle 0 "
        "only — reset() first");
  }
  observers_.push_back(obs);
  obs->on_replay_begin(*net_, slots_.data(), lanes_);
}

void BatchedCompiledEngine::notify_level(sim::Cycle t) {
  const std::uint32_t lo = net_->cycle_off[t];
  const std::uint32_t hi = net_->cycle_off[t + 1];
  for (ReplayObserver* obs : observers_) {
    obs->on_level(*net_, t, lo, hi, slots_.data(), lanes_);
  }
}

void BatchedCompiledEngine::notify_end() {
  if (observers_.empty() || now_ < cycles()) return;
  for (ReplayObserver* obs : observers_) obs->on_replay_end(*net_);
}

namespace {

/// Everything a lane kernel touches, gathered so the kernels can be free
/// functions (function multiversioning cannot apply to member templates).
struct RunCtx {
  Cost* slots;
  const Cost* wtab;  ///< lane-planar: lane l, param p at wtab[l*wstride + p]
  std::size_t wstride;
  const Op* ops;
  const std::uint32_t* ord;
  const KindRun* runs;
  std::uint32_t lanes;
};

// The batched hot loop.  Outer loop over a homogeneous run of ops, inner
// loop over lanes: every iteration of the lane loop touches contiguous,
// 64-byte-aligned, mutually non-aliasing rows (SSA makes the destination
// fresh), carries no dependence, and performs only add/min/max/compare/
// mask-select on int64 — the exact shape -O2/-O3 auto-vectorisers compile
// to SIMD.  The arithmetic mirrors CompiledEngine::exec_level kernel for
// kernel; for TapeSemiring's two semirings S::times IS sat_add, realised
// here branchlessly (lane_sat_add) with identical results bit for bit.
template <typename S, bool kParam, std::uint32_t kW>
inline void exec_runs_impl(const RunCtx& ctx, std::uint32_t rlo,
                           std::uint32_t rhi) {
  // kW == 0 is the any-width fallback; a nonzero kW makes the lane count a
  // compile-time constant, so the lane loops below fully unroll into
  // straight-line vector code with no trip-count or remainder logic.
  const std::uint32_t B = kW != 0 ? kW : ctx.lanes;
  Cost* const slots = ctx.slots;
  const Cost* const wtab = ctx.wtab;
  const std::size_t P = ctx.wstride;
  const Op* const ops = ctx.ops;
  const std::uint32_t* const ord = ctx.ord;
  for (std::uint32_t r = rlo; r < rhi; ++r) {
    const KindRun& run = ctx.runs[r];
    switch (run.kind) {
      case OpKind::kMac:
        for (std::uint32_t k = run.lo; k < run.hi; ++k) {
          const Op& op = ops[ord[k]];
          const Cost* const __restrict pa = slots + std::size_t{op.a} * B;
          const Cost* const __restrict pb = slots + std::size_t{op.b} * B;
          Cost* const __restrict d = slots + std::size_t{op.dst} * B;
          if constexpr (kParam) {
            const Cost* const __restrict w = wtab + op.param;
            SYSDP_LANE_IVDEP
            for (std::uint32_t l = 0; l < B; ++l) {
              d[l] = S::plus(pa[l], lane_sat_add(w[l * P], pb[l]));
            }
          } else {
            with_w_class(op.w, [&](auto wc) {
              const Cost wi = op.w;
              SYSDP_LANE_IVDEP
              for (std::uint32_t l = 0; l < B; ++l) {
                d[l] = S::plus(pa[l],
                               lane_sat_add_w<decltype(wc)::value>(pb[l], wi));
              }
            });
          }
        }
        break;
      case OpKind::kFold:
        for (std::uint32_t k = run.lo; k < run.hi; ++k) {
          const Op& op = ops[ord[k]];
          const Cost* const __restrict pa = slots + std::size_t{op.a} * B;
          const Cost* const __restrict pb = slots + std::size_t{op.b} * B;
          const Cost* const __restrict pc = slots + std::size_t{op.c} * B;
          Cost* const __restrict d = slots + std::size_t{op.dst} * B;
          if constexpr (kParam) {
            const Cost* const __restrict w = wtab + op.param;
            SYSDP_LANE_IVDEP
            for (std::uint32_t l = 0; l < B; ++l) {
              const Cost cand =
                  lane_sat_add(lane_sat_add(pb[l], pc[l]), w[l * P]);
              const Cost prev = pa[l];
              d[l] = S::improves(cand, prev) ? cand : prev;
            }
          } else {
            with_w_class(op.w, [&](auto wc) {
              const Cost wi = op.w;
              SYSDP_LANE_IVDEP
              for (std::uint32_t l = 0; l < B; ++l) {
                const Cost cand = lane_sat_add_w<decltype(wc)::value>(
                    lane_sat_add(pb[l], pc[l]), wi);
                const Cost prev = pa[l];
                d[l] = S::improves(cand, prev) ? cand : prev;
              }
            });
          }
        }
        break;
      case OpKind::kRelax:
        for (std::uint32_t k = run.lo; k < run.hi; ++k) {
          const Op& op = ops[ord[k]];
          const Cost* const __restrict pa = slots + std::size_t{op.a} * B;
          const Cost* const __restrict paarg =
              slots + (std::size_t{op.a} + 1) * B;
          const Cost* const __restrict pb = slots + std::size_t{op.b} * B;
          Cost* const __restrict d = slots + std::size_t{op.dst} * B;
          Cost* const __restrict darg =
              slots + (std::size_t{op.dst} + 1) * B;
          const Cost station = static_cast<Cost>(op.c);
          if constexpr (kParam) {
            const Cost* const __restrict w = wtab + op.param;
            SYSDP_LANE_IVDEP
            for (std::uint32_t l = 0; l < B; ++l) {
              const Cost cand = lane_sat_add(pb[l], w[l * P]);
              const Cost prev = pa[l];
              const bool better = S::improves(cand, prev);
              d[l] = better ? cand : prev;
              darg[l] = better ? station : paarg[l];
            }
          } else {
            with_w_class(op.w, [&](auto wc) {
              const Cost wi = op.w;
              SYSDP_LANE_IVDEP
              for (std::uint32_t l = 0; l < B; ++l) {
                const Cost cand =
                    lane_sat_add_w<decltype(wc)::value>(pb[l], wi);
                const Cost prev = pa[l];
                const bool better = S::improves(cand, prev);
                d[l] = better ? cand : prev;
                darg[l] = better ? station : paarg[l];
              }
            });
          }
        }
        break;
    }
  }
}

// Function multiversioning (SYSDP_LANE_CLONES, lane_math.hpp): one entry
// point, compiled once per ISA level (AVX-512F / AVX2 / baseline) with
// load-time ifunc dispatch, so the same binary runs everywhere yet the
// hot loops use the widest vectors the host has.  int64 compare/min/max
// only vectorise profitably from AVX2 up, and widest from AVX-512F
// (vpminsq/vpcmpq on 8 lanes) — with baseline x86-64 codegen the lane
// loops are scalar-equivalent.  `flatten` force-inlines the kernel
// templates (and everything below them) into each clone so their loops
// are vectorised under the clone's ISA rather than compiled once at
// baseline.  ThreadSanitizer cannot run under multiversioning: the ifunc
// resolver that picks a clone executes during relocation, before TSan's
// runtime is initialised, and the interposed resolver segfaults.  TSan
// builds fall back to the baseline kernels — they exercise the same
// source.
SYSDP_LANE_CLONES
void exec_runs_dispatch(const RunCtx& ctx, std::uint32_t rlo,
                        std::uint32_t rhi, TapeSemiring semiring,
                        bool param) {
  if (semiring == TapeSemiring::kMinPlus) {
    switch (ctx.lanes) {
      case 8:
        param ? exec_runs_impl<MinPlus, true, 8>(ctx, rlo, rhi)
              : exec_runs_impl<MinPlus, false, 8>(ctx, rlo, rhi);
        break;
      case 16:
        param ? exec_runs_impl<MinPlus, true, 16>(ctx, rlo, rhi)
              : exec_runs_impl<MinPlus, false, 16>(ctx, rlo, rhi);
        break;
      default:
        param ? exec_runs_impl<MinPlus, true, 0>(ctx, rlo, rhi)
              : exec_runs_impl<MinPlus, false, 0>(ctx, rlo, rhi);
        break;
    }
  } else {
    switch (ctx.lanes) {
      case 8:
        param ? exec_runs_impl<MaxPlus, true, 8>(ctx, rlo, rhi)
              : exec_runs_impl<MaxPlus, false, 8>(ctx, rlo, rhi);
        break;
      case 16:
        param ? exec_runs_impl<MaxPlus, true, 16>(ctx, rlo, rhi)
              : exec_runs_impl<MaxPlus, false, 16>(ctx, rlo, rhi);
        break;
      default:
        param ? exec_runs_impl<MaxPlus, true, 0>(ctx, rlo, rhi)
              : exec_runs_impl<MaxPlus, false, 0>(ctx, rlo, rhi);
        break;
    }
  }
}

}  // namespace

void BatchedCompiledEngine::exec_level(std::uint32_t level) {
  const std::uint32_t rlo = level_run_off_[level];
  const std::uint32_t rhi = level_run_off_[level + 1];
  if (rlo == rhi) return;
  // nullptr while every lane is oracle-bound: the immediates equal the
  // planes then, and not streaming the planes keeps replay compute-bound.
  const Cost* const wtab = weights_.tables();
  const RunCtx ctx{slots_.data(), wtab,          weights_.stride(),
                   net_->ops.data(), order_.data(), runs_.data(), lanes_};
  exec_runs_dispatch(ctx, rlo, rhi, net_->semiring, wtab != nullptr);
  ops_executed_ += std::uint64_t{net_->cycle_off[level + 1] -
                                 net_->cycle_off[level]} *
                   lanes_;
  // Per-kind accounting off the run table: runs are kind-homogeneous, so
  // a level costs at most a handful of adds however many ops it carries.
  ++levels_executed_;
  for (std::uint32_t r = rlo; r < rhi; ++r) {
    const std::uint64_t n = std::uint64_t{runs_[r].hi - runs_[r].lo} * lanes_;
    switch (runs_[r].kind) {
      case OpKind::kMac:
        mac_ops_ += n;
        break;
      case OpKind::kFold:
        fold_ops_ += n;
        break;
      case OpKind::kRelax:
        relax_ops_ += n;
        break;
    }
  }
}

void BatchedCompiledEngine::step() {
  if (now_ + 1 < net_->cycle_off.size()) {
    exec_level(static_cast<std::uint32_t>(now_));
    if (!observers_.empty()) {
      notify_level(static_cast<std::uint32_t>(now_));
    }
  }
  ++now_;
}

void BatchedCompiledEngine::run(sim::Cycle n) {
  // Observed replays visit every level (provenance bind events land on
  // empty levels); the detached skip-list path below is untouched.
  if (!observers_.empty()) {
    const sim::Cycle target = now_ + n;
    while (now_ < target) step();
    return;
  }
  const sim::Cycle target = now_ + n;
  const sim::Cycle end = std::min<sim::Cycle>(target, cycles());
  auto it = std::lower_bound(live_levels_.begin(), live_levels_.end(), now_);
  sim::Cycle from = now_;
  for (; it != live_levels_.end() && *it < end; ++it) {
    exec_level(*it);
    levels_skipped_ += *it - from;
    from = *it + 1;
  }
  if (end > from) levels_skipped_ += end - from;
  now_ = target;
}

void BatchedCompiledEngine::run_all() {
  run(cycles() > now_ ? cycles() - now_ : 0);
  notify_end();
}

Cost BatchedCompiledEngine::output(std::string_view tag, std::uint64_t index,
                                   std::uint32_t lane) const {
  for (const Output& out : net_->outputs) {
    if (out.index == index && out.tag == tag) return value(out.slot, lane);
  }
  throw std::out_of_range("BatchedCompiledEngine::output: no output " +
                          std::string(tag) + "[" + std::to_string(index) +
                          "]");
}

}  // namespace sysdp::compile
