#include "compile/engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "compile/lane_math.hpp"
#include "semiring/closed_semiring.hpp"
#include "semiring/kernels.hpp"

namespace sysdp::compile {

// The branchless lane primitives (sel / lane_sat_add / the weight-class
// lift) and the SYSDP_LANE_IVDEP / SYSDP_LANE_CLONES codegen macros live
// in compile/lane_math.hpp.
using lanes::lane_sat_add;
using lanes::lane_sat_add_w;
using lanes::with_w_class;

CompiledEngine::CompiledEngine(const CompiledNetlist& net, std::uint32_t lanes)
    : net_(&net), lanes_(lanes), weights_(net, lanes) {
  if (lanes == 0) throw std::invalid_argument("CompiledEngine: zero lanes");
  slots_.resize(std::size_t{net.num_slots} * lanes, 0);
  // Cut each level into maximal same-kind runs, keeping tape order: an
  // in-level read of an earlier op's result, whatever its kind, then needs
  // no hazard analysis.
  marks_.reserve(net.cycle_off.size());
  LevelMark mark;
  for (std::uint32_t t = 0; t < net.cycles(); ++t) {
    marks_.push_back(mark);
    const std::uint32_t hi = net.cycle_off[t + 1];
    for (std::uint32_t i = net.cycle_off[t]; i < hi;) {
      const std::uint32_t lo = i;
      const OpKind kind = net.ops[i].kind;
      while (i < hi && net.ops[i].kind == kind) ++i;
      runs_.push_back({lo, i, kind});
      if (kind == OpKind::kMac) mark.mac += i - lo;
      if (kind == OpKind::kFold) mark.fold += i - lo;
    }
    const std::size_t level_runs = runs_.size() - mark.run;
    if (level_runs > 0) ++mark.live;
    if (level_runs > 1) ++fallback_levels_;
    mark.run = static_cast<std::uint32_t>(runs_.size());
  }
  marks_.push_back(mark);
  reset();
}

void CompiledEngine::reset() {
  Cost* const s = slots_.data();
  for (const SlotInit& in : net_->init) {
    std::fill_n(s + std::size_t{in.slot} * lanes_, lanes_, in.value);
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

void CompiledEngine::add_observer(ReplayObserver* obs) {
  if (obs == nullptr) {
    throw std::invalid_argument("CompiledEngine::add_observer: null observer");
  }
  if (now_ != 0) {
    throw std::logic_error(
        "CompiledEngine::add_observer: observers attach at cycle 0 only — "
        "reset() first");
  }
  observers_.push_back(obs);
  obs->on_replay_begin(*net_, slots_.data(), lanes_);
}

void CompiledEngine::notify_level(sim::Cycle t) {
  const std::uint32_t lo = net_->cycle_off[t];
  const std::uint32_t hi = net_->cycle_off[t + 1];
  for (ReplayObserver* obs : observers_) {
    obs->on_level(*net_, t, lo, hi, slots_.data(), lanes_);
  }
}

void CompiledEngine::notify_end() {
  if (observers_.empty() || now_ < cycles()) return;
  for (ReplayObserver* obs : observers_) obs->on_replay_end(*net_);
}

namespace {

/// exec_runs()'s "no op diverged".
constexpr std::uint32_t kClean = ~std::uint32_t{0};

/// Everything a kernel touches, gathered so the kernels can be free
/// functions (function multiversioning cannot apply to member templates).
struct RunCtx {
  Cost* slots;
  const Cost* wtab;  ///< lane-planar: lane l, param p at wtab[l*wstride + p]
  std::size_t wstride;
  const Op* ops;
  const KindRun* runs;
  std::uint32_t lanes;
};

// The scalar hot loop (B = 1).  One pass over a run's contiguous span of
// 32-byte ops; all operands are direct indices into one flat array, and
// the run's kind is a compile-time constant, so no per-op switch is left.
// Each arm is the same branch-free scalar kernel the interpreter uses — so
// results are bit-identical while the per-op overhead drops from a virtual
// eval/commit round trip to a handful of instructions.  With kParam the
// weight comes from the bound table via the op's parameter index instead
// of the baked immediate.  With kChecked every result is compared with the
// oracle's recorded value, and the first divergent op's index is returned.
template <typename S, bool kParam, bool kChecked, OpKind kKind>
inline std::uint32_t scalar_run(const RunCtx& ctx, const Cost* expected,
                                std::uint32_t lo, std::uint32_t hi) {
  Cost* const s = ctx.slots;
  for (std::uint32_t i = lo; i < hi; ++i) {
    const Op& op = ctx.ops[i];
    const Cost w = kParam ? ctx.wtab[op.param] : op.w;
    if constexpr (kKind == OpKind::kMac) {
      s[op.dst] = kern::mac<S>(s[op.a], w, s[op.b]);
    } else if constexpr (kKind == OpKind::kFold) {
      const Cost cand = S::times(S::times(s[op.b], s[op.c]), w);
      const Cost prev = s[op.a];
      s[op.dst] = S::improves(cand, prev) ? cand : prev;
    } else {
      const Cost cand = S::times(s[op.b], w);
      const Cost prev = s[op.a];
      const bool better = S::improves(cand, prev);
      s[op.dst] = better ? cand : prev;
      s[op.dst + 1] = better ? static_cast<Cost>(op.c) : s[op.a + 1];
    }
    if constexpr (kChecked) {
      if (s[op.dst] != expected[i]) return i;
    }
  }
  return kClean;
}

template <typename S, bool kParam, bool kChecked>
std::uint32_t exec_runs_scalar(const RunCtx& ctx, const Cost* expected,
                               std::uint32_t rlo, std::uint32_t rhi) {
  for (std::uint32_t r = rlo; r < rhi; ++r) {
    const KindRun& run = ctx.runs[r];
    std::uint32_t bad = kClean;
    switch (run.kind) {
      case OpKind::kMac:
        bad = scalar_run<S, kParam, kChecked, OpKind::kMac>(ctx, expected,
                                                            run.lo, run.hi);
        break;
      case OpKind::kFold:
        bad = scalar_run<S, kParam, kChecked, OpKind::kFold>(ctx, expected,
                                                             run.lo, run.hi);
        break;
      case OpKind::kRelax:
        bad = scalar_run<S, kParam, kChecked, OpKind::kRelax>(ctx, expected,
                                                              run.lo, run.hi);
        break;
    }
    if (kChecked && bad != kClean) return bad;
  }
  return kClean;
}

template <typename S>
std::uint32_t exec_scalar(const RunCtx& ctx, const Cost* expected,
                          std::uint32_t rlo, std::uint32_t rhi, bool param,
                          bool checked) {
  // Checked replay demands the oracle binding, so it reads the immediates.
  if (checked) return exec_runs_scalar<S, false, true>(ctx, expected, rlo, rhi);
  return param ? exec_runs_scalar<S, true, false>(ctx, expected, rlo, rhi)
               : exec_runs_scalar<S, false, false>(ctx, expected, rlo, rhi);
}

// The lane hot loop (B > 1).  Outer loop over a run of ops, inner loop
// over lanes: every iteration of the lane loop touches contiguous,
// 64-byte-aligned, mutually non-aliasing rows (SSA makes the destination
// fresh), carries no dependence, and performs only add/min/max/compare/
// mask-select on int64 — the exact shape -O2/-O3 auto-vectorisers compile
// to SIMD.  The arithmetic mirrors scalar_run kernel for kernel; for
// TapeSemiring's two semirings S::times IS sat_add, realised here
// branchlessly (lane_sat_add) with identical results bit for bit.
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
  for (std::uint32_t r = rlo; r < rhi; ++r) {
    const KindRun& run = ctx.runs[r];
    switch (run.kind) {
      case OpKind::kMac:
        for (std::uint32_t k = run.lo; k < run.hi; ++k) {
          const Op& op = ops[k];
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
          const Op& op = ops[k];
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
          const Op& op = ops[k];
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

template <typename S>
inline void exec_lanes(const RunCtx& ctx, std::uint32_t rlo,
                       std::uint32_t rhi, bool param) {
  switch (ctx.lanes) {
    case 8:
      param ? exec_runs_impl<S, true, 8>(ctx, rlo, rhi)
            : exec_runs_impl<S, false, 8>(ctx, rlo, rhi);
      break;
    case 16:
      param ? exec_runs_impl<S, true, 16>(ctx, rlo, rhi)
            : exec_runs_impl<S, false, 16>(ctx, rlo, rhi);
      break;
    default:
      param ? exec_runs_impl<S, true, 0>(ctx, rlo, rhi)
            : exec_runs_impl<S, false, 0>(ctx, rlo, rhi);
      break;
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
void exec_runs_lanes(const RunCtx& ctx, std::uint32_t rlo, std::uint32_t rhi,
                     TapeSemiring semiring, bool param) {
  semiring == TapeSemiring::kMinPlus
      ? exec_lanes<MinPlus>(ctx, rlo, rhi, param)
      : exec_lanes<MaxPlus>(ctx, rlo, rhi, param);
}

}  // namespace

std::uint32_t CompiledEngine::exec_runs(std::uint32_t rlo, std::uint32_t rhi,
                                        bool checked) {
  // nullptr while every lane is oracle-bound: the immediates equal the
  // planes then, and not streaming the planes keeps replay compute-bound.
  const Cost* const wtab = weights_.tables();
  if (lanes_ > 1) {
    exec_runs_lanes({slots_.data(), wtab, weights_.stride(), net_->ops.data(),
                     runs_.data(), lanes_},
                    rlo, rhi, net_->semiring, wtab != nullptr);
    return kClean;
  }
  const RunCtx ctx{slots_.data(), wtab, 0, net_->ops.data(), runs_.data(), 1};
  const Cost* const expected = net_->expected.data();
  return net_->semiring == TapeSemiring::kMinPlus
             ? exec_scalar<MinPlus>(ctx, expected, rlo, rhi, wtab != nullptr,
                                    checked)
             : exec_scalar<MaxPlus>(ctx, expected, rlo, rhi, wtab != nullptr,
                                    checked);
}

std::uint64_t CompiledEngine::account(sim::Cycle from, sim::Cycle to) {
  const LevelMark& a = marks_[from];
  const LevelMark& b = marks_[to];
  const std::uint64_t ops = net_->cycle_off[to] - net_->cycle_off[from];
  const std::uint64_t mac = b.mac - a.mac;
  const std::uint64_t fold = b.fold - a.fold;
  ops_executed_ += ops * lanes_;
  mac_ops_ += mac * lanes_;
  fold_ops_ += fold * lanes_;
  relax_ops_ += (ops - mac - fold) * lanes_;
  levels_executed_ += b.live - a.live;
  return b.live - a.live;
}

void CompiledEngine::step() {
  if (now_ < cycles()) {
    exec_runs(marks_[now_].run, marks_[now_ + 1].run);
    account(now_, now_ + 1);
    if (!observers_.empty()) notify_level(now_);
  }
  ++now_;
}

Divergence CompiledEngine::step_checked() {
  if (lanes_ != 1) {
    throw std::logic_error(
        "CompiledEngine::step_checked: checked replay runs one lane, this "
        "engine has " + std::to_string(lanes_));
  }
  if (!oracle_bound(0)) {
    throw std::logic_error(
        "CompiledEngine::step_checked: recorded expectations describe the "
        "oracle's weight binding, but another table is bound");
  }
  Divergence d;
  if (now_ < cycles()) {
    const std::uint32_t bad =
        exec_runs(marks_[now_].run, marks_[now_ + 1].run, /*checked=*/true);
    if (bad == kClean) {
      account(now_, now_ + 1);
      if (!observers_.empty()) notify_level(now_);
    } else {
      d.found = true;
      d.index = bad;
      d.got = slots_[net_->ops[bad].dst];
      d.expected = net_->expected[bad];
      // Attribute the op to its design signal through the provenance
      // plane, when the tape carries one and the op is named.
      const Provenance& prov = net_->provenance;
      if (prov.op_lane.size() == net_->ops.size()) {
        const std::uint32_t lane = prov.op_lane[bad];
        if (lane != Provenance::kNone && lane < prov.lanes.size()) {
          d.module = prov.lanes[lane].module;
          d.label = prov.lanes[lane].label;
        }
      }
    }
  }
  ++now_;
  return d;
}

void CompiledEngine::run(sim::Cycle n) {
  const sim::Cycle target = now_ + n;
  // Observed replays visit every level: provenance bind events (elided
  // register copies) land on levels with no ops, and the waveform sinks
  // must hear them in order.  The detached path below is untouched.
  if (!observers_.empty()) {
    while (now_ < target) step();
    return;
  }
  // One kernel dispatch per non-empty level, like step(); an empty level
  // costs one comparison, and the whole stretch is accounted at once.
  const sim::Cycle end = std::min<sim::Cycle>(target, cycles());
  if (end > now_) {
    for (sim::Cycle t = now_; t < end; ++t) {
      if (marks_[t + 1].run > marks_[t].run) {
        exec_runs(marks_[t].run, marks_[t + 1].run);
      }
    }
    levels_skipped_ += end - now_ - account(now_, end);
  }
  now_ = target;
}

void CompiledEngine::run_all() {
  run(cycles() > now_ ? cycles() - now_ : 0);
  notify_end();
}

Divergence CompiledEngine::run_all_checked() {
  while (now_ < cycles()) {
    Divergence d = step_checked();
    if (d.found) return d;
  }
  notify_end();
  return {};
}

Divergence CompiledEngine::verify_outputs(std::uint32_t lane) const {
  if (!oracle_bound(lane)) {
    throw std::logic_error(
        "CompiledEngine::verify_outputs: lane " + std::to_string(lane) +
        " is not oracle-bound; recorded expectations describe the oracle's "
        "weight binding only");
  }
  for (std::uint64_t i = 0; i < net_->outputs.size(); ++i) {
    const Output& out = net_->outputs[i];
    const Cost got = value(out.slot, lane);
    if (got != out.expected) return {true, i, got, out.expected, {}, {}};
  }
  return {};
}

Cost CompiledEngine::output(std::string_view tag, std::uint64_t index,
                            std::uint32_t lane) const {
  for (const Output& out : net_->outputs) {
    if (out.index == index && out.tag == tag) return value(out.slot, lane);
  }
  throw std::out_of_range("CompiledEngine::output: no output " +
                          std::string(tag) + "[" + std::to_string(index) +
                          "]");
}

}  // namespace sysdp::compile
