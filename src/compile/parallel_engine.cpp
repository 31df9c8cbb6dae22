#include "compile/parallel_engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <thread>

#include "compile/lane_math.hpp"
#include "semiring/closed_semiring.hpp"

namespace sysdp::compile {

using lanes::lane_sat_add;
using lanes::lane_sat_add_w;
using lanes::with_w_class;

namespace {

constexpr std::uint32_t kNone = 0xffffffffu;

/// Everything a slab kernel touches, gathered so the kernel can be a free
/// function under SYSDP_LANE_CLONES (multiversioning cannot apply to
/// member templates).
struct SpanCtx {
  Cost* slots;
  const Cost* wtab;  ///< lane-planar: lane l, param p at wtab[l*wstride + p]
  std::size_t wstride;
  const Op* ops;
  std::uint32_t lanes;
};

// One contiguous op slab in tape order, per-op kind switch, inner lane
// loop — the scalar engine's dispatch shape over the batched engine's
// lane-major data.  On optimizer-reordered tapes (kind-major runs inside
// each level) the switch is perfectly predicted; the lane loops are the
// same branchless kernels the batched engine runs, bit for bit.
template <typename S, bool kParam, std::uint32_t kW>
inline void exec_span_impl(const SpanCtx& ctx, std::uint32_t lo,
                           std::uint32_t hi) {
  const std::uint32_t B = kW != 0 ? kW : ctx.lanes;
  Cost* const slots = ctx.slots;
  const Cost* const wtab = ctx.wtab;
  const std::size_t P = ctx.wstride;
  for (std::uint32_t i = lo; i < hi; ++i) {
    const Op& op = ctx.ops[i];
    switch (op.kind) {
      case OpKind::kMac: {
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
              d[l] =
                  S::plus(pa[l], lane_sat_add_w<decltype(wc)::value>(pb[l], wi));
            }
          });
        }
        break;
      }
      case OpKind::kFold: {
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
        break;
      }
      case OpKind::kRelax: {
        const Cost* const __restrict pa = slots + std::size_t{op.a} * B;
        const Cost* const __restrict paarg =
            slots + (std::size_t{op.a} + 1) * B;
        const Cost* const __restrict pb = slots + std::size_t{op.b} * B;
        Cost* const __restrict d = slots + std::size_t{op.dst} * B;
        Cost* const __restrict darg = slots + (std::size_t{op.dst} + 1) * B;
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
              const Cost cand = lane_sat_add_w<decltype(wc)::value>(pb[l], wi);
              const Cost prev = pa[l];
              const bool better = S::improves(cand, prev);
              d[l] = better ? cand : prev;
              darg[l] = better ? station : paarg[l];
            }
          });
        }
        break;
      }
    }
  }
}

SYSDP_LANE_CLONES
void exec_span_dispatch(const SpanCtx& ctx, std::uint32_t lo, std::uint32_t hi,
                        TapeSemiring semiring, bool param) {
  if (semiring == TapeSemiring::kMinPlus) {
    switch (ctx.lanes) {
      case 8:
        param ? exec_span_impl<MinPlus, true, 8>(ctx, lo, hi)
              : exec_span_impl<MinPlus, false, 8>(ctx, lo, hi);
        break;
      default:
        param ? exec_span_impl<MinPlus, true, 0>(ctx, lo, hi)
              : exec_span_impl<MinPlus, false, 0>(ctx, lo, hi);
        break;
    }
  } else {
    switch (ctx.lanes) {
      case 8:
        param ? exec_span_impl<MaxPlus, true, 8>(ctx, lo, hi)
              : exec_span_impl<MaxPlus, false, 8>(ctx, lo, hi);
        break;
      default:
        param ? exec_span_impl<MaxPlus, true, 0>(ctx, lo, hi)
              : exec_span_impl<MaxPlus, false, 0>(ctx, lo, hi);
        break;
    }
  }
}

}  // namespace

ParallelCompiledEngine::ParallelCompiledEngine(const CompiledNetlist& net,
                                               sim::ThreadPool* pool,
                                               Options opt)
    : net_(&net),
      pool_(pool),
      lanes_(opt.lanes),
      weights_(net, opt.lanes, "ParallelCompiledEngine") {
  if (lanes_ == 0) {
    throw std::invalid_argument("ParallelCompiledEngine: zero lanes");
  }
  participants_ = pool_ != nullptr
                      ? static_cast<std::uint32_t>(pool_->num_lanes())
                      : 1;
  slots_.resize(std::size_t{net.num_slots} * lanes_, 0);
  for (std::uint64_t i = 0; i < net.ops.size(); ++i) {
    switch (net.ops[i].kind) {
      case OpKind::kMac:
        ++total_mac_;
        break;
      case OpKind::kFold:
        ++total_fold_;
        break;
      case OpKind::kRelax:
        ++total_relax_;
        break;
    }
  }
  total_ops_ = net.ops.size();
  build_plan(opt.min_parallel_width);
  reset();
}

void ParallelCompiledEngine::build_plan(std::uint32_t min_parallel_width) {
  const std::uint64_t cycles = net_->cycles();
  const std::uint32_t n = net_->num_slots;
  const std::uint32_t nslabs = participants_;

  // In-level conflict scratch (sized by the slot file, reset per level via
  // the touched list): the position of the last write to a slot and of the
  // first read since that write.  Any later touch that conflicts forbids
  // every cut between the two positions; forbidding from the FIRST read
  // covers all intermediate reads too, so one position per slot suffices.
  std::vector<std::uint32_t> last_write(n, kNone);
  std::vector<std::uint32_t> first_read(n, kNone);
  std::vector<sim::SlotId> touched;
  // Per-position minimum conflicting earlier position, then its suffix
  // minimum: a cut at local position j is safe iff no position >= j
  // conflicts with anything before j, i.e. suffix_min[j] >= j.
  std::vector<std::uint32_t> min_dep;

  std::uint32_t serial_from = 0;  // start of the pending serial run
  const auto flush_serial = [&](std::uint32_t upto) {
    if (upto > serial_from) {
      segments_.push_back({serial_from, upto, 0, false});
    }
  };

  for (std::uint32_t t = 0; t < cycles; ++t) {
    const std::uint32_t lo = net_->cycle_off[t];
    const std::uint32_t hi = net_->cycle_off[t + 1];
    const std::uint32_t width = hi - lo;
    if (width == 0) continue;  // empty levels ride in the serial runs free
    ++nonempty_levels_;
    if (width < min_parallel_width || nslabs < 2) {
      ++serial_levels_;
      continue;  // stays in the pending serial run
    }

    min_dep.assign(width, kNone);
    touched.clear();
    const auto track = [&](sim::SlotId s) {
      if (s < n && last_write[s] == kNone && first_read[s] == kNone) {
        touched.push_back(s);
      }
    };
    const auto constrain = [&](std::uint32_t earlier, std::uint32_t later) {
      min_dep[later] = std::min(min_dep[later], earlier);
    };
    for (std::uint32_t p = 0; p < width; ++p) {
      const Op& op = net_->ops[lo + p];
      const auto read = [&](sim::SlotId s) {
        if (s >= n) return;
        track(s);
        if (last_write[s] != kNone) constrain(last_write[s], p);
        if (first_read[s] == kNone) first_read[s] = p;
      };
      const auto write = [&](sim::SlotId s) {
        if (s >= n) return;
        track(s);
        if (first_read[s] != kNone) constrain(first_read[s], p);
        if (last_write[s] != kNone) constrain(last_write[s], p);
        last_write[s] = p;
        first_read[s] = kNone;
      };
      read(op.a);
      if (op.kind == OpKind::kRelax) read(op.a + 1);
      read(op.b);
      if (op.kind == OpKind::kFold) read(op.c);
      write(op.dst);
      if (op.kind == OpKind::kRelax) write(op.dst + 1);
    }
    for (const sim::SlotId s : touched) {
      last_write[s] = kNone;
      first_read[s] = kNone;
    }
    // Suffix-minimise in place: after this, min_dep[j] is the earliest
    // position any op at or after j depends on.
    for (std::uint32_t j = width - 1; j > 0; --j) {
      min_dep[j - 1] = std::min(min_dep[j - 1], min_dep[j]);
    }

    // Equal-work boundaries, nudged forward to the nearest safe cut.
    const std::uint32_t cut_off = static_cast<std::uint32_t>(cuts_.size());
    cuts_.push_back(lo);
    std::uint32_t prev = 0;  // local position of the previous boundary
    for (std::uint32_t k = 1; k < nslabs; ++k) {
      std::uint32_t b = std::max<std::uint32_t>(
          prev, static_cast<std::uint32_t>(
                    (std::uint64_t{width} * k) / nslabs));
      const std::uint32_t ideal = b;
      while (b < width && min_dep[b] < b) ++b;
      if (b != ideal) ++cuts_adjusted_;
      cuts_.push_back(lo + b);
      prev = b;
    }
    cuts_.push_back(hi);
    std::uint32_t nonempty_slabs = 0;
    for (std::uint32_t k = 0; k < nslabs; ++k) {
      if (cuts_[cut_off + k + 1] > cuts_[cut_off + k]) ++nonempty_slabs;
    }
    if (nonempty_slabs < 2) {
      // Conflicts (or the nudging) collapsed the level into one slab —
      // threads would only pay the barrier.  Keep it serial.
      cuts_.resize(cut_off);
      ++serial_levels_;
      continue;
    }
    flush_serial(t);
    segments_.push_back({t, t + 1, cut_off, true});
    serial_from = t + 1;
    ++parallel_levels_;
  }
  flush_serial(static_cast<std::uint32_t>(cycles));
}

void ParallelCompiledEngine::reset() {
  for (const SlotInit& in : net_->init) {
    Cost* const row = slots_.data() + std::size_t{in.slot} * lanes_;
    for (std::uint32_t l = 0; l < lanes_; ++l) row[l] = in.value;
  }
  now_ = 0;
  replayed_ = false;
}

void ParallelCompiledEngine::exec_ops(std::uint32_t lo, std::uint32_t hi,
                                      const Cost* wtab) {
  if (lo == hi) return;
  const SpanCtx ctx{slots_.data(), wtab, weights_.stride(), net_->ops.data(),
                    lanes_};
  exec_span_dispatch(ctx, lo, hi, net_->semiring, wtab != nullptr);
}

void ParallelCompiledEngine::run_plan(std::uint32_t participant,
                                      const Cost* wtab) {
  for (const Segment& seg : segments_) {
    if (seg.parallel) {
      const std::uint32_t slo = cuts_[seg.cut_off + participant];
      const std::uint32_t shi = cuts_[seg.cut_off + participant + 1];
      exec_ops(slo, shi, wtab);
    } else if (participant == 0) {
      for (std::uint32_t t = seg.level_lo; t < seg.level_hi; ++t) {
        exec_ops(net_->cycle_off[t], net_->cycle_off[t + 1], wtab);
      }
    }
    // Sense-reversing barrier between segments.  The last arriver's RMW on
    // `arrived_` observes every earlier arrival (release sequence), so its
    // release-store of the next generation publishes all participants'
    // slot writes to everyone's acquire-load — the only synchronisation
    // the replay needs.  Spin-then-yield: segments are microseconds apart,
    // and yielding keeps oversubscribed hosts (and the TSan job's 1-core
    // runner) live.
    const std::uint64_t gen = generation_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        participants_) {
      arrived_.store(0, std::memory_order_relaxed);
      generation_.fetch_add(1, std::memory_order_acq_rel);
    } else {
      std::uint32_t spins = 0;
      while (generation_.load(std::memory_order_acquire) == gen) {
        if (++spins >= 64) {
          std::this_thread::yield();
          spins = 0;
        }
      }
    }
  }
}

void ParallelCompiledEngine::run_all() {
  if (replayed_) return;
  // nullptr while every lane is oracle-bound: the baked-immediate path.
  const Cost* const wtab = weights_.tables();
  const bool any_parallel = parallel_levels_ > 0 && participants_ > 1;
  if (!any_parallel || pool_ == nullptr) {
    // Serial plan (or no pool): no barriers needed, walk the levels once.
    for (std::uint32_t t = 0; t + 1 < net_->cycle_off.size(); ++t) {
      exec_ops(net_->cycle_off[t], net_->cycle_off[t + 1], wtab);
    }
  } else {
    pool_->parallel_for(participants_, [this, wtab](std::size_t p) {
      run_plan(static_cast<std::uint32_t>(p), wtab);
    });
  }
  now_ = net_->cycles();
  replayed_ = true;
}

ReplayResult ParallelCompiledEngine::result() const noexcept {
  if (!replayed_) return {0, lanes_, 0, 0, 0, 0, 0, 0};
  const std::uint64_t empty = net_->cycles() - nonempty_levels_;
  return {now_,
          lanes_,
          total_ops_ * lanes_,
          nonempty_levels_,
          empty,
          total_mac_ * lanes_,
          total_fold_ * lanes_,
          total_relax_ * lanes_};
}

Cost ParallelCompiledEngine::output(std::string_view tag, std::uint64_t index,
                                    std::uint32_t lane) const {
  for (const Output& out : net_->outputs) {
    if (out.index == index && out.tag == tag) return value(out.slot, lane);
  }
  throw std::out_of_range("ParallelCompiledEngine::output: no output " +
                          std::string(tag) + "[" + std::to_string(index) +
                          "]");
}

}  // namespace sysdp::compile
