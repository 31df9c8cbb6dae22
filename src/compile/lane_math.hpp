// Branchless lane arithmetic for CompiledEngine's lane kernels.
//
// At B > 1 lanes CompiledEngine replays one op tape with the slot file
// laid out lane-major; its lane loops are built from these
// primitives: a mask-select (`sel`) the vectoriser cannot jump-thread, a
// branchless saturating add bit-identical to sysdp::sat_add, and the
// weight-class lift that moves lane-invariant sentinel compares out of the
// lane loop.  The lane-exactness suites depend on these being
// bit-identical to the scalar kernels.
//
// Also hosts the shared codegen macros: SYSDP_LANE_IVDEP asserts the
// independence SSA destinations guarantee but the compiler cannot prove
// (every row pointer derives from one slot-file base), and
// SYSDP_LANE_CLONES applies per-ISA function multiversioning with the TSan
// opt-out (the ifunc resolver runs before TSan's runtime is initialised).
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>

#include "semiring/cost.hpp"

#if defined(__clang__)
#define SYSDP_LANE_IVDEP \
  _Pragma("clang loop vectorize(assume_safety) interleave(assume_safety)")
#elif defined(__GNUC__)
#define SYSDP_LANE_IVDEP _Pragma("GCC ivdep")
#else
#define SYSDP_LANE_IVDEP
#endif

#if defined(__SANITIZE_THREAD__)
#define SYSDP_LANE_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SYSDP_LANE_TSAN 1
#endif
#endif
#if defined(__x86_64__) && defined(__gnu_linux__) && \
    (defined(__GNUC__) || defined(__clang__)) && !defined(SYSDP_LANE_TSAN)
#define SYSDP_LANE_CLONES \
  __attribute__((flatten, target_clones("avx512f", "avx2", "default")))
#else
#define SYSDP_LANE_CLONES
#endif

namespace sysdp::compile::lanes {

/// Branch-proof select: all-ones/all-zero mask from the condition, then
/// bitwise blend.  A plain `cond ? a : b` is usually if-converted, but
/// when several selects chain over correlated sentinel compares (two
/// sat_adds back to back), jump threading turns them into real control
/// flow first and the loop vectoriser then refuses the loop outright.
/// Masks cannot be threaded, so the lane loops stay branch-free.
[[nodiscard]] inline Cost sel(bool cond, Cost a, Cost b) noexcept {
  const Cost m = -static_cast<Cost>(cond);
  return (a & m) | (b & ~m);
}

/// Branchless sat_add, bit-identical to sysdp::sat_add for every input
/// pair (the lane-exactness suites depend on this).  The scalar version
/// early-returns on the sentinels; here the same priorities are applied as
/// selects — +inf checked last so it wins over -inf, exactly like the
/// scalar's first early return — and the operands are clamped before the
/// raw add so the sum cannot overflow (|clamped| <= max/4).  Every
/// operation is a compare, mask-select, min, max or add: the lane loops
/// built from this vectorise with no intrinsics.
[[nodiscard]] inline Cost lane_sat_add(Cost a, Cost b) noexcept {
  const Cost ca = std::min(std::max(a, kNegInfCost), kInfCost);
  const Cost cb = std::min(std::max(b, kNegInfCost), kInfCost);
  Cost sum = ca + cb;
  sum = std::min(std::max(sum, kNegInfCost), kInfCost);
  sum = sel((a <= kNegInfCost) | (b <= kNegInfCost), kNegInfCost, sum);
  sum = sel((a >= kInfCost) | (b >= kInfCost), kInfCost, sum);
  return sum;
}

/// Sentinel class of a scalar weight.  On the baked-immediate path the
/// weight is lane-invariant, and leaving its sentinel compares inside the
/// lane loop is ruinous: the vectoriser if-converts them into per-op
/// scalar-boolean mask materialisation (dozens of scalar ops smearing one
/// bit across a vector mask).  Classifying w once per op and branching
/// OUTSIDE the lane loop leaves only vector-vector compares inside.
enum class WClass : std::uint8_t { kNegInf, kFinite, kInf };

[[nodiscard]] inline WClass classify_w(Cost w) noexcept {
  if (w >= kInfCost) return WClass::kInf;
  if (w <= kNegInfCost) return WClass::kNegInf;
  return WClass::kFinite;
}

/// lane_sat_add(x, w) with w's sentinel class a compile-time constant.
/// Bit-identical to lane_sat_add (which is symmetric) for every x whenever
/// classify_w(w) == kWC: the w-side clamps and overrides are resolved at
/// compile time, the x-side ones stay as vector-friendly selects.
template <WClass kWC>
[[nodiscard]] inline Cost lane_sat_add_w([[maybe_unused]] Cost x,
                                         [[maybe_unused]] Cost w) noexcept {
  if constexpr (kWC == WClass::kInf) {
    return kInfCost;  // +inf wins over everything, -inf included
  } else if constexpr (kWC == WClass::kNegInf) {
    return sel(x >= kInfCost, kInfCost, kNegInfCost);
  } else {
    // w is strictly between the sentinels, so clamp(w) == w and the
    // w-side override conditions are statically false.
    const Cost cx = std::min(std::max(x, kNegInfCost), kInfCost);
    Cost sum = cx + w;
    sum = std::min(std::max(sum, kNegInfCost), kInfCost);
    sum = sel(x <= kNegInfCost, kNegInfCost, sum);
    sum = sel(x >= kInfCost, kInfCost, sum);
    return sum;
  }
}

/// Invoke `f` with w's class lifted to a compile-time constant — the
/// three-way branch each kernel wraps around its lane loop.
template <typename F>
inline void with_w_class(Cost w, F&& f) {
  switch (classify_w(w)) {
    case WClass::kNegInf:
      f(std::integral_constant<WClass, WClass::kNegInf>{});
      break;
    case WClass::kFinite:
      f(std::integral_constant<WClass, WClass::kFinite>{});
      break;
    case WClass::kInf:
      f(std::integral_constant<WClass, WClass::kInf>{});
      break;
  }
}

}  // namespace sysdp::compile::lanes
