// Dataflow execution of a fixed parenthesisation (end of Section 4).
//
// When the chain's matrices have different dimensions, the multiplication
// order fixes a binary task tree whose node durations differ (one product
// of an a x b by a b x c matrix costs a*b*c scalar operations), and the
// paper notes the tree "can be treated as a dataflow graph" executed
// asynchronously by the available arrays.  This module schedules such a
// tree on k workers (critical-path priority, event driven) so the effect of
// the *secondary optimisation* — choosing the order — on parallel makespan
// can be measured, not just the sequential operation count eq. (6)
// minimises.
#pragma once

#include <cstdint>
#include <vector>

#include "semiring/cost.hpp"
#include "semiring/matrix.hpp"

namespace sysdp {

struct DataflowResult {
  /// Total scalar multiply-accumulates = sum of r_i r_k r_j over the tree
  /// (equals the eq. 6 cost of this parenthesisation).
  std::uint64_t scalar_ops = 0;
  /// Completion time with k workers, in scalar-operation time units.
  std::uint64_t makespan = 0;
  /// Longest root-ward duration chain: the unbounded-k lower bound.
  std::uint64_t critical_path = 0;

  [[nodiscard]] double utilization(std::uint64_t k) const noexcept {
    if (makespan == 0 || k == 0) return 1.0;
    return static_cast<double>(scalar_ops) /
           (static_cast<double>(k) * static_cast<double>(makespan));
  }
};

/// Schedule the parenthesisation given by `split` (split(i, j) = k, the
/// last matrix of the left factor, as matrix_chain_order produces it) over
/// chain dimensions `dims` on `k` workers.
[[nodiscard]] DataflowResult execute_chain_dataflow(
    const std::vector<Cost>& dims, const Matrix<std::size_t>& split,
    std::uint64_t k);

/// Split table of the naive left-to-right order ((M1 M2) M3) ...
[[nodiscard]] Matrix<std::size_t> split_left_assoc(std::size_t n);

/// Split table of the shape-balanced order (ignores dimensions).
[[nodiscard]] Matrix<std::size_t> split_balanced(std::size_t n);

}  // namespace sysdp
