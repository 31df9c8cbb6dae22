// Generic triangular systolic array for interval DP recurrences.
//
// Both polyadic examples the paper names in Section 2.1 — the optimal
// matrix-multiplication order (eq. 6) and the optimal binary search tree —
// share the interval recurrence
//     T(i,j) = opt_k combine(T(i, k), T(k', j), local(i, j, k))
// whose dependency structure is the triangle the GKT array implements.
// TriangularArray captures the timing (operands ripple along rows/columns
// one hop per cycle; each cell folds up to two candidates per cycle) while
// the *rule* — base values, split range, and candidate cost — is supplied
// by a policy type, so one hardware model serves every member of the class.
//
//   struct Rule {
//     Cost base(std::size_t i) const;                    // diagonal cells
//     std::size_t splits(std::size_t i, std::size_t j) const;
//     // terms of candidate `t` (0-based) for interval [i, j], in one call.
//     IntervalTerms terms(std::size_t i, std::size_t j, std::size_t t) const;
//     // sub-intervals consumed by candidate t.
//     std::pair<std::size_t, std::size_t> left_interval(i, j, t) const;
//     std::pair<std::size_t, std::size_t> right_interval(i, j, t) const;
//     // scalars the rule reads from its instance (RunResult::input_scalars).
//     std::size_t input_scalars() const;
//   };
//
// Every member of the class prices a candidate the same way: the completed
// sub-interval values the operand streams deliver, each counted or
// clamped away (an empty BST subtree still names an adjacent cell, whose
// value must not count), plus a local cost.  A rule therefore states its
// candidates as data — IntervalTerms — and the arrays apply the one
// formula, IntervalTerms::candidate: the analytic model at every fold, the
// engine-backed model from tables it fills with one terms() call per
// candidate.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "arrays/run_result.hpp"
#include "semiring/cost.hpp"
#include "semiring/kernels.hpp"
#include "semiring/matrix.hpp"

namespace sysdp {

/// Candidate t of interval [i, j] as data: its local cost, and whether
/// the left and right sub-interval values count (false: the rule clamps
/// that operand to the structural zero, though its arrival still gates
/// the candidate).
struct IntervalTerms {
  Cost local = 0;
  bool use_left = true;
  bool use_right = true;

  /// The candidate's cost: (use_left ? left : 0) + (use_right ? right : 0)
  /// + local, with saturating adds.
  [[nodiscard]] constexpr Cost candidate(Cost left,
                                         Cost right) const noexcept {
    return kern::interval_candidate(use_left ? left : 0,
                                    use_right ? right : 0, local);
  }
};

template <typename Rule>
class TriangularArray {
 public:
  explicit TriangularArray(Rule rule, std::size_t n)
      : rule_(std::move(rule)), n_(n) {
    // A rule may offer a cell more than n candidates, so run()'s
    // workspace width comes from the rule, not from n.
    for (std::size_t d = 1; d < n_; ++d) {
      for (std::size_t i = 0; i + d < n_; ++i) {
        widest_ = std::max(widest_, rule_.splits(i, i + d));
      }
    }
  }

  struct Result {
    Matrix<Cost> cost;
    Matrix<std::size_t> split;   ///< winning candidate index per cell
    Matrix<sim::Cycle> ready;    ///< completion cycle per cell
    RunResult<Cost> stats;

    [[nodiscard]] Cost total() const { return cost(0, cost.cols() - 1); }
    [[nodiscard]] sim::Cycle completion() const {
      return ready(0, ready.cols() - 1);
    }
  };

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] std::size_t num_cells() const noexcept {
    return n_ * (n_ + 1) / 2;
  }

  [[nodiscard]] Result run() const {
    const std::size_t n = n_;
    Result out{Matrix<Cost>(n, n, 0), Matrix<std::size_t>(n, n, 0),
               Matrix<sim::Cycle>(n, n, 0), {}};
    out.stats.num_pes = num_cells();
    out.stats.input_scalars = rule_.input_scalars();
    for (std::size_t i = 0; i < n; ++i) out.cost(i, i) = rule_.base(i);

    // Per-cell scratch (operand arrival times, arrival-sorted visit order)
    // hoisted out of the sweep: one workspace sized for the widest split
    // range, reused by every cell.
    std::vector<sim::Cycle> arrivals(widest_);
    std::vector<std::size_t> order(widest_);
    for (std::size_t d = 1; d < n; ++d) {
      for (std::size_t i = 0; i + d < n; ++i) {
        const std::size_t j = i + d;
        const std::size_t cands = rule_.splits(i, j);
        if (cands == 0) {
          // A trivially-solved cell (e.g. a polygon edge): value 0,
          // available immediately.
          out.cost(i, j) = 0;
          out.ready(i, j) = 0;
          continue;
        }
        // Operand-pair arrival times: a completed sub-interval value hops
        // one cell per cycle along its row/column toward (i, j).
        for (std::size_t t = 0; t < cands; ++t) {
          const auto [li, lj] = rule_.left_interval(i, j, t);
          const auto [ri, rj] = rule_.right_interval(i, j, t);
          const sim::Cycle left =
              out.ready(li, lj) + (j - lj);   // row hops
          const sim::Cycle right =
              out.ready(ri, rj) + (ri - i);   // column hops
          arrivals[t] = std::max(left, right);
        }
        for (std::size_t t = 0; t < cands; ++t) order[t] = t;
        std::sort(order.begin(),
                  order.begin() + static_cast<std::ptrdiff_t>(cands),
                  [&](std::size_t a, std::size_t b) {
                    return arrivals[a] < arrivals[b];
                  });
        Cost best = kInfCost;
        std::size_t best_t = 0;
        sim::Cycle clock = 0;
        std::size_t idx = 0;
        // Two additions + two comparisons per cell per cycle (Section 6.2).
        while (idx < cands) {
          clock = std::max(clock, arrivals[order[idx]]) + 1;
          std::size_t taken = 0;
          while (idx < cands && taken < 2 &&
                 arrivals[order[idx]] <= clock - 1) {
            const std::size_t t = order[idx];
            const auto [li, lj] = rule_.left_interval(i, j, t);
            const auto [ri, rj] = rule_.right_interval(i, j, t);
            const Cost cand = rule_.terms(i, j, t).candidate(
                out.cost(li, lj), out.cost(ri, rj));
            ++out.stats.busy_steps;
            kern::fold_min(cand, t, best, best_t);
            ++idx;
            ++taken;
          }
        }
        out.cost(i, j) = best;
        out.split(i, j) = best_t;
        out.ready(i, j) = clock;
      }
    }
    out.stats.cycles = n == 1 ? 0 : out.ready(0, n - 1);
    return out;
  }

 private:
  Rule rule_;
  std::size_t n_;
  std::size_t widest_ = 0;  ///< most candidates any cell has
};

/// Rule for the optimal binary search tree: candidate t roots the interval
/// at key i + t; the local cost is the interval's total access frequency.
/// Empty sub-trees are modelled by clamping to the adjacent diagonal cell
/// with zero contribution.
class BstRule {
 public:
  explicit BstRule(std::vector<Cost> freq);

  [[nodiscard]] Cost base(std::size_t i) const { return freq_[i]; }
  [[nodiscard]] std::size_t splits(std::size_t i, std::size_t j) const {
    return j - i + 1;  // every key in [i, j] can be the root
  }
  /// Rooted at key r = i + t; an empty left (r == i) or right (r == j)
  /// subtree contributes nothing.
  [[nodiscard]] IntervalTerms terms(std::size_t i, std::size_t j,
                                    std::size_t t) const {
    const std::size_t r = i + t;
    return {prefix_[j + 1] - prefix_[i], r > i, r < j};
  }
  [[nodiscard]] std::pair<std::size_t, std::size_t> left_interval(
      std::size_t i, std::size_t /*j*/, std::size_t t) const {
    const std::size_t r = i + t;
    return r > i ? std::pair{i, r - 1} : std::pair{i, i};
  }
  [[nodiscard]] std::pair<std::size_t, std::size_t> right_interval(
      std::size_t i, std::size_t j, std::size_t t) const {
    const std::size_t r = i + t;
    return r < j ? std::pair{r + 1, j} : std::pair{j, j};
  }

  [[nodiscard]] std::size_t num_keys() const noexcept { return freq_.size(); }
  [[nodiscard]] std::size_t input_scalars() const noexcept {
    return freq_.size();
  }

 private:
  std::vector<Cost> freq_;
  std::vector<Cost> prefix_;
};

/// Optimal-BST triangular array (the paper's second polyadic example).
[[nodiscard]] TriangularArray<BstRule>::Result run_bst_array(
    const std::vector<Cost>& freq);

/// Rule for minimum-weight triangulation of a convex polygon — the third
/// classic member of the interval-DP class (equivalent to matrix-chain
/// ordering by the standard polygon/product correspondence):
///   t(i, j) = min_{i < k < j} t(i, k) + t(k, j) + w_i w_k w_j
/// over vertex weights w, with t(i, i+1) = 0 (an edge is already a
/// triangle side).  Intervals here share endpoints, exercising a split
/// pattern the chain/BST rules do not.
class PolygonRule {
 public:
  explicit PolygonRule(std::vector<Cost> weights);

  [[nodiscard]] Cost base(std::size_t) const { return 0; }
  /// Cell (i, j) models polygon vertices i..j; splits pick the apex k.
  [[nodiscard]] std::size_t splits(std::size_t i, std::size_t j) const {
    return j - i - 1 > 0 && j > i ? j - i - 1 : 0;
  }
  [[nodiscard]] IntervalTerms terms(std::size_t i, std::size_t j,
                                    std::size_t t) const {
    const std::size_t k = i + 1 + t;  // apex strictly between i and j
    return {weights_[i] * weights_[k] * weights_[j], true, true};
  }
  /// The sub-polygon i..k; a bare edge (k == i + 1) contributes 0 and is
  /// represented by the adjacent diagonal cell.
  [[nodiscard]] std::pair<std::size_t, std::size_t> left_interval(
      std::size_t i, std::size_t /*j*/, std::size_t t) const {
    const std::size_t k = i + 1 + t;
    return k > i + 1 ? std::pair{i, k} : std::pair{i, i};
  }
  [[nodiscard]] std::pair<std::size_t, std::size_t> right_interval(
      std::size_t i, std::size_t j, std::size_t t) const {
    const std::size_t k = i + 1 + t;
    return j > k + 1 ? std::pair{k, j} : std::pair{j, j};
  }

  [[nodiscard]] std::size_t num_vertices() const noexcept {
    return weights_.size();
  }
  [[nodiscard]] std::size_t input_scalars() const noexcept {
    return weights_.size();
  }

 private:
  std::vector<Cost> weights_;
};

/// Minimum-weight polygon triangulation on the triangular array.
[[nodiscard]] TriangularArray<PolygonRule>::Result run_polygon_array(
    const std::vector<Cost>& weights);

/// Rule for the optimal matrix-multiplication order (the paper's eq. 6):
///   m(i, j) = min_{i <= k < j} m(i, k) + m(k+1, j) + d_i d_{k+1} d_{j+1}
/// over chain dimensions d.  This is the recurrence the GKT array is
/// specialised for: GktModularArray matches TriangularArray<ChainRule>
/// cycle for cycle on identical inputs.
class ChainRule {
 public:
  explicit ChainRule(std::vector<Cost> dims);

  [[nodiscard]] Cost base(std::size_t) const { return 0; }
  [[nodiscard]] std::size_t splits(std::size_t i, std::size_t j) const {
    return j - i;
  }
  [[nodiscard]] IntervalTerms terms(std::size_t i, std::size_t j,
                                    std::size_t t) const {
    return {dims_[i] * dims_[i + t + 1] * dims_[j + 1], true, true};
  }
  [[nodiscard]] std::pair<std::size_t, std::size_t> left_interval(
      std::size_t i, std::size_t /*j*/, std::size_t t) const {
    return {i, i + t};
  }
  [[nodiscard]] std::pair<std::size_t, std::size_t> right_interval(
      std::size_t i, std::size_t j, std::size_t t) const {
    return {i + t + 1, j};
  }

  [[nodiscard]] std::size_t num_matrices() const noexcept {
    return dims_.size() - 1;
  }
  /// The rule reads all n + 1 dims, one more than it has matrices.
  [[nodiscard]] std::size_t input_scalars() const noexcept {
    return dims_.size();
  }

 private:
  std::vector<Cost> dims_;
};

/// Matrix-chain ordering on the generic triangular array.
[[nodiscard]] TriangularArray<ChainRule>::Result run_chain_array(
    const std::vector<Cost>& dims);

}  // namespace sysdp
