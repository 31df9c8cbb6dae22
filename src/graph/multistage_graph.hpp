// Multistage graphs (Figure 1 of the paper).
//
// A multistage graph decomposes its nodes into stages 0..N-1 with edges only
// between adjacent stages.  Stage-to-stage costs are stored as dense
// matrices: cost(k)(i,j) is the cost of the edge from node i of stage k to
// node j of stage k+1 (kInfCost encodes "no edge").  This is exactly the
// matrix string of eq. (8): solving the graph backward is the product
// C_0 . (C_1 . ( ... (C_{N-2} . 1))) over (MIN,+).
#pragma once

#include <cstddef>
#include <vector>

#include "semiring/cost.hpp"
#include "semiring/matrix.hpp"

namespace sysdp {

/// A path through a multistage graph: one node index per stage.
using StagePath = std::vector<std::size_t>;

class MultistageGraph {
 public:
  MultistageGraph() = default;

  /// Graph with the given stage sizes; all edges initialised to `fill`
  /// (default: fully disconnected).
  explicit MultistageGraph(const std::vector<std::size_t>& stage_sizes,
                           Cost fill = kInfCost);

  /// Uniform graph: `stages` stages of `width` nodes each.
  MultistageGraph(std::size_t stages, std::size_t width, Cost fill = kInfCost);

  /// The graph whose matrix string (eq. 8) is `costs`: costs[k] holds the
  /// stage k -> k+1 edges, so costs[k].cols() must equal
  /// costs[k+1].rows().  Throws std::invalid_argument on no matrix, an
  /// empty stage or shapes that do not chain.
  explicit MultistageGraph(std::vector<Matrix<Cost>> costs);

  [[nodiscard]] std::size_t num_stages() const noexcept {
    return stage_sizes_.size();
  }
  [[nodiscard]] std::size_t stage_size(std::size_t k) const {
    return stage_sizes_.at(k);
  }
  [[nodiscard]] const std::vector<std::size_t>& stage_sizes() const noexcept {
    return stage_sizes_;
  }

  /// True if every stage has the same number of nodes.
  [[nodiscard]] bool uniform_width() const noexcept;

  /// Cost matrix between stage k and stage k+1 (k in [0, num_stages()-2]).
  [[nodiscard]] const Matrix<Cost>& costs(std::size_t k) const {
    return costs_.at(k);
  }
  [[nodiscard]] Matrix<Cost>& costs(std::size_t k) { return costs_.at(k); }

  /// Edge-cost accessors with stage/node bounds checks.
  [[nodiscard]] Cost edge(std::size_t stage, std::size_t from,
                          std::size_t to) const {
    return costs_.at(stage).at(from, to);
  }
  void set_edge(std::size_t stage, std::size_t from, std::size_t to, Cost c) {
    costs_.at(stage).at(from, to) = c;
  }

  /// The matrix string C_0, ..., C_{N-2} (eq. 8), in forward stage order.
  [[nodiscard]] const std::vector<Matrix<Cost>>& matrix_string() const noexcept {
    return costs_;
  }

  /// Total number of edges with finite cost.
  [[nodiscard]] std::size_t num_finite_edges() const;

  /// Cost of a concrete path (one node per stage); kInfCost if it uses a
  /// missing edge or has the wrong length.
  [[nodiscard]] Cost path_cost(const StagePath& path) const;

 private:
  std::vector<std::size_t> stage_sizes_;
  std::vector<Matrix<Cost>> costs_;  // costs_[k]: stage k -> stage k+1
};

}  // namespace sysdp
