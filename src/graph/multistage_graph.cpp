#include "graph/multistage_graph.hpp"

#include <stdexcept>
#include <utility>

namespace sysdp {

MultistageGraph::MultistageGraph(const std::vector<std::size_t>& stage_sizes,
                                 Cost fill)
    : stage_sizes_(stage_sizes) {
  if (stage_sizes_.size() < 2) {
    throw std::invalid_argument("MultistageGraph: need at least 2 stages");
  }
  for (std::size_t s : stage_sizes_) {
    if (s == 0) throw std::invalid_argument("MultistageGraph: empty stage");
  }
  costs_.reserve(stage_sizes_.size() - 1);
  for (std::size_t k = 0; k + 1 < stage_sizes_.size(); ++k) {
    costs_.emplace_back(stage_sizes_[k], stage_sizes_[k + 1], fill);
  }
}

MultistageGraph::MultistageGraph(std::size_t stages, std::size_t width,
                                 Cost fill)
    : MultistageGraph(std::vector<std::size_t>(stages, width), fill) {}

MultistageGraph::MultistageGraph(std::vector<Matrix<Cost>> costs)
    : costs_(std::move(costs)) {
  if (costs_.empty()) {
    throw std::invalid_argument("MultistageGraph: need at least 2 stages");
  }
  stage_sizes_.reserve(costs_.size() + 1);
  stage_sizes_.push_back(costs_.front().rows());
  for (const Matrix<Cost>& m : costs_) {
    if (m.rows() != stage_sizes_.back()) {
      throw std::invalid_argument("MultistageGraph: matrix shapes do not chain");
    }
    stage_sizes_.push_back(m.cols());
  }
  for (std::size_t s : stage_sizes_) {
    if (s == 0) throw std::invalid_argument("MultistageGraph: empty stage");
  }
}

bool MultistageGraph::uniform_width() const noexcept {
  for (std::size_t s : stage_sizes_) {
    if (s != stage_sizes_.front()) return false;
  }
  return true;
}

std::size_t MultistageGraph::num_finite_edges() const {
  std::size_t n = 0;
  for (const auto& m : costs_) {
    for (std::size_t i = 0; i < m.rows(); ++i) {
      for (std::size_t j = 0; j < m.cols(); ++j) {
        if (!is_inf(m(i, j))) ++n;
      }
    }
  }
  return n;
}

Cost MultistageGraph::path_cost(const StagePath& path) const {
  if (path.size() != num_stages()) return kInfCost;
  Cost total = 0;
  for (std::size_t k = 0; k + 1 < path.size(); ++k) {
    if (path[k] >= stage_size(k) || path[k + 1] >= stage_size(k + 1)) {
      return kInfCost;
    }
    total = sat_add(total, edge(k, path[k], path[k + 1]));
  }
  return total;
}

}  // namespace sysdp
