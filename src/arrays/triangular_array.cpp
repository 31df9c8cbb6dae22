#include "arrays/triangular_array.hpp"

#include <stdexcept>

namespace sysdp {

BstRule::BstRule(std::vector<Cost> freq) : freq_(std::move(freq)) {
  if (freq_.empty()) throw std::invalid_argument("BstRule: no keys");
  for (Cost f : freq_) {
    if (f < 0) throw std::invalid_argument("BstRule: negative frequency");
  }
  prefix_.assign(freq_.size() + 1, 0);
  for (std::size_t i = 0; i < freq_.size(); ++i) {
    prefix_[i + 1] = prefix_[i] + freq_[i];
  }
}

TriangularArray<BstRule>::Result run_bst_array(const std::vector<Cost>& freq) {
  BstRule rule(freq);
  const std::size_t n = rule.num_keys();
  return TriangularArray<BstRule>(std::move(rule), n).run();
}

PolygonRule::PolygonRule(std::vector<Cost> weights)
    : weights_(std::move(weights)) {
  if (weights_.size() < 2) {
    throw std::invalid_argument("PolygonRule: need >= 2 vertices");
  }
  for (Cost w : weights_) {
    if (w <= 0) throw std::invalid_argument("PolygonRule: weights must be > 0");
  }
}

TriangularArray<PolygonRule>::Result run_polygon_array(
    const std::vector<Cost>& weights) {
  PolygonRule rule(weights);
  const std::size_t n = rule.num_vertices();
  return TriangularArray<PolygonRule>(std::move(rule), n).run();
}

ChainRule::ChainRule(std::vector<Cost> dims) : dims_(std::move(dims)) {
  if (dims_.size() < 2) {
    throw std::invalid_argument("ChainRule: need at least one matrix");
  }
  for (Cost d : dims_) {
    if (d <= 0) throw std::invalid_argument("ChainRule: dims must be > 0");
  }
}

TriangularArray<ChainRule>::Result run_chain_array(
    const std::vector<Cost>& dims) {
  ChainRule rule(dims);
  const std::size_t n = rule.num_matrices();
  return TriangularArray<ChainRule>(std::move(rule), n).run();
}

}  // namespace sysdp
