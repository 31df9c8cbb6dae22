// The GKT array built from chain dims: TriangularModularArray<ChainRule>
// with a dims constructor, and nothing of its own.  It is a seam for the
// end-to-end benchmark only, whose perfbench/compiled.hpp and
// perfbench/sweep.cpp construct it; the next change to the benchmark
// moves them to TriangularModularArray<ChainRule> and deletes this header.
#pragma once

#include <vector>

#include "arrays/triangular_array.hpp"
#include "arrays/triangular_modular.hpp"

namespace sysdp {

class GktModularArray : public TriangularModularArray<ChainRule> {
 public:
  /// Throws std::invalid_argument on ChainRule's terms.
  explicit GktModularArray(const std::vector<Cost>& dims)
      : TriangularModularArray(ChainRule(dims), dims.size() - 1) {}
};

}  // namespace sysdp
