// Seeded instance generators shared by the workloads.
#pragma once

#include <cstddef>

#include "graph/generators.hpp"

namespace perfbench {

/// A Design 1 instance: `stages` interior stages of `width` nodes between a
/// single source and a single sink joined by zero-cost edges (Figure 1a),
/// interior edge costs in [1, 99].  random_multistage's default lower
/// bound of 0 lets a wide graph solve to 0, and an optimum of 0 would hide
/// a wrong answer.
inline sysdp::MultistageGraph design1_graph(std::size_t stages,
                                            std::size_t width,
                                            sysdp::Rng& rng) {
  return sysdp::with_single_source_sink(
      sysdp::random_multistage(stages, width, rng, 1, 99));
}

}  // namespace perfbench
