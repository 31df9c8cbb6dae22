// Old name of CompiledEngine at B lanes, kept while perfbench/ includes it.
#pragma once

#include "compile/engine.hpp"

namespace sysdp::compile {

using BatchedCompiledEngine = CompiledEngine;

}  // namespace sysdp::compile
