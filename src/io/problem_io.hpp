// Text serialisation of problem instances.
//
// A small line-oriented format so instances can be generated once, stored,
// diffed, and fed to the CLI tool or other implementations:
//
//   multistage            chain              objective
//   <S>                   <n>                <num_vars>
//   <size_0 .. size_S-1>  <r_0 .. r_n>       <domain_0 .. domain_{V-1}>
//   <edge rows per                           <num_terms>
//    transition, "inf"                       term <arity> <vars..> <table..>
//    for missing edges>
//
// Values are whitespace-separated; "inf" and "-inf" encode kInfCost and
// kNegInfCost.  Every other value is a decimal integer read whole: a token
// with a fraction, an exponent or any trailing character is an error, and
// so is a finite literal in either sentinel band (|value| >= kInfCost),
// which would otherwise read as an infinity.  Readers validate shapes and
// throw std::runtime_error naming what was being read on malformed input.
#pragma once

#include <iosfwd>
#include <string>
#include <variant>

#include "graph/multistage_graph.hpp"
#include "nonserial/objective.hpp"

namespace sysdp {

void write_multistage(std::ostream& os, const MultistageGraph& g);
[[nodiscard]] MultistageGraph read_multistage(std::istream& is);

void write_chain(std::ostream& os, const std::vector<Cost>& dims);
[[nodiscard]] std::vector<Cost> read_chain(std::istream& is);

void write_objective(std::ostream& os, const NonserialObjective& obj);
[[nodiscard]] NonserialObjective read_objective(std::istream& is);

/// Any supported problem, dispatched on the header keyword.
using AnyProblem =
    std::variant<MultistageGraph, std::vector<Cost>, NonserialObjective>;
[[nodiscard]] AnyProblem read_problem(std::istream& is);

/// Convenience file wrappers.
[[nodiscard]] AnyProblem load_problem(const std::string& path);
void save_problem(const std::string& path, const AnyProblem& problem);

}  // namespace sysdp
