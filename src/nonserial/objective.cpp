#include "nonserial/objective.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace sysdp {

Cost Term::lookup(const std::vector<std::size_t>& assignment,
                  const std::vector<std::size_t>& domains) const {
  std::size_t idx = 0;
  for (std::size_t v : scope) {
    idx = idx * domains[v] + assignment[v];
  }
  return table[idx];
}

NonserialObjective::NonserialObjective(std::vector<std::size_t> domain_sizes,
                                       Combine combine)
    : domains_(std::move(domain_sizes)), combine_(combine) {
  if (domains_.empty()) {
    throw std::invalid_argument("NonserialObjective: no variables");
  }
  for (std::size_t d : domains_) {
    if (d == 0) throw std::invalid_argument("NonserialObjective: empty domain");
  }
}

void NonserialObjective::add_term(TermScope scope, std::vector<Cost> table) {
  if (scope.empty()) throw std::invalid_argument("add_term: empty scope");
  if (!std::is_sorted(scope.begin(), scope.end()) ||
      std::adjacent_find(scope.begin(), scope.end()) != scope.end()) {
    throw std::invalid_argument("add_term: scope must be sorted and unique");
  }
  std::size_t expect = 1;
  for (std::size_t v : scope) {
    if (v >= domains_.size()) throw std::out_of_range("add_term: variable");
    if (expect > std::numeric_limits<std::size_t>::max() / domains_[v]) {
      throw std::invalid_argument("add_term: table size overflows");
    }
    expect *= domains_[v];
  }
  if (table.size() != expect) {
    throw std::invalid_argument("add_term: table size mismatch");
  }
  terms_.push_back(Term{std::move(scope), std::move(table)});
}

Cost NonserialObjective::evaluate(
    const std::vector<std::size_t>& assignment) const {
  if (assignment.size() != domains_.size()) {
    throw std::invalid_argument("evaluate: assignment size");
  }
  for (std::size_t v = 0; v < assignment.size(); ++v) {
    if (assignment[v] >= domains_[v]) {
      throw std::out_of_range("evaluate: value out of domain");
    }
  }
  Cost total = fold_identity();
  for (const Term& t : terms_) {
    total = fold(total, t.lookup(assignment, domains_));
  }
  return total;
}

InteractionGraph NonserialObjective::interaction() const {
  InteractionGraph ig(domains_.size());
  for (const Term& t : terms_) ig.add_term(t.scope);
  return ig;
}

}  // namespace sysdp
