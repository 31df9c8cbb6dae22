#include "io/problem_io.hpp"

#include <cctype>
#include <charconv>
#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <system_error>

namespace sysdp {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("problem_io: " + what);
}

/// Next whitespace-separated token; throws with context if the stream ends.
/// Scans the stream buffer directly: `is >> tok` builds a sentry and
/// consults the locale for every token, which dominated reading large
/// instances.  Stream state follows operator>>: eofbit when the scan hits
/// the end, failbit when no token is left.
std::string next_token(std::istream& is, const char* context) {
  using Traits = std::istream::traits_type;
  std::streambuf* const sb = is.good() ? is.rdbuf() : nullptr;
  std::string tok;
  if (sb != nullptr) {
    int c = sb->sgetc();
    while (c != Traits::eof() && std::isspace(c) != 0) c = sb->snextc();
    while (c != Traits::eof() && std::isspace(c) == 0) {
      tok.push_back(Traits::to_char_type(c));
      c = sb->snextc();
    }
    if (c == Traits::eof()) is.setstate(std::ios::eofbit);
  }
  if (tok.empty()) {
    is.setstate(std::ios::failbit);
    fail(std::string("unexpected end of input reading ") + context);
  }
  return tok;
}

/// `tok` parsed whole as a decimal int64: std::errc{} on success,
/// result_out_of_range for a well-formed literal past int64, and
/// invalid_argument for anything else — a fraction, an exponent, a suffix.
std::errc parse_int(const std::string& tok, std::int64_t& v) {
  const char* const end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, v);
  return ptr == end ? ec : std::errc::invalid_argument;
}

Cost next_cost(std::istream& is, const char* context) {
  const std::string tok = next_token(is, context);
  if (tok == "inf") return kInfCost;
  if (tok == "-inf") return kNegInfCost;
  std::int64_t v = 0;
  const std::errc ec = parse_int(tok, v);
  // A finite literal in a sentinel band would silently read as +/-inf.
  if (ec == std::errc::result_out_of_range ||
      (ec == std::errc() && (is_inf(v) || is_neg_inf(v)))) {
    fail(std::string(context) + " literal '" + tok +
         "' lies in the infinity sentinel band (|value| >= " +
         std::to_string(kInfCost) + "); write 'inf' or '-inf'");
  }
  if (ec != std::errc()) {
    fail("expected a cost value for " + std::string(context) + ", got '" +
         tok + "'");
  }
  return v;
}

std::size_t next_size(std::istream& is, const char* context) {
  const std::string tok = next_token(is, context);
  std::int64_t v = 0;
  if (parse_int(tok, v) != std::errc() || v < 0 || is_inf(v)) {
    fail("expected a nonnegative count for " + std::string(context) +
         ", got '" + tok + "'");
  }
  return static_cast<std::size_t>(v);
}

void put_cost(std::ostream& os, Cost c) {
  if (is_inf(c)) {
    os << "inf";
  } else if (is_neg_inf(c)) {
    os << "-inf";
  } else {
    os << c;
  }
}

void expect_keyword(std::istream& is, const char* keyword) {
  const std::string tok = next_token(is, "problem kind");
  if (tok != keyword) {
    fail("expected '" + std::string(keyword) + "', got '" + tok + "'");
  }
}

MultistageGraph read_multistage_body(std::istream& is);
std::vector<Cost> read_chain_body(std::istream& is);
NonserialObjective read_objective_body(std::istream& is);

}  // namespace

void write_multistage(std::ostream& os, const MultistageGraph& g) {
  os << "multistage\n" << g.num_stages() << '\n';
  for (std::size_t k = 0; k < g.num_stages(); ++k) {
    os << g.stage_size(k) << (k + 1 < g.num_stages() ? ' ' : '\n');
  }
  for (std::size_t k = 0; k + 1 < g.num_stages(); ++k) {
    for (std::size_t i = 0; i < g.stage_size(k); ++i) {
      for (std::size_t j = 0; j < g.stage_size(k + 1); ++j) {
        put_cost(os, g.edge(k, i, j));
        os << (j + 1 < g.stage_size(k + 1) ? ' ' : '\n');
      }
    }
  }
}

MultistageGraph read_multistage(std::istream& is) {
  expect_keyword(is, "multistage");
  return read_multistage_body(is);
}

namespace {
MultistageGraph read_multistage_body(std::istream& is) {
  const std::size_t stages = next_size(is, "stage count");
  if (stages < 2) fail("multistage graph needs >= 2 stages");
  std::vector<std::size_t> sizes(stages);
  for (auto& s : sizes) s = next_size(is, "stage size");
  MultistageGraph g(sizes);
  for (std::size_t k = 0; k + 1 < stages; ++k) {
    for (std::size_t i = 0; i < sizes[k]; ++i) {
      for (std::size_t j = 0; j < sizes[k + 1]; ++j) {
        g.set_edge(k, i, j, next_cost(is, "edge cost"));
      }
    }
  }
  return g;
}
}  // namespace

void write_chain(std::ostream& os, const std::vector<Cost>& dims) {
  os << "chain\n" << dims.size() - 1 << '\n';
  for (std::size_t i = 0; i < dims.size(); ++i) {
    put_cost(os, dims[i]);
    os << (i + 1 < dims.size() ? ' ' : '\n');
  }
}

std::vector<Cost> read_chain(std::istream& is) {
  expect_keyword(is, "chain");
  return read_chain_body(is);
}

namespace {
std::vector<Cost> read_chain_body(std::istream& is) {
  const std::size_t n = next_size(is, "matrix count");
  if (n == 0) fail("chain needs >= 1 matrix");
  std::vector<Cost> dims(n + 1);
  for (auto& d : dims) {
    d = next_cost(is, "chain dimension");
    if (d <= 0 || is_inf(d)) fail("chain dimensions must be positive");
  }
  return dims;
}
}  // namespace

void write_objective(std::ostream& os, const NonserialObjective& obj) {
  os << "objective\n" << obj.num_variables() << '\n';
  for (std::size_t v = 0; v < obj.num_variables(); ++v) {
    os << obj.domain(v) << (v + 1 < obj.num_variables() ? ' ' : '\n');
  }
  os << obj.terms().size() << '\n';
  for (const Term& t : obj.terms()) {
    os << "term " << t.scope.size();
    for (std::size_t v : t.scope) os << ' ' << v;
    for (Cost c : t.table) {
      os << ' ';
      put_cost(os, c);
    }
    os << '\n';
  }
}

NonserialObjective read_objective(std::istream& is) {
  expect_keyword(is, "objective");
  return read_objective_body(is);
}

namespace {
NonserialObjective read_objective_body(std::istream& is) {
  const std::size_t nvars = next_size(is, "variable count");
  if (nvars == 0) fail("objective needs >= 1 variable");
  std::vector<std::size_t> domains(nvars);
  for (auto& d : domains) d = next_size(is, "domain size");
  NonserialObjective obj(domains);
  const std::size_t nterms = next_size(is, "term count");
  for (std::size_t t = 0; t < nterms; ++t) {
    const std::string kw = next_token(is, "term keyword");
    if (kw != "term") fail("expected 'term', got '" + kw + "'");
    const std::size_t arity = next_size(is, "term arity");
    TermScope scope(arity);
    std::size_t table_size = 1;
    for (auto& v : scope) {
      v = next_size(is, "term variable");
      if (v >= nvars) fail("term variable out of range");
      table_size *= domains[v];
    }
    std::vector<Cost> table(table_size);
    for (auto& c : table) c = next_cost(is, "term table entry");
    obj.add_term(std::move(scope), std::move(table));
  }
  return obj;
}
}  // namespace

AnyProblem read_problem(std::istream& is) {
  const std::string kind = next_token(is, "problem kind");
  if (kind == "multistage") return read_multistage_body(is);
  if (kind == "chain") return read_chain_body(is);
  if (kind == "objective") return read_objective_body(is);
  fail("unknown problem kind '" + kind + "'");
}

AnyProblem load_problem(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail("cannot open '" + path + "'");
  return read_problem(in);
}

void save_problem(const std::string& path, const AnyProblem& problem) {
  std::ofstream out(path);
  if (!out) fail("cannot open '" + path + "' for writing");
  std::visit(
      [&out](const auto& p) {
        using T = std::decay_t<decltype(p)>;
        if constexpr (std::is_same_v<T, MultistageGraph>) {
          write_multistage(out, p);
        } else if constexpr (std::is_same_v<T, std::vector<Cost>>) {
          write_chain(out, p);
        } else {
          write_objective(out, p);
        }
      },
      problem);
  if (!out) fail("write to '" + path + "' failed");
}

}  // namespace sysdp
