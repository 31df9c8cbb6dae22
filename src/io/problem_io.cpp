#include "io/problem_io.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdint>
#include <fstream>
#include <istream>
#include <limits>
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

/// a * b, failing with the message `what()` builds if the product
/// overflows size_t.  The message is built only then, so the success path
/// allocates nothing between the tables the reader fills.
template <typename What>
std::size_t checked_product(std::size_t a, std::size_t b, What&& what) {
  if (b != 0 && a > std::numeric_limits<std::size_t>::max() / b) {
    fail(what() + " overflows");
  }
  return a * b;
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

// The readers never size storage by a declared count alone: it grows with
// the tokens actually read, so a truncated file that declares huge counts
// fails at its end with memory proportional to its length, and each object
// is built only once its data has been read.  A vector reserves its
// declared length only up to kReserveCap entries: a valid file's storage
// is allocated once and exactly, and a huge count costs at most that much
// address space, of which only the entries read are ever written.
constexpr std::size_t kReserveCap = std::size_t{1} << 20;

template <typename T>
void reserve_declared(std::vector<T>& v, std::size_t declared) {
  v.reserve(std::min(declared, kReserveCap));
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
  std::vector<std::size_t> sizes;
  reserve_declared(sizes, stages);
  for (std::size_t k = 0; k < stages; ++k) {
    sizes.push_back(next_size(is, "stage size"));
  }
  std::vector<Matrix<Cost>> costs;
  costs.reserve(stages - 1);  // every stage size has been read
  for (std::size_t k = 0; k + 1 < stages; ++k) {
    const std::size_t count = checked_product(sizes[k], sizes[k + 1], [k] {
      return "edge count of stage " + std::to_string(k) + " -> " +
             std::to_string(k + 1);
    });
    std::vector<Cost> edges;
    reserve_declared(edges, count);
    for (std::size_t e = 0; e < count; ++e) {
      edges.push_back(next_cost(is, "edge cost"));
    }
    costs.emplace_back(sizes[k], sizes[k + 1], std::move(edges));
  }
  return MultistageGraph(std::move(costs));
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
  std::vector<Cost> dims;
  reserve_declared(dims, n + 1);
  for (std::size_t i = 0; i <= n; ++i) {
    const Cost d = next_cost(is, "chain dimension");
    if (d <= 0 || is_inf(d)) fail("chain dimensions must be positive");
    dims.push_back(d);
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
  std::vector<std::size_t> domains;
  reserve_declared(domains, nvars);
  for (std::size_t v = 0; v < nvars; ++v) {
    domains.push_back(next_size(is, "domain size"));
  }
  NonserialObjective obj(domains);
  const std::size_t nterms = next_size(is, "term count");
  for (std::size_t t = 0; t < nterms; ++t) {
    const std::string kw = next_token(is, "term keyword");
    if (kw != "term") fail("expected 'term', got '" + kw + "'");
    const std::size_t arity = next_size(is, "term arity");
    TermScope scope;
    reserve_declared(scope, arity);
    std::size_t table_size = 1;
    for (std::size_t i = 0; i < arity; ++i) {
      const std::size_t v = next_size(is, "term variable");
      if (v >= nvars) fail("term variable out of range");
      table_size = checked_product(table_size, domains[v], [t, arity] {
        return "table size of term " + std::to_string(t) + " (" +
               std::to_string(arity) + " variables)";
      });
      scope.push_back(v);
    }
    std::vector<Cost> table;
    reserve_declared(table, table_size);
    for (std::size_t i = 0; i < table_size; ++i) {
      table.push_back(next_cost(is, "term table entry"));
    }
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
