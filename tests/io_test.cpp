// Round-trip and error-handling tests for the text problem format.
#include <gtest/gtest.h>

#include <iterator>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "io/problem_io.hpp"
#include "nonserial/nonserial_generators.hpp"

namespace sysdp {
namespace {

TEST(ProblemIo, MultistageRoundTrip) {
  Rng rng(1);
  const auto g = random_sparse_multistage(6, 4, rng, 400);
  std::stringstream ss;
  write_multistage(ss, g);
  const auto back = read_multistage(ss);
  ASSERT_EQ(back.num_stages(), g.num_stages());
  for (std::size_t k = 0; k + 1 < g.num_stages(); ++k) {
    EXPECT_TRUE(back.costs(k) == g.costs(k)) << "transition " << k;
  }
}

TEST(ProblemIo, MultistageWithRaggedStages) {
  Rng rng(2);
  const auto g = random_multistage(std::vector<std::size_t>{1, 4, 2, 3}, rng);
  std::stringstream ss;
  write_multistage(ss, g);
  const auto back = read_multistage(ss);
  EXPECT_EQ(back.stage_sizes(), g.stage_sizes());
  EXPECT_TRUE(back.costs(1) == g.costs(1));
}

TEST(ProblemIo, InfinityRoundTrips) {
  MultistageGraph g(2, 2);
  g.set_edge(0, 0, 1, 5);
  std::stringstream ss;
  write_multistage(ss, g);
  EXPECT_NE(ss.str().find("inf"), std::string::npos);
  const auto back = read_multistage(ss);
  EXPECT_TRUE(is_inf(back.edge(0, 0, 0)));
  EXPECT_EQ(back.edge(0, 0, 1), 5);
}

TEST(ProblemIo, ChainRoundTrip) {
  Rng rng(3);
  const auto dims = random_chain_dims(9, rng);
  std::stringstream ss;
  write_chain(ss, dims);
  EXPECT_EQ(read_chain(ss), dims);
}

TEST(ProblemIo, ObjectiveRoundTrip) {
  Rng rng(4);
  const auto obj = random_sparse_objective(6, 3, 5, rng);
  std::stringstream ss;
  write_objective(ss, obj);
  const auto back = read_objective(ss);
  ASSERT_EQ(back.num_variables(), obj.num_variables());
  ASSERT_EQ(back.terms().size(), obj.terms().size());
  for (std::size_t t = 0; t < obj.terms().size(); ++t) {
    EXPECT_EQ(back.terms()[t].scope, obj.terms()[t].scope);
    EXPECT_EQ(back.terms()[t].table, obj.terms()[t].table);
  }
  // Functional equality on a sample assignment.
  std::vector<std::size_t> a(6, 1);
  EXPECT_EQ(back.evaluate(a), obj.evaluate(a));
}

TEST(ProblemIo, DispatchByHeader) {
  Rng rng(5);
  std::stringstream ms, cs, os;
  write_multistage(ms, random_multistage(3, 2, rng));
  write_chain(cs, random_chain_dims(4, rng));
  write_objective(os, random_banded_objective(4, 2, rng));
  EXPECT_TRUE(std::holds_alternative<MultistageGraph>(read_problem(ms)));
  EXPECT_TRUE(std::holds_alternative<std::vector<Cost>>(read_problem(cs)));
  EXPECT_TRUE(std::holds_alternative<NonserialObjective>(read_problem(os)));
}

TEST(ProblemIo, FileRoundTrip) {
  Rng rng(6);
  const AnyProblem p = random_multistage(4, 3, rng);
  const std::string path = "/tmp/sysdp_io_test_problem.txt";
  save_problem(path, p);
  const auto back = load_problem(path);
  ASSERT_TRUE(std::holds_alternative<MultistageGraph>(back));
  EXPECT_TRUE(std::get<MultistageGraph>(back).costs(0) ==
              std::get<MultistageGraph>(p).costs(0));
}

TEST(ProblemIo, MalformedInputsThrowWithContext) {
  const auto expect_fail = [](const std::string& text,
                              const std::string& needle) {
    std::stringstream ss(text);
    try {
      (void)read_problem(ss);
      FAIL() << "expected failure for: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  expect_fail("widget", "unknown problem kind");
  expect_fail("multistage 1", ">= 2 stages");
  expect_fail("multistage 2 2", "end of input");
  expect_fail("multistage 2 2 2 1 x", "expected a cost value");
  expect_fail("chain 0", ">= 1 matrix");
  expect_fail("chain 2 4 0 3", "positive");
  expect_fail("objective 2 2 2 1 blob", "expected 'term'");
  expect_fail("objective 2 2 2 1 term 1 5", "out of range");
  // Shapes the graph and objective types refuse are refused by the reader,
  // with its own error.
  expect_fail("multistage 2 1 0", "stage sizes must be positive");
  expect_fail("objective 2 2 0", "domain sizes must be positive");
  expect_fail("objective 2 2 2 1 term 0", "term needs >= 1 variable");
  expect_fail("objective 2 2 2 1 term 2 1 0",
              "term variables must be strictly increasing");
  expect_fail("objective 2 2 2 1 term 2 1 1",
              "term variables must be strictly increasing");
  // Every number is read whole: no exponent, suffix or fraction is
  // silently truncated to its leading digits.
  expect_fail("chain 2 10 20 1e3",
              "expected a cost value for chain dimension, got '1e3'");
  expect_fail("chain 2 10 20x 30",
              "expected a cost value for chain dimension, got '20x'");
  expect_fail("multistage 2 1 20x",
              "expected a nonnegative count for stage size, got '20x'");
  expect_fail("multistage 2 1 1 5q",
              "expected a cost value for edge cost, got '5q'");
  expect_fail("chain 2.5 10 20 30",
              "expected a nonnegative count for matrix count, got '2.5'");
  // A finite literal in either sentinel band (or past int64) would read as
  // an infinity; only "inf" / "-inf" spell one.
  expect_fail("multistage 2 1 1 2305843009213693951",
              "edge cost literal '2305843009213693951' lies in the infinity "
              "sentinel band");
  expect_fail("multistage 2 1 1 -2305843009213693951",
              "edge cost literal '-2305843009213693951' lies in the "
              "infinity sentinel band");
  expect_fail("chain 1 3 99999999999999999999",
              "chain dimension literal '99999999999999999999' lies in the "
              "infinity sentinel band");
  // A declared size is never allocated up front: storage grows with the
  // tokens read, so a count past max_size() runs out of input instead, and
  // a table size that overflows is refused before any entry is read.
  expect_fail("chain 2000000000000000000",
              "unexpected end of input reading chain dimension");
  expect_fail("multistage 2000000000000000000",
              "unexpected end of input reading stage size");
  expect_fail("objective 2 4294967296 4294967296 1 term 2 0 1",
              "table size of term 0 (2 variables) overflows");
  expect_fail("multistage 2 4294967296 4294967296 0",
              "edge count of stage 0 -> 1 overflows");
  std::stringstream largest("multistage 2 1 1 2305843009213693950");
  EXPECT_EQ(read_multistage(largest).edge(0, 0, 0), kInfCost - 1);
  // A token longer than the reader's token buffer is quoted whole.
  const std::string long_token = std::string(200, '7') + "x";
  expect_fail("chain 1 3 " + long_token,
              "expected a cost value for chain dimension, got '" +
                  long_token + "'");
  expect_fail("multistage 2 1 " + long_token,
              "expected a nonnegative count for stage size, got '" +
                  long_token + "'");
  const std::string long_number = std::string(60, '9');
  expect_fail("chain 1 3 " + long_number,
              "chain dimension literal '" + long_number +
                  "' lies in the infinity sentinel band");
  // The int64 limit and one past it: a cost in the sentinel band either
  // way, and never a count.
  expect_fail("chain 1 3 9223372036854775807",
              "chain dimension literal '9223372036854775807' lies in the "
              "infinity sentinel band");
  expect_fail("chain 1 3 9223372036854775808",
              "chain dimension literal '9223372036854775808' lies in the "
              "infinity sentinel band");
  expect_fail("chain 9223372036854775807",
              "expected a nonnegative count for matrix count, got "
              "'9223372036854775807'");
  expect_fail("chain 9223372036854775808",
              "expected a nonnegative count for matrix count, got "
              "'9223372036854775808'");
  expect_fail("multistage 2 1 1 -9223372036854775809",
              "edge cost literal '-9223372036854775809' lies in the "
              "infinity sentinel band");
  // "-inf" as the last token, with nothing after it: read, and the
  // stream is at its end without having failed.
  std::stringstream neg_inf_last("multistage 2 1 1 -inf");
  EXPECT_EQ(std::get<MultistageGraph>(read_problem(neg_inf_last)).edge(0, 0, 0),
            kNegInfCost);
  EXPECT_TRUE(neg_inf_last.eof());
  EXPECT_FALSE(neg_inf_last.fail());
  expect_fail("chain 1 3 -inf", "chain dimensions must be positive");
  // CR LF line ends and tabs separate tokens like spaces.
  std::stringstream crlf("chain\r\n2\r\n10\t20\t\t30\r\n");
  EXPECT_EQ(std::get<std::vector<Cost>>(read_problem(crlf)),
            (std::vector<Cost>{10, 20, 30}));
  EXPECT_FALSE(crlf.eof());  // the scan stopped at the trailing '\r'
  expect_fail("chain\r\n2\r\n10\t20\t\r\n",
              "unexpected end of input reading chain dimension");
  // A separator the format does not know is part of the token.
  expect_fail("chain 1 3,4 5",
              "expected a cost value for chain dimension, got '3,4'");
}

// Stream state follows operator>>: a reader stops right after its last
// token, eofbit marks a scan that hit the end, and failbit a read that
// found no token.
TEST(ProblemIo, StreamStateFollowsExtraction) {
  std::stringstream two("chain 1 3 4\nchain 1 5 6");
  EXPECT_EQ(read_chain(two), (std::vector<Cost>{3, 4}));
  EXPECT_TRUE(two.good());
  EXPECT_EQ(read_chain(two), (std::vector<Cost>{5, 6}));
  EXPECT_TRUE(two.eof());
  EXPECT_FALSE(two.fail());
  EXPECT_THROW((void)read_chain(two), std::runtime_error);
  EXPECT_TRUE(two.fail());
}

// Seeded mutation fuzz over small valid instances of each kind: truncate
// them, overwrite bytes, and splice negative, int64-limit and 20-digit
// counts over their tokens.  Every variant either parses or fails with a
// std::runtime_error from the reader ("problem_io: ..."), never another
// exception; the readers' reserve cap keeps a huge declared count from
// allocating more than a bounded block.
TEST(ProblemIo, MutationFuzzParsesOrThrowsProblemIoError) {
  Rng rng(2027);
  std::ostringstream ms, cs, os;
  write_multistage(ms, random_multistage(4, 3, rng));
  write_chain(cs, random_chain_dims(5, rng));
  write_objective(os, random_sparse_objective(4, 3, 3, rng));
  const std::string bases[] = {ms.str(), cs.str(), os.str()};
  const std::string counts[] = {
      "-1",  "-0", "-9223372036854775808", "9223372036854775807",
      "0",   "1",  "4294967296",           "18446744073709551615",
      "99999999999999999999"};
  const std::string bytes = "0123456789-+ \t\r\n.ex,";
  std::mt19937_64 gen(4711);
  const auto below = [&gen](std::size_t n) {
    return static_cast<std::size_t>(gen() % n);
  };
  std::size_t parsed = 0;
  std::size_t refused = 0;
  for (std::size_t round = 0; round < 3000; ++round) {
    std::string text = bases[round % 3];
    for (std::size_t m = 1 + below(3); m-- > 0 && !text.empty();) {
      const std::size_t at = below(text.size());
      switch (below(4)) {
        case 0:  // truncate
          text.resize(at);
          break;
        case 1:  // overwrite one byte with any value
          text[at] = static_cast<char>(below(256));
          break;
        case 2:  // overwrite one byte with a separator, digit or sign
          text[at] = bytes[below(bytes.size())];
          break;
        default: {  // splice a count over the token around `at`
          std::size_t b = at;
          while (b > 0 && text[b - 1] != ' ' && text[b - 1] != '\n') --b;
          std::size_t e = at;
          while (e < text.size() && text[e] != ' ' && text[e] != '\n') ++e;
          text.replace(b, e - b, counts[below(std::size(counts))]);
        }
      }
    }
    std::istringstream is(text);
    try {
      (void)read_problem(is);
      ++parsed;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind("problem_io: ", 0), 0u)
          << e.what() << "\non input:\n" << text;
      ++refused;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "not a problem_io error: " << e.what()
                    << "\non input:\n" << text;
    }
  }
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(refused, 0u);
}

TEST(ProblemIo, MissingFileThrows) {
  EXPECT_THROW((void)load_problem("/nonexistent/sysdp.txt"),
               std::runtime_error);
}

}  // namespace
}  // namespace sysdp
