// Round-trip and error-handling tests for the text problem format.
#include <gtest/gtest.h>

#include <sstream>

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
}

TEST(ProblemIo, MissingFileThrows) {
  EXPECT_THROW((void)load_problem("/nonexistent/sysdp.txt"),
               std::runtime_error);
}

}  // namespace
}  // namespace sysdp
