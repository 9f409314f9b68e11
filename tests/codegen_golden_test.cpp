//===- tests/codegen_golden_test.cpp - Codegen snapshot tests --*- C++ -*-===//
//
// Golden-file snapshots of the pushdown-automaton code generator: a
// handful of canonical queries are lowered and printed, and the emitted
// translation unit is compared byte-for-byte against a checked-in file
// under tests/golden/. Catches unintended codegen drift — a fusion
// regression, a CSE ordering change, a printer tweak — that behavioral
// tests would miss as long as the answers stay right.
//
// Updating intentionally:   STENO_UPDATE_GOLDEN=1 ctest -R CodegenGolden
// then review and commit the tests/golden/ diff like any other change.
//
//===----------------------------------------------------------------------===//

#include "codegen/Generator.h"
#include "cpptree/Printer.h"
#include "expr/Dsl.h"
#include "query/Query.h"
#include "quil/Quil.h"
#include "support/TempFile.h"

#include "gtest/gtest.h"

#include <cstdlib>
#include <fstream>

using namespace steno;
using namespace steno::expr;
using namespace steno::expr::dsl;
using namespace steno::query;

#ifndef STENO_TESTS_SRC_DIR
#error "tests/CMakeLists.txt must define STENO_TESTS_SRC_DIR"
#endif

namespace {

std::string goldenPath(const std::string &Name) {
  return std::string(STENO_TESTS_SRC_DIR) + "/golden/" + Name + ".golden.cpp";
}

std::string readAll(const std::string &Path) {
  std::ifstream In(Path);
  if (!In.good())
    return "";
  return std::string((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>());
}

/// Lowers, validates and prints \p Q with a fixed entry symbol. This goes
/// through the same automaton as compileQuery but skips its process-wide
/// symbol counter, so the output is byte-stable across runs and test
/// orderings.
std::string emit(const Query &Q, const std::string &Entry) {
  quil::Chain Chain = quil::lower(Q);
  auto Err = quil::validate(Chain);
  EXPECT_FALSE(Err.has_value()) << *Err;
  return cpptree::printProgram(codegen::generate(Chain, Entry));
}

void checkGolden(const Query &Q, const std::string &Name) {
  std::string Got = emit(Q, Name);
  ASSERT_FALSE(Got.empty());
  std::string Path = goldenPath(Name);
  if (std::getenv("STENO_UPDATE_GOLDEN")) {
    support::writeFile(Path, Got);
    SUCCEED() << "updated " << Path;
    return;
  }
  std::string Want = readAll(Path);
  ASSERT_FALSE(Want.empty())
      << "missing golden file " << Path
      << " — run with STENO_UPDATE_GOLDEN=1 to create it";
  EXPECT_EQ(Want, Got)
      << "generated code drifted from " << Path
      << "; if intentional, re-run with STENO_UPDATE_GOLDEN=1 and commit";
}

} // namespace

// The paper's running example (§2): sum of squares over a filtered
// stream; Select/Where fuse into one loop, the Where as a guard on the
// sum rather than a branch.
TEST(CodegenGoldenTest, FusedFilterMapSum) {
  E X = param("x", Type::doubleTy());
  Query Q = Query::doubleArray(0)
                .where(lambda({X}, X > E(0.0)))
                .select(lambda({X}, X * X))
                .sum();
  checkGolden(Q, "golden_filter_map_sum");
}

// The int64 filtered sum of squares ("Clash of the Lambdas"
// sumOfSquaresEven): the guard masks the wrapping x * x.
TEST(CodegenGoldenTest, Int64GuardedFilterMapSum) {
  E X = param("x", Type::int64Ty());
  Query Q = Query::int64Array(0)
                .where(lambda({X}, X % E(std::int64_t{2}) ==
                                       E(std::int64_t{0})))
                .select(lambda({X}, X * X))
                .sum();
  checkGolden(Q, "golden_int64_guarded_sum");
}

// A Where whose downstream division can trap keeps its branch: 100 / x
// must not run on the elements the filter rejects.
TEST(CodegenGoldenTest, WhereKeepsBranchBeforeATrappingSelect) {
  E X = param("x", Type::int64Ty());
  Query Q = Query::int64Array(0)
                .where(lambda({X}, X != E(std::int64_t{0})))
                .select(lambda({X}, E(std::int64_t{100}) / X))
                .sum();
  checkGolden(Q, "golden_where_kept_branch");
}

// A TakeWhile in the outermost loop with nothing trapping before it
// leaves the loop at its boundary.
TEST(CodegenGoldenTest, TakeWhileBreaks) {
  E X = param("x", Type::doubleTy());
  Query Q =
      Query::doubleArray(0).takeWhile(lambda({X}, X < E(100.0))).sum();
  checkGolden(Q, "golden_take_while_break");
}

// Figure 11 "Ret-pop": a nested query consumed in place by a downstream
// operator of the outer query — the pop-two/push-triple transition.
TEST(CodegenGoldenTest, NestedSelectManyRetPop) {
  E X = param("x", Type::doubleTy());
  E Y = param("y", Type::doubleTy());
  Query Nested = Query::doubleArray(1).select(lambda({Y}, X + Y));
  Query Q = Query::doubleArray(0)
                .selectMany(X, Nested)
                .where(lambda({X}, X > E(1.0)))
                .sum();
  checkGolden(Q, "golden_nested_ret_pop");
}

// Hash GroupByAggregate with an associative combiner: the specialized
// group sink, not a generic fold.
TEST(CodegenGoldenTest, GroupByAggregateSum) {
  E K = param("k", Type::int64Ty());
  E A = param("a", Type::int64Ty());
  E B = param("b", Type::int64Ty());
  Query Q = Query::int64Array(0).groupByAggregate(
      lambda({K}, K % E(std::int64_t{10})), E(std::int64_t{0}),
      lambda({A, K}, A + K), Lambda(), lambda({A, B}, A + B));
  checkGolden(Q, "golden_group_by_aggregate");
}

// Positional operators (skip/take) ahead of an ordered sink: exercises
// the counter plumbing and the OrderBy buffer-then-sort emission.
TEST(CodegenGoldenTest, SkipTakeOrderBy) {
  E X = param("x", Type::doubleTy());
  Query Q = Query::doubleArray(0)
                .skip(E(std::int64_t{2}))
                .take(E(std::int64_t{8}))
                .orderBy(lambda({X}, -X))
                .toArray();
  checkGolden(Q, "golden_skip_take_orderby");
}

// CSE on a repeated pure subexpression: (x*x) must be hoisted once.
TEST(CodegenGoldenTest, CseHoistsRepeatedSubexpression) {
  E X = param("x", Type::doubleTy());
  Query Q = Query::doubleArray(0)
                .select(lambda({X}, (X * X) + (X * X) * E(0.5)))
                .sum();
  checkGolden(Q, "golden_cse_hoist");
}
