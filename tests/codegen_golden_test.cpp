//===- tests/codegen_golden_test.cpp - Codegen snapshot tests --*- C++ -*-===//
//
// Golden-file snapshots of the pushdown-automaton code generator: a
// handful of canonical queries are lowered and printed, and the emitted
// translation unit is compared byte-for-byte against a checked-in file
// under tests/golden/. Catches unintended codegen drift — a fusion
// regression, a CSE ordering change, a printer tweak — that behavioral
// tests would miss as long as the answers stay right. The same shapes
// check that profiling adds counters and changes nothing else.
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
#include <sstream>
#include <utility>

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
std::string emit(const Query &Q, const std::string &Entry,
                 bool Profile = false) {
  quil::Chain Chain = quil::lower(Q);
  auto Err = quil::validate(Chain);
  EXPECT_FALSE(Err.has_value()) << *Err;
  codegen::GenOptions G;
  G.Profile = Profile;
  return cpptree::printProgram(codegen::generate(Chain, Entry, G));
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


// The paper's running example (§2): sum of squares over a filtered
// stream; Select/Where fuse into one loop, the Where as a guard on the
// sum rather than a branch.
Query filterMapSum() {
  E X = param("x", Type::doubleTy());
  return Query::doubleArray(0)
      .where(lambda({X}, X > E(0.0)))
      .select(lambda({X}, X * X))
      .sum();
}

// The int64 filtered sum of squares ("Clash of the Lambdas"
// sumOfSquaresEven): the guard masks the wrapping x * x.
Query int64GuardedSum() {
  E X = param("x", Type::int64Ty());
  return Query::int64Array(0)
      .where(lambda({X}, X % E(std::int64_t{2}) == E(std::int64_t{0})))
      .select(lambda({X}, X * X))
      .sum();
}

// A Where whose downstream division can trap keeps its branch: 100 / x
// must not run on the elements the filter rejects.
Query whereKeptBranch() {
  E X = param("x", Type::int64Ty());
  return Query::int64Array(0)
      .where(lambda({X}, X != E(std::int64_t{0})))
      .select(lambda({X}, E(std::int64_t{100}) / X))
      .sum();
}

// A TakeWhile in the outermost loop with nothing trapping before it
// leaves the loop at its boundary.
Query takeWhileBreak() {
  E X = param("x", Type::doubleTy());
  return Query::doubleArray(0).takeWhile(lambda({X}, X < E(100.0))).sum();
}

// Figure 11 "Ret-pop": a nested query consumed in place by a downstream
// operator of the outer query — the pop-two/push-triple transition.
Query nestedRetPop() {
  E X = param("x", Type::doubleTy());
  E Y = param("y", Type::doubleTy());
  Query Nested = Query::doubleArray(1).select(lambda({Y}, X + Y));
  return Query::doubleArray(0)
      .selectMany(X, Nested)
      .where(lambda({X}, X > E(1.0)))
      .sum();
}

// Hash GroupByAggregate with an associative combiner: the specialized
// group sink, not a generic fold.
Query groupByAggregate() {
  E K = param("k", Type::int64Ty());
  E A = param("a", Type::int64Ty());
  E B = param("b", Type::int64Ty());
  return Query::int64Array(0).groupByAggregate(
      lambda({K}, K % E(std::int64_t{10})), E(std::int64_t{0}),
      lambda({A, K}, A + K), Lambda(), lambda({A, B}, A + B));
}

// Positional operators (skip/take) ahead of an ordered sink: exercises
// the counter plumbing and the OrderBy buffer-then-sort emission.
Query skipTakeOrderBy() {
  E X = param("x", Type::doubleTy());
  return Query::doubleArray(0)
      .skip(E(std::int64_t{2}))
      .take(E(std::int64_t{8}))
      .orderBy(lambda({X}, -X))
      .toArray();
}

// CSE on a repeated pure subexpression: (x*x) must be hoisted once.
Query cseHoist() {
  E X = param("x", Type::doubleTy());
  return Query::doubleArray(0)
      .select(lambda({X}, (X * X) + (X * X) * E(0.5)))
      .sum();
}

/// Drops the profile counters from a profiled TU: the prof_c_
/// declaration, every bump and the flush through Captures.
std::string withoutCounters(const std::string &Src) {
  std::istringstream In(Src);
  std::string Out;
  for (std::string Line; std::getline(In, Line);)
    if (Line.find("prof_c_") == std::string::npos &&
        Line.find("Caps_->ProfCounts") == std::string::npos &&
        Line.find("std::size_t pi_") == std::string::npos)
      Out += Line + "\n";
  return Out;
}

} // namespace

TEST(CodegenGoldenTest, FusedFilterMapSum) {
  checkGolden(filterMapSum(), "golden_filter_map_sum");
}

TEST(CodegenGoldenTest, Int64GuardedFilterMapSum) {
  checkGolden(int64GuardedSum(), "golden_int64_guarded_sum");
}

TEST(CodegenGoldenTest, WhereKeepsBranchBeforeATrappingSelect) {
  checkGolden(whereKeptBranch(), "golden_where_kept_branch");
}

TEST(CodegenGoldenTest, TakeWhileBreaks) {
  checkGolden(takeWhileBreak(), "golden_take_while_break");
}

TEST(CodegenGoldenTest, NestedSelectManyRetPop) {
  checkGolden(nestedRetPop(), "golden_nested_ret_pop");
}

TEST(CodegenGoldenTest, GroupByAggregateSum) {
  checkGolden(groupByAggregate(), "golden_group_by_aggregate");
}

TEST(CodegenGoldenTest, SkipTakeOrderBy) {
  checkGolden(skipTakeOrderBy(), "golden_skip_take_orderby");
}

TEST(CodegenGoldenTest, CseHoistsRepeatedSubexpression) {
  checkGolden(cseHoist(), "golden_cse_hoist");
}

// Profiling compiles the same program: the profiled TU of every golden
// shape, stripped of its counters, is the unprofiled TU, early exits
// included. orderBy(x => x).toArray() adds the sink rules: the ToArray
// reuses the sort buffer and the host adopts it.
TEST(CodegenGoldenTest, ProfiledTuIsTheUnprofiledTuPlusCounters) {
  E X = param("x", Type::doubleTy());
  const std::pair<const char *, Query> Shapes[] = {
      {"golden_filter_map_sum", filterMapSum()},
      {"golden_int64_guarded_sum", int64GuardedSum()},
      {"golden_where_kept_branch", whereKeptBranch()},
      {"golden_take_while_break", takeWhileBreak()},
      {"golden_nested_ret_pop", nestedRetPop()},
      {"golden_group_by_aggregate", groupByAggregate()},
      {"golden_skip_take_orderby", skipTakeOrderBy()},
      {"golden_cse_hoist", cseHoist()},
      {"orderby_toarray",
       Query::doubleArray(0).orderBy(lambda({X}, X)).toArray()},
  };
  for (const auto &[Name, Q] : Shapes) {
    std::string Off = emit(Q, Name, /*Profile=*/false);
    std::string On = emit(Q, Name, /*Profile=*/true);
    EXPECT_NE(On, Off) << Name << ": the profiled TU counts nothing";
    EXPECT_EQ(withoutCounters(On), Off)
        << Name << ": the profiled TU is another program:\n"
        << On;
  }
}
