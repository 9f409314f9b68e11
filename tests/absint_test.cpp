//===- tests/absint_test.cpp - Abstract-interpretation domains -*- C++ -*-===//
///
/// \file
/// Pins the interval domain's transfer functions at the int64 boundaries
/// (hand-computed joins and meets, INT64_MIN negation, overflow
/// saturation), the AbsVal lattice, expression evaluation and refinement,
/// the division-safety predicate, and — as a death test — that the
/// rewriter does NOT elide the ST2001 division trap when the divisor's
/// interval includes zero.
///
//===----------------------------------------------------------------------===//

#include "analysis/AbsInt.h"
#include "steno/Steno.h"

#include "gtest/gtest.h"

#include <cstdint>
#include <vector>

using namespace steno;
using namespace steno::expr;
using namespace steno::expr::dsl;
using namespace steno::analysis::absint;
using query::Query;

namespace {

E xi() { return param("xi", Type::int64Ty()); }

Interval iv(std::int64_t Lo, std::int64_t Hi) { return Interval::of(Lo, Hi); }

} // namespace

//===--------------------------------------------------------------------===//
// Interval lattice: join / meet, hand-computed at the boundaries
//===--------------------------------------------------------------------===//

TEST(AbsIntInterval, JoinIsConvexHull) {
  EXPECT_EQ(Interval::join(iv(1, 3), iv(5, 9)), iv(1, 9));
  EXPECT_EQ(Interval::join(iv(-4, 2), iv(-1, 1)), iv(-4, 2));
  EXPECT_EQ(Interval::join(Interval::constant(7), Interval::constant(7)),
            Interval::constant(7));
  // Joining with either extreme absorbs it.
  EXPECT_EQ(Interval::join(iv(INT64_MIN, 0), iv(0, INT64_MAX)),
            Interval::full());
}

TEST(AbsIntInterval, MeetIsIntersectionOrInfeasible) {
  ASSERT_TRUE(Interval::meet(iv(1, 10), iv(5, 20)).has_value());
  EXPECT_EQ(*Interval::meet(iv(1, 10), iv(5, 20)), iv(5, 10));
  EXPECT_EQ(*Interval::meet(Interval::full(), iv(-3, 3)), iv(-3, 3));
  // Disjoint: the empty interval is unrepresentable, meet says so.
  EXPECT_FALSE(Interval::meet(iv(1, 2), iv(3, 4)).has_value());
  // Touching endpoints intersect in one point.
  EXPECT_EQ(*Interval::meet(iv(1, 3), iv(3, 9)), Interval::constant(3));
}

//===--------------------------------------------------------------------===//
// Transfer functions: saturation at the int64 boundaries
//===--------------------------------------------------------------------===//

TEST(AbsIntInterval, NegationOfInt64MinSaturates) {
  // -INT64_MIN does not exist in int64: any interval containing it
  // saturates instead of wrapping.
  EXPECT_EQ(Interval::neg(Interval::constant(INT64_MIN)), Interval::full());
  EXPECT_EQ(Interval::neg(iv(INT64_MIN, 5)), Interval::full());
  // INT64_MAX negates exactly (to INT64_MIN + 1).
  EXPECT_EQ(Interval::neg(Interval::constant(INT64_MAX)),
            Interval::constant(INT64_MIN + 1));
  EXPECT_EQ(Interval::neg(iv(-3, 8)), iv(-8, 3));
}

TEST(AbsIntInterval, AddSubSaturateOnOverflow) {
  EXPECT_EQ(Interval::add(iv(1, 2), iv(10, 20)), iv(11, 22));
  EXPECT_EQ(Interval::add(Interval::constant(INT64_MAX), iv(0, 1)),
            Interval::full());
  EXPECT_EQ(Interval::add(Interval::constant(INT64_MIN), iv(-1, 0)),
            Interval::full());
  EXPECT_EQ(Interval::sub(iv(0, 0), Interval::constant(INT64_MIN)),
            Interval::full()); // 0 - INT64_MIN overflows
  EXPECT_EQ(Interval::sub(iv(5, 9), iv(1, 2)), iv(3, 8));
}

TEST(AbsIntInterval, MulSaturatesOnAnyCornerOverflow) {
  EXPECT_EQ(Interval::mul(iv(-3, 4), iv(2, 5)), iv(-15, 20));
  EXPECT_EQ(Interval::mul(iv(-2, -1), iv(-7, 3)), iv(-6, 14));
  EXPECT_EQ(Interval::mul(Interval::constant(INT64_MAX), iv(1, 2)),
            Interval::full());
  EXPECT_EQ(Interval::mul(Interval::constant(INT64_MIN), iv(-1, -1)),
            Interval::full());
}

TEST(AbsIntInterval, DivIsTopWhenDivisorSpansZeroOrCornerReachable) {
  // Divisor containing 0: the trap analysis owns that case; interval
  // arithmetic stays sound by giving up.
  EXPECT_EQ(Interval::div(iv(1, 100), iv(0, 5)), Interval::full());
  EXPECT_EQ(Interval::div(iv(1, 100), iv(-2, 3)), Interval::full());
  // INT64_MIN / -1 is the ckdiv overflow corner.
  EXPECT_EQ(Interval::div(Interval::constant(INT64_MIN),
                          Interval::constant(-1)),
            Interval::full());
  // Plain cases, hand-computed (C++ truncating division).
  EXPECT_EQ(Interval::div(iv(10, 99), Interval::constant(10)), iv(1, 9));
  EXPECT_EQ(Interval::div(iv(-7, 7), Interval::constant(2)), iv(-3, 3));
  EXPECT_EQ(Interval::div(iv(10, 20), iv(-2, -1)), iv(-20, -5));
}

TEST(AbsIntInterval, RemBoundedByDivisorMagnitude) {
  // |a % b| < |b|, sign follows the dividend.
  EXPECT_EQ(Interval::rem(iv(0, 1000), iv(1, 7)), iv(0, 6));
  EXPECT_EQ(Interval::rem(iv(-1000, -1), iv(1, 7)), iv(-6, 0));
  EXPECT_EQ(Interval::rem(iv(-1000, 1000), Interval::constant(3)),
            iv(-2, 2));
  // A dividend already below every divisor magnitude passes through.
  EXPECT_EQ(Interval::rem(iv(-5, 5), Interval::constant(10)), iv(-5, 5));
  EXPECT_EQ(Interval::rem(iv(0, 100), iv(0, 7)), Interval::full());
}

TEST(AbsIntInterval, AbsSaturatesOnInt64Min) {
  EXPECT_EQ(Interval::absI(iv(-3, 5)), iv(0, 5));
  EXPECT_EQ(Interval::absI(iv(-7, -2)), iv(2, 7));
  EXPECT_EQ(Interval::absI(iv(3, 9)), iv(3, 9));
  EXPECT_EQ(Interval::absI(iv(INT64_MIN, 0)), Interval::full());
}

TEST(AbsIntInterval, MinMaxAreElementwise) {
  EXPECT_EQ(Interval::minI(iv(0, 10), iv(5, 7)), iv(0, 7));
  EXPECT_EQ(Interval::maxI(iv(0, 10), iv(5, 7)), iv(5, 10));
}

//===--------------------------------------------------------------------===//
// AbsVal lattice
//===--------------------------------------------------------------------===//

TEST(AbsIntVal, JoinPreservesKindAndNonZero) {
  AbsVal A = AbsVal::fromInterval(iv(1, 5));
  AbsVal B = AbsVal::fromInterval(iv(3, 9));
  AbsVal J = AbsVal::join(A, B);
  EXPECT_TRUE(J.isInt());
  EXPECT_EQ(J.I, iv(1, 9));
  EXPECT_TRUE(J.knownNonZero()); // both sides exclude zero

  // A refinement-only NonZero flag survives a join with a nonzero range.
  AbsVal C = AbsVal::fromInterval(iv(-4, 4), /*NonZeroFlag=*/true);
  AbsVal J2 = AbsVal::join(C, A);
  EXPECT_TRUE(J2.knownNonZero());
  // ...but not a join with a side that may be zero.
  AbsVal MayZero = AbsVal::fromInterval(iv(-4, 4));
  EXPECT_FALSE(AbsVal::join(A, MayZero).knownNonZero());
}

TEST(AbsIntVal, JoinOfMismatchedKindsIsTop) {
  AbsVal J = AbsVal::join(AbsVal::fromInt(3), AbsVal::fromDouble(3.0));
  EXPECT_EQ(J.K, AbsVal::Kind::Top);
}

TEST(AbsIntVal, BoolAndDoubleJoins) {
  EXPECT_EQ(AbsVal::join(AbsVal::fromBool(true), AbsVal::fromBool(true)).B,
            Tri::True);
  EXPECT_EQ(AbsVal::join(AbsVal::fromBool(true), AbsVal::fromBool(false)).B,
            Tri::Unknown);
  AbsVal D = AbsVal::join(AbsVal::fromDouble(2.5), AbsVal::fromDouble(2.5));
  EXPECT_TRUE(D.HasD);
  EXPECT_EQ(D.D, 2.5);
  EXPECT_FALSE(
      AbsVal::join(AbsVal::fromDouble(2.5), AbsVal::fromDouble(3.5)).HasD);
}

//===--------------------------------------------------------------------===//
// absEval / refine
//===--------------------------------------------------------------------===//

TEST(AbsIntEval, ArithmeticOverEnvironment) {
  Env Environment;
  Environment["xi"] = AbsVal::fromInterval(iv(0, 10));
  AbsVal V = absEval(E(xi() + E(std::int64_t{1})).node(), Environment);
  EXPECT_EQ(V.I, iv(1, 11));
  V = absEval(E(xi() * xi()).node(), Environment);
  EXPECT_EQ(V.I, iv(0, 100));
  // The divnz divisor shape: 1 + abs(xi % 3) is provably in [1, 3].
  V = absEval(E(E(std::int64_t{1}) + abs(xi() % E(std::int64_t{3}))).node(),
              Environment);
  EXPECT_EQ(V.I, iv(1, 3));
  EXPECT_TRUE(V.knownNonZero());
}

TEST(AbsIntEval, RefineNarrowsAndDetectsInfeasible) {
  Env Environment;
  Environment["xi"] = AbsVal::fromInterval(Interval::full());
  ASSERT_TRUE(refine(Environment, E(xi() > E(std::int64_t{5})).node(),
                     /*Assume=*/true));
  EXPECT_EQ(Environment["xi"].I, iv(6, INT64_MAX));
  // Now additionally assume xi < 5: provably infeasible.
  EXPECT_FALSE(refine(Environment, E(xi() < E(std::int64_t{5})).node(),
                      /*Assume=*/true));
}

//===--------------------------------------------------------------------===//
// Division safety
//===--------------------------------------------------------------------===//

TEST(AbsIntDiv, SafetyRequiresNonZeroAndNoOverflowCorner) {
  AbsVal AnyInt = AbsVal::fromInterval(Interval::full());
  EXPECT_TRUE(divisionIsSafe(AnyInt, AbsVal::fromInterval(iv(1, 5))));
  EXPECT_TRUE(divisionIsSafe(AnyInt, AbsVal::fromInterval(iv(-9, -2))));
  // Divisor interval includes zero: not safe.
  EXPECT_FALSE(divisionIsSafe(AnyInt, AbsVal::fromInterval(iv(0, 5))));
  EXPECT_FALSE(divisionIsSafe(AnyInt, AbsVal::fromInterval(iv(-1, 1))));
  // Divisor can be -1 while the dividend can be INT64_MIN: the ckdiv
  // overflow corner is reachable, so the trap must stay.
  EXPECT_FALSE(
      divisionIsSafe(AnyInt, AbsVal::fromInterval(Interval::constant(-1))));
  EXPECT_TRUE(divisionIsSafe(AbsVal::fromInterval(iv(0, 100)),
                             AbsVal::fromInterval(Interval::constant(-1))));
  // NonZero learned by refinement (interval still spans 0) is enough
  // only when the corner is also excluded.
  AbsVal RefinedNz = AbsVal::fromInterval(iv(1, 10), /*NonZeroFlag=*/true);
  EXPECT_TRUE(divisionIsSafe(AnyInt, RefinedNz));
}

//===--------------------------------------------------------------------===//
// Chain facts and divSafe marking
//===--------------------------------------------------------------------===//

TEST(AbsIntChain, DivisionInventoryTracksSafety) {
  // Safe site: divisor 1 + abs(xi % 3) in [1, 3].
  quil::Chain Safe = quil::lower(
      Query::int64Array(0)
          .select(lambda({xi()}, xi() / (E(std::int64_t{1}) +
                                         abs(xi() % E(std::int64_t{3})))))
          .sum());
  ChainFacts F = analyzeChainFacts(Safe);
  bool FoundSafe = false;
  for (const DivSite &S : F.Divs)
    FoundSafe |= S.Safe;
  EXPECT_TRUE(FoundSafe);

  // Unsafe site: the divisor xi % 3 has interval [-2, 2], includes 0.
  quil::Chain Unsafe = quil::lower(
      Query::int64Array(0)
          .select(lambda({xi()}, xi() / (xi() % E(std::int64_t{3}))))
          .sum());
  ChainFacts FU = analyzeChainFacts(Unsafe);
  bool AnyUnsafeSafe = false;
  bool SawDivisorSite = false;
  for (const DivSite &S : FU.Divs)
    if (!S.Divisor.excludesZero()) {
      SawDivisorSite = true;
      AnyUnsafeSafe |= S.Safe;
    }
  EXPECT_TRUE(SawDivisorSite);
  EXPECT_FALSE(AnyUnsafeSafe);
}

TEST(AbsIntChain, MarkSafeDivisionsRewritesOnlyProvenSites) {
  Env Environment;
  Environment["xi"] = AbsVal::fromInterval(Interval::full());
  ExprRef Provable =
      E(xi() / (E(std::int64_t{1}) + abs(xi() % E(std::int64_t{4})))).node();
  std::vector<std::string> Facts;
  ExprRef Marked = markSafeDivisions(Provable, Environment, &Facts);
  ASSERT_EQ(Marked->kind(), ExprKind::Binary);
  EXPECT_TRUE(Marked->divSafe());
  // Both sites prove safe: the outer `/` (divisor in [1, 4]) and the
  // inner `%` (constant divisor 4).
  EXPECT_EQ(Facts.size(), 2u);

  // Mixed case: the `%` by 4 is provable but the outer `/` by xi % 4
  // (interval [-3, 3], includes 0) must keep its trap.
  ExprRef Mixed = E(xi() / (xi() % E(std::int64_t{4}))).node();
  Facts.clear();
  ExprRef Partial = markSafeDivisions(Mixed, Environment, &Facts);
  EXPECT_FALSE(Partial->divSafe());
  EXPECT_EQ(Facts.size(), 1u);
}

//===--------------------------------------------------------------------===//
// Death test: the trap is NOT elided when the divisor may be zero
//===--------------------------------------------------------------------===//

namespace {

/// xi / (xi % 3): divisor interval [-2, 2] includes zero, so even with
/// the rewriter ON the compiled program must keep rt::ckdiv and trap
/// with ST2001 when an element makes the divisor zero.
struct MaybeZeroFixture {
  std::vector<std::int64_t> Data{9, 7, 5}; // 9 % 3 == 0 -> traps
  Bindings B;
  Query Q = Query::int64Array(0)
                .select(lambda({xi()}, xi() / (xi() % E(std::int64_t{3}))))
                .sum();
  MaybeZeroFixture() {
    B.bindInt64Array(0, Data.data(),
                     static_cast<std::int64_t>(Data.size()));
  }
};

} // namespace

TEST(AbsIntTrapDeath, RewriterKeepsTrapWhenDivisorIntervalSpansZero) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  MaybeZeroFixture F;
  CompileOptions O;
  O.Exec = Backend::Interp;
  O.Rewrite = true; // explicit: the elision opportunity must be refused
  O.Analyze = analysis::Mode::Off;
  O.Name = "absint_trap_kept";
  CompiledQuery CQ = compileQuery(F.Q, O);
  // The inner `xi % 3` (constant divisor) may be elided, but no
  // certificate may claim the outer division whose divisor spans zero.
  if (const quil::RewriteResult *R = CQ.rewriteResult()) {
    for (const quil::RewriteCertificate &C : R->Certs) {
      if (C.Rule == quil::RewriteRule::ElideDivTrap) {
        EXPECT_NE(C.Fact.find("divisor 3"), std::string::npos) << C.str();
      }
    }
  }
  // The kept trap fires: 9 % 3 == 0 makes the outer divisor zero.
  EXPECT_DEATH(CQ.run(F.B), "ST2001.*integer division by zero");
}

TEST(AbsIntTrapDeath, ProvenSafeDivisorRunsWithoutTrapMachinery) {
  // The positive control: divisor in [1, 4] is elided and the query
  // runs to completion with the same result as the unrewritten plan.
  MaybeZeroFixture F; // reuse bindings/data; build a safe query
  Query Q = Query::int64Array(0)
                .select(lambda({xi()}, xi() / (E(std::int64_t{1}) +
                                               abs(xi() % E(std::int64_t{4})))))
                .sum();
  CompileOptions On;
  On.Exec = Backend::Interp;
  On.Rewrite = true;
  On.Analyze = analysis::Mode::Off;
  On.Name = "absint_elide_on";
  CompileOptions Off = On;
  Off.Rewrite = false;
  Off.Name = "absint_elide_off";
  CompiledQuery QOn = compileQuery(Q, On);
  CompiledQuery QOff = compileQuery(Q, Off);
  const quil::RewriteResult *R = QOn.rewriteResult();
  ASSERT_NE(R, nullptr);
  bool Elided = false;
  for (const quil::RewriteCertificate &C : R->Certs)
    Elided |= C.Rule == quil::RewriteRule::ElideDivTrap;
  EXPECT_TRUE(Elided);
  QueryResult A = QOn.run(F.B);
  QueryResult B = QOff.run(F.B);
  EXPECT_EQ(A.scalarValue().asInt64(), B.scalarValue().asInt64());
}
