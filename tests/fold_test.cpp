//===- tests/fold_test.cpp - Constant folding ------------------*- C++ -*-===//

#include "expr/Dsl.h"
#include "expr/Eval.h"
#include "expr/Fold.h"
#include "support/Random.h"

#include "gtest/gtest.h"

#include <cmath>
#include <functional>

using namespace steno::expr;
using namespace steno::expr::dsl;

namespace {

ExprRef fold(const E &Handle) { return foldConstants(Handle.node()); }

} // namespace

TEST(Fold, ArithmeticLiterals) {
  EXPECT_EQ(fold(E(2) + E(3))->str(), "5");
  EXPECT_EQ(fold(E(2.5) * E(4.0))->str(), "10");
  EXPECT_EQ(fold(E(7) % E(3))->str(), "1");
  EXPECT_EQ(fold(-E(4))->str(), "-4");
}

TEST(Fold, NestedLiterals) {
  // (2 + 3) * (10 - 4) -> 30
  EXPECT_EQ(fold((E(2) + E(3)) * (E(10) - E(4)))->str(), "30");
}

TEST(Fold, MixedPromotionFolds) {
  ExprRef F = fold(E(1) + E(0.5));
  ASSERT_EQ(F->kind(), ExprKind::Const);
  EXPECT_DOUBLE_EQ(std::get<double>(F->constValue()), 1.5);
}

TEST(Fold, BuiltinsFold) {
  ExprRef F = fold(sqrt(E(9.0)));
  ASSERT_EQ(F->kind(), ExprKind::Const);
  EXPECT_DOUBLE_EQ(std::get<double>(F->constValue()), 3.0);
  EXPECT_EQ(fold(min(E(2), E(5)))->str(), "2");
}

TEST(Fold, ComparisonsFold) {
  EXPECT_EQ(fold(E(2) < E(3))->str(), "true");
  EXPECT_EQ(fold(E(2) == E(3))->str(), "false");
  // int64 operands compare exactly, even where a double cannot tell
  // them apart.
  const std::int64_t P53 = std::int64_t{1} << 53;
  EXPECT_EQ(fold(E(P53) == E(P53 + 1))->str(), "false");
  EXPECT_EQ(fold(E(P53) < E(P53 + 1))->str(), "true");
}

TEST(Fold, NonConstLeftAlone) {
  E X = param("x", Type::doubleTy());
  ExprRef Same = (X + 1.0).node();
  EXPECT_EQ(foldConstants(Same), Same) << "untouched trees are shared";
}

TEST(Fold, PartialFoldInsideTree) {
  E X = param("x", Type::doubleTy());
  // x * (2 + 3) -> x * 5
  EXPECT_EQ(fold(X * (toDouble(E(2) + E(3))))->str(), "(x * 5)");
}

TEST(Fold, CondWithConstantCondition) {
  E X = param("x", Type::doubleTy());
  EXPECT_EQ(fold(cond(E(true), X, X + 1.0))->str(), "x");
  EXPECT_EQ(fold(cond(E(false), X, X + 1.0))->str(), "(x + 1)");
}

TEST(Fold, BooleanIdentities) {
  E B = param("b", Type::boolTy());
  EXPECT_EQ(fold(E(true) && B)->str(), "b");
  EXPECT_EQ(fold(E(false) && B)->str(), "false");
  EXPECT_EQ(fold(E(true) || B)->str(), "true");
  EXPECT_EQ(fold(E(false) || B)->str(), "b");
}

TEST(Fold, ShortCircuitPreserved) {
  // false && (10/x > 1): the rhs must be dropped, never evaluated.
  E X = param("x", Type::int64Ty());
  ExprRef F = fold(E(false) && (E(10) / X > 1));
  EXPECT_EQ(F->str(), "false");
}

TEST(Fold, IntegerDivisionByZeroNotFolded) {
  ExprRef F = fold(E(10) / E(0));
  EXPECT_NE(F->kind(), ExprKind::Const)
      << "the trap must stay at its original program point";
  ExprRef M = fold(E(10) % E(0));
  EXPECT_NE(M->kind(), ExprKind::Const);
  // INT64_MIN / -1 overflows and traps too; any other dividend folds.
  EXPECT_NE(fold(E(INT64_MIN) / E(-1))->kind(), ExprKind::Const);
  EXPECT_NE(fold(E(INT64_MIN) % E(-1))->kind(), ExprKind::Const);
  EXPECT_EQ(fold(E(10) / E(-1))->str(), "-10");
  EXPECT_EQ(fold(E(10) % E(-1))->str(), "0");
}

TEST(Fold, DoubleDivisionByZeroFolds) {
  ExprRef F = fold(E(1.0) / E(0.0));
  ASSERT_EQ(F->kind(), ExprKind::Const);
  EXPECT_TRUE(std::isinf(std::get<double>(F->constValue())));
}

TEST(Fold, PairProjectionOfFreshPair) {
  E X = param("x", Type::doubleTy());
  EXPECT_EQ(fold(pair(X, X + 1.0).first())->str(), "x");
  EXPECT_EQ(fold(pair(X, X + 1.0).second())->str(), "(x + 1)");
}

TEST(Fold, PairsThemselvesNotLiteralized) {
  ExprRef F = fold(pair(E(1), E(2)));
  EXPECT_EQ(F->kind(), ExprKind::PairNew);
  // But the components are constants already.
  EXPECT_EQ(F->operand(0)->str(), "1");
}

TEST(Fold, ConversionsFold) {
  EXPECT_EQ(fold(toInt64(E(3.7)))->str(), "3");
  ExprRef F = fold(toDouble(E(3)));
  ASSERT_EQ(F->kind(), ExprKind::Const);
  EXPECT_DOUBLE_EQ(std::get<double>(F->constValue()), 3.0);
}

TEST(Fold, EquivalenceOnRandomizedTrees) {
  // Folding must never change the value of a closed expression.
  steno::support::SplitMix64 Rng(17);
  for (int Trial = 0; Trial < 200; ++Trial) {
    // Random small arithmetic tree over literals.
    std::function<E(int)> Build = [&](int Depth) -> E {
      if (Depth == 0 || Rng.nextBelow(3) == 0)
        return E(Rng.nextDouble(-5, 5));
      E L = Build(Depth - 1);
      E R = Build(Depth - 1);
      switch (Rng.nextBelow(4)) {
      case 0:
        return L + R;
      case 1:
        return L - R;
      case 2:
        return L * R;
      default:
        return max(L, R);
      }
    };
    E Tree = Build(4);
    Env Environment;
    double Before = evalExpr(*Tree.node(), Environment).asDouble();
    ExprRef Folded = foldConstants(Tree.node());
    double After = evalExpr(*Folded, Environment).asDouble();
    EXPECT_EQ(Before, After) << "trial " << Trial;
    EXPECT_EQ(Folded->kind(), ExprKind::Const);
  }
}
