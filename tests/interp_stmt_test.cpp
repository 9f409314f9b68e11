//===- tests/interp_stmt_test.cpp - cpptree executor unit tests -*-C++-*-===//
//
// Direct statement-level tests of the generated-code interpreter: small
// hand-built cpptree programs exercising each statement and loop kind in
// isolation (the end-to-end differential suites cover composition).
//
//===----------------------------------------------------------------------===//

#include "cpptree/Tree.h"
#include "expr/Dsl.h"
#include "interp/Interp.h"

#include "gtest/gtest.h"

using namespace steno;
using namespace steno::cpptree;
using namespace steno::expr;
using namespace steno::expr::dsl;

namespace {

/// Runs a program over an optional double buffer in slot 0.
QueryResult run(Program &P, const std::vector<double> *Xs = nullptr) {
  static std::vector<expr::SourceBuffer> Sources;
  Sources.clear();
  if (Xs) {
    expr::SourceBuffer Buf;
    Buf.DoubleData = Xs->data();
    Buf.Count = static_cast<std::int64_t>(Xs->size());
    Sources.push_back(Buf);
  }
  interp::RunInput In;
  In.Sources = &Sources;
  ResultBuilder Out(P.ScalarResult, P.ResultType);
  interp::execute(P, In, Out);
  return Out.finish();
}

/// A Source loop over double slot 0 with the given body.
StmtRef doubleLoop(const char *ElemVar, StmtList Body) {
  LoopInfo L;
  L.Kind = LoopKind::Source;
  L.Src.Kind = query::SourceKind::DoubleArray;
  L.Src.Slot = 0;
  L.IndexVar = "i0";
  L.ElemVar = ElemVar;
  L.ElemType = Type::doubleTy();
  StmtRef Loop = Stmt::loop(std::move(L));
  Loop->Body = std::move(Body);
  return Loop;
}

E elemRef(const char *Name) { return param(Name, Type::doubleTy()); }

} // namespace

TEST(InterpStmt, DeclareAssignEmit) {
  Program P;
  P.ScalarResult = true;
  P.ResultType = Type::doubleTy();
  P.Body.push_back(
      Stmt::declareLocal("a", Type::doubleTy(), E(1.5).node()));
  P.Body.push_back(Stmt::assign(
      "a", (param("a", Type::doubleTy()) * 2.0).node()));
  P.Body.push_back(Stmt::emit(param("a", Type::doubleTy()).node()));
  QueryResult Out = run(P);
  ASSERT_EQ(Out.rows().size(), 1u);
  EXPECT_DOUBLE_EQ(Out.rows()[0].asDouble(), 3.0);
}

TEST(InterpStmt, RegionIsTransparent) {
  Program P;
  StmtRef R = Stmt::region();
  R->Body.push_back(
      Stmt::declareLocal("a", Type::int64Ty(), E(7).node()));
  P.Body.push_back(R);
  P.Body.push_back(Stmt::emit(param("a", Type::int64Ty()).node()));
  QueryResult Out = run(P);
  ASSERT_EQ(Out.rows().size(), 1u);
  EXPECT_EQ(Out.rows()[0].asInt64(), 7);
}

TEST(InterpStmt, IfBranches) {
  Program P;
  StmtRef Then = Stmt::emit(E(1).node());
  P.Body.push_back(Stmt::ifThen(E(true).node(), {Then}));
  P.Body.push_back(
      Stmt::ifThen(E(false).node(), {Stmt::emit(E(2).node())}));
  QueryResult Out = run(P);
  ASSERT_EQ(Out.rows().size(), 1u);
  EXPECT_EQ(Out.rows()[0].asInt64(), 1);
}

TEST(InterpStmt, SourceLoopEmitsEachElement) {
  std::vector<double> Xs = {1, 2, 3};
  Program P;
  P.Body.push_back(doubleLoop("e", {Stmt::emit(elemRef("e").node())}));
  QueryResult Out = run(P, &Xs);
  ASSERT_EQ(Out.rows().size(), 3u);
  EXPECT_DOUBLE_EQ(Out.rows()[2].asDouble(), 3.0);
}

TEST(InterpStmt, ContinueSkipsRestOfBody) {
  std::vector<double> Xs = {1, 2, 3, 4};
  Program P;
  P.Body.push_back(doubleLoop(
      "e", {Stmt::ifThen((elemRef("e") < 2.5).node(),
                         {Stmt::continueStmt()}),
            Stmt::emit(elemRef("e").node())}));
  QueryResult Out = run(P, &Xs);
  ASSERT_EQ(Out.rows().size(), 2u);
  EXPECT_DOUBLE_EQ(Out.rows()[0].asDouble(), 3.0);
}

TEST(InterpStmt, BreakStopsLoop) {
  std::vector<double> Xs = {1, 2, 3, 4};
  Program P;
  P.Body.push_back(doubleLoop(
      "e", {Stmt::ifThen((elemRef("e") > 2.5).node(),
                         {Stmt::breakStmt()}),
            Stmt::emit(elemRef("e").node())}));
  QueryResult Out = run(P, &Xs);
  EXPECT_EQ(Out.rows().size(), 2u);
}

TEST(InterpStmt, RangeLoop) {
  Program P;
  LoopInfo L;
  L.Kind = LoopKind::Source;
  L.Src.Kind = query::SourceKind::Range;
  L.Src.Start = E(5).node();
  L.Src.CountE = E(3).node();
  L.IndexVar = "i";
  L.ElemVar = "r";
  L.ElemType = Type::int64Ty();
  StmtRef Loop = Stmt::loop(std::move(L));
  Loop->Body.push_back(Stmt::emit(param("r", Type::int64Ty()).node()));
  P.Body.push_back(Loop);
  QueryResult Out = run(P);
  ASSERT_EQ(Out.rows().size(), 3u);
  EXPECT_EQ(Out.rows()[0].asInt64(), 5);
  EXPECT_EQ(Out.rows()[2].asInt64(), 7);
}

TEST(InterpStmt, GroupSinkRoundTrip) {
  std::vector<double> Xs = {1.0, 11.0, 2.0, 12.0};
  Program P;
  SinkDecl Decl;
  Decl.Kind = SinkKind::Group;
  P.Body.push_back(Stmt::declareSink("g", Decl));
  P.Body.push_back(doubleLoop(
      "e", {Stmt::sinkGroupPut("g", toInt64(elemRef("e") / 10.0).node(),
                               elemRef("e").node())}));
  // Iterate the sink, emitting pair(key, bagLen).
  LoopInfo L;
  L.Kind = LoopKind::GroupSink;
  L.SinkName = "g";
  L.IndexVar = "gi";
  L.ElemVar = "grp";
  L.ElemType = Type::pairTy(Type::int64Ty(), Type::vecTy());
  StmtRef Loop = Stmt::loop(std::move(L));
  E Grp = param("grp", Type::pairTy(Type::int64Ty(), Type::vecTy()));
  Loop->Body.push_back(
      Stmt::emit(pair(Grp.first(), toDouble(len(Grp.second()))).node()));
  P.Body.push_back(Loop);
  QueryResult Out = run(P, &Xs);
  ASSERT_EQ(Out.rows().size(), 2u);
  EXPECT_EQ(Out.rows()[0].first().asInt64(), 0);
  EXPECT_DOUBLE_EQ(Out.rows()[0].second().asDouble(), 2.0);
  EXPECT_EQ(Out.rows()[1].first().asInt64(), 1);
}

TEST(InterpStmt, VecSinkPushSortView) {
  std::vector<double> Xs = {3.0, 1.0, 2.0};
  Program P;
  SinkDecl Decl;
  Decl.Kind = SinkKind::Vec;
  Decl.ElemType = Type::doubleTy();
  P.Body.push_back(Stmt::declareSink("s", Decl));
  P.Body.push_back(
      doubleLoop("e", {Stmt::sinkVecPush("s", elemRef("e").node())}));
  auto K = param("k", Type::doubleTy());
  P.Body.push_back(
      Stmt::sortSinkVec("s", Type::doubleTy(), lambda({K}, K)));
  P.Body.push_back(Stmt::declareSinkView("view", "s"));
  E View = param("view", Type::vecTy());
  P.Body.push_back(Stmt::emit(View[E(0)].node()));
  P.Body.push_back(Stmt::emit(View[E(2)].node()));
  QueryResult Out = run(P, &Xs);
  ASSERT_EQ(Out.rows().size(), 2u);
  EXPECT_DOUBLE_EQ(Out.rows()[0].asDouble(), 1.0);
  EXPECT_DOUBLE_EQ(Out.rows()[1].asDouble(), 3.0);
}

TEST(InterpStmt, GroupAggSinkHashAndDense) {
  std::vector<double> Xs = {1.0, 2.0, 11.0};
  for (bool Dense : {false, true}) {
    Program P;
    SinkDecl Decl;
    Decl.Kind = SinkKind::GroupAgg;
    Decl.AccType = Type::doubleTy();
    if (Dense) {
      Decl.DenseKeys = E(3).node();
      Decl.DenseSeed = E(0.0).node();
    }
    P.Body.push_back(Stmt::declareSink("a", Decl));
    ExprRef Key = toInt64(elemRef("e") / 10.0).node();
    ExprRef Seed = Dense ? nullptr : E(0.0).node();
    ExprRef Update =
        (param("slot", Type::doubleTy()) + elemRef("e")).node();
    P.Body.push_back(doubleLoop(
        "e",
        {Stmt::sinkGroupAggUpdate("a", Key, Seed, "slot", Update)}));
    LoopInfo L;
    L.Kind = LoopKind::GroupAggSink;
    L.SinkName = "a";
    L.Sink = Decl;
    L.IndexVar = "i";
    L.KeyVar = "k";
    L.AccVar = "acc";
    StmtRef Loop = Stmt::loop(std::move(L));
    Loop->Body.push_back(Stmt::emit(
        pair(param("k", Type::int64Ty()),
             param("acc", Type::doubleTy()))
            .node()));
    P.Body.push_back(Loop);
    QueryResult Out = run(P, &Xs);
    if (Dense) {
      // All three dense keys reported in order, key 2 seeded only.
      ASSERT_EQ(Out.rows().size(), 3u);
      EXPECT_EQ(Out.rows()[0].first().asInt64(), 0);
      EXPECT_DOUBLE_EQ(Out.rows()[0].second().asDouble(), 3.0);
      EXPECT_DOUBLE_EQ(Out.rows()[1].second().asDouble(), 11.0);
      EXPECT_DOUBLE_EQ(Out.rows()[2].second().asDouble(), 0.0);
    } else {
      ASSERT_EQ(Out.rows().size(), 2u);
      EXPECT_DOUBLE_EQ(Out.rows()[0].second().asDouble(), 3.0);
      EXPECT_DOUBLE_EQ(Out.rows()[1].second().asDouble(), 11.0);
    }
  }
}

TEST(InterpStmt, EmittedVecRowsAreDeepCopies) {
  std::vector<double> Xs = {1.0, 2.0};
  Program P;
  LoopInfo L;
  L.Kind = LoopKind::Source;
  L.Src.Kind = query::SourceKind::DoubleArray;
  L.Src.Slot = 0;
  L.IndexVar = "i";
  L.ElemVar = "e";
  L.ElemType = Type::doubleTy();
  StmtRef Loop = Stmt::loop(std::move(L));
  // Emit a slice view of the source buffer.
  Loop->Body.push_back(
      Stmt::emit(slice(0, E(0), E(2)).node()));
  P.Body.push_back(Loop);
  QueryResult Out = run(P, &Xs);
  ASSERT_EQ(Out.rows().size(), 2u);
  EXPECT_NE(Out.rows()[0].asVec().Data, Xs.data())
      << "emitted views must be re-homed into the arena";
  EXPECT_DOUBLE_EQ(Out.rows()[0].asVec()[1], 2.0);
}

TEST(InterpStmt, VecExprLoop) {
  std::vector<double> Xs = {4.0, 5.0, 6.0};
  Program P;
  LoopInfo L;
  L.Kind = LoopKind::Source;
  L.Src.Kind = query::SourceKind::VecExpr;
  L.Src.Vec = slice(0, E(1), E(2)).node();
  L.IndexVar = "i";
  L.VecVar = "v";
  L.ElemVar = "e";
  L.ElemType = Type::doubleTy();
  StmtRef Loop = Stmt::loop(std::move(L));
  Loop->Body.push_back(Stmt::emit(elemRef("e").node()));
  P.Body.push_back(Loop);
  QueryResult Out = run(P, &Xs);
  ASSERT_EQ(Out.rows().size(), 2u);
  EXPECT_DOUBLE_EQ(Out.rows()[0].asDouble(), 5.0);
  EXPECT_DOUBLE_EQ(Out.rows()[1].asDouble(), 6.0);
}
