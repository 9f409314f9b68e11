//===- tests/printer_test.cpp - cpptree source printer tests ---*- C++ -*-===//
//
// Statement-level tests of the C++ source renderer: each statement kind
// must print the exact construct the JIT compiles, and a generated TU
// includes only the headers its body uses. (End-to-end compilability is
// covered by the jit differential suite; these pin the source shapes.)
//
//===----------------------------------------------------------------------===//

#include "codegen/Generator.h"
#include "cpptree/Printer.h"
#include "expr/CxxPrinter.h"
#include "expr/Dsl.h"
#include "quil/Quil.h"

#include "gtest/gtest.h"

#include <sstream>

using namespace steno;
using namespace steno::cpptree;
using namespace steno::expr;
using namespace steno::expr::dsl;

namespace {

std::string printOf(StmtList Body) {
  Program P;
  P.Name = "t";
  P.Body = std::move(Body);
  return printProgram(P);
}

} // namespace

TEST(Printer, ProgramSkeleton) {
  std::string Src = printOf({});
  EXPECT_NE(Src.find("#include \"steno/Rt.h\""), std::string::npos);
  EXPECT_NE(Src.find("extern \"C\" void t(const steno::rt::Captures "
                     "*Caps_,"),
            std::string::npos);
  EXPECT_NE(Src.find("steno::rt::Columns *Out_"), std::string::npos);
}

TEST(Printer, DeclareAndAssign) {
  std::string Src = printOf(
      {Stmt::declareLocal("a", Type::doubleTy(), E(1.5).node()),
       Stmt::assign("a", (param("a", Type::doubleTy()) + 1.0).node())});
  EXPECT_NE(Src.find("double a = 1.5;"), std::string::npos) << Src;
  EXPECT_NE(Src.find("a = (a + 1.0);"), std::string::npos) << Src;
}

TEST(Printer, PairTypesSpelled) {
  TypeRef PairTy = Type::pairTy(Type::int64Ty(), Type::doubleTy());
  std::string Src = printOf({Stmt::declareLocal(
      "p", PairTy,
      pair(E(1), E(2.0)).node())});
  EXPECT_NE(
      Src.find("steno::rt::Pair<std::int64_t, double> p = "
               "steno::rt::Pair<std::int64_t, double>{INT64_C(1), 2.0};"),
      std::string::npos)
      << Src;
}

TEST(Printer, Int64MinIsSpelledWithoutAnOutOfRangeLiteral) {
  std::string Src = printOf({Stmt::declareLocal(
      "m", Type::int64Ty(), E(std::int64_t{INT64_MIN}).node())});
  EXPECT_NE(Src.find("std::int64_t m = (-INT64_C(9223372036854775807) - 1);"),
            std::string::npos)
      << Src;
  EXPECT_EQ(Src.find("9223372036854775808"), std::string::npos)
      << "no signed type holds 9223372036854775808: " << Src;
}

TEST(Printer, IfContinueBreak) {
  std::string Src = printOf({Stmt::ifThen(
      E(true).node(), {Stmt::continueStmt(), Stmt::breakStmt()})});
  EXPECT_NE(Src.find("if (true) {"), std::string::npos);
  EXPECT_NE(Src.find("continue;"), std::string::npos);
  EXPECT_NE(Src.find("break;"), std::string::npos);
}

TEST(Printer, SourceLoopHoistsPreamble) {
  LoopInfo L;
  L.Kind = LoopKind::Source;
  L.Src.Kind = query::SourceKind::DoubleArray;
  L.Src.Slot = 2;
  L.IndexVar = "i0";
  L.ElemVar = "e0";
  L.ElemType = Type::doubleTy();
  std::string Src = printOf({Stmt::loop(L)});
  EXPECT_NE(Src.find("const double *src2_d = Caps_->Sources[2].D;"),
            std::string::npos)
      << Src;
  EXPECT_NE(Src.find("for (std::int64_t i0 = 0; i0 < src2_count; ++i0)"),
            std::string::npos)
      << Src;
  EXPECT_NE(Src.find("double e0 = src2_d[i0];"), std::string::npos);
}

TEST(Printer, PointArrayLoopIsStrided) {
  LoopInfo L;
  L.Kind = LoopKind::Source;
  L.Src.Kind = query::SourceKind::PointArray;
  L.Src.Slot = 0;
  L.IndexVar = "i0";
  L.ElemVar = "p0";
  L.ElemType = Type::vecTy();
  std::string Src = printOf({Stmt::loop(L)});
  EXPECT_NE(
      Src.find("steno::rt::VecView p0{src0_d + i0 * src0_dim, src0_dim};"),
      std::string::npos)
      << Src;
}

TEST(Printer, SinkDeclarations) {
  SinkDecl Group;
  Group.Kind = SinkKind::Group;
  SinkDecl Agg;
  Agg.Kind = SinkKind::GroupAgg;
  Agg.AccType = Type::doubleTy();
  SinkDecl Dense = Agg;
  Dense.DenseKeys = E(16).node();
  Dense.DenseSeed = E(0.0).node();
  SinkDecl Vec;
  Vec.Kind = SinkKind::Vec;
  Vec.ElemType = Type::int64Ty();
  std::string Src = printOf(
      {Stmt::declareSink("g", Group), Stmt::declareSink("a", Agg),
       Stmt::declareSink("d", Dense), Stmt::declareSink("v", Vec)});
  EXPECT_NE(Src.find("steno::rt::GroupSink g;"), std::string::npos);
  EXPECT_NE(Src.find("steno::rt::GroupAggSink<double> a;"),
            std::string::npos);
  EXPECT_NE(
      Src.find("steno::rt::DenseAggSink<double> d(INT64_C(16), 0.0);"),
      std::string::npos);
  EXPECT_NE(Src.find("steno::rt::Buf<std::int64_t> v;"), std::string::npos);
}

TEST(Printer, SortCallsRadixSortWithKeyInlinedOnce) {
  auto K = param("k", Type::doubleTy());
  std::string Src = printOf(
      {Stmt::sortSinkVec("s", Type::doubleTy(), lambda({K}, -K))});
  EXPECT_NE(Src.find("steno::rt::sortByKey(s, [&](const double &A_) {"),
            std::string::npos)
      << Src;
  EXPECT_NE(Src.find("return steno::rt::orderKey(-(A_));"),
            std::string::npos)
      << Src;
  EXPECT_EQ(Src.find("std::stable_sort"), std::string::npos) << Src;
}

TEST(Printer, ToInt64CallsTheRuntimeConversion) {
  // Every double-to-int64 conversion, a literal's too, is rt::toInt64,
  // which defines NaN, +-inf and out-of-range values (steno/Rt.h).
  auto X = param("x", Type::doubleTy());
  auto spell = [](const E &V) {
    CxxNames Names;
    Names.Param = [](const std::string &N) { return N; };
    return printExprCxx(*V.node(), Names);
  };
  EXPECT_EQ(spell(toInt64(X)), "steno::rt::toInt64(x)");
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(spell(toInt64(E(NaN))),
            "steno::rt::toInt64(" + spell(E(NaN)) + ")");
  EXPECT_EQ(spell(toInt64(E(-2.9))),
            "steno::rt::toInt64(" + spell(E(-2.9)) + ")");
}

TEST(Printer, EmitUsesRuntimeHelper) {
  // A row is appended to the host's columns inline; a sink handed over
  // whole becomes the result's column.
  std::string Src = printOf({Stmt::emit(E(1.0).node())});
  EXPECT_NE(Src.find("steno::rt::appendRow(Out_, 1.0);"),
            std::string::npos)
      << Src;
  std::string Adopt = printOf({Stmt::emitSink("sink3")});
  EXPECT_NE(Adopt.find("steno::rt::adoptColumn(Out_, sink3);"),
            std::string::npos)
      << Adopt;
}

TEST(Printer, CaptureAccessByType) {
  StmtList Body;
  Body.push_back(Stmt::declareLocal("a", Type::doubleTy(),
                                    capture(3, Type::doubleTy()).node()));
  Body.push_back(Stmt::declareLocal("b", Type::int64Ty(),
                                    capture(1, Type::int64Ty()).node()));
  Body.push_back(Stmt::declareLocal("c", Type::vecTy(),
                                    capture(0, Type::vecTy()).node()));
  std::string Src = printOf(std::move(Body));
  EXPECT_NE(Src.find("Caps_->Values[3].D"), std::string::npos);
  EXPECT_NE(Src.find("Caps_->Values[1].I"), std::string::npos);
  EXPECT_NE(Src.find("steno::rt::VecView{Caps_->Values[0].VData, "
                     "Caps_->Values[0].VLen}"),
            std::string::npos);
}

TEST(Printer, SlotScanIncludesSinkExprs) {
  SinkDecl Dense;
  Dense.Kind = SinkKind::GroupAgg;
  Dense.AccType = Type::doubleTy();
  Dense.DenseKeys = capture(5, Type::int64Ty()).node();
  Dense.DenseSeed = E(0.0).node();
  Program P;
  P.Body.push_back(Stmt::declareSink("d", Dense));
  SlotUsage Slots = scanSlots(P);
  EXPECT_EQ(Slots.ValueSlots, (std::set<unsigned>{5}));
}

//===--------------------------------------------------------------------===//
// Includes: a TU names only the runtime and headers its body uses
//===--------------------------------------------------------------------===//

namespace {

using Includes = std::vector<std::string>;

/// The #include targets of the TU generated for \p Q, in order.
Includes includesOf(const query::Query &Q, bool Profile = false) {
  codegen::GenOptions G;
  G.Profile = Profile;
  std::istringstream Src(
      printProgram(codegen::generate(quil::lower(Q), "t", G)));
  Includes Out;
  for (std::string Line; std::getline(Src, Line);)
    if (Line.rfind("#include ", 0) == 0)
      Out.push_back(Line.substr(9));
  return Out;
}

} // namespace

TEST(PrinterIncludes, ScalarQueryIncludesOnlyTheLeanCore) {
  E X = param("x", Type::doubleTy());
  query::Query Q = query::Query::doubleArray(0)
                       .where(lambda({X}, X > E(0.0)))
                       .select(lambda({X}, X * X))
                       .sum();
  const Includes Lean = {"\"steno/Rt.h\"", "<cstdint>"};
  EXPECT_EQ(includesOf(Q), Lean);
  EXPECT_EQ(includesOf(Q, /*Profile=*/true), Lean)
      << "profile counters are a local array";
  // rt::abs/min/max and int64 `%` are Rt.h's, not <cmath>'s.
  E I = param("i", Type::int64Ty());
  EXPECT_EQ(includesOf(query::Query::int64Array(0)
                           .select(lambda({I}, abs(I % E(std::int64_t{7}))))
                           .select(lambda({I}, max(I, E(std::int64_t{1}))))
                           .sum()),
            Lean);
}

TEST(PrinterIncludes, GroupByAggregateAddsTheSinks) {
  E K = param("k", Type::int64Ty());
  E A = param("a", Type::int64Ty());
  E B = param("b", Type::int64Ty());
  query::Query Q = query::Query::int64Array(0).groupByAggregate(
      lambda({K}, K % E(std::int64_t{10})), E(std::int64_t{0}),
      lambda({A, K}, A + K), Lambda(), lambda({A, B}, A + B));
  EXPECT_EQ(includesOf(Q),
            (Includes{"\"steno/Rt.h\"", "\"steno/RtSinks.h\"", "<cstdint>"}));
}

TEST(PrinterIncludes, OrderByAddsOnlyRtSinks) {
  E X = param("x", Type::doubleTy());
  query::Query Q =
      query::Query::doubleArray(0).orderBy(lambda({X}, -X)).toArray();
  EXPECT_EQ(includesOf(Q), (Includes{"\"steno/Rt.h\"",
                                     "\"steno/RtSinks.h\"", "<cstdint>"}));
}

TEST(PrinterIncludes, MathCallsAndDoubleModuloAddCmath) {
  E X = param("x", Type::doubleTy());
  const Includes WithCmath = {"\"steno/Rt.h\"", "<cmath>", "<cstdint>"};
  EXPECT_EQ(includesOf(query::Query::doubleArray(0)
                           .select(lambda({X}, sqrt(X)))
                           .sum()),
            WithCmath);
  EXPECT_EQ(includesOf(query::Query::doubleArray(0)
                           .select(lambda({X}, X % E(3.0)))
                           .sum()),
            WithCmath);
  // Found in a sort key too.
  EXPECT_EQ(includesOf(query::Query::doubleArray(0)
                           .orderBy(lambda({X}, floor(X)))
                           .toArray()),
            (Includes{"\"steno/Rt.h\"", "\"steno/RtSinks.h\"", "<cmath>",
                      "<cstdint>"}));
}
