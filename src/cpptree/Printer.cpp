//===- cpptree/Printer.cpp ------------------------------------*- C++ -*-===//

#include "cpptree/Printer.h"
#include "expr/Analysis.h"
#include "expr/CxxPrinter.h"
#include "support/Error.h"
#include "support/StringUtil.h"

#include <cassert>
#include <cstdarg>

using namespace steno;
using namespace steno::cpptree;
using expr::Type;
using expr::TypeRef;
using support::strFormat;

//===----------------------------------------------------------------===//
// Program scans
//===----------------------------------------------------------------===//

namespace {

/// Calls \p OnStmt on every statement of \p Stmts, bodies included, and
/// \p OnExpr on every expression root they hold: operands, a sort's key,
/// a source loop's bounds and a dense sink's key count and seed.
template <typename StmtFn, typename ExprFn>
void walk(const StmtList &Stmts, StmtFn &OnStmt, ExprFn &OnExpr) {
  auto visit = [&](const expr::ExprRef &E) {
    if (E)
      OnExpr(*E);
  };
  for (const StmtRef &S : Stmts) {
    OnStmt(*S);
    visit(S->E);
    visit(S->E2);
    visit(S->E3);
    if (S->KeyFn.valid())
      visit(S->KeyFn.body());
    if (S->K == StmtKind::Loop && S->Loop.Kind == LoopKind::Source) {
      visit(S->Loop.Src.Start);
      visit(S->Loop.Src.CountE);
      visit(S->Loop.Src.Vec);
    }
    visit(S->Sink.DenseKeys);
    visit(S->Sink.DenseSeed);
    walk(S->Body, OnStmt, OnExpr);
  }
}

bool isArraySource(query::SourceKind K) {
  return K == query::SourceKind::DoubleArray ||
         K == query::SourceKind::Int64Array ||
         K == query::SourceKind::PointArray;
}

/// The headers a program's source needs beyond steno/Rt.h and <cstdint>.
struct HeaderUsage {
  bool Sinks = false; ///< steno/RtSinks.h: a sink (and so any sort).
  bool Cmath = false; ///< <cmath>: an expression calls a math function.
};

HeaderUsage scanHeaders(const Program &P) {
  HeaderUsage Out;
  auto OnStmt = [&](const Stmt &S) {
    Out.Sinks = Out.Sinks || S.K == StmtKind::DeclareSink;
  };
  auto OnExpr = [&](const expr::Expr &E) {
    Out.Cmath = Out.Cmath || expr::callsCmath(E);
  };
  walk(P.Body, OnStmt, OnExpr);
  return Out;
}

} // namespace

SlotUsage cpptree::scanSlots(const Program &P) {
  SlotUsage Out;
  auto OnStmt = [&](const Stmt &S) {
    if (S.K == StmtKind::Loop && S.Loop.Kind == LoopKind::Source &&
        isArraySource(S.Loop.Src.Kind))
      Out.SourceSlots.insert(S.Loop.Src.Slot);
  };
  auto OnExpr = [&](const expr::Expr &E) {
    for (unsigned Slot : expr::usedSourceSlots(E))
      Out.SourceSlots.insert(Slot);
    for (unsigned Slot : expr::usedCaptureSlots(E))
      Out.ValueSlots.insert(Slot);
  };
  walk(P.Body, OnStmt, OnExpr);
  return Out;
}

//===----------------------------------------------------------------===//
// Source rendering
//===----------------------------------------------------------------===//

namespace {

/// Stateful pretty printer.
class SourcePrinter {
public:
  explicit SourcePrinter(const Program &P) : P(P) {
    Names.Param = [](const std::string &Name) { return Name; };
    Names.Capture = [](unsigned Slot, const Type &Ty) {
      switch (Ty.kind()) {
      case expr::TypeKind::Bool:
        return strFormat("Caps_->Values[%u].B", Slot);
      case expr::TypeKind::Int64:
        return strFormat("Caps_->Values[%u].I", Slot);
      case expr::TypeKind::Double:
        return strFormat("Caps_->Values[%u].D", Slot);
      case expr::TypeKind::Vec:
        return strFormat(
            "steno::rt::VecView{Caps_->Values[%u].VData, "
            "Caps_->Values[%u].VLen}",
            Slot, Slot);
      case expr::TypeKind::Pair:
        break;
      }
      stenoUnreachable("pair-typed captures are not supported");
    };
    Names.SourceData = [](unsigned Slot) {
      return strFormat("src%u_d", Slot);
    };
    Names.SourceCount = [](unsigned Slot) {
      return strFormat("src%u_count", Slot);
    };
  }

  std::string run() {
    SlotUsage Slots = scanSlots(P);
    line("// Generated by Steno (iterator fusion + nested loop"
         " generation).");
    line("// Query entry point: %s", P.Name.c_str());
    // Parsing <cmath> costs g++ more than compiling the loop, so a TU
    // includes it, and the sinks' header, only when its body uses them.
    HeaderUsage Headers = scanHeaders(P);
    line("#include \"steno/Rt.h\"");
    if (Headers.Sinks)
      line("#include \"steno/RtSinks.h\"");
    blank();
    if (Headers.Cmath)
      line("#include <cmath>");
    line("#include <cstdint>");
    blank();
    line("extern \"C\" void %s(const steno::rt::Captures *Caps_,",
         P.Name.c_str());
    line("                     steno::rt::Columns *Out_) {");
    Indent = 1;
    line("(void)Caps_;");
    line("(void)Out_;");
    for (unsigned Slot : Slots.SourceSlots) {
      line("const double *src%u_d = Caps_->Sources[%u].D;", Slot, Slot);
      line("const std::int64_t *src%u_i = Caps_->Sources[%u].I;", Slot,
           Slot);
      line("const std::int64_t src%u_count = Caps_->Sources[%u].Count;",
           Slot, Slot);
      line("const std::int64_t src%u_dim = Caps_->Sources[%u].Dim;", Slot,
           Slot);
      line("(void)src%u_d; (void)src%u_i; (void)src%u_count; "
           "(void)src%u_dim;",
           Slot, Slot, Slot, Slot);
    }
    if (!P.ProfOps.empty()) {
      // Per-run profile accumulators: stack-local, non-atomic, flushed
      // once through Captures at exit so the hot loop never shares.
      line("std::uint64_t prof_c_[%zu] = {};", P.ProfOps.size() * 2);
    }
    printStmts(P.Body);
    if (!P.ProfOps.empty()) {
      line("if (Caps_->ProfCounts)");
      line("  for (std::size_t pi_ = 0; pi_ != %zu; ++pi_)",
           P.ProfOps.size() * 2);
      line("    Caps_->ProfCounts[pi_] += prof_c_[pi_];");
    }
    Indent = 0;
    line("}");
    return std::move(Out);
  }

private:
  void blank() { Out += "\n"; }

  void line(const char *Fmt, ...) __attribute__((format(printf, 2, 3))) {
    va_list Args;
    va_start(Args, Fmt);
    int Needed = std::vsnprintf(nullptr, 0, Fmt, Args);
    va_end(Args);
    std::string Text(Needed < 0 ? 0 : static_cast<size_t>(Needed), '\0');
    va_start(Args, Fmt);
    std::vsnprintf(Text.data(), Text.size() + 1, Fmt, Args);
    va_end(Args);
    for (int I = 0; I < Indent; ++I)
      Out += "  ";
    Out += Text;
    Out += "\n";
  }

  std::string expr(const expr::ExprRef &E) {
    assert(E && "printing a null expression");
    return expr::printExprCxx(*E, Names);
  }

  void printStmts(const StmtList &Stmts) {
    for (const StmtRef &S : Stmts)
      printStmt(*S);
  }

  void printStmt(const Stmt &S) {
    switch (S.K) {
    case StmtKind::Region:
      printStmts(S.Body);
      return;
    case StmtKind::DeclareLocal:
      line("%s %s = %s;", S.Ty->cxxName().c_str(), S.Name.c_str(),
           expr(S.E).c_str());
      // Element locals ("elem_i" in the Figure 4 naming) may go unread
      // when the consumer ignores the element (Count, Any); counters,
      // flags, and accumulators are always read by construction.
      if (S.Name.compare(0, 4, "elem") == 0)
        line("(void)%s;", S.Name.c_str());
      return;
    case StmtKind::DeclareSinkView:
      line("steno::rt::VecView %s{%s.data(), %s.size()};", S.Name.c_str(),
           S.SlotVar.c_str(), S.SlotVar.c_str());
      return;
    case StmtKind::Assign:
      line("%s = %s;", S.Name.c_str(), expr(S.E).c_str());
      return;
    case StmtKind::AddIf:
      line("%s = steno::rt::addIf(%s, %s, %s);", S.Name.c_str(),
           S.Name.c_str(), expr(S.E).c_str(), expr(S.E2).c_str());
      return;
    case StmtKind::If:
      line("if (%s) {", expr(S.E).c_str());
      ++Indent;
      printStmts(S.Body);
      --Indent;
      line("}");
      return;
    case StmtKind::Continue:
      line("continue;");
      return;
    case StmtKind::Break:
      line("break;");
      return;
    case StmtKind::Loop:
      printLoop(S);
      return;
    case StmtKind::DeclareSink:
      printDeclareSink(S);
      return;
    case StmtKind::SinkGroupPut:
      line("%s.put(%s, %s);", S.Name.c_str(), expr(S.E).c_str(),
           expr(S.E2).c_str());
      return;
    case StmtKind::SinkGroupAggUpdate:
      line("{");
      ++Indent;
      if (S.E2) // hash sink: the seed is inserted on first sight
        line("auto &%s = %s.slot(%s, %s);", S.SlotVar.c_str(),
             S.Name.c_str(), expr(S.E).c_str(), expr(S.E2).c_str());
      else // dense sink: slots were seeded at declaration
        line("auto &%s = %s.slot(%s);", S.SlotVar.c_str(), S.Name.c_str(),
             expr(S.E).c_str());
      line("%s = %s;", S.SlotVar.c_str(), expr(S.E3).c_str());
      --Indent;
      line("}");
      return;
    case StmtKind::SinkVecPush:
      line("%s.push_back(%s);", S.Name.c_str(), expr(S.E).c_str());
      return;
    case StmtKind::SortSinkVec:
      printSort(S);
      return;
    case StmtKind::Emit:
      line("steno::rt::appendRow(Out_, %s);", expr(S.E).c_str());
      return;
    case StmtKind::EmitSink:
      line("steno::rt::adoptColumn(Out_, %s);", S.Name.c_str());
      return;
    case StmtKind::ProfileCount:
      if (S.E)
        line("prof_c_[%u] += %s;", S.ProfSlot, expr(S.E).c_str());
      else if (!S.Name.empty())
        line("prof_c_[%u] += %s.size();", S.ProfSlot, S.Name.c_str());
      else
        line("++prof_c_[%u];", S.ProfSlot);
      return;
    }
    stenoUnreachable("bad StmtKind");
  }

  void printLoop(const Stmt &S) {
    const LoopInfo &L = S.Loop;
    const char *I = L.IndexVar.c_str();
    switch (L.Kind) {
    case LoopKind::Source:
      printSourceLoopHeader(L);
      // A consumer like Count never reads the element; keep -Wall clean
      // (STENO_JIT_LINT) the same way the prelude does.
      line("(void)%s;", L.ElemVar.c_str());
      break;
    case LoopKind::GroupSink:
      line("const std::int64_t %s = %s.size();", L.BoundVar.c_str(),
           L.SinkName.c_str());
      line("for (std::int64_t %s = 0; %s < %s; ++%s) {", I, I,
           L.BoundVar.c_str(), I);
      ++Indent;
      line("steno::rt::Pair<std::int64_t, steno::rt::VecView> %s = "
           "%s.group(%s);",
           L.ElemVar.c_str(), L.SinkName.c_str(), I);
      line("(void)%s;", L.ElemVar.c_str());
      break;
    case LoopKind::GroupAggSink:
      line("const std::int64_t %s = %s.size();", L.BoundVar.c_str(),
           L.SinkName.c_str());
      line("for (std::int64_t %s = 0; %s < %s; ++%s) {", I, I,
           L.BoundVar.c_str(), I);
      ++Indent;
      line("std::int64_t %s = %s.keyAt(%s);", L.KeyVar.c_str(),
           L.SinkName.c_str(), I);
      line("%s %s = %s.accAt(%s);", L.Sink.AccType->cxxName().c_str(),
           L.AccVar.c_str(), L.SinkName.c_str(), I);
      line("(void)%s; (void)%s;", L.KeyVar.c_str(), L.AccVar.c_str());
      break;
    case LoopKind::VecSink:
      line("const std::int64_t %s = %s.size();", L.BoundVar.c_str(),
           L.SinkName.c_str());
      line("for (std::int64_t %s = 0; %s < %s; ++%s) {", I, I,
           L.BoundVar.c_str(), I);
      ++Indent;
      line("%s %s = %s[%s];", L.ElemType->cxxName().c_str(),
           L.ElemVar.c_str(), L.SinkName.c_str(), I);
      line("(void)%s;", L.ElemVar.c_str());
      break;
    }
    printStmts(S.Body);
    --Indent;
    line("}");
  }

  void printSourceLoopHeader(const LoopInfo &L) {
    const char *I = L.IndexVar.c_str();
    const query::SourceDesc &Src = L.Src;
    switch (Src.Kind) {
    case query::SourceKind::DoubleArray:
      line("for (std::int64_t %s = 0; %s < src%u_count; ++%s) {", I, I,
           Src.Slot, I);
      ++Indent;
      line("double %s = src%u_d[%s];", L.ElemVar.c_str(), Src.Slot, I);
      return;
    case query::SourceKind::Int64Array:
      line("for (std::int64_t %s = 0; %s < src%u_count; ++%s) {", I, I,
           Src.Slot, I);
      ++Indent;
      line("std::int64_t %s = src%u_i[%s];", L.ElemVar.c_str(), Src.Slot,
           I);
      return;
    case query::SourceKind::PointArray:
      line("for (std::int64_t %s = 0; %s < src%u_count; ++%s) {", I, I,
           Src.Slot, I);
      ++Indent;
      line("steno::rt::VecView %s{src%u_d + %s * src%u_dim, src%u_dim};",
           L.ElemVar.c_str(), Src.Slot, I, Src.Slot, Src.Slot);
      return;
    case query::SourceKind::Range:
      line("const std::int64_t %s = %s;", L.BoundVar.c_str(),
           expr(Src.CountE).c_str());
      line("for (std::int64_t %s = 0; %s < %s; ++%s) {", I, I,
           L.BoundVar.c_str(), I);
      ++Indent;
      line("std::int64_t %s = (%s) + %s;", L.ElemVar.c_str(),
           expr(Src.Start).c_str(), I);
      return;
    case query::SourceKind::VecExpr:
      line("const steno::rt::VecView %s = %s;", L.VecVar.c_str(),
           expr(Src.Vec).c_str());
      line("for (std::int64_t %s = 0; %s < %s.Len; ++%s) {", I, I,
           L.VecVar.c_str(), I);
      ++Indent;
      line("double %s = %s.Data[%s];", L.ElemVar.c_str(), L.VecVar.c_str(),
           I);
      return;
    }
    stenoUnreachable("bad SourceKind");
  }

  void printDeclareSink(const Stmt &S) {
    switch (S.Sink.Kind) {
    case SinkKind::Group:
      line("steno::rt::GroupSink %s;", S.Name.c_str());
      return;
    case SinkKind::GroupAgg:
      if (S.Sink.isDense())
        line("steno::rt::DenseAggSink<%s> %s(%s, %s);",
             S.Sink.AccType->cxxName().c_str(), S.Name.c_str(),
             expr(S.Sink.DenseKeys).c_str(),
             expr(S.Sink.DenseSeed).c_str());
      else
        line("steno::rt::GroupAggSink<%s> %s;",
             S.Sink.AccType->cxxName().c_str(), S.Name.c_str());
      return;
    case SinkKind::Vec:
      line("steno::rt::Buf<%s> %s;", S.Sink.ElemType->cxxName().c_str(),
           S.Name.c_str());
      return;
    }
    stenoUnreachable("bad SinkKind");
  }

  void printSort(const Stmt &S) {
    // The key selector is inlined once, over the element A_; sortByKey
    // computes it in every radix pass over the elements it moves in place
    // (RtSinks.h).
    const std::string &Param = S.KeyFn.param(0).Name;
    expr::CxxNames KeyNames = Names;
    KeyNames.Param = [&Param](const std::string &Name) {
      return Name == Param ? std::string("A_") : Name;
    };
    line("steno::rt::sortByKey(%s, [&](const %s &A_) {", S.Name.c_str(),
         S.Ty->cxxName().c_str());
    line("  (void)A_;");
    line("  return steno::rt::orderKey(%s);",
         expr::printExprCxx(*S.KeyFn.body(), KeyNames).c_str());
    line("});");
  }

  const Program &P;
  expr::CxxNames Names;
  std::string Out;
  int Indent = 0;
};

} // namespace

std::string cpptree::printProgram(const Program &P) {
  return SourcePrinter(P).run();
}
