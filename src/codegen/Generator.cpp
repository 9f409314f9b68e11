//===- codegen/Generator.cpp ----------------------------------*- C++ -*-===//

#include "codegen/Generator.h"
#include "expr/Analysis.h"
#include "expr/Cse.h"
#include "expr/Fold.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/Error.h"
#include "support/StringUtil.h"

#include <cassert>
#include <map>
#include <span>

using namespace steno;
using namespace steno::codegen;
using cpptree::LoopInfo;
using cpptree::LoopKind;
using cpptree::SinkDecl;
using cpptree::SinkKind;
using cpptree::Stmt;
using cpptree::StmtKind;
using cpptree::StmtList;
using cpptree::StmtRef;
using expr::Expr;
using expr::ExprKind;
using expr::ExprRef;
using expr::Lambda;
using expr::Type;
using expr::TypeRef;
using quil::Chain;
using quil::NestedRole;
using quil::Op;
using quil::PredOp;
using quil::SinkOp;
using quil::Sym;

namespace {

class Generator {
public:
  explicit Generator(const codegen::GenOptions &Options)
      : Options(Options) {}

  cpptree::Program run(const Chain &C, std::string Name) {
    Program.Name = std::move(Name);
    Program.ResultType = C.Result;
    Program.ScalarResult = C.Scalar;
    // Sentinel frame: μ is the top-level body (α/ω unused until the first
    // Src opens a loop).
    Stack.push_back({&Program.Body, &Program.Body, &Program.Body, 0});
    processChain(C, /*Nested=*/false, NestedRole::Trans);
    assert(St == State::Returning && "query did not reach RETURNING");
    return std::move(Program);
  }

private:
  enum class State { Start, Iterating, Sinking, Aggregating, Returning };

  /// One (α, μ, ω) insertion-point triple (Figure 5 / Figure 9).
  /// LoopDepth counts the physical loops enclosing μ — distinct from the
  /// stack depth, which Figure 11's splice transition shrinks while the
  /// loops remain (it decides whether an early-exit may use break).
  struct Frame {
    StmtList *Alpha;
    StmtList *Mu;
    StmtList *Omega;
    unsigned LoopDepth = 0;
  };

  /// Bookkeeping for the most recent Agg operator, pending its Ret.
  struct AggInfo {
    std::string Var;
    TypeRef AccTy;
    Lambda Result;
  };

  /// Bookkeeping for the most recent Sink operator while in SINKING.
  struct SinkInfo {
    std::string Name;
    SinkDecl Decl;
    Lambda GbaResult; ///< GroupByAggregate result selector (key, acc) -> R.
    TypeRef OutElem;  ///< Element type produced when the sink is iterated.
    /// Profiled-op index of the sink (NoProf when unprofiled): its
    /// rows-out counter is deferred to whatever consumes the sink, the
    /// head of the loop that iterates it or, for a Vec sink handed over
    /// or reused whole, its length.
    unsigned ProfOp = ~0u;
  };

  //===--------------------------------------------------------------===//
  // Naming and inlining
  //===--------------------------------------------------------------===//

  std::string fresh(const char *Base) {
    return support::strFormat("%s%u", Base, Counter++);
  }

  ExprRef curElemRef() const {
    assert(!CurElem.empty() && "no current element");
    return Expr::param(CurElem, CurElemTy);
  }

  /// Applies the active outer-parameter substitution (paper §5.2) to a
  /// free-standing expression (source bounds, seeds).
  ExprRef substOuter(const ExprRef &E) const {
    return expr::substituteParams(E, OuterSubst);
  }

  /// Inlines a unary lambda body with its parameter bound to \p A0 — this
  /// is the function-object elimination of Figure 6.
  ExprRef inline1(const Lambda &L, ExprRef A0) const {
    assert(L.valid() && L.arity() == 1 && "inline1 wants a unary lambda");
    std::map<std::string, ExprRef> M = OuterSubst;
    M[L.param(0).Name] = std::move(A0);
    return expr::substituteParams(L.body(), M);
  }

  /// Inlines a binary lambda body (Agg/Sink steps, Figure 7).
  ExprRef inline2(const Lambda &L, ExprRef A0, ExprRef A1) const {
    assert(L.valid() && L.arity() == 2 && "inline2 wants a binary lambda");
    std::map<std::string, ExprRef> M = OuterSubst;
    M[L.param(0).Name] = std::move(A0);
    M[L.param(1).Name] = std::move(A1);
    return expr::substituteParams(L.body(), M);
  }

  /// A lambda whose body has the outer substitution pre-applied (for
  /// lambdas that are carried into statements, e.g. sort keys).
  Lambda closeOver(const Lambda &L) const {
    if (!L.valid() || OuterSubst.empty())
      return L;
    std::map<std::string, ExprRef> M = OuterSubst;
    for (const expr::LambdaParam &P : L.params())
      M.erase(P.Name);
    return Lambda(L.params(), expr::substituteParams(L.body(), M));
  }

  //===--------------------------------------------------------------===//
  // Insertion points
  //===--------------------------------------------------------------===//

  StmtList &alpha() { return *Stack.back().Alpha; }
  StmtList &mu() { return *Stack.back().Mu; }
  StmtList &omega() { return *Stack.back().Omega; }

  /// Expression-level optimizations applied to each emitted expression:
  /// constant folding, then §9 CSE with the hoisted locals emitted at
  /// the current μ.
  ExprRef cse(ExprRef E) {
    E = expr::foldConstants(E);
    if (!Options.EnableCse)
      return E;
    obs::Span Span("steno.cse");
    static obs::Counter &Hoisted = obs::counter("steno.cse.hoisted");
    expr::CseResult R = expr::eliminateCommonSubexprs(
        E, [this] { return fresh("cse"); });
    Hoisted.inc(R.Lets.size());
    for (const auto &[Name, Let] : R.Lets)
      mu().push_back(Stmt::declareLocal(Name, Let->type(), Let));
    return R.Rewritten;
  }

  //===--------------------------------------------------------------===//
  // Profiling instrumentation
  //===--------------------------------------------------------------===//

  // A profiled program is the unprofiled one plus counter statements:
  // every generation rule emits the same statements with profiling on or
  // off, and the counters only count (no clock, no fresh name, no
  // branch). Only the helpers below read Options.Profile.

  static constexpr unsigned NoProf = ~0u;

  /// Registers profiled op K and emits its rows-in counter at the current
  /// μ. No-op (returns NoProf) when profiling is off, so unprofiled plans
  /// carry zero instrumentation. Between a guarding Where and its
  /// aggregate every element flows on, so the counters there add the
  /// guard rather than 1.
  unsigned profBegin(const char *Label, std::uint64_t OpId = 0) {
    if (!Options.Profile)
      return NoProf;
    unsigned K = static_cast<unsigned>(Program.ProfOps.size());
    Program.ProfOps.push_back({Label, Stack.back().LoopDepth, OpId});
    mu().push_back(Stmt::profileCount(2 * K, Guard));
    return K;
  }

  /// Emits op K's rows-out counter after its statements, so an op that
  /// rejects its element (continue) never counts it as output; observed
  /// selectivity is exactly rows_out / rows_in. A sink's rows-out is
  /// counted by whatever consumes it instead (SinkInfo::ProfOp).
  void profEnd(unsigned K) {
    if (K != NoProf)
      mu().push_back(Stmt::profileCount(2 * K + 1, Guard));
  }

  /// Counts the pending Vec sink's length as its op's rows out, at ω,
  /// where the sink is complete: for a sink consumed whole (handed over
  /// or reused) rather than iterated.
  void profSinkLengthOut() {
    if (PendingSink.ProfOp != NoProf)
      omega().push_back(Stmt::profileCountSink(2 * PendingSink.ProfOp + 1,
                                               PendingSink.Name));
  }

  /// The pending Vec sink, reused whole by op \p Label (a ToArray): its
  /// length is the pending op's rows out and the new op's rows in. The new
  /// op becomes the sink's op, whose rows out are counted where the sink
  /// is consumed.
  void profReuseSink(const char *Label) {
    if (!Options.Profile)
      return;
    profSinkLengthOut();
    unsigned K = static_cast<unsigned>(Program.ProfOps.size());
    Program.ProfOps.push_back({Label, Stack.back().LoopDepth});
    omega().push_back(Stmt::profileCountSink(2 * K, PendingSink.Name));
    PendingSink.ProfOp = K;
  }

  /// Registers an op that counts only its rows out (Src at its loop head,
  /// Ret at its emit site) and appends that counter to \p Where: one per
  /// execution, or the length of the Vec sink \p SinkName when given.
  void profCountOnly(const char *Label, StmtList &Where,
                     const std::string &SinkName = {}) {
    if (!Options.Profile)
      return;
    unsigned K = static_cast<unsigned>(Program.ProfOps.size());
    Program.ProfOps.push_back({Label, Stack.back().LoopDepth});
    Where.push_back(SinkName.empty()
                        ? Stmt::profileCount(2 * K + 1)
                        : Stmt::profileCountSink(2 * K + 1, SinkName));
  }

  //===--------------------------------------------------------------===//
  // Loop creation
  //===--------------------------------------------------------------===//

  /// Appends [Region α', Loop, Region ω'] at the current μ and pushes the
  /// new loop's frame (the Src transition; Figure 9).
  void openSourceLoop(const query::SourceDesc &Src, const TypeRef &ElemTy) {
    LoopInfo L;
    L.Kind = LoopKind::Source;
    L.Src = Src;
    if (Src.Start)
      L.Src.Start = substOuter(Src.Start);
    if (Src.CountE)
      L.Src.CountE = substOuter(Src.CountE);
    if (Src.Vec)
      L.Src.Vec = substOuter(Src.Vec);
    L.IndexVar = fresh("i");
    L.BoundVar = fresh("n");
    L.VecVar = fresh("v");
    L.ElemVar = fresh("elem");
    L.ElemType = ElemTy;
    pushLoop(std::move(L), ElemTy);
  }

  /// Creates the new loop that iterates the pending sink collection
  /// ("the code generator must insert a new loop that iterates through
  /// the sink collection", §4.2). The loop is inserted at the current ω
  /// and the insertion pointers are reset relative to it.
  void openPendingSinkLoop() {
    assert(St == State::Sinking && "no pending sink");
    SinkInfo Sink = std::move(PendingSink);
    LoopInfo L;
    L.SinkName = Sink.Name;
    L.Sink = Sink.Decl;
    L.IndexVar = fresh("i");
    L.BoundVar = fresh("n");

    StmtRef A = Stmt::region();
    StmtRef O = Stmt::region();
    StmtRef LoopStmt;

    switch (Sink.Decl.Kind) {
    case SinkKind::Group:
      L.Kind = LoopKind::GroupSink;
      L.ElemVar = fresh("elem");
      L.ElemType = Type::pairTy(Type::int64Ty(), Type::vecTy());
      break;
    case SinkKind::Vec:
      L.Kind = LoopKind::VecSink;
      L.ElemVar = fresh("elem");
      L.ElemType = Sink.Decl.ElemType;
      break;
    case SinkKind::GroupAgg:
      L.Kind = LoopKind::GroupAggSink;
      L.KeyVar = fresh("key");
      L.AccVar = fresh("acc");
      break;
    }

    TypeRef ElemTy = L.ElemType;
    std::string ElemVar = L.ElemVar;
    std::string KeyVar = L.KeyVar;
    std::string AccVar = L.AccVar;
    LoopStmt = Stmt::loop(std::move(L));

    omega().push_back(A);
    omega().push_back(LoopStmt);
    omega().push_back(O);
    // Reset the current triple relative to the new loop. ω sat inside
    // (LoopDepth - 1) loops; the new loop body is back at LoopDepth.
    Stack.back() = {&A->Body, &LoopStmt->Body, &O->Body,
                    Stack.back().LoopDepth};

    // The sink op's deferred rows-out: one count per collected entry,
    // at the head of the loop that iterates the sink.
    if (Sink.ProfOp != NoProf)
      mu().push_back(Stmt::profileCount(2 * Sink.ProfOp + 1));

    if (Sink.Decl.Kind == SinkKind::GroupAgg) {
      // Apply the (key, acc) -> R result selector to produce the element.
      assert(Sink.GbaResult.valid() && "GroupAgg sink lost its selector");
      ExprRef Elem =
          inline2(Sink.GbaResult, Expr::param(KeyVar, Type::int64Ty()),
                  Expr::param(AccVar, Sink.Decl.AccType));
      std::string Name = fresh("elem");
      mu().push_back(Stmt::declareLocal(Name, Sink.OutElem, Elem));
      CurElem = Name;
      CurElemTy = Sink.OutElem;
    } else {
      CurElem = ElemVar;
      CurElemTy = ElemTy;
    }
    St = State::Iterating;
  }

  void pushLoop(LoopInfo L, const TypeRef &ElemTy) {
    StmtRef A = Stmt::region();
    StmtRef O = Stmt::region();
    std::string ElemVar = L.ElemVar;
    StmtRef LoopStmt = Stmt::loop(std::move(L));
    mu().push_back(A);
    mu().push_back(LoopStmt);
    mu().push_back(O);
    Stack.push_back({&A->Body, &LoopStmt->Body, &O->Body,
                     Stack.back().LoopDepth + 1});
    CurElem = ElemVar;
    CurElemTy = ElemTy;
  }

  /// Figure 11: after a nested collection query returns, pop the nested
  /// and outer triples and push (α_outer, μ_nested, ω_outer) so the rest
  /// of the outer query runs inside the nested loop body.
  void spliceNestedIntoOuter() {
    assert(Stack.size() >= 3 && "flatten requires an enclosing loop");
    Frame NestedF = Stack.back();
    Stack.pop_back();
    Frame OuterF = Stack.back();
    Stack.pop_back();
    // μ stays in the nested loop body: its physical depth is the nested
    // frame's, even though the stack shrank.
    Stack.push_back(
        {OuterF.Alpha, NestedF.Mu, OuterF.Omega, NestedF.LoopDepth});
  }

  /// If a Sink was just generated, any further operator first needs the
  /// loop over the sink collection.
  void ensureIterating() {
    if (St == State::Sinking)
      openPendingSinkLoop();
    assert(St == State::Iterating && "operator outside ITERATING state");
  }

  //===--------------------------------------------------------------===//
  // Operator transitions
  //===--------------------------------------------------------------===//

  void processChain(const Chain &C, bool Nested, NestedRole Role) {
    for (std::size_t I = 0; I != C.Ops.size(); ++I) {
      const Op &O = C.Ops[I];
      switch (O.S) {
      case Sym::Src:
        assert(St == State::Start && "Src must open the query");
        openSourceLoop(O.Src, O.OutElem);
        St = State::Iterating;
        // Untimed: the loop header isn't separable from the iteration
        // itself; rows-out at the body head counts produced elements.
        profCountOnly("Src", mu());
        break;
      case Sym::Trans:
        genTrans(O);
        break;
      case Sym::Pred:
        genPred(O, I, std::span(C.Ops).subspan(I + 1));
        break;
      case Sym::Sink:
        genSink(O);
        break;
      case Sym::Agg:
        genAgg(O);
        break;
      case Sym::Nested:
        genNested(O);
        break;
      case Sym::Ret:
        genRet(Nested, Role);
        break;
      }
    }
  }

  void genTrans(const Op &O) {
    ensureIterating();
    unsigned PK = profBegin("Trans");
    std::string Name = fresh("elem");
    mu().push_back(Stmt::declareLocal(Name, O.OutElem,
                                      cse(inline1(O.Fn, curElemRef()))));
    CurElem = Name;
    CurElemTy = O.OutElem;
    profEnd(PK);
  }

  static const char *predLabel(PredOp P) {
    switch (P) {
    case PredOp::Where:
      return "Where";
    case PredOp::Take:
      return "Take";
    case PredOp::Skip:
      return "Skip";
    case PredOp::TakeWhile:
      return "TakeWhile";
    case PredOp::SkipWhile:
      return "SkipWhile";
    }
    stenoUnreachable("bad PredOp");
  }

  //===--------------------------------------------------------------===//
  // Guards and early exits
  //===--------------------------------------------------------------===//

  /// The addend g of an additive aggregate step `acc + g` (Sum, or an
  /// Aggregate written that way) over an int64 or double accumulator;
  /// null for any other aggregate. Count's constant addend does not
  /// count: g++ already turns its branch into a masked increment.
  static ExprRef additiveAddend(const Op &O) {
    if (O.S != Sym::Agg || O.StopWhen.valid() ||
        !O.Seed->type()->isNumeric())
      return nullptr;
    const Expr &Body = *O.Fn2.body();
    const std::string &Acc = O.Fn2.param(0).Name;
    if (Body.kind() != ExprKind::Binary ||
        Body.binaryOp() != expr::BinaryOp::Add ||
        Body.operand(0)->kind() != ExprKind::Param ||
        Body.operand(0)->paramName() != Acc)
      return nullptr;
    const ExprRef &G = Body.operand(1);
    if (G->kind() == ExprKind::Const || expr::freeParams(*G).count(Acc))
      return nullptr;
    return G;
  }

  /// Whether a Where followed by \p Rest may become a guard on the
  /// aggregate instead of a branch: Rest is Trans ops up to an additive
  /// aggregate in the same loop body, and everything they compute is
  /// speculatable, so computing it for a rejected element is harmless.
  static bool guardsAdditiveAgg(std::span<const Op> Rest) {
    for (const Op &O : Rest) {
      if (O.S == Sym::Trans) {
        if (!expr::speculatable(*O.Fn.body()))
          return false;
        continue;
      }
      ExprRef G = additiveAddend(O);
      return G && expr::speculatable(*G);
    }
    return false;
  }

  /// True when no statement of \p Body can trap: only locals, assignments,
  /// branches over speculatable expressions and profile counters.
  static bool cannotTrap(const StmtList &Body) {
    for (const StmtRef &S : Body) {
      switch (S->K) {
      case StmtKind::Region:
      case StmtKind::DeclareLocal:
      case StmtKind::Assign:
      case StmtKind::If:
      case StmtKind::Continue:
      case StmtKind::ProfileCount:
        break;
      default:
        return false;
      }
      if ((S->E && !expr::speculatable(*S->E)) || !cannotTrap(S->Body))
        return false;
    }
    return true;
  }

  /// Whether an exhausted Take/TakeWhile, op \p I of the query's chain,
  /// leaves the loop with `break` rather than `continue` through the rest
  /// of the input. It must sit in the outermost loop (in a flattened
  /// nested loop a break ends only the inner one), and nothing before it
  /// in the loop body may trap, or the elements past the boundary would
  /// have raised it. cannotTrap() refuses an earlier `break` as well, so
  /// only a loop's first Take/TakeWhile breaks. Counters cannot trap, so
  /// profiling changes no answer. The first op that breaks becomes the
  /// program's ExitOp, where the batch executor stops as well.
  bool breaksWhenExhausted(std::size_t I) {
    if (Stack.back().LoopDepth != 1 || !cannotTrap(mu()))
      return false;
    if (Program.ExitOp == cpptree::NoExitOp)
      Program.ExitOp = static_cast<unsigned>(I);
    return true;
  }

  void genPred(const Op &O, std::size_t I, std::span<const Op> Rest) {
    ensureIterating();
    std::uint64_t OpId =
        O.P == PredOp::Where && O.Fn.valid() ? expr::hashLambda(O.Fn) : 0;
    unsigned PK = profBegin(predLabel(O.P), OpId);
    TypeRef I64 = Type::int64Ty();
    switch (O.P) {
    case PredOp::Where: {
      ExprRef Cond = cse(inline1(O.Fn, curElemRef()));
      if (guardsAdditiveAgg(Rest)) {
        // Branchless: every element flows on, and the aggregate adds a
        // rejected one's addend masked to zero (genAgg). A branch taken
        // at random mispredicts half the time; the mask costs an AND.
        std::string Name = fresh("guard");
        mu().push_back(Stmt::declareLocal(Name, Type::boolTy(), Cond));
        Guard = Expr::param(Name, Type::boolTy());
        break;
      }
      mu().push_back(Stmt::ifThen(Expr::unary(expr::UnaryOp::Not, Cond),
                                  {Stmt::continueStmt()}));
      break;
    }
    case PredOp::Take: {
      std::string Cnt = fresh("take");
      alpha().push_back(
          Stmt::declareLocal(Cnt, I64, Expr::constInt64(0)));
      ExprRef CntRef = Expr::param(Cnt, I64);
      mu().push_back(Stmt::ifThen(
          Expr::binary(expr::BinaryOp::Ge, CntRef, substOuter(O.Seed)),
          {breaksWhenExhausted(I) ? Stmt::breakStmt()
                                  : Stmt::continueStmt()}));
      mu().push_back(Stmt::assign(
          Cnt, Expr::binary(expr::BinaryOp::Add, CntRef,
                            Expr::constInt64(1))));
      break;
    }
    case PredOp::Skip: {
      std::string Cnt = fresh("skip");
      alpha().push_back(
          Stmt::declareLocal(Cnt, I64, Expr::constInt64(0)));
      ExprRef CntRef = Expr::param(Cnt, I64);
      mu().push_back(Stmt::ifThen(
          Expr::binary(expr::BinaryOp::Lt, CntRef, substOuter(O.Seed)),
          {Stmt::assign(Cnt, Expr::binary(expr::BinaryOp::Add, CntRef,
                                          Expr::constInt64(1))),
           Stmt::continueStmt()}));
      break;
    }
    case PredOp::TakeWhile: {
      if (breaksWhenExhausted(I)) {
        mu().push_back(
            Stmt::ifThen(Expr::unary(expr::UnaryOp::Not,
                                     inline1(O.Fn, curElemRef())),
                         {Stmt::breakStmt()}));
        break;
      }
      std::string Flag = fresh("done");
      alpha().push_back(
          Stmt::declareLocal(Flag, Type::boolTy(), Expr::constBool(false)));
      ExprRef FlagRef = Expr::param(Flag, Type::boolTy());
      mu().push_back(Stmt::ifThen(FlagRef, {Stmt::continueStmt()}));
      ExprRef Cond = inline1(O.Fn, curElemRef());
      mu().push_back(Stmt::ifThen(
          Expr::unary(expr::UnaryOp::Not, Cond),
          {Stmt::assign(Flag, Expr::constBool(true)),
           Stmt::continueStmt()}));
      break;
    }
    case PredOp::SkipWhile: {
      std::string Flag = fresh("skipping");
      alpha().push_back(
          Stmt::declareLocal(Flag, Type::boolTy(), Expr::constBool(true)));
      ExprRef FlagRef = Expr::param(Flag, Type::boolTy());
      ExprRef Cond = inline1(O.Fn, curElemRef());
      mu().push_back(Stmt::ifThen(
          FlagRef, {Stmt::ifThen(Cond, {Stmt::continueStmt()}),
                    Stmt::assign(Flag, Expr::constBool(false))}));
      break;
    }
    }
    // The rows-out counter lands after the predicate, so elements it
    // rejects (continue) are counted in but not out; a guard's rows-out
    // is the guard.
    profEnd(PK);
  }

  static const char *sinkLabel(SinkOp K) {
    switch (K) {
    case SinkOp::GroupBy:
      return "GroupBy";
    case SinkOp::GroupByAggregate:
      return "GroupByAggregate";
    case SinkOp::OrderBy:
      return "OrderBy";
    case SinkOp::ToArray:
      return "ToArray";
    }
    stenoUnreachable("bad SinkOp");
  }

  void genSink(const Op &O) {
    if (O.K == SinkOp::ToArray && St == State::Sinking &&
        PendingSink.Decl.Kind == SinkKind::Vec) {
      // The elements are already materialized, in order, in the pending
      // Vec sink (an OrderBy's buffer, or another ToArray): iterating it
      // again is the ToArray.
      profReuseSink(sinkLabel(O.K));
      return;
    }
    ensureIterating();
    unsigned PK = profBegin(sinkLabel(O.K));
    std::string Name = fresh("sink");
    SinkDecl Decl;
    switch (O.K) {
    case SinkOp::GroupBy: {
      Decl.Kind = SinkKind::Group;
      alpha().push_back(Stmt::declareSink(Name, Decl));
      mu().push_back(Stmt::sinkGroupPut(Name, inline1(O.Fn, curElemRef()),
                                        curElemRef()));
      PendingSink = {Name, Decl, Lambda(), O.OutElem};
      break;
    }
    case SinkOp::GroupByAggregate: {
      Decl.Kind = SinkKind::GroupAgg;
      Decl.AccType = O.Seed->type();
      if (O.DenseKeys) {
        // §4.3's dense-key sink: the slot array is built at α, so the
        // per-element update needs no seed argument.
        Decl.DenseKeys = substOuter(O.DenseKeys);
        Decl.DenseSeed = substOuter(O.Seed);
      }
      alpha().push_back(Stmt::declareSink(Name, Decl));
      std::string Slot = fresh("slot");
      ExprRef Update = inline2(O.Fn2, Expr::param(Slot, Decl.AccType),
                               curElemRef());
      mu().push_back(Stmt::sinkGroupAggUpdate(
          Name, cse(inline1(O.Fn, curElemRef())),
          O.DenseKeys ? nullptr : substOuter(O.Seed), Slot, Update));
      Lambda Result = O.Fn3;
      if (!Result.valid()) {
        // Default selector: (key, acc) -> pair(key, acc).
        ExprRef K = Expr::param("__k", Type::int64Ty());
        ExprRef A = Expr::param("__a", Decl.AccType);
        Result = Lambda({{"__k", Type::int64Ty()}, {"__a", Decl.AccType}},
                        Expr::pairNew(K, A));
      }
      PendingSink = {Name, Decl, std::move(Result), O.OutElem};
      break;
    }
    case SinkOp::OrderBy:
    case SinkOp::ToArray: {
      Decl.Kind = SinkKind::Vec;
      Decl.ElemType = O.InElem;
      alpha().push_back(Stmt::declareSink(Name, Decl));
      mu().push_back(Stmt::sinkVecPush(Name, curElemRef()));
      if (O.K == SinkOp::OrderBy)
        omega().push_back(
            Stmt::sortSinkVec(Name, O.InElem, closeOver(O.Fn)));
      PendingSink = {Name, Decl, Lambda(), O.OutElem};
      break;
    }
    }
    // Rows-out of a sink is the number of collected entries, counted
    // where the sink is consumed (SinkInfo::ProfOp).
    PendingSink.ProfOp = PK;
    St = State::Sinking;
  }

  void genAgg(const Op &O) {
    ensureIterating();
    unsigned PK = profBegin("Agg");
    std::string Var = fresh("agg");
    TypeRef AccTy = O.Seed->type();
    alpha().push_back(Stmt::declareLocal(Var, AccTy, substOuter(O.Seed)));
    ExprRef Update = inline2(O.Fn2, Expr::param(Var, AccTy), curElemRef());
    if (Guard) {
      // A guarding Where precedes (genPred): the step is acc + g, and g
      // is added only where the guard holds.
      mu().push_back(Stmt::addIf(Var, Guard, cse(Update->operand(1))));
    } else {
      mu().push_back(Stmt::assign(Var, cse(Update)));
    }
    profEnd(PK);
    Guard = nullptr;
    if (O.StopWhen.valid())
      genEarlyExit(O, Var, AccTy);
    CurAgg = {Var, AccTy, O.Fn3};
    AggResultTy = O.OutElem;
    St = State::Aggregating;
  }

  /// Short-circuiting aggregates (Any/All/First/Contains): once the stop
  /// condition holds the result is final. In the single-loop case the
  /// generated code breaks out; with flattened nested loops a break only
  /// exits the innermost loop, so a stop flag guards every element
  /// instead (correct at any nesting depth, with the remaining outer
  /// iterations reduced to flag checks).
  void genEarlyExit(const Op &O, const std::string &Var,
                    const TypeRef &AccTy) {
    ExprRef Stop = inline1(O.StopWhen, Expr::param(Var, AccTy));
    if (Stack.back().LoopDepth == 1) {
      mu().push_back(Stmt::ifThen(Stop, {Stmt::breakStmt()}));
      return;
    }
    std::string Flag = fresh("stop");
    alpha().push_back(
        Stmt::declareLocal(Flag, Type::boolTy(), Expr::constBool(false)));
    ExprRef FlagRef = Expr::param(Flag, Type::boolTy());
    mu().push_back(
        Stmt::ifThen(Stop, {Stmt::assign(Flag, Expr::constBool(true))}));
    mu().insert(mu().begin(),
                Stmt::ifThen(FlagRef, {Stmt::continueStmt()}));
  }

  void genNested(const Op &O) {
    ensureIterating();
    std::string SavedElem = CurElem;
    TypeRef SavedTy = CurElemTy;

    // §5.2: rewrite references to the outer element inside the nested
    // query. (Shadowing an existing binding of the same name is
    // restored afterwards.)
    ExprRef Shadowed;
    auto It = OuterSubst.find(O.OuterParam);
    if (It != OuterSubst.end())
      Shadowed = It->second;
    OuterSubst[O.OuterParam] = curElemRef();

    St = State::Start;
    processChain(*O.NestedChain, /*Nested=*/true, O.Role);

    if (Shadowed)
      OuterSubst[O.OuterParam] = Shadowed;
    else
      OuterSubst.erase(O.OuterParam);

    switch (O.Role) {
    case NestedRole::Trans:
      // CurElem was set by the nested Ret (Figure 10).
      break;
    case NestedRole::Pred: {
      ExprRef Cond = curElemRef();
      assert(Cond->type()->isBool() && "nested predicate must be bool");
      mu().push_back(Stmt::ifThen(Expr::unary(expr::UnaryOp::Not, Cond),
                                  {Stmt::continueStmt()}));
      CurElem = SavedElem;
      CurElemTy = SavedTy;
      break;
    }
    case NestedRole::Flatten:
      // Figure 11 already spliced the frames; the nested element is the
      // current element.
      break;
    }
    St = State::Iterating;
  }

  void genRet(bool Nested, NestedRole Role) {
    switch (St) {
    case State::Aggregating: {
      ExprRef Result = CurAgg.Result.valid()
                           ? inline1(CurAgg.Result,
                                     Expr::param(CurAgg.Var, CurAgg.AccTy))
                           : Expr::param(CurAgg.Var, CurAgg.AccTy);
      if (!Nested) {
        omega().push_back(Stmt::emit(Result));
        profCountOnly("Ret", omega());
      } else {
        // Figure 10(a): elem_{i+1} = agg_j in the nested postlude, then
        // pop one triple.
        std::string Name = fresh("elem");
        omega().push_back(
            Stmt::declareLocal(Name, AggResultTy, Result));
        Stack.pop_back();
        CurElem = Name;
        CurElemTy = AggResultTy;
      }
      break;
    }
    case State::Sinking: {
      if (!Nested && PendingSink.Decl.Kind == SinkKind::Vec &&
          (PendingSink.Decl.ElemType->isInt64() ||
           PendingSink.Decl.ElemType->isDouble())) {
        // The rows are the sink's elements, in order: the host adopts
        // the sink's buffer as its result column and no row is copied.
        // The sink's op and Ret count its length as their rows out,
        // before the hand-over empties it.
        profSinkLengthOut();
        profCountOnly("Ret", omega(), PendingSink.Name);
        omega().push_back(Stmt::emitSink(PendingSink.Name));
      } else if (!Nested) {
        openPendingSinkLoop();
        mu().push_back(Stmt::emit(curElemRef()));
        profCountOnly("Ret", mu());
      } else if (Role == NestedRole::Flatten) {
        openPendingSinkLoop();
        spliceNestedIntoOuter();
      } else {
        // Figure 10(b): elem_{i+1} = sink_k. Only a double Vec sink has a
        // view type in this type system.
        assert(PendingSink.Decl.Kind == SinkKind::Vec &&
               PendingSink.Decl.ElemType->isDouble() &&
               "nested sink result must be a double collection");
        std::string Name = fresh("elem");
        omega().push_back(Stmt::declareSinkView(Name, PendingSink.Name));
        Stack.pop_back();
        CurElem = Name;
        CurElemTy = Type::vecTy();
      }
      break;
    }
    case State::Iterating: {
      if (!Nested) {
        // The non-nested ITERATING Ret is the paper's `yield return`
        // (Figure 8(c)): the loop body appends the element row to the
        // host's result columns.
        mu().push_back(Stmt::emit(curElemRef()));
        profCountOnly("Ret", mu());
      } else {
        assert(Role == NestedRole::Flatten &&
               "nested Trans/Pred query must end with Agg or Sink");
        spliceNestedIntoOuter();
      }
      break;
    }
    case State::Start:
    case State::Returning:
      stenoUnreachable("Ret in invalid state");
    }
    St = State::Returning;
  }

  codegen::GenOptions Options;
  cpptree::Program Program;
  State St = State::Start;
  std::vector<Frame> Stack;
  std::string CurElem;
  TypeRef CurElemTy;
  AggInfo CurAgg;
  TypeRef AggResultTy;
  SinkInfo PendingSink;
  /// The predicate of a Where that guards the next aggregate's addend
  /// instead of branching (genPred); null when none is pending.
  ExprRef Guard;
  std::map<std::string, ExprRef> OuterSubst;
  unsigned Counter = 0;
};

} // namespace

cpptree::Program codegen::generate(const Chain &C,
                                   const std::string &EntryName,
                                   const GenOptions &Options) {
  return Generator(Options).run(C, EntryName);
}
