//===- cpptree/Tree.h - Object model of generated loop code ----*- C++ -*-===//
//
// Part of the Steno/C++ reproduction of Murray, Isard & Yu,
// "Steno: Automatic Optimization of Declarative Queries" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The CodeDOM analogue (paper §3.2): an object model for the small subset
/// of C++ that Steno generates — declarations, loops, conditionals,
/// assignments, sink operations and result emission. The code-generator
/// automaton builds this AST; the cpptree printer renders it to compilable
/// C++ for the native JIT backend, and the interp module executes it
/// directly for the portable backend. Expressions inside statements reuse
/// expr::Expr, with generated local variables represented as Param nodes
/// bearing their generated names — so the same tree prints and evaluates.
///
/// Insertion-point regions (the α/μ/ω pointers of Figure 5, and their
/// stack of Figure 9) are modelled with Region statements: a Region is an
/// inline, append-only statement list spliced transparently into its
/// parent, so "insert at α" is "append to the α Region's list" and never
/// disturbs previously inserted code.
///
//===----------------------------------------------------------------------===//

#ifndef STENO_CPPTREE_TREE_H
#define STENO_CPPTREE_TREE_H

#include "expr/Expr.h"
#include "expr/Lambda.h"
#include "query/Query.h"

#include <memory>
#include <string>
#include <vector>

namespace steno {
namespace cpptree {

/// The intermediate collections a query may build (paper Table 1's Sink
/// class and §4.3's specialized sink).
enum class SinkKind {
  Group,    ///< int64 key -> bag of doubles, insertion-ordered.
  GroupAgg, ///< int64 key -> partial accumulator (the §4.3 sink).
  Vec       ///< flat vector of elements (ToArray / OrderBy buffer).
};

/// Declaration payload for a sink object.
struct SinkDecl {
  SinkKind Kind = SinkKind::Vec;
  /// Element type for Vec sinks.
  expr::TypeRef ElemType;
  /// Accumulator type for GroupAgg sinks.
  expr::TypeRef AccType;
  /// Dense GroupAgg sinks: key-range bound and per-slot seed, evaluated
  /// at declaration time. Null for hash sinks.
  expr::ExprRef DenseKeys;
  expr::ExprRef DenseSeed;

  bool isDense() const { return DenseKeys != nullptr; }
};

struct Stmt;
using StmtRef = std::shared_ptr<Stmt>;
using StmtList = std::vector<StmtRef>;

enum class StmtKind {
  Region,             ///< Transparent inline sub-list (insertion region).
  DeclareLocal,       ///< T name = expr;
  DeclareSinkView,    ///< VecView name{sink.data(), sink.size()}; — the
                      ///< Figure 10(b) "element = sink" case.
  Assign,             ///< name = expr;
  AddIf,              ///< name = steno::rt::addIf(name, guard, addend);
                      ///< — a filtered sum's branchless update.
  If,                 ///< if (expr) { ... }
  Continue,           ///< continue;
  Break,              ///< break;
  Loop,               ///< A counted loop over a source or a sink.
  DeclareSink,        ///< Sink object declaration (loop prelude).
  SinkGroupPut,       ///< sink.put(key, value);
  SinkGroupAggUpdate, ///< auto &s = sink.slot(key, seed); s = update;
  SinkVecPush,        ///< sink.push_back(elem);
  SortSinkVec,        ///< Stable sort of a Vec sink by an inlined key.
  Emit,               ///< Append an element/scalar row to the result.
  EmitSink,           ///< Hand a Vec sink of int64s or doubles to the
                      ///< host whole, as the result's one column.
  ProfileCount        ///< A profile row counter bump: ++prof_c_[slot];,
                      ///< prof_c_[slot] += guard; (E, a bool) or
                      ///< prof_c_[slot] += sink.size(); (Name, a Vec sink).
};

/// What a Loop statement iterates.
enum class LoopKind {
  Source,       ///< A query::SourceDesc (array / range / vec expression).
  GroupSink,    ///< Groups of a Group sink: elem = Pair(key, VecView).
  GroupAggSink, ///< Entries of a GroupAgg sink: declares key + acc vars.
  VecSink       ///< Elements of a Vec sink.
};

/// Loop header description. The loop declares its index variable and
/// (depending on the kind) the element/key/accumulator variables visible
/// in its body.
struct LoopInfo {
  LoopKind Kind = LoopKind::Source;
  query::SourceDesc Src; ///< For Source loops.
  std::string SinkName;  ///< For sink loops.
  SinkDecl Sink;         ///< Decl of that sink (typing).
  std::string IndexVar;
  std::string BoundVar;  ///< Temp holding the trip count (Range/VecExpr).
  std::string VecVar;    ///< Temp holding the VecView (VecExpr sources).
  std::string ElemVar;   ///< Declared element variable (not GroupAggSink).
  expr::TypeRef ElemType;
  std::string KeyVar;    ///< GroupAggSink loops: int64 key variable.
  std::string AccVar;    ///< GroupAggSink loops: accumulator variable.
};

/// One generated statement. A small tagged struct rather than a class
/// hierarchy: the printer and the interpreter switch over K.
struct Stmt {
  StmtKind K = StmtKind::Region;

  /// Region contents / If-then branch / Loop body.
  StmtList Body;

  /// DeclareLocal, Assign, SinkGroupAggUpdate slot, DeclareSinkView,
  /// DeclareSink, SinkGroupPut, SinkVecPush, SortSinkVec, EmitSink,
  /// ProfileCount of a sink's length: target name.
  std::string Name;
  /// DeclareLocal: declared type.
  expr::TypeRef Ty;
  /// Primary expression: init / value / condition / group key / emitted
  /// element / AddIf guard / ProfileCount guard.
  expr::ExprRef E;
  /// Secondary expression: SinkGroupPut value, SinkGroupAggUpdate seed,
  /// AddIf addend.
  expr::ExprRef E2;
  /// Tertiary expression: SinkGroupAggUpdate update (references SlotVar).
  expr::ExprRef E3;
  /// SinkGroupAggUpdate: the name of the accumulator reference variable.
  std::string SlotVar;

  LoopInfo Loop;
  SinkDecl Sink;

  /// SortSinkVec: key selector (unary lambda over the element type). The
  /// sort is ascending in rt::orderKey's order and stable.
  expr::Lambda KeyFn;

  /// ProfileCount: counter slot index (2k = op k rows in, 2k+1 = rows
  /// out).
  unsigned ProfSlot = 0;

  //===--------------------------------------------------------------===//
  // Factories
  //===--------------------------------------------------------------===//

  static StmtRef region();
  static StmtRef declareLocal(std::string Name, expr::TypeRef Ty,
                              expr::ExprRef Init);
  static StmtRef declareSinkView(std::string Name, std::string SinkName);
  static StmtRef assign(std::string Name, expr::ExprRef Value);
  static StmtRef addIf(std::string Name, expr::ExprRef Guard,
                       expr::ExprRef Addend);
  static StmtRef ifThen(expr::ExprRef Cond, StmtList Then);
  static StmtRef continueStmt();
  static StmtRef breakStmt();
  static StmtRef loop(LoopInfo Info);
  static StmtRef declareSink(std::string Name, SinkDecl Decl);
  static StmtRef sinkGroupPut(std::string SinkName, expr::ExprRef Key,
                              expr::ExprRef Value);
  static StmtRef sinkGroupAggUpdate(std::string SinkName, expr::ExprRef Key,
                                    expr::ExprRef Seed, std::string SlotVar,
                                    expr::ExprRef Update);
  static StmtRef sinkVecPush(std::string SinkName, expr::ExprRef Elem);
  static StmtRef sortSinkVec(std::string SinkName, expr::TypeRef ElemType,
                             expr::Lambda KeyFn);
  static StmtRef emit(expr::ExprRef Elem);
  static StmtRef emitSink(std::string SinkName);
  /// Adds 1 to counter \p Slot, or \p Guard's value (0 or 1) when set.
  static StmtRef profileCount(unsigned Slot, expr::ExprRef Guard = nullptr);
  /// Adds the length of the Vec sink \p SinkName to counter \p Slot.
  static StmtRef profileCountSink(unsigned Slot, std::string SinkName);
};

/// Static descriptor of one profiled operator: display label and loop
/// nesting depth (tree indentation). Plain data so cpptree stays
/// independent of the obs layer; the steno facade converts these into an
/// obs::PlanDesc.
struct ProfOp {
  std::string Label;
  unsigned Depth = 0;
  /// Stable identity of the operator's defining lambda (expr::hashLambda
  /// of a Where predicate, 0 otherwise). Lets profile consumers match an
  /// observed selectivity back to a specific predicate even after the
  /// plan rewriter permutes adjacent filters.
  std::uint64_t OpId = 0;
};

/// Program::ExitOp of a program whose loops all run to the end.
constexpr unsigned NoExitOp = ~0u;

/// A whole generated query body.
struct Program {
  /// Entry symbol name (C identifier).
  std::string Name = "steno_query";
  StmtList Body;
  /// Scalar result type, or element type for collection results.
  expr::TypeRef ResultType;
  bool ScalarResult = false;
  /// The first Take/TakeWhile, as an index into the chain's Ops, whose
  /// exhaustion leaves its loop with `break` (DESIGN.md §5, "Early
  /// exit"); NoExitOp when none does. The batch executor stops at the
  /// same element (vec::planChain).
  unsigned ExitOp = NoExitOp;
  /// Profiled operators, in instrumentation order; op k owns counter
  /// slots 2k/2k+1. Empty unless the generator ran with
  /// GenOptions::Profile.
  std::vector<ProfOp> ProfOps;
};

} // namespace cpptree
} // namespace steno

#endif // STENO_CPPTREE_TREE_H
