//===- analysis/Diagnostics.h - Structured query diagnostics ---*- C++ -*-===//
//
// Part of the Steno/C++ reproduction of Murray, Isard & Yu,
// "Steno: Automatic Optimization of Declarative Queries" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The diagnostics engine backing the static-analysis pipeline: stable
/// error codes, severities, and locations that name the failing operator
/// (by chain index at each nesting depth) and the failing expression (by
/// operand path inside one of the operator's lambdas). Analyses report
/// into a DiagnosticBag; the compile pipeline renders the bag and decides
/// (per CompileOptions::Analyze) whether to reject the query.
///
/// Every emission also increments an `analysis.diag.<CODE>` obs counter,
/// so fleets of queries can be monitored for which lints actually fire.
///
//===----------------------------------------------------------------------===//

#ifndef STENO_ANALYSIS_DIAGNOSTICS_H
#define STENO_ANALYSIS_DIAGNOSTICS_H

#include <cstddef>
#include <string>
#include <vector>

namespace steno {
namespace analysis {

enum class Severity { Note, Warning, Error };

/// Stable diagnostic codes. The numeric bands group the producing pass:
///   ST1xxx type/arity checker, ST2xxx effect/purity analysis,
///   ST3xxx constant/range analysis. Codes are append-only; renumbering
/// an existing code is an API break (tests and dashboards key on them).
enum class DiagCode {
  // --- type/arity checker (ST1xxx) ---
  BadArity,           ///< ST1001 lambda has the wrong parameter count
  ParamTypeMismatch,  ///< ST1002 lambda parameter type != incoming element
  ResultTypeMismatch, ///< ST1003 lambda result type != operator output
  PredicateNotBool,   ///< ST1004 predicate lambda does not return bool
  CountNotInt64,      ///< ST1005 Take/Skip count expression is not int64
  SeedTypeMismatch,   ///< ST1006 Agg seed type != accumulator type
  CaptureSlotOutOfBounds, ///< ST1007 capture slot >= MaxCaptureSlots
  SourceSlotOutOfBounds,  ///< ST1008 source slot >= MaxSourceSlots
  UnboundParam,       ///< ST1009 free parameter not bound by any lambda
  BadCombiner,        ///< ST1010 combiner is not (acc, acc) -> acc
  ElemTypeMismatch,   ///< ST1011 operator input != upstream output type
  KeyNotInt64,        ///< ST1012 GroupBy key selector is not int64
  // --- effect/purity analysis (ST2xxx) ---
  DivByZero,          ///< ST2001 integer division/modulo by a zero divisor
  OrderSensitive,     ///< ST2002 operator depends on global element order
  NoCombiner,         ///< ST2003 aggregate lacks an associative combiner
  FpFoldReassociation,///< ST2004 parallel fold reassociates FP addition
  NonAssociativeCombiner, ///< ST2005 combiner is provably non-associative
  UnverifiedCombiner, ///< ST2006 user combiner associativity is trusted
  // --- constant/range analysis (ST3xxx) ---
  NegativeCount,      ///< ST3001 Take/Skip count is a negative constant
  AlwaysFalsePred,    ///< ST3002 predicate is constant false (empty chain)
  AlwaysTruePred,     ///< ST3003 predicate is constant true (no-op)
  TakeZero,           ///< ST3004 Take 0 yields a guaranteed-empty chain
  DeadOperator,       ///< ST3005 operator is unreachable (empty input)
  // --- plan rewriter (ST4xxx) ---
  RewritePredDropped,   ///< ST4001 always-true predicate removed
  RewriteEmptyCollapse, ///< ST4002 always-false predicate collapsed chain
  RewriteDeadOpRemoved, ///< ST4003 provably dead operator eliminated
  RewriteTakeSkipFolded,///< ST4004 Take/Skip count folded or merged
  RewritePredReordered, ///< ST4005 adjacent predicates reordered by cost
  RewriteTrapElided     ///< ST4006 division trap check proven unnecessary
};

/// The stable spelling, e.g. "ST1001".
const char *diagCodeName(DiagCode Code);

/// Which expression of a quil::Op a diagnostic points into.
enum class ExprRole {
  None,     ///< The operator as a whole.
  Fn,       ///< Trans fn / predicate / key selector.
  Fn2,      ///< Aggregation step (acc, elem) -> acc.
  Fn3,      ///< Result selector.
  Combine,  ///< Associative combiner.
  StopWhen, ///< Early-exit condition.
  Seed,     ///< Agg seed or Take/Skip count.
  DenseKeys,///< Dense sink key bound.
  SrcStart, ///< Range source start.
  SrcCount, ///< Range source count.
  SrcVec    ///< VecExpr source expression.
};

const char *exprRoleName(ExprRole Role);

/// Location of a diagnostic: the operator, named by its chain index at
/// every nesting depth (outermost first — {1, 0} is "operator 0 of the
/// nested chain carried by top-level operator 1"), plus an optional
/// expression path (operand indices from the role expression's root).
struct DiagLoc {
  std::vector<unsigned> OpPath;
  ExprRole Role = ExprRole::None;
  std::vector<unsigned> ExprPath;

  /// Nesting depth of the operator (0 = top-level chain).
  std::size_t depth() const { return OpPath.empty() ? 0 : OpPath.size() - 1; }

  /// Renders as "op #2" / "op #1.0 Fn@[1,0]" (nested path dot-joined).
  std::string str() const;

  friend bool operator==(const DiagLoc &A, const DiagLoc &B) {
    return A.OpPath == B.OpPath && A.Role == B.Role &&
           A.ExprPath == B.ExprPath;
  }
};

/// One finding, fully renderable on its own.
struct Diagnostic {
  DiagCode Code = DiagCode::BadArity;
  Severity Sev = Severity::Error;
  DiagLoc Loc;
  std::string Message;

  /// "error [ST3001] op #1: Take count is the negative constant -3".
  std::string render() const;
};

/// Accumulates findings across passes. Reporting is append-only; the
/// compile pipeline inspects hasErrors() to decide rejection.
class DiagnosticBag {
public:
  /// Records a finding and bumps its `analysis.diag.<CODE>` counter.
  void report(DiagCode Code, Severity Sev, DiagLoc Loc, std::string Message);

  const std::vector<Diagnostic> &all() const { return Diags; }
  bool empty() const { return Diags.empty(); }
  std::size_t size() const { return Diags.size(); }

  bool hasErrors() const { return Errors != 0; }
  std::size_t errorCount() const { return Errors; }

  /// True if any recorded diagnostic carries \p Code.
  bool has(DiagCode Code) const;
  /// First diagnostic with \p Code, or nullptr.
  const Diagnostic *find(DiagCode Code) const;

  /// All findings rendered one per line, severity-ordered as reported.
  /// \p MinSev filters (e.g. Warning hides the Note-level cert trail).
  std::string render(Severity MinSev = Severity::Note) const;

private:
  std::vector<Diagnostic> Diags;
  std::size_t Errors = 0;
};

} // namespace analysis
} // namespace steno

#endif // STENO_ANALYSIS_DIAGNOSTICS_H
