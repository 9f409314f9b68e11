//===- analysis/Analysis.h - QUIL/expr static-analysis pipeline -*- C++ -*-===//
//
// Part of the Steno/C++ reproduction of Murray, Isard & Yu,
// "Steno: Automatic Optimization of Declarative Queries" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Static analysis over lowered QUIL chains, run as a first-class compile
/// phase (lower -> validate -> analyze -> specialize -> cse -> codegen).
/// Steno splices user lambdas into generated loops (§4.2) and fans queries
/// out across partitions (§6) on the assumption that they are well-typed
/// and effect-free; these passes certify both *before* lowering proceeds,
/// turning what used to be an opaque JIT compile failure (or a silent
/// parallel-semantics change) into an immediate structured diagnostic:
///
///   1. Type/arity checker — operand types, lambda arity, parameter
///      visibility, and capture/source-slot bounds (ST1xxx, all errors).
///   2. Effect/purity analysis — possible integer-division traps, order
///      sensitivity, FP-fold nondeterminism, and associativity
///      classification of every Agg combiner. Its verdict is the
///      SafetyCertificate that plinq::/dryad:: consult before fan-out.
///   3. Constant/range analysis — negative Take/Skip counts,
///      constant-false predicates (guaranteed-empty chains), dead
///      operators (ST3xxx).
///
/// CompileOptions::Analyze (off | strict, default strict) selects the
/// enforcement mode for compileQuery/compileChain.
///
//===----------------------------------------------------------------------===//

#ifndef STENO_ANALYSIS_ANALYSIS_H
#define STENO_ANALYSIS_ANALYSIS_H

#include "analysis/Diagnostics.h"
#include "quil/Quil.h"

#include <string>
#include <vector>

namespace steno {
namespace analysis {

/// Enforcement mode for the analyze phase.
enum class Mode {
  Off,   ///< Skip analysis entirely.
  Strict ///< Run, report, and reject queries with error-severity findings.
};

/// Associativity classification of one aggregation's combiner, used to
/// gate HomomorphicApply / partial aggregation (§6).
enum class AggClass {
  NoCombiner,      ///< No combiner at all: cannot be split.
  NonAssociative,  ///< Provably non-associative (e.g. a - b): must not
                   ///< be split.
  Trusted,         ///< User-supplied, shape not recognized: trusted as
                   ///< declared, flagged ST2006.
  Associative,     ///< Recognized associative (e.g. pairwise min-merge).
  AssociativeCommutative ///< Recognized associative and commutative
                   ///< (+, *, min, max, &&, ||, and pairs thereof).
};

const char *aggClassName(AggClass C);

/// The parallel-safety certificate: the effect pass's verdict on whether
/// fan-out over partitions preserves sequential semantics. dryad::
/// DistributedQuery (and its multi-core PLINQ path) refuse to parallelize
/// uncertified queries and fall back to sequential execution.
struct SafetyCertificate {
  /// No expression can trap at run time (integer division/modulo with a
  /// divisor not provably nonzero is the trap source in this language).
  bool Pure = true;
  /// Contains an operator whose meaning depends on global element order
  /// (Take/Skip/TakeWhile/SkipWhile; First without a total order).
  bool OrderSensitive = false;
  /// Parallel folding would reassociate floating-point accumulation;
  /// results remain deterministic for a fixed partition count but may
  /// differ from the sequential rounding (informational, not gating).
  bool FpReassociation = false;
  /// Classification of every Agg/GroupByAggregate combiner in the chain,
  /// top-level chain order.
  std::vector<AggClass> AggClasses;

  /// True when no combiner is provably non-associative.
  bool combinersAssociative() const {
    for (AggClass C : AggClasses)
      if (C == AggClass::NonAssociative)
        return false;
    return true;
  }

  /// The fan-out gate: pure, order-insensitive, and no provably broken
  /// combiner. (FpReassociation is reported but does not revoke the
  /// certificate — the paper's §6 semantics accept FP partial sums.)
  bool parallelSafe() const {
    return Pure && !OrderSensitive && combinersAssociative();
  }

  /// Human-readable one-liner, e.g.
  /// "pure, order-insensitive, combiners ok -> parallel-safe".
  std::string str() const;
};

/// Everything the analyze phase produced.
struct AnalysisResult {
  DiagnosticBag Diags;
  SafetyCertificate Cert;

  bool ok() const { return !Diags.hasErrors(); }
};

/// Runs all three passes over a validated chain. The chain must have
/// passed quil::validate (the passes assume grammatical shape).
AnalysisResult analyzeChain(const quil::Chain &C);

//===--------------------------------------------------------------------===//
// Individual passes (exposed for targeted tests; analyzeChain runs all)
//===--------------------------------------------------------------------===//

void runTypeCheck(const quil::Chain &C, DiagnosticBag &Diags);
void runEffectAnalysis(const quil::Chain &C, DiagnosticBag &Diags,
                       SafetyCertificate &Cert);
void runConstRange(const quil::Chain &C, DiagnosticBag &Diags);

} // namespace analysis
} // namespace steno

#endif // STENO_ANALYSIS_ANALYSIS_H
