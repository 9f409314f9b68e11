//===- analysis/AbsInt.h - Abstract interpretation over QUIL ---*- C++ -*-===//
//
// Part of the Steno/C++ reproduction of Murray, Isard & Yu,
// "Steno: Automatic Optimization of Declarative Queries" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A forward abstract-interpretation framework over lowered QUIL chains.
/// Where ConstRange.cpp used to ask "does this operand fold to a
/// literal?", this framework propagates *facts* — integer intervals,
/// nonzero-ness, constant doubles, three-valued booleans, and per-operator
/// cardinality bounds — through both the operator chain and the expression
/// trees inside each operator. Chains are straight-line (no loops in the
/// operator string), so the transfer functions run in one forward pass
/// and the interval domain needs no widening.
///
/// The facts feed three consumers:
///   * analysis::runConstRange — the ST3xxx lints, now derived from
///     cardinality/predicate facts instead of syntactic constant folding;
///   * quil::rewriteChain — the certificate-gated plan rewriter
///     (dead-operator elimination, predicate dropping/reordering,
///     Take/Skip folding);
///   * trap elision — a division site whose divisor interval excludes 0
///     (and cannot hit the INT64_MIN / -1 overflow corner) is marked
///     divSafe() so codegen emits plain `/` instead of rt::ckdiv.
///
/// Soundness conventions:
///   * Interval arithmetic never wraps: any transfer whose exact result
///     would overflow int64 saturates to the full interval (top), so a
///     derived bound is always a true bound on the runtime value.
///   * Cardinality intervals over-approximate the number of elements an
///     operator can observe; INT64_MAX as an upper bound means
///     "unbounded".
///   * meet() returns nullopt for an empty intersection — the caller
///     learns the refined path is infeasible (e.g. a predicate that can
///     never be true for any reachable element).
///
//===----------------------------------------------------------------------===//

#ifndef STENO_ANALYSIS_ABSINT_H
#define STENO_ANALYSIS_ABSINT_H

#include "analysis/Diagnostics.h"
#include "expr/Expr.h"
#include "expr/Lambda.h"
#include "quil/Quil.h"

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace steno {
namespace analysis {
namespace absint {

/// A non-empty inclusive int64 interval [Lo, Hi]. The empty interval is
/// not representable; operations that would produce it (meet) signal via
/// std::optional instead.
struct Interval {
  std::int64_t Lo = INT64_MIN;
  std::int64_t Hi = INT64_MAX;

  static Interval full() { return Interval(); }
  static Interval constant(std::int64_t V) { return Interval{V, V}; }
  static Interval of(std::int64_t Lo, std::int64_t Hi) {
    return Interval{Lo, Hi};
  }
  /// The cardinality top: [0, unbounded].
  static Interval card() { return Interval{0, INT64_MAX}; }

  bool isConst() const { return Lo == Hi; }
  bool contains(std::int64_t V) const { return Lo <= V && V <= Hi; }
  bool excludesZero() const { return Lo > 0 || Hi < 0; }

  friend bool operator==(const Interval &A, const Interval &B) {
    return A.Lo == B.Lo && A.Hi == B.Hi;
  }
  friend bool operator!=(const Interval &A, const Interval &B) {
    return !(A == B);
  }

  /// Convex hull (the lattice join).
  static Interval join(const Interval &A, const Interval &B);
  /// Intersection; nullopt when empty (infeasible).
  static std::optional<Interval> meet(const Interval &A, const Interval &B);

  // Transfer functions. Every one saturates to full() when the exact
  // result could overflow int64 (wrapping would make the bounds lies).
  static Interval add(const Interval &A, const Interval &B);
  static Interval sub(const Interval &A, const Interval &B);
  static Interval neg(const Interval &A);
  static Interval mul(const Interval &A, const Interval &B);
  /// C++ truncating division. Returns full() when \p B contains 0 (the
  /// trap analysis handles that case separately) or the INT64_MIN / -1
  /// corner is reachable.
  static Interval div(const Interval &A, const Interval &B);
  /// C++ remainder; full() when \p B contains 0.
  static Interval rem(const Interval &A, const Interval &B);
  static Interval absI(const Interval &A);
  static Interval minI(const Interval &A, const Interval &B);
  static Interval maxI(const Interval &A, const Interval &B);

  std::string str() const;
};

/// Three-valued boolean.
enum class Tri { False, True, Unknown };

inline Tri triNot(Tri T) {
  return T == Tri::Unknown ? Tri::Unknown
                           : (T == Tri::True ? Tri::False : Tri::True);
}

/// An abstract value: what the framework knows about one expression or
/// one element slot.
struct AbsVal {
  enum class Kind { Top, Int, Bool, Dbl };

  Kind K = Kind::Top;
  /// Int payload.
  Interval I = Interval::full();
  /// Int payload: proven nonzero even when I still spans 0 (e.g. learned
  /// from an `x != 0` refinement).
  bool NonZero = false;
  /// Bool payload.
  Tri B = Tri::Unknown;
  /// Dbl payload: constant value when HasD.
  bool HasD = false;
  double D = 0.0;

  static AbsVal top() { return AbsVal(); }
  /// Typed top for a lambda parameter / element slot.
  static AbsVal topFor(const expr::TypeRef &Ty);
  static AbsVal fromInterval(Interval IV, bool NonZeroFlag = false) {
    AbsVal V;
    V.K = Kind::Int;
    V.I = IV;
    V.NonZero = NonZeroFlag || IV.excludesZero();
    return V;
  }
  static AbsVal fromInt(std::int64_t C) {
    return fromInterval(Interval::constant(C));
  }
  static AbsVal fromTri(Tri T) {
    AbsVal V;
    V.K = Kind::Bool;
    V.B = T;
    return V;
  }
  static AbsVal fromBool(bool B) {
    return fromTri(B ? Tri::True : Tri::False);
  }
  static AbsVal fromDouble(double C) {
    AbsVal V;
    V.K = Kind::Dbl;
    V.HasD = true;
    V.D = C;
    return V;
  }
  static AbsVal unknownDouble() {
    AbsVal V;
    V.K = Kind::Dbl;
    return V;
  }

  bool isInt() const { return K == Kind::Int; }
  bool knownNonZero() const {
    return K == Kind::Int && (NonZero || I.excludesZero());
  }
  std::optional<std::int64_t> constInt() const {
    if (K == Kind::Int && I.isConst())
      return I.Lo;
    return std::nullopt;
  }

  static AbsVal join(const AbsVal &A, const AbsVal &B);

  std::string str() const;
};

/// Abstract environment: lambda-parameter name -> abstract value.
using Env = std::map<std::string, AbsVal>;

/// Abstractly evaluates \p E under \p E nv. Total: unknown constructs
/// evaluate to (typed) top.
AbsVal absEval(const expr::ExprRef &E, const Env &Environment);

/// Refines \p Environment by assuming boolean expression \p Cond
/// evaluates to \p Assume. Narrows interval bindings of parameters that
/// appear as a bare comparison operand, pushes through Not / short-circuit
/// And / Or, and learns nonzero-ness from `!= 0` tests. Returns false when
/// the assumption is infeasible under the environment (the refined
/// program point is unreachable).
bool refine(Env &Environment, const expr::ExprRef &Cond, bool Assume);

/// One int64 division/modulo site found while scanning a chain.
struct DivSite {
  DiagLoc Loc;               ///< Operator + role + operand path.
  Interval Divisor;          ///< Abstract divisor.
  bool DivisorNonZero = false; ///< Includes the NonZero refinement flag.
  Interval Dividend;         ///< Abstract dividend.
  /// Proven unable to trap: divisor excludes 0 AND the INT64_MIN / -1
  /// overflow corner is excluded.
  bool Safe = false;
};

/// True when a division with abstract \p Dividend / \p Divisor can be
/// proven not to trap (see DivSite::Safe).
bool divisionIsSafe(const AbsVal &Dividend, const AbsVal &Divisor);

/// Per-operator facts from the forward pass.
struct OpFacts {
  Interval CardIn = Interval::card(); ///< Elements the op can observe.
  Interval CardOut = Interval::card();
  AbsVal ElemIn;  ///< Abstract incoming element.
  AbsVal ElemOut; ///< Abstract outgoing element.
  /// For Pred ops with a predicate lambda: the predicate's truth over all
  /// reachable incoming elements.
  Tri Pred = Tri::Unknown;
  /// For Take/Skip: the count, when its interval is a single constant.
  std::optional<std::int64_t> Count;
  /// Every int64 division site in this operator (role expressions and
  /// any nested chain) is proven unable to trap. Gates rewrites that
  /// skip or reorder the operator's evaluation.
  bool TrapFree = true;
};

struct ChainFacts;
using ChainFactsRef = std::shared_ptr<const ChainFacts>;

/// Whole-chain facts: one OpFacts per operator, the division-site
/// inventory (including nested chains, with full DiagLoc paths), and the
/// facts of each nested chain keyed by the carrying operator's index.
struct ChainFacts {
  std::vector<OpFacts> Ops;
  std::vector<DivSite> Divs;
  std::map<unsigned, ChainFactsRef> Nested;
  Interval CardOut = Interval::card(); ///< Result cardinality ([1,1] scalar).
  AbsVal ElemOut;                      ///< Abstract result element.
};

/// Runs the forward pass over \p C. \p Outer binds free parameters of a
/// nested chain (the outer element); \p Prefix is the DiagLoc nesting
/// prefix for division sites.
ChainFacts analyzeChainFacts(const quil::Chain &C, const Env &Outer = Env(),
                             const std::vector<unsigned> &Prefix = {});

/// The abstract environment under which \p Role 's expression of \p O is
/// evaluated: \p Outer plus the role's parameter bindings (element
/// parameters bind to \p ElemIn; accumulator and combiner parameters
/// bind to typed top).
Env roleEnv(const quil::Op &O, ExprRole Role, const AbsVal &ElemIn,
            const Env &Outer);

/// Rebuilds \p E with every int64 Div/Mod node whose operands prove safe
/// under \p Environment marked divSafe() (codegen then emits plain `/`
/// `%` instead of the ckdiv/ckmod trap). Appends one human-readable fact
/// string per newly marked site to \p Facts when non-null. Returns \p E
/// unchanged when nothing was proven.
expr::ExprRef markSafeDivisions(const expr::ExprRef &E,
                                const Env &Environment,
                                std::vector<std::string> *Facts);

} // namespace absint
} // namespace analysis
} // namespace steno

#endif // STENO_ANALYSIS_ABSINT_H
