//===- expr/Eval.h - Tree-walking expression evaluator ---------*- C++ -*-===//
///
/// \file
/// Reference semantics for the expression language. The evaluator is used
/// by the interpreter backend, by the un-optimized dynamic execution path,
/// and — most importantly — by the test suite as the oracle against which
/// generated (fused) code is checked. It evaluates every operator through
/// the expr/Ops.h dispatch, so it runs the steno::rt definitions that
/// generated code calls.
///
//===----------------------------------------------------------------------===//

#ifndef STENO_EXPR_EVAL_H
#define STENO_EXPR_EVAL_H

#include "expr/Expr.h"
#include "expr/Lambda.h"
#include "expr/Value.h"

#include <functional>
#include <string>
#include <vector>

namespace steno {
namespace expr {

/// Evaluation environment: parameter bindings (innermost-last, looked up by
/// name back to front so nested lambdas shadow outer ones) plus the
/// captured-variable slot array.
class Env {
public:
  Env() = default;

  /// Binds \p Name for the duration of the environment (push/pop with
  /// ScopedBinding for nesting).
  void bind(std::string Name, Value V) {
    Bindings.emplace_back(std::move(Name), std::move(V));
  }

  void pop() { Bindings.pop_back(); }

  /// Looks up a parameter; falls back to the resolver installed with
  /// setFallback; aborts if the name is bound nowhere.
  const Value &lookup(const std::string &Name) const;

  /// Installs a secondary resolver consulted when a name has no explicit
  /// binding. The generated-code interpreter uses this to expose its local
  /// variables to expression evaluation.
  void
  setFallback(std::function<const Value *(const std::string &)> Resolver) {
    Fallback = std::move(Resolver);
  }

  /// Installs the capture slot array (not owned).
  void setCaptures(const std::vector<Value> *Slots) { Captures = Slots; }

  /// Installs the source-buffer slot array (not owned).
  void setSources(const std::vector<SourceBuffer> *Slots) {
    Sources = Slots;
  }

  /// Value of capture slot \p I; asserts the slot exists.
  const Value &captureAt(unsigned I) const;

  /// Source buffer at slot \p I; asserts the slot exists.
  const SourceBuffer &sourceAt(unsigned I) const;

private:
  std::vector<std::pair<std::string, Value>> Bindings;
  std::function<const Value *(const std::string &)> Fallback;
  const std::vector<Value> *Captures = nullptr;
  const std::vector<SourceBuffer> *Sources = nullptr;
};

/// Evaluates \p E under \p Environment.
Value evalExpr(const Expr &E, const Env &Environment);

/// Applies \p L to \p Args (arity-checked), evaluating under \p Environment
/// extended with the parameter bindings.
Value applyLambda(const Lambda &L, const std::vector<Value> &Args,
                  Env &Environment);

/// The order key (rt::orderKey) of an int64 or double OrderBy key: every
/// executor that sorts or merges sorted runs compares these.
std::uint64_t orderKeyOf(const Value &Key);

} // namespace expr
} // namespace steno

#endif // STENO_EXPR_EVAL_H
