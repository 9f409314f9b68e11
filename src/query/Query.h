//===- query/Query.h - Declarative query AST and builder -------*- C++ -*-===//
//
// Part of the Steno/C++ reproduction of Murray, Isard & Yu,
// "Steno: Automatic Optimization of Declarative Queries" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The query AST: a chain of LINQ-level operator nodes, built by a fluent
/// Query DSL. This is the artifact the paper's "query extraction" step
/// (§3.1) produces from the LINQ provider; in C++ the user builds it
/// directly (lambdas are opaque at run time, so they are written in the
/// expr DSL).
///
/// Queries reference two kinds of run-time slots, bound at invocation:
///   * source slots — flat data buffers (double / int64 / strided points);
///   * value capture slots — scalar or vec-view values used inside lambdas
///     (the "placeholder instance variables" of paper §3.3).
///
/// Nested queries (paper §5) appear as the body of Select / Where /
/// SelectMany: the inner query's lambdas may reference the outer lambda's
/// parameter by name; the optimizer rewrites those references (§5.2).
///
//===----------------------------------------------------------------------===//

#ifndef STENO_QUERY_QUERY_H
#define STENO_QUERY_QUERY_H

#include "expr/Dsl.h"
#include "expr/Expr.h"
#include "expr/Lambda.h"

#include <memory>
#include <string>

namespace steno {
namespace query {

/// LINQ-level operator kinds. Table 1 of the paper maps these onto QUIL
/// symbols; see quil/Lower.cpp for the mapping in this codebase.
enum class OpKind {
  Source,           ///< Leaf: enumerable source collection.
  Select,           ///< Trans: element-wise transformation lambda.
  SelectNested,     ///< Trans via nested scalar query (paper §5).
  Where,            ///< Pred: filter lambda.
  WhereNested,      ///< Pred via nested scalar (bool) query.
  Take,             ///< Pred with counter state.
  Skip,             ///< Pred with counter state.
  TakeWhile,        ///< Pred with flag state.
  SkipWhile,        ///< Pred with flag state.
  SelectMany,       ///< Nested: flattening over a nested collection query.
  GroupBy,          ///< Sink: double elements -> (key, bag) groups.
  GroupByAggregate, ///< Sink: the fused form of §4.3.
  OrderBy,          ///< Sink: stable sort by key.
  ToArray,          ///< Sink: materialize (enables the Figure 8 footnote-3
                    ///< optimization).
  Aggregate,        ///< Agg: explicit left fold.
  Sum,              ///< Agg sugar.
  Min,              ///< Agg sugar.
  Max,              ///< Agg sugar.
  Count,            ///< Agg sugar.
  Average,          ///< Agg sugar.
  Any,              ///< Agg sugar with early exit.
  All,              ///< Agg sugar with early exit.
  FirstOrDefault,   ///< Agg sugar with early exit.
  Contains          ///< Agg sugar with early exit.
};

/// How a Source operator obtains elements.
enum class SourceKind {
  DoubleArray, ///< Bound buffer of doubles; element type Double.
  Int64Array,  ///< Bound buffer of int64; element type Int64.
  PointArray,  ///< Bound strided buffer: Count points x Dim doubles; element
               ///< type Vec.
  Range,       ///< Generated int64 range (LINQ Enumerable.Range).
  VecExpr      ///< Elements of a Vec-typed expression (used by nested
               ///< queries that iterate a point or a group's bag).
};

/// Payload of a Source operator. Start/CountE/Vec may reference outer-query
/// parameters and captures when the source begins a nested query.
struct SourceDesc {
  SourceKind Kind = SourceKind::DoubleArray;
  unsigned Slot = 0;       ///< Source-buffer slot for the *Array kinds.
  expr::ExprRef Start;     ///< Range start (int64 expr).
  expr::ExprRef CountE;    ///< Range count (int64 expr).
  expr::ExprRef Vec;       ///< VecExpr source (vec expr).

  /// Element type produced by this source.
  expr::TypeRef elemType() const;
};

class QueryNode;
using QueryNodeRef = std::shared_ptr<const QueryNode>;

/// One operator application. Immutable; chains share upstream tails.
class QueryNode {
public:
  OpKind kind() const { return Kind; }
  const QueryNodeRef &upstream() const { return Upstream; }
  const SourceDesc &source() const { return Src; }
  const expr::Lambda &fn() const { return Fn; }
  const expr::Lambda &fn2() const { return Fn2; }
  const expr::Lambda &fn3() const { return Fn3; }
  /// Optional associative combiner (acc, acc) -> acc for parallel partial
  /// aggregation (paper §6's Agg* / the distributed-aggregation interface
  /// of Yu et al.). Invalid when the aggregation is not known combinable.
  const expr::Lambda &combiner() const { return Fn4; }
  const expr::ExprRef &arg() const { return Arg; }
  /// Dense GroupByAggregate key-range bound; null for the hash sink.
  const expr::ExprRef &denseKeys() const { return Arg2; }
  const QueryNodeRef &nested() const { return Nested; }
  const std::string &outerParam() const { return OuterParam; }
  const expr::TypeRef &outerParamType() const { return OuterParamTy; }

  /// For collection-valued operators: the element type produced. For
  /// aggregate operators: the scalar result type.
  const expr::TypeRef &resultType() const { return Result; }

  /// True if this operator ends the query with a scalar (Agg class).
  bool isAggregate() const;

  friend class QueryNodeFactory;

private:
  QueryNode() = default;

  OpKind Kind = OpKind::Source;
  QueryNodeRef Upstream;
  SourceDesc Src;
  expr::Lambda Fn;
  expr::Lambda Fn2;
  expr::Lambda Fn3;
  expr::Lambda Fn4;
  expr::ExprRef Arg;
  expr::ExprRef Arg2;
  QueryNodeRef Nested;
  std::string OuterParam;
  expr::TypeRef OuterParamTy;
  expr::TypeRef Result;
};

/// Fluent builder over QueryNode chains. Cheap value type (shared
/// immutable nodes); every method returns an extended query.
///
/// Example — the paper's §5 Cartesian-product query:
/// \code
///   using namespace steno::expr::dsl;
///   auto X = param("x", Type::doubleTy());
///   auto Y = param("y", Type::doubleTy());
///   Query Q = Query::doubleArray(0).selectMany(
///       X, Query::doubleArray(1).select(lambda({Y}, X * Y))).sum();
/// \endcode
class Query {
public:
  Query() = default;

  /// Wraps an existing node chain. Intended for the optimizer pipeline;
  /// user code should build queries through the fluent methods.
  explicit Query(QueryNodeRef Last) : Last(std::move(Last)) {}

  //===--------------------------------------------------------------===//
  // Sources
  //===--------------------------------------------------------------===//

  /// Query over a bound double buffer (source slot \p Slot).
  static Query doubleArray(unsigned Slot);
  /// Query over a bound int64 buffer.
  static Query int64Array(unsigned Slot);
  /// Query over a bound strided point buffer; elements are Vec views.
  static Query pointArray(unsigned Slot);
  /// Enumerable.Range(start, count); operands are int64 expressions and may
  /// reference outer parameters/captures inside nested queries.
  static Query range(expr::dsl::E Start, expr::dsl::E Count);
  /// Query over the doubles of a Vec expression (nested-query source).
  static Query overVec(expr::dsl::E Vec);

  //===--------------------------------------------------------------===//
  // Composable operators
  //===--------------------------------------------------------------===//

  Query select(expr::Lambda Fn) const;
  /// Select whose body is a nested query with scalar result; \p Outer is
  /// the param() handle the nested query references.
  Query selectNested(const expr::dsl::E &Outer, const Query &Nested) const;
  Query where(expr::Lambda Pred) const;
  /// Where whose predicate is a nested query with bool scalar result.
  Query whereNested(const expr::dsl::E &Outer, const Query &Nested) const;
  Query take(expr::dsl::E Count) const;
  Query skip(expr::dsl::E Count) const;
  Query takeWhile(expr::Lambda Pred) const;
  Query skipWhile(expr::Lambda Pred) const;
  /// SelectMany: flattens the nested collection query \p Nested, which may
  /// reference \p Outer.
  Query selectMany(const expr::dsl::E &Outer, const Query &Nested) const;

  //===--------------------------------------------------------------===//
  // Sinks
  //===--------------------------------------------------------------===//

  /// GroupBy over double elements with an int64 key; produces
  /// Pair(key, Vec-of-members) elements (the HAVING pattern of §4.2).
  Query groupBy(expr::Lambda KeySel) const;
  /// The fused GroupByAggregate sink (§4.3): per-key accumulator updated
  /// element-wise. \p Step has params (acc, elem); \p Result has params
  /// (key, acc) and defaults to pair(key, acc).
  /// \p Combine, when given, must be an associative (acc, acc) -> acc
  /// merger; it enables per-partition partial aggregation (§6).
  Query groupByAggregate(expr::Lambda KeySel, expr::dsl::E Seed,
                         expr::Lambda Step,
                         expr::Lambda Result = expr::Lambda(),
                         expr::Lambda Combine = expr::Lambda()) const;
  /// Dense-key GroupByAggregate (the closing optimization of §4.3): the
  /// keys are known to lie in [0, NumKeys), so the sink is a flat array of
  /// accumulators instead of a hash table. Every key in range is reported
  /// (untouched keys carry the seed), in key order.
  Query groupByAggregateDense(expr::Lambda KeySel, expr::dsl::E NumKeys,
                              expr::dsl::E Seed, expr::Lambda Step,
                              expr::Lambda Result = expr::Lambda(),
                              expr::Lambda Combine = expr::Lambda()) const;
  Query orderBy(expr::Lambda KeySel) const;
  Query toArray() const;

  //===--------------------------------------------------------------===//
  // Aggregates (terminate the query with a scalar)
  //===--------------------------------------------------------------===//

  /// Aggregate(seed, step[, result[, combine]]): step params (acc, elem);
  /// optional result param (acc). Inside nested queries, \p Result may
  /// reference outer parameters. \p Combine, when given, must be an
  /// associative (acc, acc) -> acc merger enabling parallel partial
  /// aggregation (§6).
  Query aggregate(expr::dsl::E Seed, expr::Lambda Step,
                  expr::Lambda Result = expr::Lambda(),
                  expr::Lambda Combine = expr::Lambda()) const;
  Query sum() const;
  Query min() const;
  Query max() const;
  Query count() const;
  Query average() const;
  /// Any(): true iff the sequence is non-empty; Any(pred) via
  /// .where(pred).any(). Generates an early-exit loop (the first match
  /// breaks out).
  Query any() const;
  /// All(pred): true iff every element satisfies \p Pred; early-exits on
  /// the first counterexample.
  Query all(expr::Lambda Pred) const;
  /// FirstOrDefault(default): the first element, or \p Default when the
  /// sequence is empty; early-exits after one element.
  Query firstOrDefault(expr::dsl::E Default) const;
  /// Contains(value): membership test with early exit. Element type must
  /// be scalar.
  Query contains(expr::dsl::E Value) const;

  //===--------------------------------------------------------------===//
  // Introspection
  //===--------------------------------------------------------------===//

  bool valid() const { return Last != nullptr; }
  const QueryNodeRef &node() const { return Last; }
  /// Element type (collection queries) or scalar type (aggregate queries).
  const expr::TypeRef &resultType() const;
  /// True if the query ends with an aggregate.
  bool scalarResult() const;
  /// The operator chain source-first (paper §3.1's post-order traversal of
  /// the method-call AST).
  std::vector<QueryNodeRef> chain() const;
  /// Debug rendering, e.g. "doubleArray(0).where(...).select(...).sum()".
  std::string str() const;

private:
  /// Element type of the current (collection) query; asserts the query is
  /// not already scalar.
  const expr::TypeRef &elemType() const;

  QueryNodeRef Last;
};

} // namespace query
} // namespace steno

#endif // STENO_QUERY_QUERY_H
