//===- query/Query.cpp ----------------------------------------*- C++ -*-===//

#include "query/Query.h"
#include "support/Error.h"

#include <algorithm>
#include <cassert>

using namespace steno;
using namespace steno::query;
using expr::Lambda;
using expr::Type;
using expr::TypeRef;

TypeRef SourceDesc::elemType() const {
  switch (Kind) {
  case SourceKind::DoubleArray:
  case SourceKind::VecExpr:
    return Type::doubleTy();
  case SourceKind::Int64Array:
  case SourceKind::Range:
    return Type::int64Ty();
  case SourceKind::PointArray:
    return Type::vecTy();
  }
  stenoUnreachable("bad SourceKind");
}

bool QueryNode::isAggregate() const {
  switch (Kind) {
  case OpKind::Aggregate:
  case OpKind::Sum:
  case OpKind::Min:
  case OpKind::Max:
  case OpKind::Count:
  case OpKind::Average:
  case OpKind::Any:
  case OpKind::All:
  case OpKind::FirstOrDefault:
  case OpKind::Contains:
    return true;
  default:
    return false;
  }
}

const TypeRef &Query::resultType() const {
  assert(Last && "resultType() of invalid query");
  return Last->resultType();
}

bool Query::scalarResult() const {
  assert(Last && "scalarResult() of invalid query");
  return Last->isAggregate();
}

const TypeRef &Query::elemType() const {
  assert(Last && "operator applied to invalid query");
  assert(!Last->isAggregate() &&
         "cannot extend a query past its aggregate");
  return Last->resultType();
}

std::vector<QueryNodeRef> Query::chain() const {
  std::vector<QueryNodeRef> Out;
  for (QueryNodeRef N = Last; N; N = N->upstream())
    Out.push_back(N);
  std::reverse(Out.begin(), Out.end());
  return Out;
}

namespace steno {
namespace query {

/// Out-of-line factory with friend access to QueryNode's private fields.
class QueryNodeFactory {
public:
  struct Fields {
    SourceDesc Src;
    Lambda Fn;
    Lambda Fn2;
    Lambda Fn3;
    Lambda Fn4;
    expr::ExprRef Arg;
    expr::ExprRef Arg2;
    QueryNodeRef Nested;
    std::string OuterParam;
    TypeRef OuterParamTy;
  };

  static QueryNodeRef make(OpKind Kind, QueryNodeRef Upstream, Fields F,
                           TypeRef Result) {
    auto *N = new QueryNode();
    N->Kind = Kind;
    N->Upstream = std::move(Upstream);
    N->Src = std::move(F.Src);
    N->Fn = std::move(F.Fn);
    N->Fn2 = std::move(F.Fn2);
    N->Fn3 = std::move(F.Fn3);
    N->Fn4 = std::move(F.Fn4);
    N->Arg = std::move(F.Arg);
    N->Arg2 = std::move(F.Arg2);
    N->Nested = std::move(F.Nested);
    N->OuterParam = std::move(F.OuterParam);
    N->OuterParamTy = std::move(F.OuterParamTy);
    N->Result = std::move(Result);
    return QueryNodeRef(N);
  }
};

} // namespace query
} // namespace steno

using Fields = QueryNodeFactory::Fields;

static QueryNodeRef makeNode(OpKind Kind, QueryNodeRef Upstream, Fields F,
                             TypeRef Result) {
  return QueryNodeFactory::make(Kind, std::move(Upstream), std::move(F),
                                std::move(Result));
}

//===----------------------------------------------------------------===//
// Sources
//===----------------------------------------------------------------===//

static Query makeSourceQuery(SourceDesc Src) {
  TypeRef Elem = Src.elemType();
  Fields F;
  F.Src = std::move(Src);
  return Query(
      makeNode(OpKind::Source, nullptr, std::move(F), std::move(Elem)));
}

Query Query::doubleArray(unsigned Slot) {
  SourceDesc S;
  S.Kind = SourceKind::DoubleArray;
  S.Slot = Slot;
  return makeSourceQuery(std::move(S));
}

Query Query::int64Array(unsigned Slot) {
  SourceDesc S;
  S.Kind = SourceKind::Int64Array;
  S.Slot = Slot;
  return makeSourceQuery(std::move(S));
}

Query Query::pointArray(unsigned Slot) {
  SourceDesc S;
  S.Kind = SourceKind::PointArray;
  S.Slot = Slot;
  return makeSourceQuery(std::move(S));
}

Query Query::range(expr::dsl::E Start, expr::dsl::E Count) {
  assert(Start.type()->isInt64() && Count.type()->isInt64() &&
         "range bounds must be int64");
  SourceDesc S;
  S.Kind = SourceKind::Range;
  S.Start = Start.node();
  S.CountE = Count.node();
  return makeSourceQuery(std::move(S));
}

Query Query::overVec(expr::dsl::E Vec) {
  assert(Vec.type()->isVec() && "overVec needs a vec expression");
  SourceDesc S;
  S.Kind = SourceKind::VecExpr;
  S.Vec = Vec.node();
  return makeSourceQuery(std::move(S));
}

//===----------------------------------------------------------------===//
// Composable operators
//===----------------------------------------------------------------===//

Query Query::select(Lambda Fn) const {
  assert(Fn.arity() == 1 && "select lambda takes one parameter");
  assert(expr::sameType(Fn.param(0).Ty, elemType()) &&
         "select lambda parameter type mismatch");
  TypeRef Out = Fn.resultType();
  Fields F;
  F.Fn = std::move(Fn);
  return Query(makeNode(OpKind::Select, Last, std::move(F), std::move(Out)));
}

Query Query::selectNested(const expr::dsl::E &Outer,
                          const Query &Nested) const {
  assert(Outer.node()->kind() == expr::ExprKind::Param &&
         "outer binder must be a param() handle");
  assert(expr::sameType(Outer.type(), elemType()) &&
         "outer binder type must match element type");
  assert(Nested.valid() && Nested.scalarResult() &&
         "selectNested needs a scalar nested query");
  TypeRef Out = Nested.resultType();
  Fields F;
  F.Nested = Nested.node();
  F.OuterParam = Outer.node()->paramName();
  F.OuterParamTy = Outer.type();
  return Query(
      makeNode(OpKind::SelectNested, Last, std::move(F), std::move(Out)));
}

Query Query::where(Lambda Pred) const {
  assert(Pred.arity() == 1 && "where lambda takes one parameter");
  assert(expr::sameType(Pred.param(0).Ty, elemType()) &&
         "where lambda parameter type mismatch");
  assert(Pred.resultType()->isBool() && "where lambda must return bool");
  TypeRef Out = elemType();
  Fields F;
  F.Fn = std::move(Pred);
  return Query(makeNode(OpKind::Where, Last, std::move(F), std::move(Out)));
}

Query Query::whereNested(const expr::dsl::E &Outer,
                         const Query &Nested) const {
  assert(Outer.node()->kind() == expr::ExprKind::Param &&
         "outer binder must be a param() handle");
  assert(expr::sameType(Outer.type(), elemType()) &&
         "outer binder type must match element type");
  assert(Nested.valid() && Nested.scalarResult() &&
         Nested.resultType()->isBool() &&
         "whereNested needs a scalar bool nested query");
  TypeRef Out = elemType();
  Fields F;
  F.Nested = Nested.node();
  F.OuterParam = Outer.node()->paramName();
  F.OuterParamTy = Outer.type();
  return Query(
      makeNode(OpKind::WhereNested, Last, std::move(F), std::move(Out)));
}

Query Query::take(expr::dsl::E Count) const {
  assert(Count.type()->isInt64() && "take count must be int64");
  TypeRef Out = elemType();
  Fields F;
  F.Arg = Count.node();
  return Query(makeNode(OpKind::Take, Last, std::move(F), std::move(Out)));
}

Query Query::skip(expr::dsl::E Count) const {
  assert(Count.type()->isInt64() && "skip count must be int64");
  TypeRef Out = elemType();
  Fields F;
  F.Arg = Count.node();
  return Query(makeNode(OpKind::Skip, Last, std::move(F), std::move(Out)));
}

Query Query::takeWhile(Lambda Pred) const {
  assert(Pred.arity() == 1 && Pred.resultType()->isBool() &&
         expr::sameType(Pred.param(0).Ty, elemType()) &&
         "takeWhile needs a unary bool lambda over the element type");
  TypeRef Out = elemType();
  Fields F;
  F.Fn = std::move(Pred);
  return Query(
      makeNode(OpKind::TakeWhile, Last, std::move(F), std::move(Out)));
}

Query Query::skipWhile(Lambda Pred) const {
  assert(Pred.arity() == 1 && Pred.resultType()->isBool() &&
         expr::sameType(Pred.param(0).Ty, elemType()) &&
         "skipWhile needs a unary bool lambda over the element type");
  TypeRef Out = elemType();
  Fields F;
  F.Fn = std::move(Pred);
  return Query(
      makeNode(OpKind::SkipWhile, Last, std::move(F), std::move(Out)));
}

Query Query::selectMany(const expr::dsl::E &Outer,
                        const Query &Nested) const {
  assert(Outer.node()->kind() == expr::ExprKind::Param &&
         "outer binder must be a param() handle");
  assert(expr::sameType(Outer.type(), elemType()) &&
         "outer binder type must match element type");
  assert(Nested.valid() && !Nested.scalarResult() &&
         "selectMany needs a collection nested query");
  TypeRef Out = Nested.resultType();
  Fields F;
  F.Nested = Nested.node();
  F.OuterParam = Outer.node()->paramName();
  F.OuterParamTy = Outer.type();
  return Query(
      makeNode(OpKind::SelectMany, Last, std::move(F), std::move(Out)));
}

//===----------------------------------------------------------------===//
// Sinks
//===----------------------------------------------------------------===//

Query Query::groupBy(Lambda KeySel) const {
  assert(elemType()->isDouble() &&
         "groupBy (bag form) supports double elements");
  assert(KeySel.arity() == 1 && KeySel.resultType()->isInt64() &&
         expr::sameType(KeySel.param(0).Ty, elemType()) &&
         "groupBy key selector must map the element to int64");
  TypeRef Out = Type::pairTy(Type::int64Ty(), Type::vecTy());
  Fields F;
  F.Fn = std::move(KeySel);
  return Query(makeNode(OpKind::GroupBy, Last, std::move(F), std::move(Out)));
}

Query Query::groupByAggregate(Lambda KeySel, expr::dsl::E Seed, Lambda Step,
                              Lambda Result, Lambda Combine) const {
  TypeRef Elem = elemType();
  assert(KeySel.arity() == 1 && KeySel.resultType()->isInt64() &&
         expr::sameType(KeySel.param(0).Ty, Elem) &&
         "groupByAggregate key selector must map the element to int64");
  TypeRef Acc = Seed.type();
  assert(Step.arity() == 2 && expr::sameType(Step.param(0).Ty, Acc) &&
         expr::sameType(Step.param(1).Ty, Elem) &&
         expr::sameType(Step.resultType(), Acc) &&
         "groupByAggregate step must be (acc, elem) -> acc");
  TypeRef Out;
  if (Result.valid()) {
    assert(Result.arity() == 2 && Result.param(0).Ty->isInt64() &&
           expr::sameType(Result.param(1).Ty, Acc) &&
           "groupByAggregate result must be (key, acc) -> R");
    Out = Result.resultType();
  } else {
    Out = Type::pairTy(Type::int64Ty(), Acc);
  }
  if (Combine.valid())
    assert(Combine.arity() == 2 &&
           expr::sameType(Combine.param(0).Ty, Acc) &&
           expr::sameType(Combine.param(1).Ty, Acc) &&
           expr::sameType(Combine.resultType(), Acc) &&
           "combiner must be (acc, acc) -> acc");
  Fields F;
  F.Fn = std::move(KeySel);
  F.Fn2 = std::move(Step);
  F.Fn3 = std::move(Result);
  F.Fn4 = std::move(Combine);
  F.Arg = Seed.node();
  return Query(
      makeNode(OpKind::GroupByAggregate, Last, std::move(F), std::move(Out)));
}

Query Query::groupByAggregateDense(Lambda KeySel, expr::dsl::E NumKeys,
                                   expr::dsl::E Seed, Lambda Step,
                                   Lambda Result, Lambda Combine) const {
  assert(NumKeys.type()->isInt64() && "dense key bound must be int64");
  Query Hash = groupByAggregate(std::move(KeySel), std::move(Seed),
                                std::move(Step), std::move(Result),
                                std::move(Combine));
  // Rebuild the node with the dense-key bound attached.
  const QueryNode &N = *Hash.node();
  Fields F;
  F.Fn = N.fn();
  F.Fn2 = N.fn2();
  F.Fn3 = N.fn3();
  F.Fn4 = N.combiner();
  F.Arg = N.arg();
  F.Arg2 = NumKeys.node();
  return Query(makeNode(OpKind::GroupByAggregate, Last, std::move(F),
                        N.resultType()));
}

Query Query::orderBy(Lambda KeySel) const {
  assert(KeySel.arity() == 1 && KeySel.resultType()->isNumeric() &&
         expr::sameType(KeySel.param(0).Ty, elemType()) &&
         "orderBy key selector must map the element to a number");
  TypeRef Out = elemType();
  Fields F;
  F.Fn = std::move(KeySel);
  return Query(makeNode(OpKind::OrderBy, Last, std::move(F), std::move(Out)));
}

Query Query::toArray() const {
  TypeRef Out = elemType();
  return Query(makeNode(OpKind::ToArray, Last, Fields(), std::move(Out)));
}

//===----------------------------------------------------------------===//
// Aggregates
//===----------------------------------------------------------------===//

Query Query::aggregate(expr::dsl::E Seed, Lambda Step, Lambda Result,
                       Lambda Combine) const {
  TypeRef Elem = elemType();
  TypeRef Acc = Seed.type();
  assert(Step.arity() == 2 && expr::sameType(Step.param(0).Ty, Acc) &&
         expr::sameType(Step.param(1).Ty, Elem) &&
         expr::sameType(Step.resultType(), Acc) &&
         "aggregate step must be (acc, elem) -> acc");
  TypeRef Out = Acc;
  if (Result.valid()) {
    assert(Result.arity() == 1 && expr::sameType(Result.param(0).Ty, Acc) &&
           "aggregate result selector must take the accumulator");
    Out = Result.resultType();
  }
  if (Combine.valid())
    assert(Combine.arity() == 2 &&
           expr::sameType(Combine.param(0).Ty, Acc) &&
           expr::sameType(Combine.param(1).Ty, Acc) &&
           expr::sameType(Combine.resultType(), Acc) &&
           "combiner must be (acc, acc) -> acc");
  Fields F;
  F.Fn = std::move(Step);
  F.Fn2 = std::move(Result);
  F.Fn4 = std::move(Combine);
  F.Arg = Seed.node();
  return Query(
      makeNode(OpKind::Aggregate, Last, std::move(F), std::move(Out)));
}

Query Query::sum() const {
  assert(elemType()->isNumeric() && "sum() needs numeric elements");
  TypeRef Out = elemType();
  return Query(makeNode(OpKind::Sum, Last, Fields(), std::move(Out)));
}

Query Query::min() const {
  assert(elemType()->isNumeric() && "min() needs numeric elements");
  TypeRef Out = elemType();
  return Query(makeNode(OpKind::Min, Last, Fields(), std::move(Out)));
}

Query Query::max() const {
  assert(elemType()->isNumeric() && "max() needs numeric elements");
  TypeRef Out = elemType();
  return Query(makeNode(OpKind::Max, Last, Fields(), std::move(Out)));
}

Query Query::count() const {
  TypeRef Out = Type::int64Ty();
  (void)elemType();
  return Query(makeNode(OpKind::Count, Last, Fields(), std::move(Out)));
}

Query Query::average() const {
  assert(elemType()->isNumeric() && "average() needs numeric elements");
  TypeRef Out = Type::doubleTy();
  return Query(makeNode(OpKind::Average, Last, Fields(), std::move(Out)));
}

Query Query::any() const {
  (void)elemType();
  return Query(makeNode(OpKind::Any, Last, Fields(), Type::boolTy()));
}

Query Query::all(Lambda Pred) const {
  assert(Pred.arity() == 1 && Pred.resultType()->isBool() &&
         expr::sameType(Pred.param(0).Ty, elemType()) &&
         "all() needs a unary bool lambda over the element type");
  Fields F;
  F.Fn = std::move(Pred);
  return Query(makeNode(OpKind::All, Last, std::move(F), Type::boolTy()));
}

Query Query::firstOrDefault(expr::dsl::E Default) const {
  assert(expr::sameType(Default.type(), elemType()) &&
         "firstOrDefault default must match the element type");
  TypeRef Out = elemType();
  Fields F;
  F.Arg = Default.node();
  return Query(
      makeNode(OpKind::FirstOrDefault, Last, std::move(F), std::move(Out)));
}

Query Query::contains(expr::dsl::E Value) const {
  assert(elemType()->isScalar() && "contains() needs scalar elements");
  assert(expr::sameType(Value.type(), elemType()) &&
         "contains() value must match the element type");
  Fields F;
  F.Arg = Value.node();
  return Query(
      makeNode(OpKind::Contains, Last, std::move(F), Type::boolTy()));
}

//===----------------------------------------------------------------===//
// Debug rendering
//===----------------------------------------------------------------===//

static const char *opName(OpKind K) {
  switch (K) {
  case OpKind::Source:
    return "source";
  case OpKind::Select:
    return "select";
  case OpKind::SelectNested:
    return "selectNested";
  case OpKind::Where:
    return "where";
  case OpKind::WhereNested:
    return "whereNested";
  case OpKind::Take:
    return "take";
  case OpKind::Skip:
    return "skip";
  case OpKind::TakeWhile:
    return "takeWhile";
  case OpKind::SkipWhile:
    return "skipWhile";
  case OpKind::SelectMany:
    return "selectMany";
  case OpKind::GroupBy:
    return "groupBy";
  case OpKind::GroupByAggregate:
    return "groupByAggregate";
  case OpKind::OrderBy:
    return "orderBy";
  case OpKind::ToArray:
    return "toArray";
  case OpKind::Aggregate:
    return "aggregate";
  case OpKind::Sum:
    return "sum";
  case OpKind::Min:
    return "min";
  case OpKind::Max:
    return "max";
  case OpKind::Count:
    return "count";
  case OpKind::Average:
    return "average";
  case OpKind::Any:
    return "any";
  case OpKind::All:
    return "all";
  case OpKind::FirstOrDefault:
    return "firstOrDefault";
  case OpKind::Contains:
    return "contains";
  }
  stenoUnreachable("bad OpKind");
}

std::string Query::str() const {
  if (!Last)
    return "<invalid>";
  std::string Out;
  for (const QueryNodeRef &N : chain()) {
    if (!Out.empty())
      Out += ".";
    Out += opName(N->kind());
    if (N->kind() == OpKind::Source)
      Out += "(" + std::to_string(N->source().Slot) + ")";
    else if (N->fn().valid())
      Out += "(" + N->fn().str() + ")";
    else if (N->nested())
      Out += "(<nested " + N->outerParam() + ">)";
    else
      Out += "()";
  }
  return Out;
}
