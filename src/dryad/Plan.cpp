//===- dryad/Plan.cpp -----------------------------------------*- C++ -*-===//

#include "dryad/Plan.h"
#include "expr/Type.h"
#include "support/Error.h"

#include <cassert>

using namespace steno;
using namespace steno::dryad;
using expr::Type;
using quil::Chain;
using quil::Op;
using quil::PredOp;
using quil::SinkOp;
using quil::Sym;

namespace {

/// Homomorphic operators apply to each element independently, so they may
/// run per-partition unchanged (paper §6: "Trans, Pred and nested queries
/// are homomorphic"). Stateful predicates (Take/Skip/TakeWhile/SkipWhile)
/// depend on global element order, so they are not.
bool isHomomorphic(const Op &O) {
  switch (O.S) {
  case Sym::Trans:
  case Sym::Nested:
    return true;
  case Sym::Pred:
    return O.P == PredOp::Where;
  default:
    return false;
  }
}

std::optional<ParallelPlan> fail(std::string *WhyNot, const char *Reason) {
  if (WhyNot)
    *WhyNot = Reason;
  return std::nullopt;
}

} // namespace

std::optional<ParallelPlan> dryad::planParallel(const Chain &C,
                                                std::string *WhyNot) {
  assert(!C.Ops.empty() && C.Ops.front().S == Sym::Src &&
         "planning an unvalidated chain");

  // Collect Src plus the maximal homomorphic prefix.
  Chain Vertex;
  size_t I = 0;
  Vertex.Ops.push_back(C.Ops[I++]);
  while (I < C.Ops.size() && isHomomorphic(C.Ops[I]))
    Vertex.Ops.push_back(C.Ops[I++]);

  const Op &Next = C.Ops[I];

  if (Next.S == Sym::Ret) {
    // Fully homomorphic: each partition yields its elements; Agg* is a
    // concatenation respecting partition order.
    Vertex.Ops.push_back(Next);
    Vertex.Result = C.Result;
    Vertex.Scalar = false;
    ParallelPlan Plan;
    Plan.VertexChain = std::move(Vertex);
    Plan.Kind = CombineKind::Concat;
    Plan.ResultType = C.Result;
    Plan.ScalarResult = false;
    return Plan;
  }

  if (Next.S == Sym::Agg) {
    if (I + 2 != C.Ops.size())
      return fail(WhyNot, "operators between Agg and Ret");
    if (!Next.Combine.valid())
      return fail(WhyNot,
                  "aggregate has no associative combiner (Agg* needs one)");
    // Partial Agg_i: same seed and step, but emit the raw accumulator —
    // the result selector moves to the combining stage.
    Op Partial = Next;
    Partial.Fn3 = expr::Lambda();
    Partial.OutElem = Next.Seed->type();
    Vertex.Ops.push_back(Partial);
    Op Ret;
    Ret.S = Sym::Ret;
    Ret.InElem = Partial.OutElem;
    Ret.OutElem = Partial.OutElem;
    Vertex.Ops.push_back(Ret);
    Vertex.Result = Partial.OutElem;
    Vertex.Scalar = true;

    ParallelPlan Plan;
    Plan.VertexChain = std::move(Vertex);
    Plan.Kind = CombineKind::Fold;
    Plan.Combiner = Next.Combine;
    Plan.FinalResult = Next.Fn3;
    Plan.ResultType = C.Result;
    Plan.ScalarResult = true;
    return Plan;
  }

  if (Next.S == Sym::Sink && Next.K == SinkOp::GroupByAggregate) {
    if (I + 2 != C.Ops.size())
      return fail(WhyNot,
                  "operators between GroupByAggregate and Ret");
    if (!Next.Combine.valid())
      return fail(WhyNot, "GroupByAggregate has no associative combiner");
    // Partial sink: per-partition (key, partial acc) pairs; the result
    // selector moves to the merge stage.
    Op Partial = Next;
    Partial.Fn3 = expr::Lambda();
    Partial.OutElem = Type::pairTy(Type::int64Ty(), Next.Seed->type());
    Vertex.Ops.push_back(Partial);
    Op Ret;
    Ret.S = Sym::Ret;
    Ret.InElem = Partial.OutElem;
    Ret.OutElem = Partial.OutElem;
    Vertex.Ops.push_back(Ret);
    Vertex.Result = Partial.OutElem;
    Vertex.Scalar = false;

    ParallelPlan Plan;
    Plan.VertexChain = std::move(Vertex);
    Plan.Kind = CombineKind::MergeByKey;
    Plan.Combiner = Next.Combine;
    Plan.FinalResult = Next.Fn3;
    Plan.ResultType = C.Result;
    Plan.ScalarResult = false;
    return Plan;
  }

  if (Next.S == Sym::Sink && Next.K == SinkOp::ToArray &&
      I + 2 == C.Ops.size()) {
    // Materialization commutes with concatenation.
    Vertex.Ops.push_back(Next);
    Vertex.Ops.push_back(C.Ops[I + 1]);
    Vertex.Result = C.Result;
    Vertex.Scalar = false;
    ParallelPlan Plan;
    Plan.VertexChain = std::move(Vertex);
    Plan.Kind = CombineKind::Concat;
    Plan.ResultType = C.Result;
    Plan.ScalarResult = false;
    return Plan;
  }

  if (Next.S == Sym::Sink && Next.K == SinkOp::OrderBy &&
      I + 2 == C.Ops.size()) {
    // §6: "it transforms a OrderBy Sink operator into a distributed
    // sort". Each partition sorts its rows in parallel; the Agg* stage
    // k-way-merges the sorted runs.
    Vertex.Ops.push_back(Next);
    Vertex.Ops.push_back(C.Ops[I + 1]);
    Vertex.Result = C.Result;
    Vertex.Scalar = false;
    ParallelPlan Plan;
    Plan.VertexChain = std::move(Vertex);
    Plan.Kind = CombineKind::MergeSorted;
    Plan.SortKey = Next.Fn;
    Plan.ResultType = C.Result;
    Plan.ScalarResult = false;
    return Plan;
  }

  if (Next.S == Sym::Pred)
    return fail(WhyNot, "stateful predicate (Take/Skip/...) is "
                        "order-dependent and not homomorphic");
  return fail(WhyNot, "sink requires repartitioning, which this planner "
                      "does not implement");
}

SplitDecision dryad::decideSplit(const Chain &Specialized, bool StrictFp) {
  SplitDecision D;
  D.Analysis = analysis::analyzeChain(Specialized);
  const analysis::SafetyCertificate &Cert = D.Analysis.Cert;
  if (!Cert.shardSafe(StrictFp))
    D.WhyNot = "analyzer refused certification (" + Cert.str() + ")";
  else
    D.Plan = planParallel(Specialized, &D.WhyNot);
  return D;
}
