//===- dryad/Dist.cpp -----------------------------------------*- C++ -*-===//

#include "dryad/Dist.h"
#include "dryad/HomomorphicApply.h"
#include "dryad/Partition.h"
#include "expr/Eval.h"
#include "obs/Metrics.h"
#include "obs/Profile.h"
#include "obs/Trace.h"
#include "steno/RtSinks.h"
#include "support/Error.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

using namespace steno;
using namespace steno::dryad;
using expr::Value;

namespace {

/// Points \p Part's slot \p Slot at elements [Begin, Begin+Len) of the
/// original buffer \p Src (in place; every other slot untouched).
void rebindRange(Bindings &Part, const expr::SourceBuffer &Src,
                 unsigned Slot, std::size_t Begin, std::size_t Len) {
  // Branch on the declared type, never on pointer nullness: an empty
  // source is legally bound with a null data pointer (e.g.
  // bindDoubleArray(0, nullptr, 0)) and must keep its type when rebound.
  // Null buffers also forbid pointer arithmetic, hence the Data guards.
  switch (Src.Kind) {
  case expr::SourceBufKind::Double:
    Part.bindDoubleArray(Slot,
                         Src.DoubleData ? Src.DoubleData + Begin : nullptr,
                         static_cast<std::int64_t>(Len));
    return;
  case expr::SourceBufKind::Int64:
    Part.bindInt64Array(Slot,
                        Src.Int64Data ? Src.Int64Data + Begin : nullptr,
                        static_cast<std::int64_t>(Len));
    return;
  case expr::SourceBufKind::Point:
    Part.bindPointArray(
        Slot, Src.DoubleData ? Src.DoubleData + Begin * Src.Dim : nullptr,
        static_cast<std::int64_t>(Len), Src.Dim);
    return;
  case expr::SourceBufKind::Unbound:
    stenoUnreachable("partition slot bound without a source kind");
  }
  stenoUnreachable("bad SourceBufKind");
}

} // namespace

Bindings dryad::bindingRange(const Bindings &B, unsigned Slot,
                             std::size_t Begin, std::size_t Len) {
  assert(Slot < B.sources().size() && "partition slot is not bound");
  Bindings Part = B; // shares every other slot
  rebindRange(Part, B.sources()[Slot], Slot, Begin, Len);
  return Part;
}

std::vector<Bindings> dryad::partitionBindings(const Bindings &B,
                                               unsigned Parts,
                                               unsigned PartitionSlot) {
  assert(Parts > 0 && "need at least one partition");
  assert(PartitionSlot < B.sources().size() &&
         "partition slot is not bound");
  const expr::SourceBuffer &Src = B.sources()[PartitionSlot];
  std::size_t Count = static_cast<std::size_t>(Src.Count);
  std::vector<Bindings> Out;
  Out.reserve(Parts);
  for (unsigned P = 0; P != Parts; ++P) {
    PartRange R = partitionRange(Count, Parts, P);
    Out.push_back(bindingRange(B, PartitionSlot, R.Begin, R.Len));
  }
  return Out;
}

DistributedQuery DistributedQuery::compile(const query::Query &Q,
                                           const DistOptions &Options) {
  static obs::Counter &Parallelized =
      obs::counter("dryad.compile.parallel");
  static obs::Counter &Fallbacks =
      obs::counter("dryad.compile.sequential_fallback");

  quil::Chain Chain = quil::lower(Q);
  if (auto Err = quil::validate(Chain))
    support::fatalError("invalid distributed query '" + Options.Name +
                        "': " + *Err);
  if (Options.SpecializeGroupByAggregate)
    Chain = quil::specializeGroupByAggregate(Chain);

  DistributedQuery DQ;
  DQ.Morsels = Options.Morsels;

  SplitDecision Split = decideSplit(Chain);
  DQ.Cert = Split.Analysis.Cert;

  CompileOptions VertexOptions = Options;
  VertexOptions.Name = Options.Name + "_vertex";
  VertexOptions.SpecializeGroupByAggregate = false; // already applied

  if (!Split.Plan) {
    // Sequential fallback: compile the whole query as one vertex and
    // refuse fan-out at run time. Documented in DESIGN.md ("Parallel
    // safety"): queries are never rejected for being unparallelizable,
    // they just lose the speedup.
    Fallbacks.inc();
    if (Options.WarnSequentialFallback)
      std::fprintf(stderr,
                   "steno: query '%s' falls back to sequential execution: "
                   "%s\n",
                   Options.Name.c_str(), Split.WhyNot.c_str());
    DQ.Sequential = true;
    DQ.WhyNot = std::move(Split.WhyNot);
    DQ.Vertex = compileChain(Chain, VertexOptions);
    return DQ;
  }

  Parallelized.inc();
  DQ.Vertex = compileChain(Split.Plan->VertexChain, VertexOptions);
  DQ.Plan = std::move(*Split.Plan);
  return DQ;
}

namespace {

/// Applies a 1- or 2-ary lambda to values (top-level combine stage).
Value apply(const expr::Lambda &L, std::vector<Value> Args) {
  expr::Env Env;
  return expr::applyLambda(L, Args, Env);
}

/// The Agg* stage runs once per key per partition, which for dense
/// GroupByAggregate sinks is O(P x keys) — interpreting the combiner
/// lambda there would dominate high-key-count jobs. DryadLINQ generates
/// the combine vertex like any other; we approximate that by compiling
/// the common associative shapes to native closures and falling back to
/// the interpreter otherwise.
using Combiner2 = std::function<Value(const Value &, const Value &)>;

Combiner2 compileCombiner(const expr::Lambda &L) {
  using expr::BinaryOp;
  using expr::ExprKind;
  const std::string &A = L.param(0).Name;
  const std::string &B = L.param(1).Name;
  const expr::Expr &Body = *L.body();

  auto isParam = [](const expr::ExprRef &E, const std::string &Name) {
    return E->kind() == ExprKind::Param && E->paramName() == Name;
  };

  if (Body.kind() == ExprKind::Binary &&
      Body.binaryOp() == BinaryOp::Add &&
      isParam(Body.operand(0), A) && isParam(Body.operand(1), B)) {
    if (Body.type()->isDouble())
      return [](const Value &X, const Value &Y) {
        return Value(X.asDouble() + Y.asDouble());
      };
    if (Body.type()->isInt64())
      return [](const Value &X, const Value &Y) {
        return Value(rt::add(X.asInt64(), Y.asInt64()));
      };
  }

  // Generic fallback: interpret, but reuse one environment.
  auto Env = std::make_shared<expr::Env>();
  return [L, Env](const Value &X, const Value &Y) {
    Env->bind(L.param(0).Name, X);
    Env->bind(L.param(1).Name, Y);
    Value Out = expr::evalExpr(*L.body(), *Env);
    Env->pop();
    Env->pop();
    return Out;
  };
}

/// True when every partial lists the same keys in the same order, as
/// dense sinks do: their accumulators then merge position by position.
bool keysAligned(const std::vector<QueryResult> &Partials) {
  const std::vector<Value> &First = Partials.front().rows();
  for (const QueryResult &Part : Partials) {
    const std::vector<Value> &Rows = Part.rows();
    if (Rows.size() != First.size())
      return false;
    for (std::size_t I = 0; I != Rows.size(); ++I)
      if (Rows[I].first().asInt64() != First[I].first().asInt64())
        return false;
  }
  return true;
}

} // namespace

QueryResult
DistributedQuery::run(ThreadPool &Pool,
                      const std::vector<Bindings> &PartitionBindings) const {
  assert(!PartitionBindings.empty() && "no partitions to run on");
  if (Sequential) {
    if (PartitionBindings.size() != 1)
      support::fatalError(
          "query '" + Vertex.program().Name +
          "' is sequential-only (" + WhyNot +
          ") but was handed " +
          std::to_string(PartitionBindings.size()) +
          " partitions; consult parallel() before partitioning");
    return Vertex.run(PartitionBindings.front());
  }

  // Stage 1: one vertex per partition (Src_i ... Agg_i of Figure 12),
  // mapped across the partitions by HomomorphicApply; stage 2 (Agg*)
  // merges the partials in partition order.
  std::vector<QueryResult> Partials = homomorphicApply(
      Pool, PartitionBindings,
      [this](const Bindings &Part) { return Vertex.run(Part); });
  return combineParallelPartials(Plan, Partials);
}

QueryResult
dryad::combineParallelPartials(const ParallelPlan &Plan,
                               const std::vector<QueryResult> &Partials,
                               std::string *Error) {
  // Stage 2: Agg* — merge the partial results (in source order).
  assert(!Partials.empty() && "no partials to combine");
  // Every merge below reads the partials' cells by the vertex's row type.
  const expr::TypeRef &VertexRow = Plan.VertexChain.Result;
  for (std::size_t P = 0; P != Partials.size(); ++P) {
    const QueryResult &Part = Partials[P];
    if (Part.numRows() == 0 || expr::sameType(Part.rowType(), VertexRow))
      continue;
    std::string Why = "partial " + std::to_string(P) + " has rows of type " +
                      Part.rowType()->str() + ", not the vertex's " +
                      VertexRow->str();
    if (!Error)
      support::fatalError(Why);
    *Error = std::move(Why);
    return QueryResult();
  }
  // The combined rows are copied into the result's own columns, so it
  // outlives the partials.
  ResultBuilder Out(Plan.ScalarResult, Plan.ResultType);
  switch (Plan.Kind) {
  case CombineKind::Concat:
    for (const QueryResult &Part : Partials)
      Out.append(Part);
    return Out.finish();

  case CombineKind::Fold: {
    // One left fold of the partials in source order, then the result
    // selector.
    Combiner2 Combine = compileCombiner(Plan.Combiner);
    Value Acc = Partials.front().scalarValue();
    for (std::size_t P = 1; P != Partials.size(); ++P)
      Acc = Combine(Acc, Partials[P].scalarValue());
    if (Plan.FinalResult.valid())
      Acc = apply(Plan.FinalResult, {Acc});
    Out.add(Acc);
    return Out.finish();
  }

  case CombineKind::MergeSorted: {
    // Every vertex emitted pair(key, row), in source order. The rows'
    // numbers are sorted, stably, by the key column's rt::orderKey images,
    // so ties keep source order and the result is the sequential one, and
    // the rows' cells are gathered column by column in that order: no key
    // is interpreted and no Value is built.
    ResultBuilder All(false, VertexRow);
    for (const QueryResult &Part : Partials)
      All.append(Part);
    QueryResult Keyed = All.finish();
    rt::Buf<std::int64_t> Rows(Keyed.numRows());
    for (std::int64_t R = 0; R != Rows.size(); ++R)
      Rows[R] = R;
    auto sortRows = [&Rows](auto Keys) {
      rt::sortByKey(Rows, [Keys](const std::int64_t &R) {
        return rt::orderKey(Keys[static_cast<std::size_t>(R)]);
      });
    };
    if (VertexRow->first()->isInt64())
      sortRows(Keyed.int64Column(0));
    else
      sortRows(Keyed.doubleColumn(0));
    Out.appendRows(Keyed, 1,
                   {Rows.data(), static_cast<std::size_t>(Rows.size())});
    return Out.finish();
  }

  case CombineKind::MergeByKey: {
    // Each key's partials left-folded in source order, keys in first-
    // appearance order, then the result selector — the distributed
    // GroupBy-Aggregate of §4.3/§6.
    Combiner2 Combine = compileCombiner(Plan.Combiner);
    auto emit = [&](std::int64_t Key, const Value &Acc) {
      Out.add(Plan.FinalResult.valid()
                  ? apply(Plan.FinalResult, {Value(Key), Acc})
                  : Value::makePair(Value(Key), Acc));
    };
    if (keysAligned(Partials)) {
      const std::vector<Value> &First = Partials.front().rows();
      for (std::size_t I = 0; I != First.size(); ++I) {
        Value Acc = First[I].second();
        for (std::size_t P = 1; P != Partials.size(); ++P)
          Acc = Combine(Acc, Partials[P].rows()[I].second());
        emit(First[I].first().asInt64(), Acc);
      }
    } else {
      // The interpreter's group table: slot() seeds a key's first
      // partial, every later partial folds into it.
      rt::GroupAggSink<Value> Groups;
      for (const QueryResult &Part : Partials)
        for (const Value &Row : Part.rows()) {
          std::int64_t Keys = Groups.size();
          Value &Acc = Groups.slot(Row.first().asInt64(), Row.second());
          if (Groups.size() == Keys)
            Acc = Combine(Acc, Row.second());
        }
      for (std::int64_t I = 0; I != Groups.size(); ++I)
        emit(Groups.keyAt(I), Groups.accAt(I));
    }
    return Out.finish();
  }
  }
  stenoUnreachable("bad CombineKind");
}

QueryResult DistributedQuery::runParallel(ThreadPool &Pool,
                                          const Bindings &B,
                                          unsigned PartitionSlot) const {
  if (Sequential) {
    // The documented fallback: same results, no fan-out.
    static obs::Counter &SeqRuns =
        obs::counter("dryad.run.sequential_fallback");
    SeqRuns.inc();
    return Vertex.run(B);
  }

  static obs::Counter &MorselRuns = obs::counter("dryad.run.morsel");
  MorselRuns.inc();
  obs::Span Span("dryad.run.parallel");

  assert(PartitionSlot < B.sources().size() &&
         "partition slot is not bound");
  const expr::SourceBuffer &Src = B.sources()[PartitionSlot];
  std::size_t Count =
      Src.Count > 0 ? static_cast<std::size_t>(Src.Count) : 0;

  // Stage 1, morsel-driven: each morsel is a contiguous view-partition
  // run through the shared vertex program; tagging with the morsel's
  // source offset lets the combine stage see partials in source order,
  // which keeps Concat/MergeSorted/MergeByKey semantics identical to
  // static partitioning however the workers' claims interleaved.
  //
  // Per-call costs are hoisted out of the morsel body: each worker gets
  // one Bindings copy (the body only repoints the partition slot's
  // window) and one QueryRunner (bindings validated once, profile deltas
  // accumulated locally and merged once per worker below). At w1 on a
  // uniform input this is what closes the gap to static partitioning —
  // the body is one rebind plus one dispatch, like the fused loop itself.
  using Tagged = std::pair<std::size_t, QueryResult>;
  unsigned Workers = Pool.workerCount();
  std::vector<std::vector<Tagged>> PerWorker(Workers);
  std::vector<Bindings> Parts(Workers, B);
  std::vector<QueryRunner> Runners;
  Runners.reserve(Workers);
  for (unsigned W = 0; W != Workers; ++W)
    Runners.emplace_back(Vertex);
  MorselStats Stats = morselFor(
      Pool, Count, Morsels,
      [&Src, &PerWorker, &Parts, &Runners, PartitionSlot](
          std::size_t Begin, std::size_t End, unsigned W) {
        rebindRange(Parts[W], Src, PartitionSlot, Begin, End - Begin);
        PerWorker[W].emplace_back(Begin, Runners[W].run(Parts[W]));
      });
  // One ProfileStore merge per worker, tagged with the worker id so
  // profiles still show how the morsels spread over the workers.
  for (unsigned W = 0; W != Workers; ++W)
    Runners[W].flush(W);
  Span.arg("morsels", static_cast<std::int64_t>(Stats.Morsels));

  std::vector<Tagged> All;
  All.reserve(Stats.Morsels);
  for (std::vector<Tagged> &Chunk : PerWorker)
    for (Tagged &T : Chunk)
      All.push_back(std::move(T));
  std::sort(All.begin(), All.end(),
            [](const Tagged &A, const Tagged &C) {
              return A.first < C.first;
            });
  std::vector<QueryResult> Partials;
  Partials.reserve(All.size() ? All.size() : 1);
  for (Tagged &T : All)
    Partials.push_back(std::move(T.second));
  if (Partials.empty()) // empty source: one vertex over the original
    Partials.push_back(Vertex.run(B)); // bindings (already an empty view)

  return combineParallelPartials(Plan, Partials);
}
