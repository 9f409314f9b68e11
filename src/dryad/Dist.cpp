//===- dryad/Dist.cpp -----------------------------------------*- C++ -*-===//

#include "dryad/Dist.h"
#include "adapt/Adapt.h"
#include "analysis/Analysis.h"
#include "dryad/HomomorphicApply.h"
#include "expr/Eval.h"
#include "obs/Metrics.h"
#include "obs/Profile.h"
#include "obs/Trace.h"
#include "support/Error.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <deque>
#include <unordered_map>

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
  std::size_t Base = Count / Parts;
  std::size_t Extra = Count % Parts;
  std::size_t Pos = 0;
  std::vector<Bindings> Out;
  Out.reserve(Parts);
  for (unsigned P = 0; P != Parts; ++P) {
    std::size_t Len = Base + (P < Extra ? 1 : 0);
    Out.push_back(bindingRange(B, PartitionSlot, Pos, Len));
    Pos += Len;
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
  DQ.Adaptive = Options.Adaptive && Options.Profile;

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
  // Batched vertices want morsels made of whole batches: one ragged tail
  // per stolen range instead of one per morsel.
  if (DQ.Vertex.vectorized() && DQ.Morsels.BatchAlign <= 1)
    DQ.Morsels.BatchAlign = vec::batchSizeFromEnv();
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
        return Value(X.asInt64() + Y.asInt64());
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

/// True when the analyzer certified every combiner in the chain at least
/// associative (Trusted counts: the user declared it associative and the
/// analyzer flagged ST2006 rather than refuting it). Gates the pairwise
/// combine tree; a left fold is the defensive fallback.
bool certifiedAssociative(const analysis::SafetyCertificate &Cert) {
  for (analysis::AggClass C : Cert.AggClasses)
    if (C != analysis::AggClass::Trusted &&
        C != analysis::AggClass::Associative &&
        C != analysis::AggClass::AssociativeCommutative)
      return false;
  return true;
}

/// Pairwise combine tree over in-order partials: round k combines
/// adjacent pairs (2i, 2i+1), so for an associative combiner the result
/// equals the left fold while the join does log2(N) rounds instead of N-1
/// serial applications. Rounds with enough pairs fan out on the pool —
/// each parallel application gets a fresh environment (applyLambda), so
/// interpreted combiners are safe to run concurrently.
Value treeCombine(ThreadPool &Pool, std::vector<Value> Vals,
                  const expr::Lambda &Combiner) {
  static obs::Counter &Rounds = obs::counter("dryad.combine.tree_rounds");
  static obs::Counter &ParallelRounds =
      obs::counter("dryad.combine.tree_rounds_parallel");
  assert(!Vals.empty());
  Combiner2 Fast = compileCombiner(Combiner);
  // Below this many pairs a round runs serially: task submission costs
  // more than the combines themselves for scalar merges.
  constexpr std::size_t MinParallelPairs = 8;
  while (Vals.size() > 1) {
    Rounds.inc();
    std::size_t Pairs = Vals.size() / 2;
    bool Odd = (Vals.size() & 1) != 0;
    std::vector<Value> Next(Pairs + (Odd ? 1 : 0));
    if (Pairs >= MinParallelPairs) {
      ParallelRounds.inc();
      std::vector<std::size_t> Idx(Pairs);
      for (std::size_t I = 0; I != Pairs; ++I)
        Idx[I] = I;
      std::vector<Value> Combined = homomorphicApply(
          Pool, Idx, [&Vals, &Combiner](const std::size_t &I) {
            // apply() builds a fresh Env per call (thread-safe), unlike
            // the shared-Env closure compileCombiner returns.
            return apply(Combiner, {Vals[2 * I], Vals[2 * I + 1]});
          });
      for (std::size_t I = 0; I != Pairs; ++I)
        Next[I] = std::move(Combined[I]);
    } else {
      for (std::size_t I = 0; I != Pairs; ++I)
        Next[I] = Fast(Vals[2 * I], Vals[2 * I + 1]);
    }
    if (Odd)
      Next.back() = std::move(Vals.back());
    Vals = std::move(Next);
  }
  return std::move(Vals.front());
}

/// Re-homes every Vec payload (including inside pairs) into \p Arena so
/// combined rows outlive the per-partition results.
Value rehome(const Value &V, std::deque<std::vector<double>> &Arena) {
  switch (V.kind()) {
  case expr::TypeKind::Vec: {
    expr::VecView View = V.asVec();
    Arena.emplace_back(View.Data, View.Data + View.Len);
    return Value(expr::VecView{
        Arena.back().data(),
        static_cast<std::int64_t>(Arena.back().size())});
  }
  case expr::TypeKind::Pair:
    return Value::makePair(rehome(V.first(), Arena),
                           rehome(V.second(), Arena));
  default:
    return V;
  }
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
  return combinePartials(Pool, std::move(Partials));
}

QueryResult
DistributedQuery::combinePartials(ThreadPool &Pool,
                                  std::vector<QueryResult> Partials) const {
  return combineParallelPartials(Pool, Plan, Cert, std::move(Partials));
}

QueryResult
dryad::combineParallelPartials(ThreadPool &Pool, const ParallelPlan &Plan,
                               const analysis::SafetyCertificate &Cert,
                               std::vector<QueryResult> Partials) {
  // Stage 2: Agg* — merge the partial results (in source order).
  switch (Plan.Kind) {
  case CombineKind::Concat: {
    // Rows may reference the per-partition arenas; re-home them into the
    // combined result's arena.
    std::vector<Value> Rows;
    auto Arena = std::make_shared<std::deque<std::vector<double>>>();
    for (QueryResult &Part : Partials)
      for (const Value &V : Part.rows())
        Rows.push_back(rehome(V, *Arena));
    return QueryResult(false, std::move(Rows), std::move(Arena));
  }

  case CombineKind::Fold: {
    // Combine the partials, then the final result selector. With an
    // associativity-certified combiner the partials merge pairwise as a
    // tree (log-depth join); without certification — defensive, the
    // parallel gate should already have refused — serialize left-to-
    // right exactly as before.
    assert(!Partials.empty());
    std::vector<Value> Vals;
    Vals.reserve(Partials.size());
    for (QueryResult &Part : Partials)
      Vals.push_back(Part.scalarValue());
    Value Acc;
    if (certifiedAssociative(Cert)) {
      Acc = treeCombine(Pool, std::move(Vals), Plan.Combiner);
    } else {
      Acc = std::move(Vals.front());
      for (std::size_t P = 1; P != Vals.size(); ++P)
        Acc = apply(Plan.Combiner, {Acc, Vals[P]});
    }
    if (Plan.FinalResult.valid())
      Acc = apply(Plan.FinalResult, {Acc});
    auto Arena = std::make_shared<std::deque<std::vector<double>>>();
    std::vector<Value> Rows = {rehome(Acc, *Arena)};
    return QueryResult(true, std::move(Rows), std::move(Arena));
  }

  case CombineKind::MergeSorted: {
    // K-way merge of per-partition sorted runs by the OrderBy key.
    // Stable across partitions: ties resolve to the earlier partition,
    // matching the sequential stable sort over concatenated input.
    struct Run {
      const std::vector<Value> *Rows;
      std::size_t Pos;
      std::size_t PartIdx;
    };
    std::vector<Run> Runs;
    std::size_t Total = 0;
    for (std::size_t P = 0; P != Partials.size(); ++P) {
      Runs.push_back(Run{&Partials[P].rows(), 0, P});
      Total += Partials[P].rows().size();
    }
    expr::Env KeyEnv;
    const std::string &KeyParam = Plan.SortKey.param(0).Name;
    auto keyOf = [&](const Value &V) {
      KeyEnv.bind(KeyParam, V);
      double Key =
          expr::evalExpr(*Plan.SortKey.body(), KeyEnv).asNumericDouble();
      KeyEnv.pop();
      return Key;
    };
    std::vector<Value> Rows;
    Rows.reserve(Total);
    while (Rows.size() != Total) {
      Run *Best = nullptr;
      double BestKey = 0;
      for (Run &R : Runs) {
        if (R.Pos >= R.Rows->size())
          continue;
        double Key = keyOf((*R.Rows)[R.Pos]);
        if (!Best || Key < BestKey) {
          Best = &R;
          BestKey = Key;
        }
      }
      assert(Best && "merge ran dry early");
      Rows.push_back((*Best->Rows)[Best->Pos++]);
    }
    auto Arena = std::make_shared<std::deque<std::vector<double>>>();
    for (Value &V : Rows)
      V = rehome(V, *Arena);
    return QueryResult(false, std::move(Rows), std::move(Arena));
  }

  case CombineKind::MergeByKey: {
    // Merge per-key partials in first-appearance order, then apply the
    // result selector — the distributed GroupBy-Aggregate of §4.3/§6.
    Combiner2 Combine = compileCombiner(Plan.Combiner);
    std::vector<std::pair<std::int64_t, Value>> Entries;
    std::unordered_map<std::int64_t, std::size_t> Index;
    bool UseIndex = false; // built lazily, only if key orders diverge
    for (const QueryResult &Part : Partials) {
      const std::vector<Value> &Rows = Part.rows();
      if (Entries.empty() && !UseIndex) {
        Entries.reserve(Rows.size());
        for (const Value &Row : Rows)
          Entries.emplace_back(Row.first().asInt64(), Row.second());
        continue;
      }
      // Fast path: dense sinks give every partition the same ordered key
      // sequence, so partials combine positionally.
      if (!UseIndex && Rows.size() == Entries.size()) {
        bool Aligned = true;
        for (std::size_t I = 0; I != Rows.size(); ++I) {
          if (Rows[I].first().asInt64() != Entries[I].first) {
            Aligned = false;
            break;
          }
        }
        if (Aligned) {
          for (std::size_t I = 0; I != Rows.size(); ++I)
            Entries[I].second =
                Combine(Entries[I].second, Rows[I].second());
          continue;
        }
      }
      if (!UseIndex) {
        for (std::size_t I = 0; I != Entries.size(); ++I)
          Index.emplace(Entries[I].first, I);
        UseIndex = true;
      }
      for (const Value &Row : Rows) {
        std::int64_t Key = Row.first().asInt64();
        auto It = Index.find(Key);
        if (It == Index.end()) {
          Index.emplace(Key, Entries.size());
          Entries.emplace_back(Key, Row.second());
          continue;
        }
        Entries[It->second].second =
            Combine(Entries[It->second].second, Row.second());
      }
    }
    std::vector<Value> Rows;
    Rows.reserve(Entries.size());
    for (const auto &[Key, Acc] : Entries) {
      if (Plan.FinalResult.valid())
        Rows.push_back(apply(Plan.FinalResult, {Value(Key), Acc}));
      else
        Rows.push_back(Value::makePair(Value(Key), Acc));
    }
    auto Arena = std::make_shared<std::deque<std::vector<double>>>();
    for (Value &V : Rows)
      V = rehome(V, *Arena);
    return QueryResult(false, std::move(Rows), std::move(Arena));
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
  // static partitioning no matter how stealing interleaved.
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
  // Feedback-tuned morsel sizing: observed per-row cost sizes the morsel
  // to the scheduler's latency budget; observed skew caps the largest
  // grab. Falls back to the static Morsels whenever feedback is absent
  // or not ripe.
  MorselOptions M =
      Adaptive ? adapt::tunedMorselOptions(vertexPlanHash(), Morsels) : Morsels;
  MorselStats Stats = morselFor(
      Pool, Count, M,
      [&Src, &PerWorker, &Parts, &Runners, PartitionSlot](
          std::size_t Begin, std::size_t End, unsigned W) {
        rebindRange(Parts[W], Src, PartitionSlot, Begin, End - Begin);
        PerWorker[W].emplace_back(Begin, Runners[W].run(Parts[W]));
      });
  // One ProfileStore merge per worker, tagged with the worker id so
  // profiles still show how stealing spread the morsels.
  for (unsigned W = 0; W != Workers; ++W)
    Runners[W].flush(W);
  Span.arg("morsels", static_cast<std::int64_t>(Stats.Morsels));
  Span.arg("steals", static_cast<std::int64_t>(Stats.Steals));

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

  return combinePartials(Pool, std::move(Partials));
}
