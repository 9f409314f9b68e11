//===- steno/RefExec.cpp --------------------------------------*- C++ -*-===//

#include "steno/RefExec.h"
#include "expr/Eval.h"
#include "steno/Rt.h"
#include "support/Error.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <unordered_map>

using namespace steno;
using expr::Lambda;
using expr::Value;
using expr::VecView;
using query::OpKind;
using query::QueryNodeRef;

namespace {

/// OrderBy's key order, stated directly rather than through rt::orderKey
/// so that the reference stays an independent oracle: int64 keys compare
/// exactly; double keys numerically, -0.0 tying +0.0 (neither is less)
/// and every NaN after every number, NaNs tying.
bool keyLess(const Value &A, const Value &B) {
  if (A.isInt64())
    return A.asInt64() < B.asInt64();
  double X = A.asDouble(), Y = B.asDouble();
  if (X != X)
    return false;
  return Y != Y || X < Y;
}

class RefExecutor {
public:
  explicit RefExecutor(const Bindings &B) : B(B) {
    Env.setSources(&B.sources());
    Env.setCaptures(&B.values());
  }

  QueryResult run(const query::Query &Q) {
    ResultBuilder Out(Q.scalarResult(), Q.resultType());
    if (Q.scalarResult())
      Out.add(evalScalar(Q.node()));
    else
      for (const Value &V : evalCollection(Q.node()))
        Out.add(V);
    return Out.finish();
  }

private:
  Value apply1(const Lambda &L, const Value &A0) {
    std::vector<Value> Args = {A0};
    return expr::applyLambda(L, Args, Env);
  }

  Value apply2(const Lambda &L, const Value &A0, const Value &A1) {
    std::vector<Value> Args = {A0, A1};
    return expr::applyLambda(L, Args, Env);
  }

  Value eval(const expr::ExprRef &E) { return expr::evalExpr(*E, Env); }

  /// Keeps \p Bag for the rest of the run and returns a view of it.
  VecView keepBag(std::vector<double> Bag) {
    const std::vector<double> &Kept = Bags.emplace_back(std::move(Bag));
    return VecView{Kept.data(), static_cast<std::int64_t>(Kept.size())};
  }

  const expr::SourceBuffer &sourceAt(unsigned Slot) {
    if (Slot >= B.sources().size())
      support::fatalError("reference executor: source slot " +
                          std::to_string(Slot) + " not bound");
    return B.sources()[Slot];
  }

  std::vector<Value> evalSource(const query::SourceDesc &Src) {
    std::vector<Value> Out;
    switch (Src.Kind) {
    case query::SourceKind::DoubleArray: {
      const expr::SourceBuffer &Buf = sourceAt(Src.Slot);
      for (std::int64_t I = 0; I != Buf.Count; ++I)
        Out.push_back(Value(Buf.DoubleData[I]));
      return Out;
    }
    case query::SourceKind::Int64Array: {
      const expr::SourceBuffer &Buf = sourceAt(Src.Slot);
      for (std::int64_t I = 0; I != Buf.Count; ++I)
        Out.push_back(Value(Buf.Int64Data[I]));
      return Out;
    }
    case query::SourceKind::PointArray: {
      const expr::SourceBuffer &Buf = sourceAt(Src.Slot);
      for (std::int64_t I = 0; I != Buf.Count; ++I)
        Out.push_back(
            Value(VecView{Buf.DoubleData + I * Buf.Dim, Buf.Dim}));
      return Out;
    }
    case query::SourceKind::Range: {
      std::int64_t Start = eval(Src.Start).asInt64();
      std::int64_t Count = eval(Src.CountE).asInt64();
      for (std::int64_t I = 0; I < Count; ++I)
        Out.push_back(Value(rt::add(Start, I)));
      return Out;
    }
    case query::SourceKind::VecExpr: {
      VecView V = eval(Src.Vec).asVec();
      for (std::int64_t I = 0; I != V.Len; ++I)
        Out.push_back(Value(V.Data[I]));
      return Out;
    }
    }
    stenoUnreachable("bad SourceKind");
  }

  std::vector<Value> evalCollection(const QueryNodeRef &N) {
    assert(N && !N->isAggregate() && "not a collection query");
    switch (N->kind()) {
    case OpKind::Source:
      return evalSource(N->source());
    case OpKind::Select: {
      std::vector<Value> Up = evalCollection(N->upstream());
      for (Value &V : Up)
        V = apply1(N->fn(), V);
      return Up;
    }
    case OpKind::SelectNested: {
      std::vector<Value> Up = evalCollection(N->upstream());
      for (Value &V : Up) {
        Env.bind(N->outerParam(), V);
        V = evalScalar(N->nested());
        Env.pop();
      }
      return Up;
    }
    case OpKind::Where: {
      std::vector<Value> Up = evalCollection(N->upstream());
      std::vector<Value> Out;
      for (Value &V : Up)
        if (apply1(N->fn(), V).asBool())
          Out.push_back(std::move(V));
      return Out;
    }
    case OpKind::WhereNested: {
      std::vector<Value> Up = evalCollection(N->upstream());
      std::vector<Value> Out;
      for (Value &V : Up) {
        Env.bind(N->outerParam(), V);
        bool Keep = evalScalar(N->nested()).asBool();
        Env.pop();
        if (Keep)
          Out.push_back(std::move(V));
      }
      return Out;
    }
    case OpKind::Take: {
      std::vector<Value> Up = evalCollection(N->upstream());
      std::int64_t K = eval(N->arg()).asInt64();
      if (K < 0)
        K = 0;
      if (static_cast<size_t>(K) < Up.size())
        Up.resize(static_cast<size_t>(K));
      return Up;
    }
    case OpKind::Skip: {
      std::vector<Value> Up = evalCollection(N->upstream());
      std::int64_t K = eval(N->arg()).asInt64();
      if (K < 0)
        K = 0;
      if (static_cast<size_t>(K) >= Up.size())
        return {};
      Up.erase(Up.begin(), Up.begin() + static_cast<size_t>(K));
      return Up;
    }
    case OpKind::TakeWhile: {
      std::vector<Value> Up = evalCollection(N->upstream());
      std::vector<Value> Out;
      for (Value &V : Up) {
        if (!apply1(N->fn(), V).asBool())
          break;
        Out.push_back(std::move(V));
      }
      return Out;
    }
    case OpKind::SkipWhile: {
      std::vector<Value> Up = evalCollection(N->upstream());
      std::vector<Value> Out;
      bool Skipping = true;
      for (Value &V : Up) {
        if (Skipping && apply1(N->fn(), V).asBool())
          continue;
        Skipping = false;
        Out.push_back(std::move(V));
      }
      return Out;
    }
    case OpKind::SelectMany: {
      std::vector<Value> Up = evalCollection(N->upstream());
      std::vector<Value> Out;
      for (Value &V : Up) {
        Env.bind(N->outerParam(), V);
        std::vector<Value> Sub = evalCollection(N->nested());
        Env.pop();
        for (Value &S : Sub)
          Out.push_back(std::move(S));
      }
      return Out;
    }
    case OpKind::GroupBy: {
      std::vector<Value> Up = evalCollection(N->upstream());
      std::vector<std::pair<std::int64_t, std::vector<double>>> Buckets;
      std::unordered_map<std::int64_t, size_t> Index;
      for (const Value &V : Up) {
        std::int64_t Key = apply1(N->fn(), V).asInt64();
        auto It = Index.find(Key);
        size_t Slot;
        if (It == Index.end()) {
          Slot = Buckets.size();
          Index.emplace(Key, Slot);
          Buckets.emplace_back(Key, std::vector<double>());
        } else {
          Slot = It->second;
        }
        Buckets[Slot].second.push_back(V.asDouble());
      }
      std::vector<Value> Out;
      for (auto &[Key, Bag] : Buckets)
        Out.push_back(
            Value::makePair(Value(Key), Value(keepBag(std::move(Bag)))));
      return Out;
    }
    case OpKind::GroupByAggregate: {
      std::vector<Value> Up = evalCollection(N->upstream());
      std::vector<std::pair<std::int64_t, Value>> Entries;
      std::unordered_map<std::int64_t, size_t> Index;
      if (N->denseKeys()) {
        // Dense semantics (§4.3 closing remark): every key in
        // [0, NumKeys) is reported in key order, seeded slots included.
        std::int64_t NumKeys = eval(N->denseKeys()).asInt64();
        for (std::int64_t K = 0; K < NumKeys; ++K) {
          Index.emplace(K, Entries.size());
          Entries.emplace_back(K, eval(N->arg()));
        }
      }
      for (const Value &V : Up) {
        std::int64_t Key = apply1(N->fn(), V).asInt64();
        auto It = Index.find(Key);
        size_t Slot;
        if (It == Index.end()) {
          if (N->denseKeys())
            rt::trap(rt::Trap::DenseKey);
          Slot = Entries.size();
          Index.emplace(Key, Slot);
          Entries.emplace_back(Key, eval(N->arg()));
        } else {
          Slot = It->second;
        }
        Entries[Slot].second = apply2(N->fn2(), Entries[Slot].second, V);
      }
      std::vector<Value> Out;
      for (const auto &[Key, Acc] : Entries) {
        if (N->fn3().valid())
          Out.push_back(apply2(N->fn3(), Value(Key), Acc));
        else
          Out.push_back(Value::makePair(Value(Key), Acc));
      }
      return Out;
    }
    case OpKind::OrderBy: {
      std::vector<Value> Up = evalCollection(N->upstream());
      std::vector<std::pair<Value, size_t>> Keys;
      Keys.reserve(Up.size());
      for (size_t I = 0; I != Up.size(); ++I)
        Keys.emplace_back(apply1(N->fn(), Up[I]), I);
      std::stable_sort(Keys.begin(), Keys.end(),
                       [](const auto &A, const auto &B2) {
                         return keyLess(A.first, B2.first);
                       });
      std::vector<Value> Out;
      Out.reserve(Up.size());
      for (const auto &[Key, Idx] : Keys)
        Out.push_back(std::move(Up[Idx]));
      return Out;
    }
    case OpKind::ToArray:
      return evalCollection(N->upstream());
    default:
      break;
    }
    stenoUnreachable("aggregate kind in evalCollection");
  }

  Value evalScalar(const QueryNodeRef &N) {
    assert(N && N->isAggregate() && "not a scalar query");
    std::vector<Value> Up = evalCollection(N->upstream());
    switch (N->kind()) {
    case OpKind::Aggregate: {
      Value Acc = eval(N->arg());
      for (const Value &V : Up)
        Acc = apply2(N->fn(), Acc, V);
      if (N->fn2().valid())
        Acc = apply1(N->fn2(), Acc);
      return Acc;
    }
    case OpKind::Sum: {
      if (N->upstream()->resultType()->isDouble()) {
        double Acc = 0;
        for (const Value &V : Up)
          Acc += V.asDouble();
        return Value(Acc);
      }
      std::int64_t Acc = 0;
      for (const Value &V : Up)
        Acc += V.asInt64();
      return Value(Acc);
    }
    case OpKind::Min:
    case OpKind::Max: {
      bool IsMin = N->kind() == OpKind::Min;
      // Sentinel-identity semantics matching the QUIL lowering.
      if (N->upstream()->resultType()->isDouble()) {
        double Acc = IsMin ? std::numeric_limits<double>::infinity()
                           : -std::numeric_limits<double>::infinity();
        for (const Value &V : Up) {
          double X = V.asDouble();
          if (IsMin ? X < Acc : X > Acc)
            Acc = X;
        }
        return Value(Acc);
      }
      std::int64_t Acc = IsMin ? std::numeric_limits<std::int64_t>::max()
                               : std::numeric_limits<std::int64_t>::min();
      for (const Value &V : Up) {
        std::int64_t X = V.asInt64();
        if (IsMin ? X < Acc : X > Acc)
          Acc = X;
      }
      return Value(Acc);
    }
    case OpKind::Count:
      return Value(static_cast<std::int64_t>(Up.size()));
    case OpKind::Any:
      return Value(!Up.empty());
    case OpKind::All: {
      for (const Value &V : Up)
        if (!apply1(N->fn(), V).asBool())
          return Value(false);
      return Value(true);
    }
    case OpKind::FirstOrDefault:
      return Up.empty() ? eval(N->arg()) : Up.front();
    case OpKind::Contains: {
      Value Needle = eval(N->arg());
      for (const Value &V : Up)
        if (V == Needle)
          return Value(true);
      return Value(false);
    }
    case OpKind::Average: {
      double Acc = 0;
      for (const Value &V : Up)
        Acc += V.asNumericDouble();
      return Value(Acc / static_cast<double>(Up.size()));
    }
    default:
      break;
    }
    stenoUnreachable("collection kind in evalScalar");
  }

  const Bindings &B;
  expr::Env Env;
  /// The GroupBy bags that values under evaluation view. Growing this
  /// vector moves each bag without moving its elements, so the views stay
  /// valid.
  std::vector<std::vector<double>> Bags;
};

} // namespace

QueryResult steno::runReference(const query::Query &Q, const Bindings &B) {
  return RefExecutor(B).run(Q);
}
