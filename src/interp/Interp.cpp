//===- interp/Interp.cpp --------------------------------------*- C++ -*-===//

#include "interp/Interp.h"
#include "expr/Eval.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "steno/RtSinks.h"
#include "support/Error.h"

#include <cassert>
#include <unordered_map>
#include <variant>

using namespace steno;
using namespace steno::interp;
using cpptree::LoopInfo;
using cpptree::LoopKind;
using cpptree::SinkKind;
using cpptree::Stmt;
using cpptree::StmtKind;
using cpptree::StmtList;
using expr::Value;
using expr::VecView;

namespace {

/// One declared sink: the collection generated code declares for it,
/// holding interpreter Values as accumulators and elements.
using SinkObj = std::variant<rt::GroupSink, rt::GroupAggSink<Value>,
                             rt::DenseAggSink<Value>, rt::Buf<Value>>;

enum class Flow { Normal, Continue, Break };

class Executor {
public:
  Executor(const cpptree::Program &P, const RunInput &In, ResultBuilder &Out)
      : P(P), Prof(In.Profile), Out(Out) {
    if (In.Values)
      Environment.setCaptures(In.Values);
    if (In.Sources) {
      Environment.setSources(In.Sources);
      Sources = In.Sources;
    }
    Environment.setFallback([this](const std::string &Name) {
      auto It = Locals.find(Name);
      return It == Locals.end() ? nullptr : &It->second;
    });
  }

  /// Runs the program; returns the number of rows it added.
  std::int64_t run() {
    Flow F = execList(P.Body);
    assert(F == Flow::Normal && "control escaped the program");
    (void)F;
    return Rows;
  }

private:
  Value eval(const expr::ExprRef &E) {
    assert(E && "evaluating a null expression");
    return expr::evalExpr(*E, Environment);
  }

  const expr::SourceBuffer &sourceAt(unsigned Slot) {
    if (!Sources || Slot >= Sources->size())
      support::fatalError("source slot " + std::to_string(Slot) +
                          " is not bound");
    return (*Sources)[Slot];
  }

  Flow execList(const StmtList &Stmts) {
    for (const cpptree::StmtRef &S : Stmts) {
      Flow F = exec(*S);
      if (F != Flow::Normal)
        return F;
    }
    return Flow::Normal;
  }

  Flow exec(const Stmt &S) {
    switch (S.K) {
    case StmtKind::Region:
      return execList(S.Body);
    case StmtKind::DeclareLocal:
    case StmtKind::Assign:
      Locals[S.Name] = eval(S.E);
      return Flow::Normal;
    case StmtKind::AddIf: {
      bool Keep = eval(S.E).asBool();
      Value G = eval(S.E2);
      Value &Acc = Locals[S.Name];
      Acc = Acc.isInt64()
                ? Value(rt::addIf(Acc.asInt64(), Keep, G.asInt64()))
                : Value(rt::addIf(Acc.asDouble(), Keep, G.asDouble()));
      return Flow::Normal;
    }
    case StmtKind::DeclareSinkView: {
      // Generated code views the buffer's own storage; these elements are
      // Values, so the view reads a flat copy of them.
      const rt::Buf<Value> &Elems = sink<rt::Buf<Value>>(S.SlotVar);
      std::vector<double> &Flat = SinkViews[S.SlotVar];
      Flat.clear();
      Flat.reserve(static_cast<std::size_t>(Elems.size()));
      for (std::int64_t I = 0; I != Elems.size(); ++I)
        Flat.push_back(Elems[I].asDouble());
      Locals[S.Name] = Value(
          VecView{Flat.data(), static_cast<std::int64_t>(Flat.size())});
      return Flow::Normal;
    }
    case StmtKind::If:
      if (eval(S.E).asBool())
        return execList(S.Body);
      return Flow::Normal;
    case StmtKind::Continue:
      return Flow::Continue;
    case StmtKind::Break:
      return Flow::Break;
    case StmtKind::Loop:
      return execLoop(S);
    case StmtKind::DeclareSink:
      Sinks.insert_or_assign(S.Name, declareSink(S.Sink));
      return Flow::Normal;
    case StmtKind::SinkGroupPut:
      sink<rt::GroupSink>(S.Name).put(eval(S.E).asInt64(),
                                      eval(S.E2).asDouble());
      return Flow::Normal;
    case StmtKind::SinkGroupAggUpdate: {
      std::int64_t Key = eval(S.E).asInt64();
      // A hash sink inserts the seed on first sight; a dense sink was
      // seeded at declaration, so its update carries no seed.
      Value &Acc = S.E2 ? sink<rt::GroupAggSink<Value>>(S.Name).slot(
                              Key, eval(S.E2))
                        : sink<rt::DenseAggSink<Value>>(S.Name).slot(Key);
      Locals[S.SlotVar] = Acc;
      Acc = eval(S.E3);
      return Flow::Normal;
    }
    case StmtKind::SinkVecPush:
      sink<rt::Buf<Value>>(S.Name).push_back(eval(S.E));
      return Flow::Normal;
    case StmtKind::SortSinkVec: {
      // Generated code's sort, with the key evaluated instead of inlined.
      const std::string &Param = S.KeyFn.param(0).Name;
      rt::sortByKey(sink<rt::Buf<Value>>(S.Name), [&](const Value &Elem) {
        Environment.bind(Param, Elem);
        std::uint64_t Key = expr::orderKeyOf(eval(S.KeyFn.body()));
        Environment.pop();
        return Key;
      });
      return Flow::Normal;
    }
    case StmtKind::Emit:
      Out.add(eval(S.E));
      ++Rows;
      return Flow::Normal;
    case StmtKind::EmitSink: {
      const rt::Buf<Value> &Elems = sink<rt::Buf<Value>>(S.Name);
      for (std::int64_t I = 0; I != Elems.size(); ++I)
        Out.add(Elems[I]);
      Rows += Elems.size();
      return Flow::Normal;
    }
    case StmtKind::ProfileCount:
      if (Prof)
        Prof->Counts[S.ProfSlot] += countOf(S);
      return Flow::Normal;
    }
    stenoUnreachable("bad StmtKind");
  }

  /// What a ProfileCount adds: its guard's value, its sink's length, or 1.
  std::uint64_t countOf(const Stmt &S) {
    if (S.E)
      return eval(S.E).asBool();
    if (!S.Name.empty())
      return static_cast<std::uint64_t>(sink<rt::Buf<Value>>(S.Name).size());
    return 1;
  }

  Flow execLoop(const Stmt &S) {
    const LoopInfo &L = S.Loop;
    switch (L.Kind) {
    case LoopKind::Source:
      return execSourceLoop(S);
    case LoopKind::GroupSink: {
      rt::GroupSink &G = sink<rt::GroupSink>(L.SinkName);
      for (std::int64_t I = 0, N = G.size(); I != N; ++I) {
        rt::Pair<std::int64_t, rt::VecView> Group = G.group(I);
        Locals[L.ElemVar] = Value::makePair(
            Value(Group.First),
            Value(VecView{Group.Second.Data, Group.Second.Len}));
        if (execList(S.Body) == Flow::Break)
          break;
      }
      return Flow::Normal;
    }
    case LoopKind::GroupAggSink:
      if (L.Sink.isDense())
        return execAggLoop(S, sink<rt::DenseAggSink<Value>>(L.SinkName));
      return execAggLoop(S, sink<rt::GroupAggSink<Value>>(L.SinkName));
    case LoopKind::VecSink: {
      const rt::Buf<Value> &V = sink<rt::Buf<Value>>(L.SinkName);
      for (std::int64_t I = 0, N = V.size(); I != N; ++I) {
        Locals[L.ElemVar] = V[I];
        Flow F = execList(S.Body);
        if (F == Flow::Break)
          break;
      }
      return Flow::Normal;
    }
    }
    stenoUnreachable("bad LoopKind");
  }

  /// Visits a group-aggregate sink's (key, accumulator) entries in order.
  template <typename AggSink>
  Flow execAggLoop(const Stmt &S, const AggSink &G) {
    const LoopInfo &L = S.Loop;
    for (std::int64_t I = 0, N = G.size(); I != N; ++I) {
      Locals[L.KeyVar] = Value(G.keyAt(I));
      Locals[L.AccVar] = G.accAt(I);
      if (execList(S.Body) == Flow::Break)
        break;
    }
    return Flow::Normal;
  }

  Flow execSourceLoop(const Stmt &S) {
    const LoopInfo &L = S.Loop;
    const query::SourceDesc &Src = L.Src;
    switch (Src.Kind) {
    case query::SourceKind::DoubleArray: {
      const expr::SourceBuffer &Buf = sourceAt(Src.Slot);
      assert((Buf.DoubleData || Buf.Count == 0) &&
             "double source not bound to doubles");
      for (std::int64_t I = 0; I != Buf.Count; ++I) {
        Locals[L.ElemVar] = Value(Buf.DoubleData[I]);
        if (execList(S.Body) == Flow::Break)
          break;
      }
      return Flow::Normal;
    }
    case query::SourceKind::Int64Array: {
      const expr::SourceBuffer &Buf = sourceAt(Src.Slot);
      assert((Buf.Int64Data || Buf.Count == 0) &&
             "int64 source not bound to int64s");
      for (std::int64_t I = 0; I != Buf.Count; ++I) {
        Locals[L.ElemVar] = Value(Buf.Int64Data[I]);
        if (execList(S.Body) == Flow::Break)
          break;
      }
      return Flow::Normal;
    }
    case query::SourceKind::PointArray: {
      const expr::SourceBuffer &Buf = sourceAt(Src.Slot);
      assert((Buf.DoubleData || Buf.Count == 0) &&
             "point source not bound to doubles");
      for (std::int64_t I = 0; I != Buf.Count; ++I) {
        Locals[L.ElemVar] =
            Value(VecView{Buf.DoubleData + I * Buf.Dim, Buf.Dim});
        if (execList(S.Body) == Flow::Break)
          break;
      }
      return Flow::Normal;
    }
    case query::SourceKind::Range: {
      std::int64_t Start = eval(Src.Start).asInt64();
      std::int64_t Count = eval(Src.CountE).asInt64();
      for (std::int64_t I = 0; I < Count; ++I) {
        Locals[L.ElemVar] = Value(rt::add(Start, I));
        if (execList(S.Body) == Flow::Break)
          break;
      }
      return Flow::Normal;
    }
    case query::SourceKind::VecExpr: {
      VecView V = eval(Src.Vec).asVec();
      for (std::int64_t I = 0; I != V.Len; ++I) {
        Locals[L.ElemVar] = Value(V.Data[I]);
        if (execList(S.Body) == Flow::Break)
          break;
      }
      return Flow::Normal;
    }
    }
    stenoUnreachable("bad SourceKind");
  }

  SinkObj declareSink(const cpptree::SinkDecl &D) {
    switch (D.Kind) {
    case SinkKind::Group:
      return rt::GroupSink();
    case SinkKind::GroupAgg:
      if (!D.isDense())
        return rt::GroupAggSink<Value>();
      return rt::DenseAggSink<Value>(eval(D.DenseKeys).asInt64(),
                                     eval(D.DenseSeed));
    case SinkKind::Vec:
      return rt::Buf<Value>();
    }
    stenoUnreachable("bad SinkKind");
  }

  /// The declared sink \p Name, which must be a T.
  template <typename T> T &sink(const std::string &Name) {
    auto It = Sinks.find(Name);
    T *Sink = It == Sinks.end() ? nullptr : std::get_if<T>(&It->second);
    if (!Sink)
      support::fatalError("undeclared sink '" + Name + "'");
    return *Sink;
  }

  const cpptree::Program &P;
  obs::ProfileSink *Prof = nullptr;
  expr::Env Environment;
  const std::vector<expr::SourceBuffer> *Sources = nullptr;
  std::unordered_map<std::string, Value> Locals;
  std::unordered_map<std::string, SinkObj> Sinks;
  /// Backing stores of DeclareSinkView, by sink name.
  std::unordered_map<std::string, std::vector<double>> SinkViews;
  ResultBuilder &Out;
  std::int64_t Rows = 0;
};

} // namespace

void interp::execute(const cpptree::Program &P, const RunInput &In,
                     ResultBuilder &Out) {
  static obs::Counter &Execs = obs::counter("interp.exec.count");
  obs::Span Span("interp.execute");
  std::int64_t Rows = Executor(P, In, Out).run();
  Execs.inc();
  Span.arg("rows_out", Rows);
}
