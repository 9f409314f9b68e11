//===- fuzz/Spec.cpp - Spec building and (de)serialization ----*- C++ -*-===//

#include "fuzz/Spec.h"

#include "expr/Dsl.h"
#include "support/Random.h"
#include "support/StringUtil.h"

#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>

using namespace steno;
using namespace steno::fuzz;
using namespace steno::expr;
using namespace steno::expr::dsl;
using query::Query;

//===----------------------------------------------------------------===//
// Token tables (shared by serializeSpec and parseSpec)
//===----------------------------------------------------------------===//

namespace {

template <typename T> struct TokenEntry {
  T V;
  const char *Name;
};

const TokenEntry<ElemTy> ElemTyTokens[] = {
    {ElemTy::Double, "double"}, {ElemTy::Int64, "int64"}};
const TokenEntry<DataClass> DataClassTokens[] = {
    {DataClass::Uniform, "uniform"},
    {DataClass::Skewed, "skewed"},
    {DataClass::Constant, "constant"},
    {DataClass::Ascending, "ascending"}};
const TokenEntry<TransTmpl> TransTokens[] = {
    {TransTmpl::Id, "id"},           {TransTmpl::AddC, "addc"},
    {TransTmpl::MulC, "mulc"},       {TransTmpl::Square, "square"},
    {TransTmpl::SqrtAbs, "sqrtabs"}, {TransTmpl::Negate, "negate"},
    {TransTmpl::CapScale, "capscale"}, {TransTmpl::ToInt64, "toint64"},
    {TransTmpl::ToDouble, "todouble"}, {TransTmpl::DivNz, "divnz"},
    {TransTmpl::DivMaybe, "divmaybe"}};
const TokenEntry<PredTmpl> PredTokens[] = {
    {PredTmpl::True, "true"},     {PredTmpl::False, "false"},
    {PredTmpl::GtC, "gtc"},       {PredTmpl::LtC, "ltc"},
    {PredTmpl::AbsGtC, "absgtc"}, {PredTmpl::EvenInt, "evenint"}};
const TokenEntry<KeyTmpl> KeyTokens[] = {{KeyTmpl::Id, "id"},
                                         {KeyTmpl::Abs, "abs"},
                                         {KeyTmpl::Negate, "negate"},
                                         {KeyTmpl::Bucket, "bucket"}};
const TokenEntry<AggKind> AggTokens[] = {
    {AggKind::Sum, "sum"},
    {AggKind::Count, "count"},
    {AggKind::Min, "min"},
    {AggKind::Max, "max"},
    {AggKind::Average, "average"},
    {AggKind::Any, "any"},
    {AggKind::AllGtC, "allgtc"},
    {AggKind::First, "first"},
    {AggKind::Contains, "contains"},
    {AggKind::FoldAssoc, "foldassoc"},
    {AggKind::FoldNonAssoc, "foldnonassoc"},
    {AggKind::FoldNoComb, "foldnocomb"},
    {AggKind::FoldPairMean, "foldpairmean"}};
const TokenEntry<GroupStep> GroupStepTokens[] = {{GroupStep::Sum, "sum"},
                                                 {GroupStep::Count, "count"},
                                                 {GroupStep::Max, "max"}};
const TokenEntry<NestedTmpl> NestedTokens[] = {{NestedTmpl::AddXY, "addxy"},
                                               {NestedTmpl::MulXY, "mulxy"}};

template <typename T, std::size_t N>
const char *tokenName(const TokenEntry<T> (&Table)[N], T V) {
  for (const TokenEntry<T> &E : Table)
    if (E.V == V)
      return E.Name;
  return "?";
}

template <typename T, std::size_t N>
bool tokenParse(const TokenEntry<T> (&Table)[N], const std::string &S,
                T &Out) {
  for (const TokenEntry<T> &E : Table)
    if (S == E.Name) {
      Out = E.V;
      return true;
    }
  return false;
}

std::string fmtDouble(double V) {
  return support::strFormat("%.17g", V);
}

//===----------------------------------------------------------------===//
// Data synthesis
//===----------------------------------------------------------------===//

std::vector<double> makeDoubles(const SourceSpec &S) {
  support::SplitMix64 Rng(S.Seed);
  std::vector<double> Out;
  Out.reserve(S.Count);
  for (std::uint32_t I = 0; I != S.Count; ++I) {
    switch (S.Data) {
    case DataClass::Uniform:
      Out.push_back(Rng.nextDouble(-100.0, 100.0));
      break;
    case DataClass::Skewed:
      Out.push_back(Rng.nextBelow(10) != 0 ? Rng.nextDouble(-2.0, 2.0)
                                           : Rng.nextDouble(-100.0, 100.0));
      break;
    case DataClass::Constant:
      Out.push_back(7.5);
      break;
    case DataClass::Ascending:
      Out.push_back(static_cast<double>(I) * 1.5 - 20.0);
      break;
    }
  }
  return Out;
}

std::vector<std::int64_t> makeInt64s(const SourceSpec &S) {
  support::SplitMix64 Rng(S.Seed);
  std::vector<std::int64_t> Out;
  Out.reserve(S.Count);
  for (std::uint32_t I = 0; I != S.Count; ++I) {
    switch (S.Data) {
    case DataClass::Uniform:
      Out.push_back(static_cast<std::int64_t>(Rng.nextBelow(101)) - 50);
      break;
    case DataClass::Skewed:
      Out.push_back(Rng.nextBelow(10) != 0
                        ? static_cast<std::int64_t>(Rng.nextBelow(5)) - 2
                        : static_cast<std::int64_t>(Rng.nextBelow(101)) - 50);
      break;
    case DataClass::Constant:
      Out.push_back(7);
      break;
    case DataClass::Ascending:
      Out.push_back(static_cast<std::int64_t>(I) - 10);
      break;
    }
  }
  return Out;
}

//===----------------------------------------------------------------===//
// AST building
//===----------------------------------------------------------------===//

TypeRef tyOf(ElemTy T) {
  return T == ElemTy::Double ? Type::doubleTy() : Type::int64Ty();
}

E constOf(ElemTy T, double V) {
  if (T == ElemTy::Double)
    return E(V);
  return E(static_cast<std::int64_t>(V));
}

E convertTo(const E &X, ElemTy From, ElemTy To) {
  if (From == To)
    return X;
  return To == ElemTy::Double ? toDouble(X) : toInt64(X);
}

/// Builder state threaded through the op loop.
struct BuildCtx {
  const QuerySpec &Spec;
  std::map<unsigned, const SourceSpec *> Slots;
  Query Q;
  ElemTy Cur = ElemTy::Double;
  bool Terminal = false;
  unsigned OuterCounter = 0;
  std::string Err;

  explicit BuildCtx(const QuerySpec &Spec) : Spec(Spec) {}

  bool fail(const std::string &Msg) {
    Err = Msg;
    return false;
  }

  E elemParam() const {
    return param(Cur == ElemTy::Double ? "x" : "xi", tyOf(Cur));
  }

  /// Fresh outer-parameter handle for a nested op (unique name so nested
  /// rewrites cannot collide across successive nesting operators).
  E freshOuter() {
    return param("o" + std::to_string(OuterCounter++), tyOf(Cur));
  }

  bool buildTrans(const OpSpec &Op, Lambda &L, ElemTy &NewTy) {
    E X = elemParam();
    NewTy = Cur;
    switch (Op.T) {
    case TransTmpl::Id:
      L = lambda({X}, X);
      return true;
    case TransTmpl::AddC:
      L = lambda({X}, X + constOf(Cur, Op.DArg));
      return true;
    case TransTmpl::MulC:
      L = lambda({X}, X * constOf(Cur, Op.DArg));
      return true;
    case TransTmpl::Square:
      L = lambda({X}, X * X);
      return true;
    case TransTmpl::SqrtAbs:
      if (Cur != ElemTy::Double)
        return fail("sqrtabs requires double elements");
      L = lambda({X}, sqrt(abs(X)));
      return true;
    case TransTmpl::Negate:
      L = lambda({X}, -X);
      return true;
    case TransTmpl::CapScale:
      if (Cur == ElemTy::Double) {
        if (!Spec.HasCaptureD)
          return fail("capscale needs a double capture");
        L = lambda({X}, X * capture(0, Type::doubleTy()));
      } else {
        if (!Spec.HasCaptureI)
          return fail("capscale needs an int64 capture");
        L = lambda({X}, X * capture(1, Type::int64Ty()));
      }
      return true;
    case TransTmpl::ToInt64:
      if (Cur != ElemTy::Double)
        return fail("toint64 requires double elements");
      L = lambda({X}, toInt64(X));
      NewTy = ElemTy::Int64;
      return true;
    case TransTmpl::ToDouble:
      if (Cur != ElemTy::Int64)
        return fail("todouble requires int64 elements");
      L = lambda({X}, toDouble(X));
      NewTy = ElemTy::Double;
      return true;
    case TransTmpl::DivNz: {
      if (Cur != ElemTy::Int64)
        return fail("divnz requires int64 elements");
      std::int64_t C = static_cast<std::int64_t>(Op.DArg);
      if (C < 2 || C > 9)
        return fail("divnz constant must be in [2, 9]");
      // Divisor 1 + abs(x % C) is in [1, C]: provably nonzero, so the
      // plan rewriter elides the ckdiv trap while every backend still
      // must compute the identical quotient.
      L = lambda({X}, X / (E(std::int64_t{1}) + abs(X % E(C))));
      return true;
    }
    case TransTmpl::DivMaybe:
      if (Cur != ElemTy::Int64)
        return fail("divmaybe requires int64 elements");
      // The divisor's interval is [0, 7] (the condition cannot be decided
      // statically for unbounded elements), so trap elision must NOT
      // fire; at run time the generator's magnitude cap (1e6 < 2000001)
      // keeps the zero branch unreachable.
      L = lambda({X}, X / cond(X > E(std::int64_t{2000001}),
                               E(std::int64_t{0}), E(std::int64_t{7})));
      return true;
    }
    return fail("bad trans template");
  }

  bool buildPred(const OpSpec &Op, Lambda &L) {
    E X = elemParam();
    switch (Op.P) {
    case PredTmpl::True:
      L = lambda({X}, E(true));
      return true;
    case PredTmpl::False:
      L = lambda({X}, E(false));
      return true;
    case PredTmpl::GtC:
      L = lambda({X}, X > constOf(Cur, Op.DArg));
      return true;
    case PredTmpl::LtC:
      L = lambda({X}, X < constOf(Cur, Op.DArg));
      return true;
    case PredTmpl::AbsGtC:
      L = lambda({X}, abs(X) > constOf(Cur, Op.DArg));
      return true;
    case PredTmpl::EvenInt:
      if (Cur != ElemTy::Int64)
        return fail("evenint requires int64 elements");
      L = lambda({X}, X % E(std::int64_t{2}) == E(std::int64_t{0}));
      return true;
    }
    return fail("bad pred template");
  }

  bool buildKey(const OpSpec &Op, Lambda &L) {
    E X = elemParam();
    switch (Op.Key) {
    case KeyTmpl::Id:
      L = lambda({X}, X);
      return true;
    case KeyTmpl::Abs:
      L = lambda({X}, abs(X));
      return true;
    case KeyTmpl::Negate:
      L = lambda({X}, -X);
      return true;
    case KeyTmpl::Bucket: {
      if (Op.DArg == 0.0)
        return fail("bucket key needs a nonzero constant");
      if (Cur == ElemTy::Double)
        L = lambda({X}, toInt64(X / E(Op.DArg)));
      else
        L = lambda({X}, X / E(static_cast<std::int64_t>(Op.DArg)));
      return true;
    }
    }
    return fail("bad key template");
  }

  /// Key selector that provably lands in [0, Bound): abs(x) % Bound
  /// (through toInt64 for double elements).
  Lambda denseKey(std::int64_t Bound) {
    E X = elemParam();
    E B = E(Bound);
    if (Cur == ElemTy::Double)
      return lambda({X}, toInt64(abs(X)) % B);
    return lambda({X}, abs(X) % B);
  }

  /// The nested select body over (outer, inner), converted to a common
  /// element type (double wins).
  E nestedBody(NestedTmpl N, const E &Outer, ElemTy OuterTy, const E &Inner,
               ElemTy InnerTy, ElemTy &OutTy) {
    OutTy = (OuterTy == ElemTy::Double || InnerTy == ElemTy::Double)
                ? ElemTy::Double
                : ElemTy::Int64;
    E A = convertTo(Outer, OuterTy, OutTy);
    E B = convertTo(Inner, InnerTy, OutTy);
    return N == NestedTmpl::AddXY ? A + B : A * B;
  }

  const SourceSpec *nestedSource(const OpSpec &Op) {
    auto It = Slots.find(Op.Slot);
    if (It == Slots.end()) {
      fail("nested op references undeclared source slot " +
           std::to_string(Op.Slot));
      return nullptr;
    }
    if (Op.Slot == 0) {
      // The differential harness view-partitions slot 0; a nested query
      // over the same buffer would see only the partition and diverge
      // from the sequential oracle by construction.
      fail("nested ops must not reference the partitioned slot 0");
      return nullptr;
    }
    return It->second;
  }

  static Query sourceQuery(const SourceSpec &S) {
    return S.Ty == ElemTy::Double ? Query::doubleArray(S.Slot)
                                  : Query::int64Array(S.Slot);
  }

  bool applyOp(const OpSpec &Op) {
    if (Terminal)
      return fail("operator after a terminal aggregate/group sink");
    switch (Op.K) {
    case OpK::Select: {
      Lambda L;
      ElemTy NewTy;
      if (!buildTrans(Op, L, NewTy))
        return false;
      Q = Q.select(std::move(L));
      Cur = NewTy;
      return true;
    }
    case OpK::Where: {
      Lambda L;
      if (!buildPred(Op, L))
        return false;
      Q = Q.where(std::move(L));
      return true;
    }
    // Negative counts are allowed: the runtime clamps them (Take ->
    // empty, Skip -> no-op) and the rewriter folds them, so they are a
    // deliberate differential shape, not a grammar error. The strict
    // analyzer still flags them (ST3001); the harness tolerates that
    // one code.
    case OpK::Take:
      Q = Q.take(E(Op.IArg));
      return true;
    case OpK::Skip:
      Q = Q.skip(E(Op.IArg));
      return true;
    case OpK::TakeWhile: {
      Lambda L;
      if (!buildPred(Op, L))
        return false;
      Q = Q.takeWhile(std::move(L));
      return true;
    }
    case OpK::SkipWhile: {
      Lambda L;
      if (!buildPred(Op, L))
        return false;
      Q = Q.skipWhile(std::move(L));
      return true;
    }
    case OpK::OrderBy: {
      Lambda L;
      if (!buildKey(Op, L))
        return false;
      Q = Q.orderBy(std::move(L));
      return true;
    }
    case OpK::ToArray:
      Q = Q.toArray();
      return true;
    case OpK::SelectMany: {
      const SourceSpec *Inner = nestedSource(Op);
      if (!Inner)
        return false;
      E Outer = freshOuter();
      ElemTy OuterTy = Cur;
      Query Nested = sourceQuery(*Inner);
      if (Op.IArg > 0)
        Nested = Nested.take(E(Op.IArg));
      E Y = param(Inner->Ty == ElemTy::Double ? "y" : "yi", tyOf(Inner->Ty));
      ElemTy OutTy;
      E Body = nestedBody(Op.N, Outer, OuterTy, Y, Inner->Ty, OutTy);
      Nested = Nested.select(lambda({Y}, Body));
      Q = Q.selectMany(Outer, Nested);
      Cur = OutTy;
      return true;
    }
    case OpK::SelectManyRange: {
      if (Cur != ElemTy::Int64)
        return fail("selectmanyrange requires int64 elements");
      if (Op.IArg < 1)
        return fail("selectmanyrange needs a positive mod bound");
      E Outer = freshOuter();
      E D = param("d", Type::int64Ty());
      E Body = Op.N == NestedTmpl::AddXY ? D + Outer : D * Outer;
      Query Nested = Query::range(E(std::int64_t{0}), abs(Outer) % E(Op.IArg))
                         .select(lambda({D}, Body));
      Q = Q.selectMany(Outer, Nested);
      return true;
    }
    case OpK::SelectNestedSum: {
      const SourceSpec *Inner = nestedSource(Op);
      if (!Inner)
        return false;
      E Outer = freshOuter();
      ElemTy OuterTy = Cur;
      E Y = param(Inner->Ty == ElemTy::Double ? "y" : "yi", tyOf(Inner->Ty));
      ElemTy OutTy;
      E Body = nestedBody(Op.N, Outer, OuterTy, Y, Inner->Ty, OutTy);
      Query Nested = sourceQuery(*Inner).select(lambda({Y}, Body)).sum();
      Q = Q.selectNested(Outer, Nested);
      Cur = OutTy;
      return true;
    }
    case OpK::WhereNestedAny: {
      const SourceSpec *Inner = nestedSource(Op);
      if (!Inner)
        return false;
      E Outer = freshOuter();
      ElemTy OuterTy = Cur;
      E Y = param(Inner->Ty == ElemTy::Double ? "y" : "yi", tyOf(Inner->Ty));
      E Bp = param("nb", Type::boolTy());
      ElemTy CmpTy = (OuterTy == ElemTy::Double || Inner->Ty == ElemTy::Double)
                         ? ElemTy::Double
                         : ElemTy::Int64;
      E Cmp = convertTo(Y, Inner->Ty, CmpTy) > convertTo(Outer, OuterTy, CmpTy);
      Query Nested =
          sourceQuery(*Inner).aggregate(E(false), lambda({Bp, Y}, Bp || Cmp));
      Q = Q.whereNested(Outer, Nested);
      return true;
    }
    case OpK::GroupAgg:
    case OpK::GroupAggDense:
      return applyGroupAgg(Op);
    case OpK::Agg:
      return applyAgg(Op);
    }
    return fail("bad op kind");
  }

  bool applyGroupAgg(const OpSpec &Op) {
    Lambda KeySel;
    if (Op.K == OpK::GroupAggDense) {
      if (Op.IArg < 1 || Op.IArg > 64)
        return fail("dense key bound must be in [1, 64]");
      KeySel = denseKey(Op.IArg);
    } else {
      if (!buildKey(Op, KeySel))
        return false;
      // Hash group keys must be int64; Id/Abs/Negate keys over double
      // elements would be double-typed.
      if (Cur == ElemTy::Double && Op.Key != KeyTmpl::Bucket)
        return fail("groupagg over double elements requires a bucket key");
    }

    E X = elemParam();
    E SeedE = E(0.0);
    Lambda Step;
    Lambda Combine;
    switch (Op.G) {
    case GroupStep::Sum: {
      E A = param("a", tyOf(Cur));
      SeedE = constOf(Cur, 0);
      Step = lambda({A, X}, A + X);
      if (Op.Combine) {
        E B = param("b", tyOf(Cur));
        Combine = lambda({A, B}, A + B);
      }
      break;
    }
    case GroupStep::Count: {
      E C = param("c", Type::int64Ty());
      SeedE = E(std::int64_t{0});
      Step = lambda({C, X}, C + E(std::int64_t{1}));
      if (Op.Combine) {
        E C2 = param("c2", Type::int64Ty());
        Combine = lambda({C, C2}, C + C2);
      }
      break;
    }
    case GroupStep::Max: {
      E A = param("a", tyOf(Cur));
      SeedE = Cur == ElemTy::Double ? E(-1e18)
                                    : E(std::int64_t{-1000000000000LL});
      Step = lambda({A, X}, max(A, X));
      if (Op.Combine) {
        E B = param("b", tyOf(Cur));
        Combine = lambda({A, B}, max(A, B));
      }
      break;
    }
    }

    if (Op.K == OpK::GroupAggDense)
      Q = Q.groupByAggregateDense(std::move(KeySel), E(Op.IArg),
                                  std::move(SeedE), std::move(Step), Lambda(),
                                  std::move(Combine));
    else
      Q = Q.groupByAggregate(std::move(KeySel), std::move(SeedE),
                             std::move(Step), Lambda(), std::move(Combine));
    Terminal = true;
    return true;
  }

  bool applyAgg(const OpSpec &Op) {
    E X = elemParam();
    switch (Op.A) {
    case AggKind::Sum:
      Q = Q.sum();
      break;
    case AggKind::Count:
      Q = Q.count();
      break;
    case AggKind::Min:
      Q = Q.min();
      break;
    case AggKind::Max:
      Q = Q.max();
      break;
    case AggKind::Average:
      if (Cur != ElemTy::Double)
        return fail("average requires double elements");
      Q = Q.average();
      break;
    case AggKind::Any:
      Q = Q.any();
      break;
    case AggKind::AllGtC:
      Q = Q.all(lambda({X}, X > constOf(Cur, Op.DArg)));
      break;
    case AggKind::First:
      Q = Q.firstOrDefault(constOf(Cur, Op.DArg));
      break;
    case AggKind::Contains:
      if (Cur != ElemTy::Int64)
        return fail("contains requires int64 elements");
      Q = Q.contains(E(static_cast<std::int64_t>(Op.DArg)));
      break;
    case AggKind::FoldAssoc:
    case AggKind::FoldNonAssoc:
    case AggKind::FoldNoComb: {
      E A = param("a", tyOf(Cur));
      E B = param("b", tyOf(Cur));
      Lambda Combine;
      if (Op.A == AggKind::FoldAssoc)
        Combine = lambda({A, B}, A + B);
      else if (Op.A == AggKind::FoldNonAssoc)
        Combine = lambda({A, B}, A - B);
      Q = Q.aggregate(constOf(Cur, 0), lambda({A, X}, A + X), Lambda(),
                      std::move(Combine));
      break;
    }
    case AggKind::FoldPairMean: {
      TypeRef AccTy = Type::pairTy(Type::doubleTy(), Type::int64Ty());
      E A = param("pa", AccTy);
      E B = param("pb", AccTy);
      E Xd = convertTo(X, Cur, ElemTy::Double);
      Q = Q.aggregate(
          pair(E(0.0), E(std::int64_t{0})),
          lambda({A, X}, pair(A.first() + Xd, A.second() + E(std::int64_t{1}))),
          lambda({A}, cond(A.second() > E(std::int64_t{0}),
                           A.first() / toDouble(A.second()), E(0.0))),
          lambda({A, B},
                 pair(A.first() + B.first(), A.second() + B.second())));
      break;
    }
    }
    Terminal = true;
    return true;
  }
};

} // namespace

bool fuzz::buildSpec(const QuerySpec &Spec, BuiltQuery &Out,
                     std::string *Err) {
  auto fail = [&](const std::string &Msg) {
    if (Err)
      *Err = Msg;
    return false;
  };

  if (Spec.Sources.empty())
    return fail("spec declares no sources");
  if (Spec.Sources[0].Slot != 0)
    return fail("the primary source must use slot 0");

  BuildCtx Ctx(Spec);
  for (const SourceSpec &S : Spec.Sources) {
    if (!Ctx.Slots.emplace(S.Slot, &S).second)
      return fail("duplicate source slot " + std::to_string(S.Slot));
  }

  Ctx.Q = BuildCtx::sourceQuery(Spec.Sources[0]);
  Ctx.Cur = Spec.Sources[0].Ty;
  for (const OpSpec &Op : Spec.Ops)
    if (!Ctx.applyOp(Op)) {
      if (Err)
        *Err = Ctx.Err;
      return false;
    }

  Out.Q = std::move(Ctx.Q);
  Out.DoubleBufs.clear();
  Out.Int64Bufs.clear();
  Out.B = Bindings();
  for (const SourceSpec &S : Spec.Sources) {
    if (S.Ty == ElemTy::Double) {
      Out.DoubleBufs.push_back(makeDoubles(S));
      const std::vector<double> &Buf = Out.DoubleBufs.back();
      Out.B.bindDoubleArray(S.Slot, Buf.data(),
                            static_cast<std::int64_t>(Buf.size()));
    } else {
      Out.Int64Bufs.push_back(makeInt64s(S));
      const std::vector<std::int64_t> &Buf = Out.Int64Bufs.back();
      Out.B.bindInt64Array(S.Slot, Buf.data(),
                           static_cast<std::int64_t>(Buf.size()));
    }
  }
  if (Spec.HasCaptureD)
    Out.B.setValue(0, Value(Spec.CaptureD));
  if (Spec.HasCaptureI)
    Out.B.setValue(1, Value(Spec.CaptureI));
  return true;
}

//===----------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------===//

std::string fuzz::serializeSpec(const QuerySpec &Spec) {
  std::string Out = "steno-fuzz v1\n";
  for (const SourceSpec &S : Spec.Sources)
    Out += support::strFormat(
        "source %u %s %u %s %llu\n", S.Slot, tokenName(ElemTyTokens, S.Ty),
        S.Count, tokenName(DataClassTokens, S.Data),
        static_cast<unsigned long long>(S.Seed));
  if (Spec.HasCaptureD)
    Out += "capture double " + fmtDouble(Spec.CaptureD) + "\n";
  if (Spec.HasCaptureI)
    Out += support::strFormat("capture int64 %lld\n",
                              static_cast<long long>(Spec.CaptureI));
  for (const OpSpec &Op : Spec.Ops) {
    switch (Op.K) {
    case OpK::Select:
      Out += std::string("op select ") + tokenName(TransTokens, Op.T) + " " +
             fmtDouble(Op.DArg) + "\n";
      break;
    case OpK::Where:
      Out += std::string("op where ") + tokenName(PredTokens, Op.P) + " " +
             fmtDouble(Op.DArg) + "\n";
      break;
    case OpK::Take:
      Out += support::strFormat("op take %lld\n",
                                static_cast<long long>(Op.IArg));
      break;
    case OpK::Skip:
      Out += support::strFormat("op skip %lld\n",
                                static_cast<long long>(Op.IArg));
      break;
    case OpK::TakeWhile:
      Out += std::string("op takewhile ") + tokenName(PredTokens, Op.P) +
             " " + fmtDouble(Op.DArg) + "\n";
      break;
    case OpK::SkipWhile:
      Out += std::string("op skipwhile ") + tokenName(PredTokens, Op.P) +
             " " + fmtDouble(Op.DArg) + "\n";
      break;
    case OpK::OrderBy:
      Out += std::string("op orderby ") + tokenName(KeyTokens, Op.Key) + " " +
             fmtDouble(Op.DArg) + "\n";
      break;
    case OpK::ToArray:
      Out += "op toarray\n";
      break;
    case OpK::SelectMany:
      Out += support::strFormat("op selectmany %u %s %lld\n", Op.Slot,
                                tokenName(NestedTokens, Op.N),
                                static_cast<long long>(Op.IArg));
      break;
    case OpK::SelectManyRange:
      Out += support::strFormat("op selectmanyrange %lld %s\n",
                                static_cast<long long>(Op.IArg),
                                tokenName(NestedTokens, Op.N));
      break;
    case OpK::SelectNestedSum:
      Out += support::strFormat("op selectnestedsum %u %s\n", Op.Slot,
                                tokenName(NestedTokens, Op.N));
      break;
    case OpK::WhereNestedAny:
      Out += support::strFormat("op wherenestedany %u\n", Op.Slot);
      break;
    case OpK::GroupAgg:
      Out += std::string("op groupagg ") + tokenName(KeyTokens, Op.Key) +
             " " + fmtDouble(Op.DArg) + " " +
             tokenName(GroupStepTokens, Op.G) +
             (Op.Combine ? " combine" : " nocombine") + "\n";
      break;
    case OpK::GroupAggDense:
      Out += support::strFormat(
          "op groupaggdense %lld %s %s\n", static_cast<long long>(Op.IArg),
          tokenName(GroupStepTokens, Op.G),
          Op.Combine ? "combine" : "nocombine");
      break;
    case OpK::Agg:
      Out += std::string("op agg ") + tokenName(AggTokens, Op.A) + " " +
             fmtDouble(Op.DArg) + "\n";
      break;
    }
  }
  Out += "end\n";
  return Out;
}

bool fuzz::parseSpec(const std::string &Text, QuerySpec &Spec,
                     std::string *Err) {
  auto fail = [&](unsigned LineNo, const std::string &Msg) {
    if (Err)
      *Err = "line " + std::to_string(LineNo) + ": " + Msg;
    return false;
  };

  Spec = QuerySpec();
  std::istringstream In(Text);
  std::string Line;
  unsigned LineNo = 0;
  std::uint64_t Rows = 0;
  bool SawHeader = false;
  bool SawEnd = false;
  while (std::getline(In, Line)) {
    ++LineNo;
    // Strip comments and skip blank lines.
    std::size_t Hash = Line.find('#');
    if (Hash != std::string::npos)
      Line.erase(Hash);
    std::istringstream Fields(Line);
    std::string Tok;
    if (!(Fields >> Tok))
      continue;
    if (SawEnd)
      return fail(LineNo, "content after 'end'");

    if (!SawHeader) {
      std::string Version;
      Fields >> Version;
      if (Tok != "steno-fuzz" || Version != "v1")
        return fail(LineNo, "expected 'steno-fuzz v1' header");
      SawHeader = true;
      continue;
    }

    if (Tok == "end") {
      SawEnd = true;
      continue;
    }
    if (Tok == "source") {
      SourceSpec S;
      std::string Ty, Cls;
      unsigned long long Seed = 0;
      if (!(Fields >> S.Slot >> Ty >> S.Count >> Cls >> Seed))
        return fail(LineNo, "malformed source line");
      if (!tokenParse(ElemTyTokens, Ty, S.Ty))
        return fail(LineNo, "unknown element type '" + Ty + "'");
      if (!tokenParse(DataClassTokens, Cls, S.Data))
        return fail(LineNo, "unknown data class '" + Cls + "'");
      S.Seed = Seed;
      Rows += S.Count;
      if (Rows > MaxSpecRows)
        return fail(LineNo,
                    "sources declare " + std::to_string(Rows) +
                        " rows, more than the cap of " +
                        std::to_string(MaxSpecRows));
      Spec.Sources.push_back(S);
      continue;
    }
    if (Tok == "capture") {
      std::string Ty;
      if (!(Fields >> Ty))
        return fail(LineNo, "malformed capture line");
      if (Ty == "double") {
        if (!(Fields >> Spec.CaptureD))
          return fail(LineNo, "malformed double capture");
        Spec.HasCaptureD = true;
      } else if (Ty == "int64") {
        long long V;
        if (!(Fields >> V))
          return fail(LineNo, "malformed int64 capture");
        Spec.CaptureI = V;
        Spec.HasCaptureI = true;
      } else {
        return fail(LineNo, "unknown capture type '" + Ty + "'");
      }
      continue;
    }
    if (Tok != "op")
      return fail(LineNo, "unknown directive '" + Tok + "'");

    std::string Kind;
    if (!(Fields >> Kind))
      return fail(LineNo, "missing op kind");
    OpSpec Op;
    auto parseTok = [&](auto &Table, auto &Out, const char *What) {
      std::string S;
      if (!(Fields >> S) || !tokenParse(Table, S, Out)) {
        fail(LineNo, std::string("bad ") + What + " token");
        return false;
      }
      return true;
    };
    long long LL = 0;
    if (Kind == "select") {
      Op.K = OpK::Select;
      if (!parseTok(TransTokens, Op.T, "trans") || !(Fields >> Op.DArg))
        return fail(LineNo, "malformed select op");
    } else if (Kind == "where") {
      Op.K = OpK::Where;
      if (!parseTok(PredTokens, Op.P, "pred") || !(Fields >> Op.DArg))
        return fail(LineNo, "malformed where op");
    } else if (Kind == "take" || Kind == "skip") {
      Op.K = Kind == "take" ? OpK::Take : OpK::Skip;
      if (!(Fields >> LL))
        return fail(LineNo, "malformed count");
      Op.IArg = LL;
    } else if (Kind == "takewhile" || Kind == "skipwhile") {
      Op.K = Kind == "takewhile" ? OpK::TakeWhile : OpK::SkipWhile;
      if (!parseTok(PredTokens, Op.P, "pred") || !(Fields >> Op.DArg))
        return fail(LineNo, "malformed while op");
    } else if (Kind == "orderby") {
      Op.K = OpK::OrderBy;
      if (!parseTok(KeyTokens, Op.Key, "key") || !(Fields >> Op.DArg))
        return fail(LineNo, "malformed orderby op");
    } else if (Kind == "toarray") {
      Op.K = OpK::ToArray;
    } else if (Kind == "selectmany") {
      Op.K = OpK::SelectMany;
      if (!(Fields >> Op.Slot) || !parseTok(NestedTokens, Op.N, "nested") ||
          !(Fields >> LL))
        return fail(LineNo, "malformed selectmany op");
      Op.IArg = LL;
    } else if (Kind == "selectmanyrange") {
      Op.K = OpK::SelectManyRange;
      if (!(Fields >> LL) || !parseTok(NestedTokens, Op.N, "nested"))
        return fail(LineNo, "malformed selectmanyrange op");
      Op.IArg = LL;
    } else if (Kind == "selectnestedsum") {
      Op.K = OpK::SelectNestedSum;
      if (!(Fields >> Op.Slot) || !parseTok(NestedTokens, Op.N, "nested"))
        return fail(LineNo, "malformed selectnestedsum op");
    } else if (Kind == "wherenestedany") {
      Op.K = OpK::WhereNestedAny;
      if (!(Fields >> Op.Slot))
        return fail(LineNo, "malformed wherenestedany op");
    } else if (Kind == "groupagg") {
      Op.K = OpK::GroupAgg;
      std::string Comb;
      if (!parseTok(KeyTokens, Op.Key, "key") || !(Fields >> Op.DArg) ||
          !parseTok(GroupStepTokens, Op.G, "group step") || !(Fields >> Comb))
        return fail(LineNo, "malformed groupagg op");
      if (Comb != "combine" && Comb != "nocombine")
        return fail(LineNo, "expected combine|nocombine");
      Op.Combine = Comb == "combine";
    } else if (Kind == "groupaggdense") {
      Op.K = OpK::GroupAggDense;
      std::string Comb;
      if (!(Fields >> LL) ||
          !parseTok(GroupStepTokens, Op.G, "group step") || !(Fields >> Comb))
        return fail(LineNo, "malformed groupaggdense op");
      if (Comb != "combine" && Comb != "nocombine")
        return fail(LineNo, "expected combine|nocombine");
      Op.IArg = LL;
      Op.Combine = Comb == "combine";
    } else if (Kind == "agg") {
      Op.K = OpK::Agg;
      if (!parseTok(AggTokens, Op.A, "agg") || !(Fields >> Op.DArg))
        return fail(LineNo, "malformed agg op");
    } else {
      return fail(LineNo, "unknown op kind '" + Kind + "'");
    }
    Spec.Ops.push_back(Op);
  }
  if (!SawHeader)
    return fail(LineNo, "missing 'steno-fuzz v1' header");
  if (!SawEnd)
    return fail(LineNo, "missing 'end' sentinel (truncated file?)");
  return true;
}

std::string fuzz::specSummary(const QuerySpec &Spec) {
  std::string Out;
  for (const SourceSpec &S : Spec.Sources) {
    if (!Out.empty())
      Out += ", ";
    Out += support::strFormat("%s[%u,%s]", tokenName(ElemTyTokens, S.Ty),
                              S.Count, tokenName(DataClassTokens, S.Data));
  }
  for (const OpSpec &Op : Spec.Ops) {
    Out += " |> ";
    switch (Op.K) {
    case OpK::Select:
      Out += std::string("select(") + tokenName(TransTokens, Op.T) + ")";
      break;
    case OpK::Where:
      Out += std::string("where(") + tokenName(PredTokens, Op.P) + ")";
      break;
    case OpK::Take:
      Out += support::strFormat("take(%lld)", static_cast<long long>(Op.IArg));
      break;
    case OpK::Skip:
      Out += support::strFormat("skip(%lld)", static_cast<long long>(Op.IArg));
      break;
    case OpK::TakeWhile:
      Out += std::string("takewhile(") + tokenName(PredTokens, Op.P) + ")";
      break;
    case OpK::SkipWhile:
      Out += std::string("skipwhile(") + tokenName(PredTokens, Op.P) + ")";
      break;
    case OpK::OrderBy:
      Out += std::string("orderby(") + tokenName(KeyTokens, Op.Key) + ")";
      break;
    case OpK::ToArray:
      Out += "toarray";
      break;
    case OpK::SelectMany:
      Out += support::strFormat("selectmany(%u,%s)", Op.Slot,
                                tokenName(NestedTokens, Op.N));
      break;
    case OpK::SelectManyRange:
      Out += support::strFormat("selectmanyrange(%%%lld)",
                                static_cast<long long>(Op.IArg));
      break;
    case OpK::SelectNestedSum:
      Out += support::strFormat("selectnestedsum(%u)", Op.Slot);
      break;
    case OpK::WhereNestedAny:
      Out += support::strFormat("wherenestedany(%u)", Op.Slot);
      break;
    case OpK::GroupAgg:
      Out += std::string("groupagg(") + tokenName(GroupStepTokens, Op.G) +
             (Op.Combine ? ",combine)" : ",nocombine)");
      break;
    case OpK::GroupAggDense:
      Out += support::strFormat("groupaggdense(%lld,%s)",
                                static_cast<long long>(Op.IArg),
                                tokenName(GroupStepTokens, Op.G));
      break;
    case OpK::Agg:
      Out += std::string("agg(") + tokenName(AggTokens, Op.A) + ")";
      break;
    }
  }
  return Out;
}
