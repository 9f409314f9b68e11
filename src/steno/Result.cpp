//===- steno/Result.cpp ---------------------------------------*- C++ -*-===//

#include "steno/Result.h"
#include "support/Error.h"

#include <cassert>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <new>

using namespace steno;
using expr::Type;
using expr::TypeKind;
using expr::TypeRef;
using expr::Value;

/// The columns and their lazily built Value view. Every column's block is
/// a malloc-family block, this state's to free.
struct QueryResult::State {
  bool Scalar = false;
  TypeRef RowType;
  std::vector<rt::Column> Cols;
  mutable std::once_flag ViewOnce;
  mutable std::vector<Value> View;

  ~State() {
    for (rt::Column &C : Cols)
      std::free(C.Data);
  }
};

namespace {

/// The result ABI's Grow: reallocs \p C to at least \p MinCells cells and
/// at least twice its size.
void growColumn(rt::Column *C, std::int64_t MinCells) {
  std::int64_t Cap = C->Cap < 4 ? 8 : 2 * C->Cap;
  if (Cap < MinCells)
    Cap = MinCells;
  if (Cap > INT64_MAX / 8)
    throw std::bad_alloc();
  void *New = std::realloc(C->Data, static_cast<std::size_t>(Cap) * 8);
  if (!New)
    throw std::bad_alloc();
  C->Data = New;
  C->Cap = Cap;
}

std::size_t columnCount(const Type &Ty) {
  switch (Ty.kind()) {
  case TypeKind::Pair:
    return columnCount(*Ty.first()) + columnCount(*Ty.second());
  case TypeKind::Vec:
    return 2;
  default:
    return 1;
  }
}

const std::int64_t *int64s(const rt::Column &C) {
  return static_cast<const std::int64_t *>(C.Data);
}

const double *doubles(const rt::Column &C) {
  return static_cast<const double *>(C.Data);
}

/// Row \p Row's value of type \p Ty, whose cells start at column \p C;
/// advances \p C past them.
Value cellValue(const Type &Ty, const std::vector<rt::Column> &Cols,
                std::int64_t Row, std::size_t &C) {
  switch (Ty.kind()) {
  case TypeKind::Bool:
    return Value(int64s(Cols[C++])[Row] != 0);
  case TypeKind::Int64:
    return Value(int64s(Cols[C++])[Row]);
  case TypeKind::Double:
    return Value(doubles(Cols[C++])[Row]);
  case TypeKind::Vec: {
    const std::int64_t *Ends = int64s(Cols[C]);
    std::int64_t Begin = Row ? Ends[Row - 1] : 0;
    const double *Data = doubles(Cols[C + 1]) + Begin;
    C += 2;
    return Value(expr::VecView{Data, Ends[Row] - Begin});
  }
  case TypeKind::Pair: {
    Value First = cellValue(*Ty.first(), Cols, Row, C);
    Value Second = cellValue(*Ty.second(), Cols, Row, C);
    return Value::makePair(std::move(First), std::move(Second));
  }
  }
  stenoUnreachable("bad TypeKind");
}

TypeRef typeOf(const Value &V) {
  switch (V.kind()) {
  case TypeKind::Bool:
    return Type::boolTy();
  case TypeKind::Int64:
    return Type::int64Ty();
  case TypeKind::Double:
    return Type::doubleTy();
  case TypeKind::Vec:
    return Type::vecTy();
  case TypeKind::Pair:
    return Type::pairTy(typeOf(V.first()), typeOf(V.second()));
  }
  stenoUnreachable("bad TypeKind");
}

/// Appends \p V, of type \p Ty, with the generated loop's own appends.
void addCells(rt::Columns &Out, rt::Column *&C, const Type &Ty,
              const Value &V) {
  switch (Ty.kind()) {
  case TypeKind::Bool:
    return rt::appendCells(&Out, C, V.asBool());
  case TypeKind::Int64:
    return rt::appendCells(&Out, C, V.asInt64());
  case TypeKind::Double:
    return rt::appendCells(&Out, C, V.asDouble());
  case TypeKind::Vec: {
    expr::VecView W = V.asVec();
    return rt::appendCells(&Out, C, rt::VecView{W.Data, W.Len});
  }
  case TypeKind::Pair:
    addCells(Out, C, *Ty.first(), V.first());
    return addCells(Out, C, *Ty.second(), V.second());
  }
}

/// Appends \p From's cells to \p To, each plus \p Rebase.
void appendColumn(rt::Column &To, const rt::Column &From,
                  std::int64_t Rebase) {
  if (To.Len + From.Len > To.Cap)
    growColumn(&To, To.Len + From.Len);
  if (From.Len)
    std::memcpy(static_cast<std::int64_t *>(To.Data) + To.Len, From.Data,
                static_cast<std::size_t>(From.Len) * 8);
  std::int64_t *Cells = static_cast<std::int64_t *>(To.Data) + To.Len;
  for (std::int64_t I = 0; Rebase && I != From.Len; ++I)
    Cells[I] += Rebase;
  To.Len += From.Len;
}

/// Appends the columns of cells of type \p Ty from column \p C on,
/// advancing \p C past them: a vec's end offsets move past the payload
/// \p To already holds.
void appendColumns(const Type &Ty, std::vector<rt::Column> &To,
                   const std::vector<rt::Column> &From, std::size_t &C) {
  switch (Ty.kind()) {
  case TypeKind::Pair:
    appendColumns(*Ty.first(), To, From, C);
    return appendColumns(*Ty.second(), To, From, C);
  case TypeKind::Vec:
    appendColumn(To[C], From[C], To[C + 1].Len);
    appendColumn(To[C + 1], From[C + 1], 0);
    C += 2;
    return;
  default:
    appendColumn(To[C], From[C], 0);
    ++C;
  }
}

/// Appends cells \p Order of the columns of cells of type \p Ty from
/// column \p C + \p Shift of \p From on to \p To's columns from \p C
/// on, advancing \p C past them: a vec's payload is copied row by row,
/// and its end offsets count the payload \p To already holds.
void gatherColumns(const Type &Ty, std::vector<rt::Column> &To,
                   const std::vector<rt::Column> &From, std::size_t Shift,
                   std::span<const std::int64_t> Order, std::size_t &C) {
  const std::int64_t N = static_cast<std::int64_t>(Order.size());
  switch (Ty.kind()) {
  case TypeKind::Pair:
    gatherColumns(*Ty.first(), To, From, Shift, Order, C);
    return gatherColumns(*Ty.second(), To, From, Shift, Order, C);
  case TypeKind::Vec: {
    rt::Column &Ends = To[C];
    rt::Column &Payload = To[C + 1];
    const std::int64_t *FromEnds = int64s(From[C + Shift]);
    const double *FromPayload = doubles(From[C + Shift + 1]);
    if (Ends.Len + N > Ends.Cap)
      growColumn(&Ends, Ends.Len + N);
    for (std::int64_t Row : Order) {
      std::int64_t Begin = Row ? FromEnds[Row - 1] : 0;
      std::int64_t Len = FromEnds[Row] - Begin;
      if (Payload.Len + Len > Payload.Cap)
        growColumn(&Payload, Payload.Len + Len);
      if (Len)
        std::memcpy(static_cast<double *>(Payload.Data) + Payload.Len,
                    FromPayload + Begin, static_cast<std::size_t>(Len) * 8);
      Payload.Len += Len;
      static_cast<std::int64_t *>(Ends.Data)[Ends.Len++] = Payload.Len;
    }
    C += 2;
    return;
  }
  default: {
    rt::Column &Col = To[C];
    const std::int64_t *Cells = int64s(From[C + Shift]);
    if (Col.Len + N > Col.Cap)
      growColumn(&Col, Col.Len + N);
    std::int64_t *Dst = static_cast<std::int64_t *>(Col.Data) + Col.Len;
    for (std::int64_t I = 0; I != N; ++I)
      Dst[I] = Cells[Order[I]];
    Col.Len += N;
    ++C;
  }
  }
}

} // namespace

//===----------------------------------------------------------------===//
// QueryResult
//===----------------------------------------------------------------===//

bool QueryResult::isScalar() const { return S && S->Scalar; }

std::int64_t QueryResult::numRows() const {
  return S && !S->Cols.empty() ? S->Cols[0].Len : 0;
}

const TypeRef &QueryResult::rowType() const {
  static const TypeRef None;
  return S ? S->RowType : None;
}

std::size_t QueryResult::numColumns() const { return S ? S->Cols.size() : 0; }

std::span<const std::int64_t> QueryResult::int64Column(std::size_t C) const {
  const rt::Column &Col = S->Cols[C];
  return {int64s(Col), static_cast<std::size_t>(Col.Len)};
}

std::span<const double> QueryResult::doubleColumn(std::size_t C) const {
  const rt::Column &Col = S->Cols[C];
  return {doubles(Col), static_cast<std::size_t>(Col.Len)};
}

const Value &QueryResult::scalarValue() const {
  assert(isScalar() && numRows() == 1 && "not a scalar result");
  return rows().front();
}

const std::vector<Value> &QueryResult::rows() const {
  static const std::vector<Value> Empty;
  if (!S)
    return Empty;
  std::call_once(S->ViewOnce, [St = S.get()] {
    std::int64_t N = St->Cols.empty() ? 0 : St->Cols[0].Len;
    St->View.reserve(static_cast<std::size_t>(N));
    for (std::int64_t Row = 0; Row != N; ++Row) {
      std::size_t C = 0;
      St->View.push_back(cellValue(*St->RowType, St->Cols, Row, C));
    }
  });
  return S->View;
}

//===----------------------------------------------------------------===//
// ResultBuilder
//===----------------------------------------------------------------===//

ResultBuilder::ResultBuilder(bool Scalar, TypeRef RowType)
    : S(std::make_shared<QueryResult::State>()) {
  S->Scalar = Scalar;
  if (RowType)
    setType(std::move(RowType));
}

void ResultBuilder::setType(TypeRef Ty) {
  S->Cols.resize(columnCount(*Ty));
  S->RowType = std::move(Ty);
}

rt::Columns ResultBuilder::columns() {
  return rt::Columns{S->Cols.data(), &growColumn};
}

void ResultBuilder::add(const Value &Row) {
  if (!S->RowType)
    setType(typeOf(Row));
  rt::Columns Out = columns();
  rt::Column *C = Out.Cols;
  addCells(Out, C, *S->RowType, Row);
}

bool ResultBuilder::fits(const Value &Row) const {
  return !S->RowType || expr::sameType(S->RowType, typeOf(Row));
}

void ResultBuilder::append(const QueryResult &Part) {
  if (Part.numRows() == 0)
    return;
  if (!S->RowType)
    setType(Part.rowType());
  assert(expr::sameType(S->RowType, Part.rowType()) && "another row type");
  std::size_t C = 0;
  appendColumns(*S->RowType, S->Cols, Part.S->Cols, C);
}

void ResultBuilder::appendRows(const QueryResult &From,
                               std::size_t FirstColumn,
                               std::span<const std::int64_t> Order) {
  assert(S->RowType && "gathering rows of an unknown type");
  if (Order.empty())
    return;
  std::size_t C = 0;
  gatherColumns(*S->RowType, S->Cols, From.S->Cols, FirstColumn, Order, C);
}

QueryResult ResultBuilder::finish() { return QueryResult(std::move(S)); }
