//===- vec/Batch.h - Columnar batch buffers and lane selections -*- C++ -*-===//
//
// Part of the Steno/C++ reproduction of Murray, Isard & Yu,
// "Steno: Automatic Optimization of Declarative Queries" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The data layer of vectorized execution (DESIGN.md §5i): typed column
/// buffers, lane selections, and the per-thread buffer pool that lets the
/// morsel scheduler push batch after batch through an operator chain
/// without touching the allocator.
///
/// A batch is up to batchSize() consecutive source elements. Each operator
/// kernel reads one column (a contiguous double / int64 / bool buffer, or
/// a borrowed window of the bound source) and either writes another column
/// (Trans) or narrows the set of live lanes (Pred). Lanes are addressed by
/// their position within the batch, so a column written by an early stage
/// stays valid for any later stage regardless of how the selection has
/// shrunk in between.
///
//===----------------------------------------------------------------------===//

#ifndef STENO_VEC_BATCH_H
#define STENO_VEC_BATCH_H

#include "expr/Type.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace steno {
namespace vec {

/// STENO_VECTORIZE (support::parseFlag, default on) — the default for
/// CompileOptions::Vectorize.
bool vectorizeEnvEnabled();

/// Target batch width in elements: STENO_BATCH_SIZE (support::parseCount,
/// default 1024, clamped to [16, 65536]). Read on every call so a bench
/// sweep can re-point it between compiles.
std::size_t batchSizeFromEnv();

/// Owned backing storage for one column. Only the vector matching the
/// column's type is ever grown; the others stay empty.
struct ColBuf {
  std::vector<double> D;
  std::vector<std::int64_t> I;
  std::vector<std::uint8_t> B;

  double *dbl(std::size_t N) {
    if (D.size() < N)
      D.resize(N);
    return D.data();
  }
  std::int64_t *i64(std::size_t N) {
    if (I.size() < N)
      I.resize(N);
    return I.data();
  }
  std::uint8_t *bl(std::size_t N) {
    if (B.size() < N)
      B.resize(N);
    return B.data();
  }
};

/// Read-only view of one column for the current batch. Points either into
/// a bound source buffer (zero-copy loads) or into a pooled ColBuf.
struct Col {
  expr::TypeKind K = expr::TypeKind::Double;
  const double *D = nullptr;
  const std::int64_t *I = nullptr;
  const std::uint8_t *B = nullptr;

  static Col dbl(const double *P) { return {expr::TypeKind::Double, P, nullptr, nullptr}; }
  static Col i64(const std::int64_t *P) { return {expr::TypeKind::Int64, nullptr, P, nullptr}; }
  static Col bl(const std::uint8_t *P) { return {expr::TypeKind::Bool, nullptr, nullptr, P}; }
};

/// The live lanes of the current batch: a dense window [Lo, Hi) straight
/// off the source, or — once a Where has fired — an ascending index list
/// (the selection vector), windowed by [Off, Cnt) so Skip can drop a
/// prefix without moving memory.
struct Lanes {
  bool Dense = true;
  std::int64_t Lo = 0, Hi = 0;
  const std::int32_t *Idx = nullptr;
  std::int64_t Off = 0, Cnt = 0;

  std::int64_t size() const { return Dense ? Hi - Lo : Cnt - Off; }
  bool empty() const { return size() <= 0; }

  static Lanes dense(std::int64_t N) { return Lanes{true, 0, N, nullptr, 0, 0}; }

  /// Visits live lanes in batch order. \p Fn receives the lane index.
  template <class F> void forEach(F &&Fn) const {
    if (Dense)
      for (std::int64_t L = Lo; L < Hi; ++L)
        Fn(L);
    else
      for (std::int64_t S = Off; S < Cnt; ++S)
        Fn(Idx[S]);
  }

  /// Lane at selection position \p S (order within the batch).
  std::int64_t at(std::int64_t S) const {
    return Dense ? Lo + S : Idx[Off + S];
  }
};

/// Bump pool of column buffers and selection vectors. Everything handed
/// out stays owned by the pool; reset() recycles it all without freeing,
/// so steady-state batch execution performs no allocation at all.
class Scratch {
public:
  ColBuf &col() {
    if (UsedCols == Cols.size())
      Cols.push_back(std::make_unique<ColBuf>());
    return *Cols[UsedCols++];
  }

  std::vector<std::int32_t> &sel() {
    if (UsedSels == Sels.size())
      Sels.push_back(std::make_unique<std::vector<std::int32_t>>());
    return *Sels[UsedSels++];
  }

  void reset() {
    UsedCols = 0;
    UsedSels = 0;
  }

private:
  std::vector<std::unique_ptr<ColBuf>> Cols;
  std::vector<std::unique_ptr<std::vector<std::int32_t>>> Sels;
  std::size_t UsedCols = 0;
  std::size_t UsedSels = 0;
};

/// Per-thread execution workspace: the operator-stage columns, the batch
/// selection vector, and the expression scratch pool. One per worker
/// thread (workspace() below), reused across batches, morsels and
/// queries — the "per-worker buffer pool" that keeps work-stealing free
/// of re-allocation.
struct Workspace {
  std::vector<ColBuf> StageCols; ///< One per Trans stage, grown on demand.
  std::vector<std::int32_t> Sel; ///< The batch's selection vector.
  Scratch Scr;                   ///< Expression temporaries.

  ColBuf &stage(std::size_t I) {
    if (StageCols.size() <= I)
      StageCols.resize(I + 1);
    return StageCols[I];
  }
};

/// The calling thread's workspace (thread-local; created on first use).
Workspace &workspace();

} // namespace vec
} // namespace steno

#endif // STENO_VEC_BATCH_H
