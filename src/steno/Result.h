//===- steno/Result.h - Query execution results ----------------*- C++ -*-===//
///
/// \file
/// The value(s) a query run produced: a single scalar for aggregate
/// queries, or a row vector for collection queries. Vec payloads inside
/// results are owned by an attached arena, so results remain valid after
/// the query's internal state is gone.
///
//===----------------------------------------------------------------------===//

#ifndef STENO_STENO_RESULT_H
#define STENO_STENO_RESULT_H

#include "expr/Value.h"

#include <cassert>
#include <deque>
#include <memory>
#include <vector>

namespace steno {

/// Result of one query invocation.
class QueryResult {
public:
  QueryResult() = default;

  QueryResult(bool Scalar, std::vector<expr::Value> Rows,
              std::shared_ptr<std::deque<std::vector<double>>> Arena)
      : Scalar(Scalar), Rows(std::move(Rows)), Arena(std::move(Arena)) {}

  /// True for aggregate queries (exactly one value).
  bool isScalar() const { return Scalar; }

  /// The scalar result; asserts the query was scalar and produced it.
  const expr::Value &scalarValue() const {
    assert(Scalar && Rows.size() == 1 && "not a scalar result");
    return Rows.front();
  }

  /// All result rows (for scalar queries: the single value).
  const std::vector<expr::Value> &rows() const { return Rows; }

private:
  bool Scalar = false;
  std::vector<expr::Value> Rows;
  std::shared_ptr<std::deque<std::vector<double>>> Arena;
};

/// Copies \p V with every Vec payload it holds, inside pairs too, copied
/// into \p Arena: the copy outlives the buffers \p V points into. How an
/// executor's result rows come to own their payloads.
inline expr::Value deepCopy(const expr::Value &V,
                            std::deque<std::vector<double>> &Arena) {
  switch (V.kind()) {
  case expr::TypeKind::Vec: {
    expr::VecView View = V.asVec();
    const std::vector<double> &Stored =
        Arena.emplace_back(View.Data, View.Data + View.Len);
    return expr::Value(expr::VecView{
        Stored.data(), static_cast<std::int64_t>(Stored.size())});
  }
  case expr::TypeKind::Pair:
    return expr::Value::makePair(deepCopy(V.first(), Arena),
                                 deepCopy(V.second(), Arena));
  default:
    return V;
  }
}

} // namespace steno

#endif // STENO_STENO_RESULT_H
