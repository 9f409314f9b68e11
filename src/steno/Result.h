//===- steno/Result.h - Query execution results ----------------*- C++ -*-===//
///
/// \file
/// The rows a query run produced, as typed columns: one column per
/// flattened cell of the row type, in pre-order over pairs. A bool or
/// int64 cell is an int64 column (a bool as 0 or 1), a double cell a
/// double column, and a vec cell two columns: the int64 end offset of each
/// row's vec, then the flat double payload of every row's vec (Query
/// shredding's layout for a nested collection). A scalar query has one
/// row.
///
/// The generated loop appends to the columns itself (steno/Rt.h's result
/// ABI) or hands over its sink's buffer, and the result keeps the blocks
/// as they are; every other producer fills them through a ResultBuilder.
/// A result's state is shared and immutable: copies share the columns,
/// and rows(), a Value view whose vecs point into the payload columns, is
/// built on its first call, by whichever thread calls first.
///
//===----------------------------------------------------------------------===//

#ifndef STENO_STENO_RESULT_H
#define STENO_STENO_RESULT_H

#include "expr/Value.h"
#include "steno/Rt.h"

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace steno {

/// Result of one query invocation.
class QueryResult {
public:
  /// An empty collection with no row type.
  QueryResult() = default;

  /// True for aggregate queries (exactly one value).
  bool isScalar() const;

  /// The number of rows: 1 for a scalar query.
  std::int64_t numRows() const;

  /// The type of every row. Null only for a default-constructed result
  /// and one decoded from a wire answer with no rows (the frame does not
  /// spell the type); neither has columns.
  const expr::TypeRef &rowType() const;

  std::size_t numColumns() const;
  /// Column \p C's cells as int64s: a bool, int64 or vec end-offsets
  /// column.
  std::span<const std::int64_t> int64Column(std::size_t C) const;
  /// Column \p C's cells as doubles: a double or vec payload column.
  std::span<const double> doubleColumn(std::size_t C) const;

  /// The scalar result; asserts the query was scalar.
  const expr::Value &scalarValue() const;

  /// All result rows as Values (for scalar queries: the single value),
  /// built on the first call. Safe to call from several threads at once.
  const std::vector<expr::Value> &rows() const;

private:
  friend class ResultBuilder;
  struct State;
  explicit QueryResult(std::shared_ptr<const State> S) : S(std::move(S)) {}

  std::shared_ptr<const State> S;
};

/// Builds a QueryResult's columns: through columns() for a generated
/// loop, and from Values, one row at a time, for every other producer.
class ResultBuilder {
public:
  /// Rows of \p RowType. A null \p RowType is taken from the first row
  /// added or appended (a wire answer does not spell it).
  explicit ResultBuilder(bool Scalar, expr::TypeRef RowType = nullptr);

  /// The columns, for a generated entry point to append to.
  rt::Columns columns();

  /// Appends \p Row, which must be of the row type, flattened. Vec
  /// payloads are copied, so \p Row may view storage that dies after.
  void add(const expr::Value &Row);

  /// Whether \p Row is of the row type (or the type is still open): the
  /// check for rows that arrive from outside the process.
  bool fits(const expr::Value &Row) const;

  /// Appends every row of \p Part, column by column: its row type must be
  /// this builder's, or \p Part empty.
  void append(const QueryResult &Part);

  /// Appends rows \p Order of \p From, in that order, column by column.
  /// A row's cells are \p From's from column \p FirstColumn on, which
  /// must be cells of this builder's row type (the second half of a pair
  /// whose first half's cells fill the columns before, say).
  void appendRows(const QueryResult &From, std::size_t FirstColumn,
                  std::span<const std::int64_t> Order);

  /// The result of the rows added so far; the builder is spent.
  QueryResult finish();

private:
  void setType(expr::TypeRef Ty);

  std::shared_ptr<QueryResult::State> S;
};

} // namespace steno

#endif // STENO_STENO_RESULT_H
