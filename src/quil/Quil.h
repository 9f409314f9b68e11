//===- quil/Quil.h - Query Intermediate Language ----------------*- C++ -*-===//
//
// Part of the Steno/C++ reproduction of Murray, Isard & Yu,
// "Steno: Automatic Optimization of Declarative Queries" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// QUIL (paper §4.1): the intermediate language that reduces the LINQ
/// operator zoo to six symbols,
///
///   (query) ::= Src ( Trans | Pred | Sink | (query) )* Agg? Ret
///
/// Table 1's classification maps our query::OpKind set onto these symbols
/// (see Lower.cpp). A nested query substitutes for a Trans or Pred symbol
/// (paper §5), making the language context-free; in this representation a
/// nested query is an Op of symbol Nested carrying its own Chain plus the
/// name of the outer element parameter it references.
///
//===----------------------------------------------------------------------===//

#ifndef STENO_QUIL_QUIL_H
#define STENO_QUIL_QUIL_H

#include "expr/Expr.h"
#include "expr/Lambda.h"
#include "query/Query.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace steno {
namespace quil {

/// The QUIL alphabet (Table 1), plus Nested for sub-queries.
enum class Sym { Src, Trans, Pred, Sink, Agg, Ret, Nested };

/// Upper bounds on run-time binding slots. Bindings are dense vectors
/// indexed by slot, so a garbage slot index (an uninitialized unsigned,
/// say) would demand a multi-gigabyte binding table at run time; the
/// validator and the analysis pipeline reject any chain whose expressions
/// reference slots at or above these limits.
constexpr unsigned MaxCaptureSlots = 256;
constexpr unsigned MaxSourceSlots = 64;

/// Which Pred-class operator an Op encodes: Where is stateless; Take/Skip
/// need a counter and TakeWhile/SkipWhile a flag in the generated prelude.
enum class PredOp { Where, Take, Skip, TakeWhile, SkipWhile };

/// Which Sink-class operator an Op encodes.
enum class SinkOp { GroupBy, GroupByAggregate, OrderBy, ToArray };

/// How a nested query is consumed by the outer query (paper §5):
///   Trans  — nested scalar query; its result becomes the next element.
///   Pred   — nested scalar bool query; filters the outer element.
///   Flatten— nested collection query (SelectMany); its elements continue
///            through the rest of the outer query (Figure 11).
enum class NestedRole { Trans, Pred, Flatten };

struct Chain;
using ChainRef = std::shared_ptr<const Chain>;

/// One QUIL operator instance, fully typed.
struct Op {
  Sym S = Sym::Ret;

  /// Src payload.
  query::SourceDesc Src;

  PredOp P = PredOp::Where;
  SinkOp K = SinkOp::ToArray;

  /// Trans function / Pred predicate / Sink key selector.
  expr::Lambda Fn;
  /// Agg or GroupByAggregate step: (acc, elem) -> acc.
  expr::Lambda Fn2;
  /// Agg result selector (acc) -> R, or GroupByAggregate result selector
  /// (key, acc) -> R. Invalid when defaulted.
  expr::Lambda Fn3;
  /// Associative combiner (acc, acc) -> acc when the aggregation supports
  /// per-partition partial evaluation (paper §6). Synthesized for the
  /// aggregate sugar; user-supplied for explicit folds; invalid otherwise.
  expr::Lambda Combine;
  /// Early-exit condition (acc) -> bool for short-circuiting aggregates
  /// (Any/All/First/Contains): once true, no further element can change
  /// the result and the generated loop breaks out.
  expr::Lambda StopWhen;
  /// Agg/GroupByAggregate seed, or Take/Skip count.
  expr::ExprRef Seed;
  /// Dense GroupByAggregate key-range bound (§4.3's O(1)-keys sink);
  /// null for the hash sink.
  expr::ExprRef DenseKeys;

  /// Nested payload.
  ChainRef NestedChain;
  NestedRole Role = NestedRole::Trans;
  std::string OuterParam;
  expr::TypeRef OuterParamTy;

  /// Element type consumed / produced by this operator. For Agg, OutElem
  /// is the scalar result type; for Ret both equal the chain result.
  expr::TypeRef InElem;
  expr::TypeRef OutElem;
};

/// A lowered query: a Src ... Ret operator string.
struct Chain {
  std::vector<Op> Ops;
  /// Element type (collection queries) or scalar type (aggregates).
  expr::TypeRef Result;
  bool Scalar = false;

  /// Symbol string for tests/debugging, nested chains in parentheses:
  /// "Src Trans (Src Agg Ret) Agg Ret".
  std::string symbols() const;
};

/// Lowers a query AST into QUIL, expanding aggregate sugar (Sum, Min, Max,
/// Count, Average) into explicit Agg seeds/steps (paper Table 1: they are
/// all foldl). Asserts the query is valid.
Chain lower(const query::Query &Q);

/// Validates \p C against the QUIL grammar with the Figure 4 state machine
/// (extended recursively for nested queries, §5.1). Returns an error
/// message, or std::nullopt when the chain is a valid QUIL sentence.
std::optional<std::string> validate(const Chain &C);

/// The GroupBy-Aggregate specialization of paper §4.3: rewrites
/// Sink(GroupBy) followed by a nested-Trans aggregation over the group's
/// bag into the fused Sink(GroupByAggregate), which stores per-key partial
/// aggregates instead of materialized groups. Returns the (possibly
/// rewritten) chain and reports via \p Applied whether it fired.
Chain specializeGroupByAggregate(const Chain &C, bool *Applied = nullptr);

/// Structural hash of a chain: stable across processes and independent
/// of entry-symbol naming (which carries a per-process counter), covering
/// every operator's symbol, payload lambdas/exprs, source descriptors and
/// nested chains. Structurally equal chains — e.g. the interp and native
/// plans of one query — hash equal; this is the ProfileStore key.
std::uint64_t hashChain(const Chain &C);

/// Structural equality of chains: every field hashChain reads, plus each
/// operator's InElem and OutElem and the chain's Result and Scalar.
/// Equal chains compile to the same plan under the same options, so
/// (hashChain, equalChains) is the QueryCache's key.
bool equalChains(const Chain &A, const Chain &B);

/// Names used by tests: one-token spelling of a symbol.
const char *symName(Sym S);

} // namespace quil
} // namespace steno

#endif // STENO_QUIL_QUIL_H
