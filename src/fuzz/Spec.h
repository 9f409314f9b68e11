//===- fuzz/Spec.h - Serializable fuzz query descriptions ------*- C++ -*-===//
//
// Part of the Steno/C++ reproduction of Murray, Isard & Yu,
// "Steno: Automatic Optimization of Declarative Queries" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential fuzzer does not serialize query ASTs; it serializes
/// *descriptions*. A QuerySpec is a small, text-round-trippable recipe —
/// sources with data distributions, captures, and a pipeline of operator
/// descriptors drawn from a fixed menu of typed expression templates —
/// from which buildSpec() deterministically reconstructs the query AST
/// and its input buffers. This keeps three properties the harness needs:
///
///  * every mismatch reproducer is a human-readable file a test can
///    replay byte-for-byte (tests/fuzz_corpus/*.fuzzspec);
///  * the shrinker works on the description (drop an op, empty a source,
///    simplify a template) instead of on expression trees;
///  * hand-written corpus entries are validated by the same builder the
///    generator uses, so a malformed file is a clean error, not an abort
///    inside the optimizer.
///
/// The template menu is trap-free *at run time*: integer division/modulo
/// appears only with divisors that are provably nonzero on the generated
/// data (constant, `1 + abs(x % C)`, or a conditional whose zero branch
/// is unreachable at the tracked magnitudes), and the generator tracks a
/// static magnitude bound so int64 arithmetic cannot overflow (which
/// would be UB and poison the differential oracle). The divnz/divmaybe
/// shapes deliberately straddle the plan rewriter's trap-elision line:
/// divnz has a divisor interval the abstract interpreter proves nonzero
/// (ckdiv elided), divmaybe's divisor interval includes 0 (ckdiv kept)
/// even though the zero branch never executes on fuzz data.
///
//===----------------------------------------------------------------------===//

#ifndef STENO_FUZZ_SPEC_H
#define STENO_FUZZ_SPEC_H

#include "query/Query.h"
#include "steno/Bindings.h"

#include <cstdint>
#include <string>
#include <vector>

namespace steno {
namespace fuzz {

/// Scalar element types the pipeline tracks between operators.
enum class ElemTy { Double, Int64 };

/// How a source buffer is filled (always from the spec's own seed, so a
/// spec file alone reproduces the run).
enum class DataClass {
  Uniform,   ///< Uniform in [-100, 100] (doubles) / [-50, 50] (int64).
  Skewed,    ///< 90% drawn from a narrow band, 10% outliers — exercises
             ///< group-key clustering and morsel load imbalance.
  Constant,  ///< Every element identical (duplicate keys, sort ties).
  Ascending  ///< Sorted ramp (already-ordered input, skip/take edges).
};

/// Element-wise transform templates (Select bodies).
enum class TransTmpl {
  Id,       ///< x
  AddC,     ///< x + C
  MulC,     ///< x * C
  Square,   ///< x * x
  SqrtAbs,  ///< sqrt(abs(x))             (double elements only)
  Negate,   ///< -x
  CapScale, ///< x * capture(0|1)         (slot matches element type)
  ToInt64,  ///< toInt64(x)               (double elements only)
  ToDouble, ///< toDouble(x)              (int64 elements only)
  DivNz,    ///< x / (1 + abs(x % C))     (int64 only; C = DArg in [2,9].
            ///< Divisor interval [1, C]: the rewriter elides the trap.)
  DivMaybe  ///< x / cond(x > 2000001, 0, 7)  (int64 only. The divisor
            ///< interval includes 0 so ckdiv must stay, but the zero
            ///< branch is unreachable at the generator's 1e6 magnitude
            ///< cap — every backend must agree without trapping.)
};

/// Predicate templates (Where/TakeWhile/SkipWhile bodies).
enum class PredTmpl {
  True,    ///< constant true (analysis flags AlwaysTruePred, a warning)
  False,   ///< constant false (guaranteed-empty tail)
  GtC,     ///< x > C
  LtC,     ///< x < C
  AbsGtC,  ///< abs(x) > C
  EvenInt  ///< x % 2 == 0                (int64 elements only)
};

/// OrderBy / group key-selector templates.
enum class KeyTmpl {
  Id,     ///< x
  Abs,    ///< abs(x) — ties between -v and +v exercise sort stability
  Negate, ///< -x (descending)
  Bucket  ///< toInt64(x / C) (double) or x / C (int64); C nonzero const
};

/// Terminal aggregate kinds.
enum class AggKind {
  Sum,
  Count,
  Min,
  Max,
  Average,      ///< double elements only
  Any,
  AllGtC,       ///< all(x > C)
  First,        ///< firstOrDefault(C)
  Contains,     ///< contains(C), int64 elements only (exact equality)
  FoldAssoc,    ///< aggregate(0, a + x, combine a + b): certified
  FoldNonAssoc, ///< aggregate(0, a + x, combine a - b): provably
                ///< non-associative, must force the sequential fallback
  FoldNoComb,   ///< aggregate(0, a + x) with no combiner: structurally
                ///< unsplittable, sequential fallback via the §6 planner
  FoldPairMean  ///< pair(sum, count) accumulator with pairwise combine
                ///< and a result selector dividing — double result
};

/// Per-group accumulator step for GroupByAggregate sinks.
enum class GroupStep { Sum, Count, Max };

/// Nested-query select bodies over (outer x, inner y).
enum class NestedTmpl { AddXY, MulXY };

/// Operator descriptor kinds. Mirrors the QUIL symbol classes: Trans
/// (Select / SelectNestedSum), Pred (Where / Take / Skip / TakeWhile /
/// SkipWhile / WhereNestedAny), Sink (OrderBy / ToArray / GroupAgg*),
/// Nested (SelectMany*), Agg.
enum class OpK {
  Select,
  Where,
  Take,
  Skip,
  TakeWhile,
  SkipWhile,
  OrderBy,
  ToArray,
  SelectMany,      ///< flatten nested array source (Figure 11 Ret-pop)
  SelectManyRange, ///< flatten nested Range(0, abs(x) % C) (int64 elems)
  SelectNestedSum, ///< nested scalar sum referencing the outer element
  WhereNestedAny,  ///< nested bool any-fold referencing the outer element
  GroupAgg,        ///< hash GroupByAggregate (terminal)
  GroupAggDense,   ///< dense-key GroupByAggregate (terminal)
  Agg              ///< terminal scalar aggregate
};

struct OpSpec {
  OpK K = OpK::Select;
  TransTmpl T = TransTmpl::Id;
  PredTmpl P = PredTmpl::True;
  KeyTmpl Key = KeyTmpl::Id;
  AggKind A = AggKind::Sum;
  GroupStep G = GroupStep::Sum;
  NestedTmpl N = NestedTmpl::AddXY;
  bool Combine = true;     ///< GroupAgg*: synthesize an associative merger
  unsigned Slot = 1;       ///< nested source slot (SelectMany/Nested ops)
  std::int64_t IArg = 0;   ///< count / dense key bound / mod bound / etc.
  double DArg = 0.0;       ///< numeric constant for templates
};

struct SourceSpec {
  unsigned Slot = 0;
  ElemTy Ty = ElemTy::Double;
  DataClass Data = DataClass::Uniform;
  std::uint32_t Count = 0;
  std::uint64_t Seed = 1;
};

/// A complete, self-contained fuzz case.
struct QuerySpec {
  std::vector<SourceSpec> Sources; ///< Sources[0] is the primary (slot 0)
  bool HasCaptureD = false;        ///< capture slot 0 (double)
  double CaptureD = 1.0;
  bool HasCaptureI = false;        ///< capture slot 1 (int64)
  std::int64_t CaptureI = 1;
  std::vector<OpSpec> Ops;
};

/// A spec realized into a runnable query: the AST, the synthesized input
/// buffers, and bindings pointing into them. Move-only (Bindings borrows
/// the buffers).
struct BuiltQuery {
  query::Query Q;
  std::vector<std::vector<double>> DoubleBufs;
  std::vector<std::vector<std::int64_t>> Int64Bufs;
  Bindings B;

  BuiltQuery() = default;
  BuiltQuery(BuiltQuery &&) = default;
  BuiltQuery &operator=(BuiltQuery &&) = default;
  BuiltQuery(const BuiltQuery &) = delete;
  BuiltQuery &operator=(const BuiltQuery &) = delete;
};

/// Deterministically builds the query AST and data for \p Spec. Returns
/// false and fills \p Err when the spec is ill-formed (unknown slot,
/// template/element-type mismatch, operator after a terminal — the
/// grammar errors a hand-edited corpus file could contain).
bool buildSpec(const QuerySpec &Spec, BuiltQuery &Out, std::string *Err);

/// Renders \p Spec in the line-based `steno-fuzz v1` format.
std::string serializeSpec(const QuerySpec &Spec);

/// The most rows a spec's sources may declare in total: 2^24, 128 MB of
/// doubles. A client's spec is data the service allocates, so parseSpec
/// refuses a larger one before buildSpec allocates anything.
constexpr std::uint64_t MaxSpecRows = std::uint64_t{1} << 24;

/// Parses the `steno-fuzz v1` format ('#' starts a comment line).
/// Returns false and fills \p Err on malformed input, or on sources
/// declaring more than MaxSpecRows rows in total.
bool parseSpec(const std::string &Text, QuerySpec &Spec, std::string *Err);

/// One-line structural summary for logs, e.g.
/// "double[64,uniform] |> select(mulc 2.5) |> agg(sum)".
std::string specSummary(const QuerySpec &Spec);

} // namespace fuzz
} // namespace steno

#endif // STENO_FUZZ_SPEC_H
