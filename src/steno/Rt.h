//===- steno/Rt.h - Runtime support for Steno-generated code ---*- C++ -*-===//
//
// Part of the Steno/C++ reproduction of Murray, Isard & Yu,
// "Steno: Automatic Optimization of Declarative Queries" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Self-contained runtime included by every generated translation unit
/// (paper §3.3): the capture-block ABI through which the host binds source
/// buffers and captured variables, and the result ABI through which the
/// generated query appends its rows to the host's typed columns. This
/// header must not include any other steno header — generated code
/// compiles against it alone.
///
/// It is also the one runtime of every backend. The scalar operators whose
/// C++ meaning is not already the definition (wrapping int64 `+`, `-`, `*`
/// and negation, checked int64 `/` and `%`, `min`, `max`, `abs`, the
/// double-to-int64 `toInt64`, the guarded sum's `addIf`), OrderBy's key
/// order (`orderKey`) and the trap that reports every run-time error are
/// defined here once; the interpreters, the batch kernels and the
/// reference executor call these same definitions (through expr/Ops.h for
/// the operators), so every backend computes the same value and fails the
/// same way. The sinks and the sort, defined once for every backend too,
/// are in steno/RtSinks.h.
///
/// Profiling needs nothing here beyond Captures::ProfCounts: a profiled TU
/// is the unprofiled loop plus row counters in a local array, flushed
/// once at exit (DESIGN.md §5g). No runtime call reads a clock.
///
/// This is the lean core every generated TU parses, so it includes only
/// C headers, <bit> and <limits>: about 0.07 s of g++'s time together.
/// Parsing <chrono>, <unordered_map>, <algorithm>, <cmath> or <vector>
/// costs 0.15-0.5 s each, more than compiling a query's loop (DESIGN.md
/// §5c); a TU includes <cmath> itself only when its body calls a math
/// function (cpptree::printProgram), no TU includes the others, and
/// tests/rt_test.cpp fails if this header or steno/RtSinks.h pulls one in.
///
//===----------------------------------------------------------------------===//

#ifndef STENO_STENO_RT_H
#define STENO_STENO_RT_H

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
// Generated code spells the double literals inf and NaN with
// std::numeric_limits (support::doubleLiteral).
#include <limits>

namespace steno {
namespace rt {

//===------------------------------------------------------------------===//
// Run-time traps
//===------------------------------------------------------------------===//

/// The run-time errors a query can raise. Each has a stable code in the
/// static analyzer's ST2xxx series, so a log line from a production trap
/// correlates directly with the compile-time diagnostic that predicted it.
enum class Trap {
  DivByZero, ///< ST2001: int64 `/` or `%` by zero, or INT64_MIN / -1.
  DenseKey,  ///< ST2007: a dense group key outside [0, NumKeys).
};

/// Reports \p T as "steno runtime error [<code>]: <what>" on stderr and
/// aborts: the one exit of every run-time error on every backend, in place
/// of undefined behavior.
[[noreturn]] inline void trap(Trap T) {
  std::fputs(T == Trap::DivByZero
                 ? "steno runtime error [ST2001]: integer division by zero\n"
                 : "steno runtime error [ST2007]: dense group key out of "
                   "range\n",
             stderr);
  std::abort();
}

//===------------------------------------------------------------------===//
// Scalar operators
//===------------------------------------------------------------------===//

/// int64 `+`, `-`, `*` and negation wrap modulo 2^64: the result is the
/// two's-complement value of the exact result's low 64 bits, so
/// INT64_MAX + 1 is INT64_MIN and -INT64_MIN is INT64_MIN. C++ leaves
/// signed overflow undefined, so they compute in uint64, where it is
/// defined. Under -O3 they compile to the plain instructions.
constexpr std::int64_t add(std::int64_t A, std::int64_t B) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(A) +
                                   static_cast<std::uint64_t>(B));
}
constexpr std::int64_t sub(std::int64_t A, std::int64_t B) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(A) -
                                   static_cast<std::uint64_t>(B));
}
constexpr std::int64_t mul(std::int64_t A, std::int64_t B) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(A) *
                                   static_cast<std::uint64_t>(B));
}
constexpr std::int64_t neg(std::int64_t X) { return sub(0, X); }

/// True when the int64 quotient and remainder of \p A by \p B are
/// undefined in C++: a zero divisor, or INT64_MIN / -1, whose quotient
/// overflows.
constexpr bool divTraps(std::int64_t A, std::int64_t B) {
  return B == 0 || (B == -1 && A == INT64_MIN);
}

/// int64 `/` and `%` with defined behavior on every input: where C++ is
/// undefined they trap with ST2001. The code generator emits these wherever
/// the analyzer could not prove the division safe.
inline std::int64_t ckdiv(std::int64_t A, std::int64_t B) {
  if (divTraps(A, B))
    trap(Trap::DivByZero);
  return A / B;
}

inline std::int64_t ckmod(std::int64_t A, std::int64_t B) {
  if (divTraps(A, B))
    trap(Trap::DivByZero);
  return A % B;
}

/// `min(a, b)` is a when a < b, else b; `max(a, b)` is a when a > b, else
/// b. So a NaN operand wins only in second position (min(NaN, 1.0) is 1.0,
/// min(1.0, NaN) is NaN), and of two equal operands the second wins
/// (min(-0.0, 0.0) is 0.0). std::min and std::max return the first operand
/// in both cases, so generated code does not call them.
template <typename T> constexpr T min(T A, T B) { return A < B ? A : B; }
template <typename T> constexpr T max(T A, T B) { return A > B ? A : B; }

/// `abs`: an int64 by wrapping negation, so abs(INT64_MIN) is INT64_MIN; a
/// double by clearing the sign bit, so abs(-0.0) is +0.0.
constexpr std::int64_t abs(std::int64_t X) { return X < 0 ? neg(X) : X; }
constexpr double abs(double X) {
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(X) &
                               ~std::bit_cast<std::uint64_t>(-0.0));
}

/// `toInt64` of a double truncates toward zero. Where C++'s conversion is
/// undefined (NaN, +-inf, and values outside [-2^63, 2^63)) the result is
/// INT64_MIN, the value x86-64's cvttsd2si returns. On x86-64 a value known
/// only at run time takes that one instruction, as the static_cast does; a
/// branch that saturated instead would cost a tight loop ~45%. g++ folds
/// the instruction on a constant operand by C's rule (NaN to 0, 1e300 to
/// INT64_MAX), so a value the optimizer knows, a literal or a constant it
/// propagated into the call, takes the range-checked form, which folds to
/// the same value the instruction computes at run time.
inline std::int64_t toInt64(double X) {
#if defined(__x86_64__) && defined(__GNUC__)
  if (!__builtin_constant_p(X)) {
    typedef double V2D __attribute__((vector_size(16)));
    return __builtin_ia32_cvttsd2si64(V2D{X, 0.0});
  }
#endif
  return X >= -0x1p63 && X < 0x1p63 ? static_cast<std::int64_t>(X)
                                    : INT64_MIN;
}

/// `Acc + G` when \p Keep holds, else `Acc`, without a branch: the update
/// a filtered sum generates in place of `if (!keep) continue;` when G is
/// safe to compute for rejected elements too. A rejected G is masked to
/// the additive identity, 0 for an int64 and -0.0 for a double (the one
/// double x with a + x == a for every a, -0.0 and NaN included), so the
/// result is exactly the branching loop's.
constexpr std::int64_t addIf(std::int64_t Acc, bool Keep, std::int64_t G) {
  return add(Acc, G & -static_cast<std::int64_t>(Keep));
}
inline double addIf(double Acc, bool Keep, double G) {
  std::uint64_t M = -static_cast<std::uint64_t>(Keep);
  return Acc + std::bit_cast<double>(
                   (std::bit_cast<std::uint64_t>(G) & M) |
                   (std::bit_cast<std::uint64_t>(-0.0) & ~M));
}

/// OrderBy's key order, written down once for every backend: orderKey maps
/// a sort key to a uint64 whose unsigned order is the sort order. int64
/// keys compare exactly. double keys compare numerically, except that -0.0
/// ties +0.0 and every NaN sorts after +inf, all NaNs tying. Keys with one
/// image tie, and a stable sort (rt::sortByKey) keeps their input order.
constexpr std::uint64_t orderKey(std::int64_t K) {
  return static_cast<std::uint64_t>(K) ^ (std::uint64_t{1} << 63);
}
constexpr std::uint64_t orderKey(double K) {
  if (K != K)
    return ~std::uint64_t{0};
  // K + 0.0 turns -0.0 into +0.0. A negative double's bits are flipped
  // whole (a larger magnitude sorts first), a positive one's sign bit set.
  std::uint64_t B = std::bit_cast<std::uint64_t>(K + 0.0);
  return B ^ (static_cast<std::uint64_t>(static_cast<std::int64_t>(B) >> 63) |
              (std::uint64_t{1} << 63));
}

/// Borrowed view of Len contiguous doubles (a point, or a group's bag).
struct VecView {
  const double *Data;
  std::int64_t Len;
};

/// The generated representation of pair-typed elements. An aggregate so
/// that brace-initialization in generated code stays trivial.
template <typename A, typename B> struct Pair {
  A First;
  B Second;
};

//===------------------------------------------------------------------===//
// Capture ABI (host -> query)
//===------------------------------------------------------------------===//

/// One bound source buffer. Exactly one of D/I is non-null; Count is the
/// element count and Dim the doubles-per-element stride (1 for scalars).
struct SourceBinding {
  const double *D = nullptr;
  const std::int64_t *I = nullptr;
  std::int64_t Count = 0;
  std::int64_t Dim = 1;
};

/// One captured variable (paper §3.3's placeholder instance variables).
/// A fat struct rather than a union keeps binding code trivial; the
/// generated accessor reads the one field matching the slot's static type.
struct CaptureValue {
  double D = 0;
  std::int64_t I = 0;
  bool B = false;
  const double *VData = nullptr;
  std::int64_t VLen = 0;
};

/// The capture block passed to every generated entry point.
///
/// ProfCounts is the profile flush target of a TU generated with
/// profiling on: two row counters per profiled operator (rows in at 2k,
/// rows out at 2k+1). Null means "discard", so a profiled entry run by an
/// unprofiled caller is safe. Profiling counts rows and never reads a
/// clock.
struct Captures {
  const SourceBinding *Sources = nullptr;
  std::int64_t NumSources = 0;
  const CaptureValue *Values = nullptr;
  std::int64_t NumValues = 0;
  std::uint64_t *ProfCounts = nullptr;
};

//===------------------------------------------------------------------===//
// Result ABI (query -> host)
//===------------------------------------------------------------------===//

/// One result column: Len 8-byte cells, int64 or double, in a block of
/// Cap cells. The host owns the block: it grows it with realloc (Grow
/// below) and frees it with std::free, as it does a sink's block handed
/// over whole (adoptColumn, steno/RtSinks.h).
struct Column {
  void *Data = nullptr;
  std::int64_t Len = 0;
  std::int64_t Cap = 0;
};

/// The host's columns one run appends its rows to, one per flattened
/// cell of the row type, in pre-order over pairs: a bool (as 0 or 1) or
/// int64 cell appends to an int64 column, a double to a double column,
/// and a vec appends its elements to a double payload column, then the
/// payload's length to the int64 end-offsets column before it.
struct Columns {
  Column *Cols = nullptr;
  /// Gives \p C room for \p MinCells cells, or throws std::bad_alloc:
  /// the one call from a query into the host, once per doubling.
  void (*Grow)(Column *C, std::int64_t MinCells) = nullptr;
};

template <typename T> inline void appendCell(Columns *Out, Column &C, T V) {
  if (C.Len == C.Cap)
    Out->Grow(&C, C.Len + 1);
  static_cast<T *>(C.Data)[C.Len++] = V;
}

/// Appends \p V's cells to the columns from \p C on, advancing \p C past
/// them.
inline void appendCells(Columns *Out, Column *&C, bool V) {
  appendCell<std::int64_t>(Out, *C++, V ? 1 : 0);
}
inline void appendCells(Columns *Out, Column *&C, std::int64_t V) {
  appendCell<std::int64_t>(Out, *C++, V);
}
inline void appendCells(Columns *Out, Column *&C, double V) {
  appendCell<double>(Out, *C++, V);
}
inline void appendCells(Columns *Out, Column *&C, const VecView &V) {
  Column &Payload = C[1];
  if (Payload.Len + V.Len > Payload.Cap)
    Out->Grow(&Payload, Payload.Len + V.Len);
  double *To = static_cast<double *>(Payload.Data) + Payload.Len;
  for (std::int64_t I = 0; I != V.Len; ++I)
    To[I] = V.Data[I];
  Payload.Len += V.Len;
  appendCell<std::int64_t>(Out, C[0], Payload.Len);
  C += 2;
}
template <typename A, typename B>
inline void appendCells(Columns *Out, Column *&C, const Pair<A, B> &V) {
  appendCells(Out, C, V.First);
  appendCells(Out, C, V.Second);
}

/// Appends the row \p V.
template <typename T> inline void appendRow(Columns *Out, const T &V) {
  Column *C = Out->Cols;
  appendCells(Out, C, V);
}

} // namespace rt
} // namespace steno

#endif // STENO_STENO_RT_H
