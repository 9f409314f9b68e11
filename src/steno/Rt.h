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
/// buffers and captured variables, the emitter ABI through which the
/// generated query returns rows, and the sink collections the generated
/// loops build (the Lookup of Figure 7(b) and the partial-aggregate sink of
/// §4.3). This header must not include any other steno header — generated
/// code compiles against it alone.
///
/// It is also the one runtime of every backend. The scalar operators whose
/// C++ meaning is not already the definition (wrapping int64 `+`, `-`, `*`
/// and negation, checked int64 `/` and `%`, `min`, `max`, `abs`, the
/// guarded sum's `addIf`), the trap that reports every run-time error, and
/// the group sinks are defined here once; the interpreters, the batch
/// kernels and the reference executor call these same definitions (through
/// expr/Ops.h for the operators), so every backend computes the same value
/// and fails the same way.
///
//===----------------------------------------------------------------------===//

#ifndef STENO_STENO_RT_H
#define STENO_STENO_RT_H

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <unordered_map>
#include <utility>
#include <vector>

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
inline double abs(double X) { return std::fabs(X); }

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
/// ProfCounts/ProfNanos are the profile flush targets for TUs generated
/// under STENO_PROFILE: null means "discard" (a profiled entry run by an
/// unprofiled caller is safe). Tail-appended so the offsets of the
/// original four fields — and therefore the ABI seen by previously
/// generated modules — are unchanged.
struct Captures {
  const SourceBinding *Sources = nullptr;
  std::int64_t NumSources = 0;
  const CaptureValue *Values = nullptr;
  std::int64_t NumValues = 0;
  std::uint64_t *ProfCounts = nullptr; ///< 2 slots per profiled op.
  std::uint64_t *ProfNanos = nullptr;  ///< 1 slot per profiled op.
};

/// Scoped nanosecond accumulator for one profiled operator. Declared
/// inline in the loop body (not in its own scope); stop() charges the
/// slot and disarms, and the destructor charges it instead when a
/// continue/break leaves the iteration before the stop() is reached.
class ProfTimer {
public:
  explicit ProfTimer(std::uint64_t *Slot)
      : Slot(Slot), Start(std::chrono::steady_clock::now()) {}
  ~ProfTimer() { stop(); }
  ProfTimer(const ProfTimer &) = delete;
  ProfTimer &operator=(const ProfTimer &) = delete;

  void stop() {
    if (!Slot)
      return;
    *Slot += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - Start)
            .count());
    Slot = nullptr;
  }

private:
  std::uint64_t *Slot;
  std::chrono::steady_clock::time_point Start;
};

//===------------------------------------------------------------------===//
// Emitter ABI (query -> host)
//===------------------------------------------------------------------===//

/// One flattened component of a result row. Kind: 0 = bool (in I),
/// 1 = int64 (in I), 2 = double (in D), 3 = vec (VData/VLen).
struct Cell {
  std::int32_t Kind;
  double D;
  std::int64_t I;
  const double *VData;
  std::int64_t VLen;
};

/// Host-supplied row callback. Scalar queries emit exactly one row;
/// collection queries emit one row per element. Vec cells point into
/// query-local storage and must be copied during the callback.
struct Emitter {
  void *Ctx;
  void (*EmitRow)(void *Ctx, const Cell *Cells, std::int64_t NumCells);
};

/// Number of cells a statically-typed element flattens into.
template <typename T> struct CellCount;
template <> struct CellCount<bool> {
  static constexpr std::int64_t value = 1;
};
template <> struct CellCount<std::int64_t> {
  static constexpr std::int64_t value = 1;
};
template <> struct CellCount<double> {
  static constexpr std::int64_t value = 1;
};
template <> struct CellCount<VecView> {
  static constexpr std::int64_t value = 1;
};
template <typename A, typename B> struct CellCount<Pair<A, B>> {
  static constexpr std::int64_t value =
      CellCount<A>::value + CellCount<B>::value;
};

inline void fillCells(Cell *&P, bool V) {
  *P++ = Cell{0, 0.0, V ? 1 : 0, nullptr, 0};
}
inline void fillCells(Cell *&P, std::int64_t V) {
  *P++ = Cell{1, 0.0, V, nullptr, 0};
}
inline void fillCells(Cell *&P, double V) {
  *P++ = Cell{2, V, 0, nullptr, 0};
}
inline void fillCells(Cell *&P, const VecView &V) {
  *P++ = Cell{3, 0.0, 0, V.Data, V.Len};
}
template <typename A, typename B>
inline void fillCells(Cell *&P, const Pair<A, B> &V) {
  fillCells(P, V.First);
  fillCells(P, V.Second);
}

/// Flattens \p V into cells (pre-order over pairs) and hands the row to
/// the emitter.
template <typename T> inline void emitRow(Emitter *Out, const T &V) {
  Cell Cells[CellCount<T>::value];
  Cell *P = Cells;
  fillCells(P, V);
  Out->EmitRow(Out->Ctx, Cells, CellCount<T>::value);
}

//===------------------------------------------------------------------===//
// Sink collections
//===------------------------------------------------------------------===//

/// Insertion-ordered int64 -> bag-of-doubles multi-map: the Lookup of
/// Figure 7(b), built by GroupBy sinks.
class GroupSink {
public:
  void put(std::int64_t Key, double Value) {
    auto It = Index.find(Key);
    std::size_t Slot;
    if (It == Index.end()) {
      Slot = Buckets.size();
      Index.emplace(Key, Slot);
      Buckets.emplace_back(Key, std::vector<double>());
    } else {
      Slot = It->second;
    }
    Buckets[Slot].second.push_back(Value);
  }

  std::int64_t size() const {
    return static_cast<std::int64_t>(Buckets.size());
  }

  Pair<std::int64_t, VecView> group(std::int64_t I) const {
    const auto &Bucket = Buckets[static_cast<std::size_t>(I)];
    return {Bucket.first,
            VecView{Bucket.second.data(),
                    static_cast<std::int64_t>(Bucket.second.size())}};
  }

private:
  std::vector<std::pair<std::int64_t, std::vector<double>>> Buckets;
  std::unordered_map<std::int64_t, std::size_t> Index;
};

/// Insertion-ordered int64 -> partial-accumulator map: the specialized
/// GroupByAggregate sink of §4.3. slot() returns a mutable reference,
/// inserting the seed on the key's first appearance.
template <typename A> class GroupAggSink {
public:
  A &slot(std::int64_t Key, const A &Seed) {
    auto It = Index.find(Key);
    if (It != Index.end())
      return Entries[It->second].second;
    std::size_t Slot = Entries.size();
    Index.emplace(Key, Slot);
    Entries.emplace_back(Key, Seed);
    return Entries[Slot].second;
  }

  std::int64_t size() const {
    return static_cast<std::int64_t>(Entries.size());
  }

  std::int64_t keyAt(std::int64_t I) const {
    return Entries[static_cast<std::size_t>(I)].first;
  }

  const A &accAt(std::int64_t I) const {
    return Entries[static_cast<std::size_t>(I)].second;
  }

private:
  std::vector<std::pair<std::int64_t, A>> Entries;
  std::unordered_map<std::int64_t, std::size_t> Index;
};

/// Dense-key partial-aggregate sink (the closing optimization of §4.3):
/// when the keys are known to lie in [0, NumKeys), one flat array of
/// accumulators replaces the hash table — O(1) access with no hashing.
/// Every key in range is reported, untouched slots carrying the seed. A
/// key outside the range breaks the query's promise and traps with ST2007.
template <typename A> class DenseAggSink {
public:
  DenseAggSink(std::int64_t NumKeys, const A &Seed)
      : Slots(static_cast<std::size_t>(NumKeys < 0 ? 0 : NumKeys), Seed) {}

  A &slot(std::int64_t Key) {
    if (Key < 0 || Key >= size())
      trap(Trap::DenseKey);
    return Slots[static_cast<std::size_t>(Key)];
  }

  std::int64_t size() const {
    return static_cast<std::int64_t>(Slots.size());
  }

  std::int64_t keyAt(std::int64_t I) const { return I; }

  const A &accAt(std::int64_t I) const {
    return Slots[static_cast<std::size_t>(I)];
  }

private:
  std::vector<A> Slots;
};

} // namespace rt
} // namespace steno

#endif // STENO_STENO_RT_H
