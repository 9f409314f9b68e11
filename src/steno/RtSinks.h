//===- steno/RtSinks.h - Sinks and sort of Steno-generated code -*- C++ -*-===//
//
// Part of the Steno/C++ reproduction of Murray, Isard & Yu,
// "Steno: Automatic Optimization of Declarative Queries" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The collections generated loops build and the sort they call: a
/// growable buffer (the ToArray/OrderBy Vec sink, which a query may hand
/// to the host as its result column), the Lookup of Figure
/// 7(b), the partial-aggregate sinks of §4.3, and a stable radix sort over
/// rt::orderKey. Like steno/Rt.h, whose lean core they extend, they are
/// defined once for every backend: the scalar interpreter builds these
/// same objects over its Values and sorts with the same function.
///
/// No STL container is used: parsing <vector>, <unordered_map> or
/// <algorithm> costs g++ more than compiling a query's loop, so this
/// header adds only <new> and <type_traits> (already parsed through
/// <bit>) to Rt.h, and only a TU that declares a sink includes it.
///
//===----------------------------------------------------------------------===//

#ifndef STENO_STENO_RTSINKS_H
#define STENO_STENO_RTSINKS_H

#include "steno/Rt.h"

#include <new>
#include <type_traits>

namespace steno {
namespace rt {

//===------------------------------------------------------------------===//
// Growable buffer
//===------------------------------------------------------------------===//

/// A growable array of T. It grows by doubling: with realloc for a
/// trivially copyable T (every element type generated code stores), by
/// move-constructing into a new block otherwise (the interpreter's
/// Values). Move-only.
template <typename T> class Buf {
public:
  Buf() = default;
  /// \p N default-initialized elements (indeterminate for trivial types).
  explicit Buf(std::int64_t N) {
    reserve(N);
    for (; Len < N; ++Len)
      ::new (Data + Len) T;
  }
  /// \p N copies of \p Fill.
  Buf(std::int64_t N, const T &Fill) {
    reserve(N);
    for (; Len < N; ++Len)
      ::new (Data + Len) T(Fill);
  }
  Buf(Buf &&O) noexcept : Data(O.Data), Len(O.Len), Cap(O.Cap) {
    O.Data = nullptr;
    O.Len = O.Cap = 0;
  }
  Buf &operator=(Buf &&O) noexcept {
    Buf(static_cast<Buf &&>(O)).swap(*this);
    return *this;
  }
  Buf(const Buf &) = delete;
  Buf &operator=(const Buf &) = delete;
  ~Buf() {
    for (std::int64_t I = 0; I != Len; ++I)
      Data[I].~T();
    std::free(Data);
  }

  std::int64_t size() const { return Len; }
  T *data() { return Data; }
  const T *data() const { return Data; }
  T &operator[](std::int64_t I) { return Data[I]; }
  const T &operator[](std::int64_t I) const { return Data[I]; }

  /// Appends \p V. Taken by value, so an element of this buffer may be
  /// appended even when the append moves the storage.
  void push_back(T V) {
    if (Len == Cap)
      reserve(Cap < 8 ? 16 : 2 * Cap);
    ::new (Data + Len) T(static_cast<T &&>(V));
    ++Len;
  }

  /// Makes room for \p N elements without moving the storage again. A
  /// size whose bytes overflow fails like any allocation (a dense sink's
  /// key count comes from the query).
  void reserve(std::int64_t N) {
    if (N <= Cap)
      return;
    if (N > INT64_MAX / static_cast<std::int64_t>(sizeof(T)))
      throw std::bad_alloc();
    std::size_t Bytes = static_cast<std::size_t>(N) * sizeof(T);
    T *New;
    if constexpr (std::is_trivially_copyable_v<T>) {
      New = static_cast<T *>(std::realloc(Data, Bytes));
      if (!New)
        throw std::bad_alloc();
    } else {
      New = static_cast<T *>(std::malloc(Bytes));
      if (!New)
        throw std::bad_alloc();
      for (std::int64_t I = 0; I != Len; ++I) {
        ::new (New + I) T(static_cast<T &&>(Data[I]));
        Data[I].~T();
      }
      std::free(Data);
    }
    Data = New;
    Cap = N;
  }

  template <typename U> friend void adoptColumn(Columns *Out, Buf<U> &B);

  void swap(Buf &O) noexcept {
    T *D = Data;
    Data = O.Data;
    O.Data = D;
    std::int64_t L = Len;
    Len = O.Len;
    O.Len = L;
    std::int64_t C = Cap;
    Cap = O.Cap;
    O.Cap = C;
  }

private:
  T *Data = nullptr;
  std::int64_t Len = 0;
  std::int64_t Cap = 0;
};

/// Hands \p B to the host whole, as the result's one column, and leaves
/// it empty: the rows of a query whose Ret iterates a Vec sink of int64s
/// or doubles are its elements, so no row is copied. The block is
/// realloc'd, as the host's are (rt::Columns).
template <typename T> inline void adoptColumn(Columns *Out, Buf<T> &B) {
  static_assert(sizeof(T) == 8 && std::is_trivially_copyable_v<T>);
  Column &C = Out->Cols[0];
  std::free(C.Data);
  C = Column{B.Data, B.Len, B.Cap};
  B.Data = nullptr;
  B.Len = B.Cap = 0;
}

//===------------------------------------------------------------------===//
// Group sinks
//===------------------------------------------------------------------===//

/// Insertion-ordered int64 -> partial-accumulator map: the specialized
/// GroupByAggregate sink of §4.3. slot() returns a mutable reference,
/// inserting the seed on the key's first appearance; the reference stays
/// valid until the next insertion.
///
/// One flat open-addressing table: power-of-two capacity, a Fibonacci
/// (multiplicative) hash of the key, linear probing, load at most 1/2, and
/// the accumulator in the key's slot, so a hit touches one slot. The
/// first-appearance order is a list of slot positions, rebuilt when the
/// table doubles.
template <typename A> class GroupAggSink {
public:
  GroupAggSink() = default;
  GroupAggSink(GroupAggSink &&O) noexcept
      : Table(O.Table), Mask(O.Mask), Shift(O.Shift),
        Order(static_cast<Buf<std::int64_t> &&>(O.Order)) {
    O.Table = nullptr;
  }
  GroupAggSink &operator=(GroupAggSink &&O) noexcept {
    GroupAggSink(static_cast<GroupAggSink &&>(O)).swap(*this);
    return *this;
  }
  GroupAggSink(const GroupAggSink &) = delete;
  GroupAggSink &operator=(const GroupAggSink &) = delete;
  ~GroupAggSink() {
    if constexpr (!std::is_trivially_destructible_v<A>)
      for (std::int64_t I = 0; I != Order.size(); ++I)
        Table[Order[I]].acc().~A();
    std::free(Table);
  }

  A &slot(std::int64_t Key, const A &Seed) {
    std::uint64_t I = 0;
    if (Table) {
      for (I = home(Key); Table[I].Full; I = (I + 1) & Mask)
        if (Table[I].Key == Key)
          return Table[I].acc();
      if (2 * (Order.size() + 1) <= static_cast<std::int64_t>(Mask + 1))
        return fill(I, Key, Seed);
    }
    grow();
    I = home(Key);
    while (Table[I].Full)
      I = (I + 1) & Mask;
    return fill(I, Key, Seed);
  }

  std::int64_t size() const { return Order.size(); }

  std::int64_t keyAt(std::int64_t I) const { return Table[Order[I]].Key; }

  const A &accAt(std::int64_t I) const { return Table[Order[I]].acc(); }

private:
  /// A table slot. Zeroed memory is an empty slot; Acc holds an object
  /// only while Full.
  struct Entry {
    std::int64_t Key;
    bool Full;
    alignas(A) unsigned char AccBytes[sizeof(A)];

    A &acc() { return *std::launder(reinterpret_cast<A *>(AccBytes)); }
    const A &acc() const {
      return *std::launder(reinterpret_cast<const A *>(AccBytes));
    }
  };

  std::uint64_t home(std::int64_t Key) const {
    return (static_cast<std::uint64_t>(Key) * 0x9E3779B97F4A7C15ull) >> Shift;
  }

  A &fill(std::uint64_t I, std::int64_t Key, const A &Seed) {
    Entry &E = Table[I];
    ::new (E.AccBytes) A(Seed);
    E.Key = Key;
    E.Full = true;
    Order.push_back(static_cast<std::int64_t>(I));
    return E.acc();
  }

  /// Doubles the table (16 slots at first), reinserting the entries in
  /// first-appearance order.
  void grow() {
    std::uint64_t Cap = Table ? 2 * (Mask + 1) : 16;
    auto *New = static_cast<Entry *>(std::calloc(Cap, sizeof(Entry)));
    if (!New)
      throw std::bad_alloc();
    Entry *Old = Table;
    Table = New;
    Mask = Cap - 1;
    Shift = static_cast<unsigned>(64 - std::countr_zero(Cap));
    for (std::int64_t K = 0; K != Order.size(); ++K) {
      Entry &From = Old[Order[K]];
      std::uint64_t I = home(From.Key);
      while (Table[I].Full)
        I = (I + 1) & Mask;
      Entry &To = Table[I];
      ::new (To.AccBytes) A(static_cast<A &&>(From.acc()));
      From.acc().~A();
      To.Key = From.Key;
      To.Full = true;
      Order[K] = static_cast<std::int64_t>(I);
    }
    std::free(Old);
  }

  void swap(GroupAggSink &O) noexcept {
    Entry *T = Table;
    Table = O.Table;
    O.Table = T;
    std::uint64_t M = Mask;
    Mask = O.Mask;
    O.Mask = M;
    unsigned S = Shift;
    Shift = O.Shift;
    O.Shift = S;
    Order.swap(O.Order);
  }

  Entry *Table = nullptr;
  std::uint64_t Mask = 0;
  unsigned Shift = 64;
  Buf<std::int64_t> Order; ///< Slot positions in first-appearance order.
};

/// Insertion-ordered int64 -> bag-of-doubles multi-map: the Lookup of
/// Figure 7(b), built by GroupBy sinks. A GroupAggSink numbers the keys
/// and counts their bags; the values are kept in arrival order and laid
/// out contiguously, bag by bag, on the first group() after a put.
class GroupSink {
public:
  void put(std::int64_t Key, double Value) {
    Bag &B = Groups.slot(Key, Bag{Groups.size(), 0});
    ++B.Len;
    Puts.push_back(Put{B.Group, Value});
    Laid = false;
  }

  std::int64_t size() const { return Groups.size(); }

  Pair<std::int64_t, VecView> group(std::int64_t I) {
    if (!Laid)
      layOut();
    return {Groups.keyAt(I), VecView{Bags.data() + Starts[I],
                                     Groups.accAt(I).Len}};
  }

private:
  struct Bag {
    std::int64_t Group; ///< The key's first-appearance index.
    std::int64_t Len;
  };
  struct Put {
    std::int64_t Group;
    double Value;
  };

  /// A counting sort of the values by group, stable within each bag.
  void layOut() {
    const std::int64_t N = Groups.size();
    Starts = Buf<std::int64_t>(N);
    Buf<std::int64_t> Next(N);
    std::int64_t Sum = 0;
    for (std::int64_t G = 0; G != N; ++G) {
      Starts[G] = Next[G] = Sum;
      Sum += Groups.accAt(G).Len;
    }
    Bags = Buf<double>(Puts.size());
    for (std::int64_t I = 0; I != Puts.size(); ++I)
      Bags[Next[Puts[I].Group]++] = Puts[I].Value;
    Laid = true;
  }

  GroupAggSink<Bag> Groups;
  Buf<Put> Puts;
  Buf<std::int64_t> Starts; ///< Each bag's offset in Bags.
  Buf<double> Bags;
  bool Laid = true;
};

/// Dense-key partial-aggregate sink (the closing optimization of §4.3):
/// when the keys are known to lie in [0, NumKeys), one flat array of
/// accumulators replaces the hash table — O(1) access with no hashing.
/// Every key in range is reported, untouched slots carrying the seed. A
/// key outside the range breaks the query's promise and traps with ST2007.
template <typename A> class DenseAggSink {
public:
  DenseAggSink(std::int64_t NumKeys, const A &Seed)
      : Slots(NumKeys < 0 ? 0 : NumKeys, Seed) {}

  A &slot(std::int64_t Key) {
    if (Key < 0 || Key >= size())
      trap(Trap::DenseKey);
    return Slots[Key];
  }

  std::int64_t size() const { return Slots.size(); }

  std::int64_t keyAt(std::int64_t I) const { return I; }

  const A &accAt(std::int64_t I) const { return Slots[I]; }

private:
  Buf<A> Slots;
};

//===------------------------------------------------------------------===//
// Sort
//===------------------------------------------------------------------===//

/// Sorts \p Elems stably by \p KeyOf, which maps an element to a uint64,
/// moving the elements themselves: an LSD radix sort over the key's eight
/// bytes, least significant first. One pass counts every byte of every
/// key; then each byte that varies takes one stable scatter pass between
/// \p Elems and one scratch buffer of N elements, and a byte that is the
/// same in every key is skipped, so keys that differ only in their low
/// bytes (small integers) take only that many passes. The sorted elements
/// stay in the buffer the last pass wrote, so none is copied back. KeyOf
/// runs once per element in every pass.
template <typename T, typename KeyFn>
void radixSortInPlace(Buf<T> &Elems, KeyFn KeyOf) {
  static_assert(std::is_trivially_copyable_v<T>);
  const std::int64_t N = Elems.size();
  if (N < 2)
    return;
  std::int64_t Counts[8][256] = {};
  for (std::int64_t I = 0; I != N; ++I) {
    std::uint64_t K = KeyOf(static_cast<const T &>(Elems[I]));
    for (int D = 0; D != 8; ++D)
      ++Counts[D][(K >> (8 * D)) & 0xff];
  }
  const std::uint64_t First = KeyOf(static_cast<const T &>(Elems[0]));
  Buf<T> Tmp(N);
  for (int D = 0; D != 8; ++D) {
    const unsigned Shift = 8 * static_cast<unsigned>(D);
    std::int64_t *Next = Counts[D];
    if (Next[(First >> Shift) & 0xff] == N)
      continue;
    std::int64_t Sum = 0;
    for (int B = 0; B != 256; ++B) {
      std::int64_t Count = Next[B];
      Next[B] = Sum;
      Sum += Count;
    }
    const T *Src = Elems.data();
    T *Dst = Tmp.data();
    for (std::int64_t I = 0; I != N; ++I)
      Dst[Next[(KeyOf(Src[I]) >> Shift) & 0xff]++] = Src[I];
    Elems.swap(Tmp);
  }
}

/// One element of a decorated sort: its order key (rt::orderKey) and its
/// position in the input.
struct SortItem {
  std::uint64_t Key;
  std::int64_t Index;
};

/// Whether sortByKey moves elements of type \p T themselves: trivially
/// copyable ones of at most 16 bytes, which covers every element generated
/// code sorts (a scalar, a vec view, a pair of scalars).
template <typename T>
inline constexpr bool SortsInPlace =
    std::is_trivially_copyable_v<T> && sizeof(T) <= 16;

/// Sorts \p Elems stably by \p KeyOf, which maps an element to its order
/// key (rt::orderKey of the OrderBy key). An element that SortsInPlace is
/// moved by radixSortInPlace, its key computed once per pass, with no
/// decoration and no final copy. Any other element (the interpreter's
/// Values, a wider pair) is decorated with its key and position (a
/// SortItem), the decorations are radix-sorted, and the elements are
/// gathered in sorted order, so KeyOf runs once per element. Both give
/// the same order.
template <typename T, typename KeyFn>
void sortByKey(Buf<T> &Elems, KeyFn KeyOf) {
  if constexpr (SortsInPlace<T>) {
    radixSortInPlace(Elems, KeyOf);
  } else {
    const std::int64_t N = Elems.size();
    Buf<SortItem> Items(N);
    for (std::int64_t I = 0; I != N; ++I)
      Items[I] = SortItem{KeyOf(static_cast<const T &>(Elems[I])), I};
    radixSortInPlace(Items, [](const SortItem &S) { return S.Key; });
    Buf<T> Sorted;
    Sorted.reserve(N);
    for (std::int64_t I = 0; I != N; ++I)
      Sorted.push_back(static_cast<T &&>(Elems[Items[I].Index]));
    Elems.swap(Sorted);
  }
}

} // namespace rt
} // namespace steno

#endif // STENO_STENO_RTSINKS_H
