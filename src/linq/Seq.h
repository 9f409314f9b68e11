//===- linq/Seq.h - Fluent query-over-iterator facade ----------*- C++ -*-===//
///
/// \file
/// Seq<T> is the user-facing handle of the baseline library: a cheap,
/// copyable wrapper over a shared Enumerable<T> exposing the LINQ operator
/// set as a fluent interface, e.g.
/// \code
///   auto EvenSquares = from(Xs)
///       .where([](int64_t X) { return X % 2 == 0; })
///       .select([](int64_t X) { return X * X; });
/// \endcode
/// Everything here executes through the lazy iterator chains of
/// Transforms.h/Sinks.h; this is the "LINQ" column of every benchmark.
///
//===----------------------------------------------------------------------===//

#ifndef STENO_LINQ_SEQ_H
#define STENO_LINQ_SEQ_H

#include "linq/Enumerator.h"
#include "linq/Sinks.h"
#include "linq/Sources.h"
#include "linq/Transforms.h"

#include <cassert>
#include <cstdint>
#include <functional>
#include <type_traits>

namespace steno {
namespace linq {

template <typename T> class Seq;

namespace detail {
/// Trait to pull U out of Seq<U> for selectMany deduction.
template <typename S> struct SeqElement;
template <typename U> struct SeqElement<Seq<U>> {
  using type = U;
};
} // namespace detail

/// Copyable handle to an immutable lazy sequence.
template <typename T> class Seq {
public:
  using value_type = T;

  Seq() = default;

  explicit Seq(std::shared_ptr<const Enumerable<T>> Impl)
      : Impl(std::move(Impl)) {}

  /// The underlying enumerable (shared, immutable).
  const std::shared_ptr<const Enumerable<T>> &impl() const { return Impl; }

  /// Starts a traversal (two virtual calls per element from here on).
  std::unique_ptr<Enumerator<T>> getEnumerator() const {
    assert(Impl && "enumerating a default-constructed Seq");
    return Impl->getEnumerator();
  }

  //===--------------------------------------------------------------===//
  // Composable operators (lazy)
  //===--------------------------------------------------------------===//

  /// Select: element-wise transformation (Trans in QUIL).
  template <typename F> auto select(F Fn) const {
    using U = std::invoke_result_t<F, T>;
    return Seq<U>(std::make_shared<SelectEnumerable<T, U>>(
        Impl, std::function<U(T)>(std::move(Fn))));
  }

  /// Where: predicate filter (Pred in QUIL).
  template <typename F> Seq<T> where(F Pred) const {
    return Seq<T>(std::make_shared<WhereEnumerable<T>>(
        Impl, std::function<bool(T)>(std::move(Pred))));
  }

  /// Take(n) / Skip(n) / TakeWhile / SkipWhile: stateful predicates.
  Seq<T> take(std::int64_t N) const {
    return Seq<T>(std::make_shared<TakeEnumerable<T>>(Impl, N));
  }

  Seq<T> skip(std::int64_t N) const {
    return Seq<T>(std::make_shared<SkipEnumerable<T>>(Impl, N));
  }

  template <typename F> Seq<T> takeWhile(F Pred) const {
    return Seq<T>(std::make_shared<TakeWhileEnumerable<T>>(
        Impl, std::function<bool(T)>(std::move(Pred))));
  }

  template <typename F> Seq<T> skipWhile(F Pred) const {
    return Seq<T>(std::make_shared<SkipWhileEnumerable<T>>(
        Impl, std::function<bool(T)>(std::move(Pred))));
  }

  /// SelectMany: flattening over a per-element sub-sequence; \p Fn maps an
  /// element to a Seq<U>.
  template <typename F> auto selectMany(F Fn) const {
    using SubSeq = std::invoke_result_t<F, T>;
    using U = typename detail::SeqElement<SubSeq>::type;
    typename SelectManyEnumerable<T, U>::CollectionFn Wrapped =
        [Fn = std::move(Fn)](T Elem) { return Fn(std::move(Elem)).impl(); };
    return Seq<U>(
        std::make_shared<SelectManyEnumerable<T, U>>(Impl, std::move(Wrapped)));
  }

  Seq<T> concat(const Seq<T> &Other) const {
    return Seq<T>(std::make_shared<ConcatEnumerable<T>>(Impl, Other.Impl));
  }

  template <typename U> Seq<std::pair<T, U>> zip(const Seq<U> &Other) const {
    return Seq<std::pair<T, U>>(
        std::make_shared<ZipEnumerable<T, U>>(Impl, Other.impl()));
  }

  Seq<T> distinct() const {
    return Seq<T>(std::make_shared<DistinctEnumerable<T>>(Impl));
  }

  Seq<T> reverse() const {
    return Seq<T>(std::make_shared<ReverseEnumerable<T>>(Impl));
  }

  //===--------------------------------------------------------------===//
  // Sink operators (lazy handle, eager on first traversal)
  //===--------------------------------------------------------------===//

  /// GroupBy(keySelector) -> groups in key-first-appearance order.
  template <typename F> auto groupBy(F KeySel) const {
    using K = std::invoke_result_t<F, T>;
    return Seq<Grouping<K, T>>(std::make_shared<GroupByEnumerable<T, K>>(
        Impl, std::function<K(T)>(std::move(KeySel))));
  }

  /// GroupBy(keySelector, resultSelector): \p Result maps (key, bag) to a
  /// result row. When the result selector aggregates, Steno replaces this
  /// with the fused GroupByAggregate sink (paper §4.3); the baseline always
  /// materializes the bags.
  template <typename FK, typename FR> auto groupBy(FK KeySel, FR Result) const {
    using K = std::invoke_result_t<FK, T>;
    using R = std::invoke_result_t<FR, K, const std::vector<T> &>;
    return Seq<R>(std::make_shared<GroupByResultEnumerable<T, K, R>>(
        Impl, std::function<K(T)>(std::move(KeySel)),
        typename GroupByResultEnumerable<T, K, R>::ResultFn(
            std::move(Result))));
  }

  template <typename F> Seq<T> orderBy(F KeySel) const {
    using K = std::invoke_result_t<F, T>;
    return Seq<T>(std::make_shared<OrderByEnumerable<T, K>>(
        Impl, std::function<K(T)>(std::move(KeySel)), /*Descending=*/false));
  }

  template <typename F> Seq<T> orderByDescending(F KeySel) const {
    using K = std::invoke_result_t<F, T>;
    return Seq<T>(std::make_shared<OrderByEnumerable<T, K>>(
        Impl, std::function<K(T)>(std::move(KeySel)), /*Descending=*/true));
  }

  /// Equi-join against \p Inner (hash join on the inner side).
  template <typename TInner, typename FOK, typename FIK, typename FR>
  auto join(const Seq<TInner> &Inner, FOK OuterKey, FIK InnerKey,
            FR Result) const {
    using K = std::invoke_result_t<FOK, T>;
    using R = std::invoke_result_t<FR, T, TInner>;
    return Seq<R>(std::make_shared<JoinEnumerable<T, TInner, K, R>>(
        Impl, Inner.impl(), std::function<K(T)>(std::move(OuterKey)),
        std::function<K(TInner)>(std::move(InnerKey)),
        std::function<R(T, TInner)>(std::move(Result))));
  }

  //===--------------------------------------------------------------===//
  // Aggregate operators (eager; Agg in QUIL)
  //===--------------------------------------------------------------===//

  /// Aggregate(seed, func): left fold.
  template <typename U, typename F> U aggregate(U Seed, F Fn) const {
    std::function<U(U, T)> Step = std::move(Fn);
    U Acc = std::move(Seed);
    std::unique_ptr<Enumerator<T>> E = getEnumerator();
    while (E->moveNext())
      Acc = Step(std::move(Acc), E->current());
    return Acc;
  }

  /// Aggregate(seed, func, resultSelector).
  template <typename U, typename F, typename FR>
  auto aggregate(U Seed, F Fn, FR Result) const {
    return Result(aggregate(std::move(Seed), std::move(Fn)));
  }

  T sum() const {
    T Acc{};
    std::unique_ptr<Enumerator<T>> E = getEnumerator();
    while (E->moveNext())
      Acc = Acc + E->current();
    return Acc;
  }

  T min() const {
    std::unique_ptr<Enumerator<T>> E = getEnumerator();
    bool Got = E->moveNext();
    assert(Got && "min() of empty sequence");
    (void)Got;
    T Best = E->current();
    while (E->moveNext()) {
      T Candidate = E->current();
      if (Candidate < Best)
        Best = std::move(Candidate);
    }
    return Best;
  }

  T max() const {
    std::unique_ptr<Enumerator<T>> E = getEnumerator();
    bool Got = E->moveNext();
    assert(Got && "max() of empty sequence");
    (void)Got;
    T Best = E->current();
    while (E->moveNext()) {
      T Candidate = E->current();
      if (Best < Candidate)
        Best = std::move(Candidate);
    }
    return Best;
  }

  double average() const {
    static_assert(std::is_arithmetic_v<T>, "average() needs numbers");
    double Acc = 0;
    std::int64_t N = 0;
    std::unique_ptr<Enumerator<T>> E = getEnumerator();
    while (E->moveNext()) {
      Acc += static_cast<double>(E->current());
      ++N;
    }
    assert(N > 0 && "average() of empty sequence");
    return Acc / static_cast<double>(N);
  }

  std::int64_t count() const {
    std::int64_t N = 0;
    std::unique_ptr<Enumerator<T>> E = getEnumerator();
    while (E->moveNext())
      ++N;
    return N;
  }

  template <typename F> std::int64_t count(F Pred) const {
    std::function<bool(T)> P = std::move(Pred);
    std::int64_t N = 0;
    std::unique_ptr<Enumerator<T>> E = getEnumerator();
    while (E->moveNext())
      if (P(E->current()))
        ++N;
    return N;
  }

  bool any() const { return getEnumerator()->moveNext(); }

  template <typename F> bool any(F Pred) const {
    std::function<bool(T)> P = std::move(Pred);
    std::unique_ptr<Enumerator<T>> E = getEnumerator();
    while (E->moveNext())
      if (P(E->current()))
        return true;
    return false;
  }

  template <typename F> bool all(F Pred) const {
    std::function<bool(T)> P = std::move(Pred);
    std::unique_ptr<Enumerator<T>> E = getEnumerator();
    while (E->moveNext())
      if (!P(E->current()))
        return false;
    return true;
  }

  T first() const {
    std::unique_ptr<Enumerator<T>> E = getEnumerator();
    bool Got = E->moveNext();
    assert(Got && "first() of empty sequence");
    (void)Got;
    return E->current();
  }

  T firstOrDefault(T Default = T{}) const {
    std::unique_ptr<Enumerator<T>> E = getEnumerator();
    return E->moveNext() ? E->current() : std::move(Default);
  }

  T last() const {
    std::unique_ptr<Enumerator<T>> E = getEnumerator();
    bool Got = E->moveNext();
    assert(Got && "last() of empty sequence");
    (void)Got;
    T Value = E->current();
    while (E->moveNext())
      Value = E->current();
    return Value;
  }

  T elementAt(std::int64_t Index) const {
    std::unique_ptr<Enumerator<T>> E = getEnumerator();
    for (std::int64_t I = 0; I <= Index; ++I) {
      bool Got = E->moveNext();
      assert(Got && "elementAt() out of range");
      (void)Got;
    }
    return E->current();
  }

  bool contains(const T &Value) const {
    std::unique_ptr<Enumerator<T>> E = getEnumerator();
    while (E->moveNext())
      if (E->current() == Value)
        return true;
    return false;
  }

  /// ToArray/ToList analogue: materializes the sequence.
  std::vector<T> toVector() const {
    std::vector<T> Out;
    std::unique_ptr<Enumerator<T>> E = getEnumerator();
    while (E->moveNext())
      Out.push_back(E->current());
    return Out;
  }

  /// ToLookup(keySelector).
  template <typename F> auto toLookup(F KeySel) const {
    using K = std::invoke_result_t<F, T>;
    std::function<K(T)> Sel = std::move(KeySel);
    Lookup<K, T> Out;
    std::unique_ptr<Enumerator<T>> E = getEnumerator();
    while (E->moveNext()) {
      T Elem = E->current();
      Out.put(Sel(Elem), std::move(Elem));
    }
    return Out;
  }

private:
  std::shared_ptr<const Enumerable<T>> Impl;
};

//===----------------------------------------------------------------===//
// Factories
//===----------------------------------------------------------------===//

/// Wraps a vector (copied once into shared storage).
template <typename T> Seq<T> from(std::vector<T> Data) {
  return Seq<T>(std::make_shared<VectorEnumerable<T>>(
      std::make_shared<const std::vector<T>>(std::move(Data))));
}

/// Wraps a borrowed buffer; the caller keeps it alive.
template <typename T> Seq<T> fromSpan(const T *Begin, size_t Count) {
  return Seq<T>(std::make_shared<SpanEnumerable<T>>(Begin, Count));
}

/// Enumerable.Range.
inline Seq<std::int64_t> range(std::int64_t Start, std::int64_t Count) {
  return Seq<std::int64_t>(std::make_shared<RangeEnumerable>(Start, Count));
}

/// Enumerable.Repeat.
template <typename T> Seq<T> repeat(T Value, std::int64_t Count) {
  return Seq<T>(
      std::make_shared<RepeatEnumerable<T>>(std::move(Value), Count));
}

/// Range-for support: for (auto X : Xs) { ... } desugars to the iterator
/// protocol of paper §2.
template <typename T> EnumeratorRangeIterator<T> begin(const Seq<T> &S) {
  return EnumeratorRangeIterator<T>(
      std::shared_ptr<Enumerator<T>>(S.getEnumerator()));
}

template <typename T> EnumeratorRangeIterator<T> end(const Seq<T> &) {
  return EnumeratorRangeIterator<T>();
}

} // namespace linq
} // namespace steno

#endif // STENO_LINQ_SEQ_H
