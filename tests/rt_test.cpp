//===- tests/rt_test.cpp - Generated-code runtime tests --------*- C++ -*-===//

// First, before any other header: what steno/Rt.h pulls in on its own.
#include "steno/Rt.h"

namespace {

/// The heavy standard headers steno/Rt.h included, read from libstdc++'s
/// include guards. Every generated TU parses Rt.h, and each of these
/// costs g++ 0.15-0.5 s to parse, more than compiling the query's loop.
constexpr const char *RtHeavyIncludes = ""
#ifdef _GLIBCXX_CHRONO
                                        " <chrono>"
#endif
#ifdef _GLIBCXX_CMATH
                                        " <cmath>"
#endif
#ifdef _GLIBCXX_VECTOR
                                        " <vector>"
#endif
#ifdef _GLIBCXX_UNORDERED_MAP
                                        " <unordered_map>"
#endif
#ifdef _GLIBCXX_ALGORITHM
                                        " <algorithm>"
#endif
    ;

} // namespace

#include "steno/RtSinks.h"

namespace {

/// The same headers, now that steno/RtSinks.h is in too: it replaced the
/// STL containers and std::stable_sort under every generated group and
/// sort, so a TU with a sink parses none of them either.
constexpr const char *RtSinksHeavyIncludes = ""
#ifdef _GLIBCXX_CHRONO
                                             " <chrono>"
#endif
#ifdef _GLIBCXX_CMATH
                                             " <cmath>"
#endif
#ifdef _GLIBCXX_VECTOR
                                             " <vector>"
#endif
#ifdef _GLIBCXX_UNORDERED_MAP
                                             " <unordered_map>"
#endif
#ifdef _GLIBCXX_ALGORITHM
                                             " <algorithm>"
#endif
    ;

} // namespace

#include "expr/Value.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

using namespace steno::rt;

TEST(RtLeanCore, IncludesNoHeavyStandardHeader) {
  EXPECT_STREQ(RtHeavyIncludes, "")
      << "steno/Rt.h must stay the lean core; move what needs these "
         "headers to steno/RtSinks.h or into the generated TU";
  EXPECT_STREQ(RtSinksHeavyIncludes, "")
      << "steno/RtSinks.h is parsed by every TU that groups or sorts; "
         "it must not pull in an STL container or algorithm";
}

TEST(RtGroupSink, InsertionOrderPreserved) {
  GroupSink S;
  S.put(5, 1.0);
  S.put(2, 2.0);
  S.put(5, 3.0);
  ASSERT_EQ(S.size(), 2);
  Pair<std::int64_t, VecView> G0 = S.group(0);
  EXPECT_EQ(G0.First, 5);
  ASSERT_EQ(G0.Second.Len, 2);
  EXPECT_DOUBLE_EQ(G0.Second.Data[0], 1.0);
  EXPECT_DOUBLE_EQ(G0.Second.Data[1], 3.0);
  EXPECT_EQ(S.group(1).First, 2);
}

TEST(RtGroupSink, ManyKeys) {
  GroupSink S;
  for (int I = 0; I < 1000; ++I)
    S.put(I % 37, static_cast<double>(I));
  EXPECT_EQ(S.size(), 37);
  std::int64_t Total = 0;
  for (std::int64_t I = 0; I != S.size(); ++I) {
    Pair<std::int64_t, VecView> G = S.group(I);
    EXPECT_EQ(G.First, I);
    // Each bag holds its key's values contiguously, in arrival order.
    for (std::int64_t J = 0; J != G.Second.Len; ++J)
      EXPECT_EQ(G.Second.Data[J], static_cast<double>(I + 37 * J));
    Total += G.Second.Len;
  }
  EXPECT_EQ(Total, 1000);
}

TEST(RtGroupSink, PutAfterGroupLaysTheBagsOutAgain) {
  GroupSink S;
  S.put(1, 1.0);
  EXPECT_EQ(S.group(0).Second.Len, 1);
  S.put(2, 2.0);
  S.put(1, 3.0);
  ASSERT_EQ(S.size(), 2);
  Pair<std::int64_t, VecView> G0 = S.group(0);
  ASSERT_EQ(G0.Second.Len, 2);
  EXPECT_EQ(G0.Second.Data[1], 3.0);
  EXPECT_EQ(S.group(1).Second.Data[0], 2.0);
}

TEST(RtGroupAggSink, SlotInsertsSeedOnce) {
  GroupAggSink<double> S;
  double &A = S.slot(7, 100.0);
  EXPECT_DOUBLE_EQ(A, 100.0);
  A = 150.0;
  double &B = S.slot(7, 100.0);
  EXPECT_DOUBLE_EQ(B, 150.0) << "existing accumulator, not a fresh seed";
  EXPECT_EQ(S.size(), 1);
}

TEST(RtGroupAggSink, KeyAndAccByIndex) {
  GroupAggSink<std::int64_t> S;
  S.slot(9, 0) += 1;
  S.slot(4, 0) += 2;
  S.slot(9, 0) += 3;
  ASSERT_EQ(S.size(), 2);
  EXPECT_EQ(S.keyAt(0), 9);
  EXPECT_EQ(S.accAt(0), 4);
  EXPECT_EQ(S.keyAt(1), 4);
  EXPECT_EQ(S.accAt(1), 2);
}

TEST(RtGroupAggSink, PairAccumulators) {
  GroupAggSink<Pair<double, std::int64_t>> S;
  auto &A = S.slot(0, Pair<double, std::int64_t>{0.0, 0});
  A = Pair<double, std::int64_t>{A.First + 2.5, A.Second + 1};
  EXPECT_DOUBLE_EQ(S.accAt(0).First, 2.5);
  EXPECT_EQ(S.accAt(0).Second, 1);
}

namespace {

/// Keys 0..N-1 in a scrambled order, each repeated: the first pass makes
/// them appear in Firsts' order, and the table doubles from 16 slots to
/// 2N at least log2(N / 8) times on the way.
template <typename A, typename Update>
void checkFirstAppearanceOrder(const A &Seed, Update Step) {
  constexpr std::int64_t N = 5000;
  std::vector<std::int64_t> Firsts(N);
  for (std::int64_t I = 0; I != N; ++I)
    Firsts[I] = (I * 7919) % N - N / 2; // negative keys too
  GroupAggSink<A> S;
  for (int Pass = 0; Pass != 3; ++Pass)
    for (std::int64_t K : Firsts) {
      A &Acc = S.slot(K, Seed);
      Acc = Step(Acc);
    }
  ASSERT_EQ(S.size(), N);
  for (std::int64_t I = 0; I != N; ++I) {
    ASSERT_EQ(S.keyAt(I), Firsts[I]) << I;
    A Want = Seed;
    for (int Pass = 0; Pass != 3; ++Pass)
      Want = Step(Want);
    EXPECT_TRUE(S.accAt(I) == Want) << I;
  }
}

struct CountPair {
  Pair<double, std::int64_t> P;
  bool operator==(const CountPair &O) const {
    return P.First == O.P.First && P.Second == O.P.Second;
  }
};

} // namespace

TEST(RtGroupAggSink, RehashesKeepFirstAppearanceOrder) {
  checkFirstAppearanceOrder<std::int64_t>(
      0, [](std::int64_t A) { return A + 1; });
  checkFirstAppearanceOrder<CountPair>(
      CountPair{{0.5, 0}}, [](CountPair A) {
        return CountPair{{A.P.First + 1.0, A.P.Second + 1}};
      });
  // The interpreter's accumulators are not trivially copyable: a rehash
  // moves them, and the sink destroys them.
  using steno::expr::Value;
  checkFirstAppearanceOrder<Value>(Value(std::int64_t{0}), [](Value A) {
    return Value::makePair(Value(std::int64_t{1}), A);
  });
}

TEST(RtGroupAggSink, ExtremeKeysAreOrdinaryKeys) {
  GroupAggSink<std::int64_t> S;
  const std::int64_t Keys[] = {0, INT64_MIN, INT64_MAX, -1, 1, INT64_MIN};
  for (std::int64_t K : Keys)
    ++S.slot(K, 0);
  ASSERT_EQ(S.size(), 5);
  EXPECT_EQ(S.keyAt(1), INT64_MIN);
  EXPECT_EQ(S.accAt(1), 2);
  EXPECT_EQ(S.keyAt(2), INT64_MAX);
}

TEST(RtBuf, GrowsKeepingElementsAndMovesValues) {
  Buf<double> D;
  for (int I = 0; I != 1000; ++I)
    D.push_back(static_cast<double>(I));
  ASSERT_EQ(D.size(), 1000);
  for (int I = 0; I != 1000; ++I)
    ASSERT_EQ(D[I], static_cast<double>(I));
  D.push_back(D[999]); // an element of the buffer, appended as it grows
  EXPECT_EQ(D[1000], 999.0);

  using steno::expr::Value;
  Buf<Value> V;
  for (int I = 0; I != 100; ++I)
    V.push_back(Value::makePair(Value(std::int64_t{I}), Value(0.5)));
  Buf<Value> Moved = static_cast<Buf<Value> &&>(V);
  EXPECT_EQ(V.size(), 0);
  ASSERT_EQ(Moved.size(), 100);
  EXPECT_EQ(Moved[42].first().asInt64(), 42);
  Buf<Value> Filled(3, Value(2.5));
  EXPECT_EQ(Filled[2].asDouble(), 2.5);
}

TEST(RtDenseAggSink, SeededAndIndexed) {
  DenseAggSink<double> S(4, 1.5);
  ASSERT_EQ(S.size(), 4);
  for (std::int64_t I = 0; I != 4; ++I) {
    EXPECT_EQ(S.keyAt(I), I);
    EXPECT_DOUBLE_EQ(S.accAt(I), 1.5);
  }
  S.slot(2) += 10.0;
  EXPECT_DOUBLE_EQ(S.accAt(2), 11.5);
  EXPECT_DOUBLE_EQ(S.accAt(1), 1.5);
}

TEST(RtDenseAggSink, ZeroAndNegativeBounds) {
  DenseAggSink<double> Empty(0, 0.0);
  EXPECT_EQ(Empty.size(), 0);
  DenseAggSink<double> Neg(-3, 0.0);
  EXPECT_EQ(Neg.size(), 0);
}

TEST(RtDenseAggSink, KeyCountPastTheAddressSpaceFailsToAllocate) {
  // Its bytes overflow size_t: the buffer must fail, not wrap to a small
  // allocation it then fills.
  EXPECT_THROW(DenseAggSink<double>(INT64_MAX / 4, 0.0), std::bad_alloc);
}

TEST(RtDenseAggSinkDeath, KeyOutsideTheRangeTrapsWithST2007) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  DenseAggSink<double> S(4, 0.0);
  EXPECT_DEATH(S.slot(-1), "ST2007.*dense group key out of range");
  EXPECT_DEATH(S.slot(4), "ST2007.*dense group key out of range");
  DenseAggSink<double> Empty(-3, 0.0);
  EXPECT_DEATH(Empty.slot(0), "ST2007.*dense group key out of range");
}

//===--------------------------------------------------------------------===//
// Sort: rt::orderKey and the radix sort
//===--------------------------------------------------------------------===//

namespace {

/// OrderBy's key order as the documentation states it, for doubles:
/// numeric, -0.0 tying +0.0, NaN after everything, NaNs tying.
bool ruleLess(double A, double B) {
  if (std::isnan(A))
    return false;
  return std::isnan(B) || A < B;
}

std::uint64_t bits(double X) { return std::bit_cast<std::uint64_t>(X); }

/// The special values the sort tests mix into their inputs.
const double Specials[] = {0.0,
                           -0.0,
                           std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           1.0,
                           -1.0};

/// \p T padded past 16 bytes, so that sortByKey decorates it where it
/// sorts a bare \p T in place.
template <typename T> struct Wide {
  T V;
  char Pad[16];
};

/// sortByKey over \p In both ways, in place (the bare elements) and
/// decorated (Wide ones), against std::stable_sort under \p Less, with
/// \p Same comparing two elements bit for bit.
template <typename T, typename KeyFn, typename LessFn, typename SameFn>
void checkBothSorts(const std::vector<T> &In, KeyFn Key, LessFn Less,
                    SameFn Same) {
  static_assert(SortsInPlace<T> && !SortsInPlace<Wide<T>>);
  std::vector<T> Want = In;
  std::stable_sort(Want.begin(), Want.end(), Less);
  Buf<T> InPlace;
  Buf<Wide<T>> Decorated;
  for (const T &X : In) {
    InPlace.push_back(X);
    Decorated.push_back(Wide<T>{X, {}});
  }
  sortByKey(InPlace, Key);
  sortByKey(Decorated, [&Key](const Wide<T> &W) { return Key(W.V); });
  ASSERT_EQ(InPlace.size(), static_cast<std::int64_t>(Want.size()));
  ASSERT_EQ(Decorated.size(), static_cast<std::int64_t>(Want.size()));
  for (std::size_t I = 0; I != Want.size(); ++I) {
    const auto P = static_cast<std::int64_t>(I);
    ASSERT_TRUE(Same(InPlace[P], Want[I]))
        << "in place, position " << I << " of " << Want.size();
    ASSERT_TRUE(Same(Decorated[P].V, Want[I]))
        << "decorated, position " << I << " of " << Want.size();
  }
}

/// Both sorts over \p In against std::stable_sort under ruleLess,
/// compared bit for bit (so the order of -0.0 and +0.0 ties is checked).
void checkDoubleSort(const std::vector<double> &In) {
  checkBothSorts(
      In, [](const double &X) { return orderKey(X); }, ruleLess,
      [](double A, double B) { return bits(A) == bits(B); });
}

using I64D = Pair<std::int64_t, double>;

/// Both sorts over the 16-byte pairs \p In, keyed by \p Key, against
/// std::stable_sort under \p Less, both halves compared bit for bit.
template <typename KeyFn, typename LessFn>
void checkPairSort(const std::vector<I64D> &In, KeyFn Key, LessFn Less) {
  static_assert(sizeof(I64D) == 16);
  checkBothSorts(In, Key, Less, [](const I64D &A, const I64D &B) {
    return A.First == B.First && bits(A.Second) == bits(B.Second);
  });
}

/// sortByKey over SortItems keyed by \p Keys, in place, against
/// std::stable_sort by key.
void checkRadix(const std::vector<std::uint64_t> &Keys) {
  Buf<SortItem> Items;
  std::vector<SortItem> Want;
  for (std::size_t I = 0; I != Keys.size(); ++I) {
    Items.push_back(SortItem{Keys[I], static_cast<std::int64_t>(I)});
    Want.push_back(Items[static_cast<std::int64_t>(I)]);
  }
  static_assert(SortsInPlace<SortItem>);
  sortByKey(Items, [](const SortItem &S) { return S.Key; });
  std::stable_sort(Want.begin(), Want.end(),
                   [](const SortItem &A, const SortItem &B) {
                     return A.Key < B.Key;
                   });
  for (std::size_t I = 0; I != Want.size(); ++I) {
    ASSERT_EQ(Items[static_cast<std::int64_t>(I)].Key, Want[I].Key) << I;
    ASSERT_EQ(Items[static_cast<std::int64_t>(I)].Index, Want[I].Index)
        << I;
  }
}

} // namespace

TEST(RtSort, OrderKeyFollowsTheWrittenOrder) {
  const double Inf = std::numeric_limits<double>::infinity();
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  // Ascending under the rule; each group of equal images is one tie.
  const std::vector<std::vector<double>> Doubles = {
      {-Inf},
      {-std::numeric_limits<double>::max()},
      {-1.5},
      {-std::numeric_limits<double>::denorm_min()},
      {-0.0, 0.0},
      {std::numeric_limits<double>::denorm_min()},
      {1.5},
      {std::numeric_limits<double>::max()},
      {Inf},
      {NaN, -NaN, std::bit_cast<double>(0x7ff0000000000001ull)}};
  for (std::size_t G = 0; G != Doubles.size(); ++G)
    for (double X : Doubles[G]) {
      EXPECT_EQ(orderKey(X), orderKey(Doubles[G][0])) << X;
      if (G + 1 != Doubles.size()) {
        EXPECT_LT(orderKey(X), orderKey(Doubles[G + 1][0])) << X;
      }
    }
  // int64 keys compare exactly, past 2^53 and at the extremes.
  const std::int64_t Ints[] = {INT64_MIN,       INT64_MIN + 1,
                               -(1LL << 53) - 1, -(1LL << 53),
                               -1,              0,
                               1,               (1LL << 53),
                               (1LL << 53) + 1, INT64_MAX};
  for (std::size_t I = 0; I + 1 != std::size(Ints); ++I)
    EXPECT_LT(orderKey(Ints[I]), orderKey(Ints[I + 1])) << Ints[I];
}

TEST(RtSort, RandomDoublesMatchStableSortAtEverySize) {
  std::mt19937_64 Rng(20);
  for (std::size_t N : {0u, 1u, 2u, 3u, 17u, 100u, 100000u}) {
    std::vector<double> In(N);
    for (double &X : In) {
      std::uint64_t R = Rng();
      // A fifth special values, the rest uniform or a few repeats.
      X = R % 5 == 0   ? Specials[(R >> 8) % std::size(Specials)]
          : R % 5 == 1 ? static_cast<double>((R >> 8) % 4)
                       : std::ldexp(static_cast<double>(R >> 11), -40) - 4e3;
    }
    checkDoubleSort(In);
  }
}

TEST(RtSort, RandomKeysMatchStableSort) {
  std::mt19937_64 Rng(21);
  for (std::size_t N : {0u, 1u, 2u, 5u, 300u, 100000u}) {
    std::vector<std::uint64_t> Keys(N);
    for (std::uint64_t &K : Keys)
      K = Rng() >> (Rng() % 64); // every byte count, many duplicates
    checkRadix(Keys);
  }
}

TEST(RtSort, AllEqualKeysKeepInputOrder) {
  checkRadix(std::vector<std::uint64_t>(1000, 0x0123456789abcdefull));
  checkDoubleSort(std::vector<double>(1000, 2.5));
  std::vector<double> Zeros;
  for (int I = 0; I != 64; ++I)
    Zeros.push_back(I % 3 ? 0.0 : -0.0);
  checkDoubleSort(Zeros);
}

TEST(RtSort, OneVaryingByte) {
  std::mt19937_64 Rng(22);
  for (unsigned Byte : {0u, 3u, 7u}) {
    std::vector<std::uint64_t> Keys(5000);
    for (std::uint64_t &K : Keys)
      K = 0xa5a5a5a5a5a5a5a5ull ^ ((Rng() & 0xff) << (8 * Byte));
    checkRadix(Keys);
  }
}

TEST(RtSort, PairElementsSortInPlaceByEitherHalf) {
  // 16-byte elements, the largest the in-place path takes: int64 keys
  // near 2^53, where neighbours share a double, and at the extremes;
  // double keys from the special-values table.
  std::mt19937_64 Rng(23);
  const std::int64_t P53 = std::int64_t{1} << 53;
  const std::int64_t Ints[] = {P53,  P53 + 1, P53 + 2, -P53 - 1, INT64_MIN,
                               INT64_MAX, 0,   -1};
  for (std::size_t N : {0u, 1u, 2u, 3u, 17u, 100u, 100000u}) {
    std::vector<I64D> In(N);
    for (I64D &P : In) {
      std::uint64_t R = Rng();
      P.First = R % 3 == 0 ? Ints[(R >> 8) % std::size(Ints)]
                           : P53 + static_cast<std::int64_t>((R >> 8) % 64) -
                                 32;
      P.Second = R % 5 < 2 ? Specials[(R >> 16) % std::size(Specials)]
                           : std::ldexp(static_cast<double>(R >> 11), -40);
    }
    checkPairSort(
        In, [](const I64D &P) { return orderKey(P.First); },
        [](const I64D &A, const I64D &B) { return A.First < B.First; });
    checkPairSort(
        In, [](const I64D &P) { return orderKey(P.Second); },
        [](const I64D &A, const I64D &B) {
          return ruleLess(A.Second, B.Second);
        });
  }
}

TEST(RtSort, Int64ExtremesAndValueElements) {
  using steno::expr::Value;
  const std::int64_t In[] = {(1LL << 53) + 1, INT64_MAX, 1LL << 53, 3,
                             INT64_MIN,       0,         -1,      INT64_MIN};
  Buf<Value> Elems;
  for (std::size_t I = 0; I != std::size(In); ++I)
    Elems.push_back(Value::makePair(Value(In[I]),
                                    Value(static_cast<std::int64_t>(I))));
  sortByKey(Elems, [](const Value &E) { return orderKey(E.first().asInt64()); });
  const std::int64_t Want[][2] = {{INT64_MIN, 4}, {INT64_MIN, 7},
                                  {-1, 6},        {0, 5},
                                  {3, 3},         {1LL << 53, 2},
                                  {(1LL << 53) + 1, 0}, {INT64_MAX, 1}};
  ASSERT_EQ(Elems.size(), 8);
  for (std::int64_t I = 0; I != 8; ++I) {
    EXPECT_EQ(Elems[I].first().asInt64(), Want[I][0]) << I;
    EXPECT_EQ(Elems[I].second().asInt64(), Want[I][1]) << I;
  }
}

//===--------------------------------------------------------------------===//
// Scalar operators
//===--------------------------------------------------------------------===//

TEST(RtOps, DivTrapsOnZeroAndOnInt64MinOverMinusOne) {
  EXPECT_TRUE(divTraps(7, 0));
  EXPECT_TRUE(divTraps(INT64_MIN, 0));
  EXPECT_TRUE(divTraps(INT64_MIN, -1));
  EXPECT_FALSE(divTraps(INT64_MIN + 1, -1));
  EXPECT_FALSE(divTraps(INT64_MIN, 1));
  EXPECT_FALSE(divTraps(INT64_MIN, -2));
  EXPECT_EQ(ckdiv(-7, 2), -3);
  EXPECT_EQ(ckmod(-7, 2), -1);
}

namespace {
/// A double the compiler cannot see: toInt64's operand is known only at
/// run time, as on every backend.
double opaque(double X) {
  volatile double V = X;
  return V;
}
} // namespace

TEST(RtOps, ToInt64TruncatesAndGivesInt64MinWhereCxxIsUndefined) {
  const double Inf = std::numeric_limits<double>::infinity();
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  const std::pair<double, std::int64_t> Table[] = {
      {NaN, INT64_MIN},       {Inf, INT64_MIN},
      {-Inf, INT64_MIN},      {0x1p63, INT64_MIN},
      {-0x1p63, INT64_MIN},   {0x1p63 - 1024, INT64_MAX - 1023},
      {1e300, INT64_MIN},     {-1e300, INT64_MIN},
      {-0.0, 0},              {2.9, 2},
      {-2.9, -2}};
  for (auto [X, Want] : Table)
    EXPECT_EQ(toInt64(opaque(X)), Want) << X;
}

TEST(RtOps, DoubleAbsClearsOnlyTheSignBit) {
  const double Nan = std::numeric_limits<double>::quiet_NaN();
  const double Inf = std::numeric_limits<double>::infinity();
  for (double X : {-0.0, 0.0, -2.5, 2.5, -Inf, Inf, Nan, -Nan,
                   -std::numeric_limits<double>::denorm_min()}) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(steno::rt::abs(X)),
              std::bit_cast<std::uint64_t>(std::fabs(X)))
        << X;
  }
  EXPECT_FALSE(std::signbit(steno::rt::abs(-0.0)));
  static_assert(steno::rt::abs(-1.5) == 1.5);
}

//===--------------------------------------------------------------------===//
// Result columns: the generated loop's appends
//===--------------------------------------------------------------------===//

namespace {

/// A host's column set, as the ABI sees it: Grow reallocs like the host's
/// and counts its calls.
struct TestColumns {
  static inline int Grows = 0;

  static void grow(Column *C, std::int64_t MinCells) {
    ++Grows;
    std::int64_t Cap = C->Cap ? 2 * C->Cap : 1;
    if (Cap < MinCells)
      Cap = MinCells;
    C->Data = std::realloc(C->Data, static_cast<std::size_t>(Cap) * 8);
    C->Cap = Cap;
  }

  explicit TestColumns(std::size_t N) : Cols(N) {}
  ~TestColumns() {
    for (Column &C : Cols)
      std::free(C.Data);
  }

  Columns abi() {
    return Columns{Cols.data(), &grow};
  }
  const std::int64_t *ints(std::size_t C) const {
    return static_cast<const std::int64_t *>(Cols[C].Data);
  }
  const double *doubles(std::size_t C) const {
    return static_cast<const double *>(Cols[C].Data);
  }

  std::vector<Column> Cols;
};

} // namespace

TEST(RtEmit, ScalarCellKinds) {
  // A double cell lands in a double column; int64 and bool cells in
  // int64 columns, a bool as 0 or 1.
  TestColumns D(1), I(1), B(1);
  Columns DA = D.abi(), IA = I.abi(), BA = B.abi();
  appendRow(&DA, 2.5);
  appendRow(&IA, std::int64_t{42});
  appendRow(&BA, true);
  appendRow(&BA, false);
  ASSERT_EQ(D.Cols[0].Len, 1);
  EXPECT_DOUBLE_EQ(D.doubles(0)[0], 2.5);
  ASSERT_EQ(I.Cols[0].Len, 1);
  EXPECT_EQ(I.ints(0)[0], 42);
  ASSERT_EQ(B.Cols[0].Len, 2);
  EXPECT_EQ(B.ints(0)[0], 1);
  EXPECT_EQ(B.ints(0)[1], 0);
}

TEST(RtEmit, VecCellCopiesIntoPayload) {
  // A vec cell appends its elements to the payload column and the
  // payload's new length to the end-offsets column; the query's buffer is
  // not referenced afterwards.
  double Buf[] = {1, 2, 3};
  TestColumns Out(2);
  Columns A = Out.abi();
  appendRow(&A, VecView{Buf, 3});
  appendRow(&A, VecView{Buf, 0});
  appendRow(&A, VecView{Buf + 1, 2});
  Buf[0] = Buf[1] = Buf[2] = -1;
  ASSERT_EQ(Out.Cols[0].Len, 3);
  EXPECT_EQ(Out.ints(0)[0], 3);
  EXPECT_EQ(Out.ints(0)[1], 3);
  EXPECT_EQ(Out.ints(0)[2], 5);
  ASSERT_EQ(Out.Cols[1].Len, 5);
  const double Want[] = {1, 2, 3, 2, 3};
  for (int K = 0; K != 5; ++K)
    EXPECT_EQ(Out.doubles(1)[K], Want[K]) << K;
}

TEST(RtEmit, PairFlattensPreOrder) {
  TestColumns Out(3);
  Columns A = Out.abi();
  Pair<std::int64_t, Pair<double, bool>> Row{7, {1.5, true}};
  appendRow(&A, Row);
  for (const Column &C : Out.Cols)
    ASSERT_EQ(C.Len, 1);
  EXPECT_EQ(Out.ints(0)[0], 7);
  EXPECT_DOUBLE_EQ(Out.doubles(1)[0], 1.5);
  EXPECT_EQ(Out.ints(2)[0], 1);
}

TEST(RtEmit, ColumnsPerCell) {
  // A row takes one column per scalar cell and two per vec cell: this
  // one four, and a fifth column past them stays untouched.
  double Buf[] = {4, 5};
  TestColumns Out(5);
  Columns A = Out.abi();
  Pair<Pair<bool, double>, VecView> Row{{false, 0.5}, VecView{Buf, 2}};
  appendRow(&A, Row);
  EXPECT_EQ(Out.Cols[0].Len, 1);
  EXPECT_EQ(Out.Cols[1].Len, 1);
  EXPECT_EQ(Out.Cols[2].Len, 1);
  EXPECT_EQ(Out.Cols[3].Len, 2);
  EXPECT_EQ(Out.Cols[4].Len, 0);
  EXPECT_EQ(Out.Cols[4].Data, nullptr);
}

TEST(RtEmit, GrowsOnlyWhenFull) {
  // The query calls into the host only to grow a full column, and the
  // host's doubling keeps that to a logarithmic number of calls.
  TestColumns Out(1);
  Columns A = Out.abi();
  TestColumns::Grows = 0;
  for (std::int64_t I = 0; I != 1000; ++I)
    appendRow(&A, I);
  ASSERT_EQ(Out.Cols[0].Len, 1000);
  EXPECT_EQ(TestColumns::Grows, 11); // 1, 2, 4, ..., 1024
  for (std::int64_t I = 0; I != 1000; ++I)
    ASSERT_EQ(Out.ints(0)[I], I);
}

TEST(RtEmit, AdoptColumnTakesTheSinkBlock) {
  // A Ret over a Vec sink hands the sink's block to the host: the column
  // is the block, and the sink is left empty.
  Buf<double> Sink;
  for (int I = 0; I != 100; ++I)
    Sink.push_back(I * 0.5);
  const double *Block = Sink.data();
  TestColumns Out(1);
  Columns A = Out.abi();
  adoptColumn(&A, Sink);
  EXPECT_EQ(Out.Cols[0].Data, Block);
  EXPECT_EQ(Out.Cols[0].Len, 100);
  EXPECT_GE(Out.Cols[0].Cap, 100);
  EXPECT_EQ(Out.doubles(0)[99], 49.5);
  EXPECT_EQ(Sink.size(), 0);
  EXPECT_EQ(Sink.data(), nullptr);
}

TEST(RtBindings, CaptureValueDefaults) {
  CaptureValue V;
  EXPECT_EQ(V.I, 0);
  EXPECT_EQ(V.VData, nullptr);
  SourceBinding S;
  EXPECT_EQ(S.Dim, 1);
}
