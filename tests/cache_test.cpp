//===- tests/cache_test.cpp - Query cache & structural hashing -*- C++ -*-===//

#include "expr/Analysis.h"
#include "quil/Quil.h"
#include "steno/QueryCache.h"
#include "support/Timing.h"

#include <atomic>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

using namespace steno;
using namespace steno::expr;
using namespace steno::expr::dsl;
using query::Query;

namespace {

E x() { return param("x", Type::doubleTy()); }

Query sumSq() {
  return Query::doubleArray(0).select(lambda({x()}, x() * x())).sum();
}

/// The cache's identity: the queries lower to equal chains.
bool samePlan(const Query &A, const Query &B) {
  return quil::equalChains(quil::lower(A), quil::lower(B));
}

} // namespace

//===--------------------------------------------------------------------===//
// Structural hashing / equality of expressions
//===--------------------------------------------------------------------===//

TEST(ExprHash, EqualStructureEqualHash) {
  E A = x() * x() + 1.0;
  E B = x() * x() + 1.0;
  EXPECT_NE(A.node(), B.node());
  EXPECT_EQ(hashExpr(*A.node()), hashExpr(*B.node()));
  EXPECT_TRUE(equalExprs(*A.node(), *B.node()));
}

TEST(ExprHash, LiteralsDistinguish) {
  E A = x() + 1.0;
  E B = x() + 2.0;
  EXPECT_FALSE(equalExprs(*A.node(), *B.node()));
  EXPECT_NE(hashExpr(*A.node()), hashExpr(*B.node()));
}

TEST(ExprHash, OperatorsDistinguish) {
  EXPECT_FALSE(equalExprs(*(x() + 1.0).node(), *(x() - 1.0).node()));
}

TEST(ExprHash, ParamNamesDistinguish) {
  E A = param("a", Type::doubleTy());
  E B = param("b", Type::doubleTy());
  EXPECT_FALSE(equalExprs(*A.node(), *B.node()));
}

TEST(ExprHash, SlotsDistinguish) {
  EXPECT_FALSE(equalExprs(*capture(0, Type::doubleTy()).node(),
                          *capture(1, Type::doubleTy()).node()));
  EXPECT_FALSE(equalExprs(*sourceLen(0).node(), *sourceLen(1).node()));
}

TEST(ExprHash, IntAndDoubleLiteralsDiffer) {
  EXPECT_FALSE(
      equalExprs(*E(1).node(), *E(1.0).node()));
}

TEST(ExprHash, Lambdas) {
  Lambda A = lambda({x()}, x() * 2.0);
  Lambda B = lambda({x()}, x() * 2.0);
  Lambda C = lambda({x()}, x() * 3.0);
  EXPECT_TRUE(equalLambdas(A, B));
  EXPECT_EQ(hashLambda(A), hashLambda(B));
  EXPECT_FALSE(equalLambdas(A, C));
  EXPECT_TRUE(equalLambdas(Lambda(), Lambda()));
  EXPECT_FALSE(equalLambdas(A, Lambda()));
}

//===--------------------------------------------------------------------===//
// Plan identity: the cache keys the lowered chain
//===--------------------------------------------------------------------===//

TEST(QueryHash, IndependentlyBuiltQueriesAreEqual) {
  Query A = sumSq();
  Query B = sumSq();
  EXPECT_NE(A.node(), B.node());
  EXPECT_EQ(quil::hashChain(quil::lower(A)), quil::hashChain(quil::lower(B)));
  EXPECT_TRUE(samePlan(A, B));
}

TEST(QueryHash, DifferentSlotsDiffer) {
  Query A = Query::doubleArray(0).sum();
  Query B = Query::doubleArray(1).sum();
  EXPECT_FALSE(samePlan(A, B));
}

TEST(QueryHash, DifferentOperatorsDiffer) {
  EXPECT_FALSE(
      samePlan(Query::doubleArray(0).sum(), Query::doubleArray(0).count()));
}

TEST(QueryHash, NestedQueriesCompared) {
  auto Y = param("y", Type::doubleTy());
  auto Build = [&](double K) {
    return Query::doubleArray(0).selectMany(
        x(), Query::doubleArray(1).select(lambda({Y}, x() * Y + K)));
  };
  EXPECT_TRUE(samePlan(Build(1.0), Build(1.0)));
  EXPECT_FALSE(samePlan(Build(1.0), Build(2.0)));
}

TEST(QueryHash, ChainPrefixIsNotEqual) {
  Query Short = Query::doubleArray(0).where(lambda({x()}, x() > 0.0));
  Query Long = Short.select(lambda({x()}, x() * 2.0));
  EXPECT_FALSE(samePlan(Short, Long));
}

//===--------------------------------------------------------------------===//
// The cache
//===--------------------------------------------------------------------===//

TEST(QueryCacheTest, HitOnStructurallyEqualQuery) {
  QueryCache Cache;
  CompileOptions Options;
  Options.Exec = Backend::Interp;
  CompiledQuery A = Cache.getOrCompile(sumSq(), Options);
  CompiledQuery B = Cache.getOrCompile(sumSq(), Options);
  EXPECT_EQ(Cache.hits(), 1u);
  EXPECT_EQ(Cache.misses(), 1u);
  EXPECT_EQ(Cache.size(), 1u);
  EXPECT_EQ(&A.generatedSource(), &B.generatedSource())
      << "both handles share one compiled module";
}

TEST(QueryCacheTest, MissOnDifferentStructure) {
  QueryCache Cache;
  CompileOptions Options;
  Options.Exec = Backend::Interp;
  Cache.getOrCompile(sumSq(), Options);
  Cache.getOrCompile(Query::doubleArray(0).sum(), Options);
  EXPECT_EQ(Cache.misses(), 2u);
  EXPECT_EQ(Cache.size(), 2u);
}

TEST(QueryCacheTest, BackendIsPartOfTheKey) {
  QueryCache Cache;
  CompileOptions Interp;
  Interp.Exec = Backend::Interp;
  CompileOptions Native;
  Native.Exec = Backend::Native;
  Cache.getOrCompile(sumSq(), Interp);
  Cache.getOrCompile(sumSq(), Native);
  EXPECT_EQ(Cache.misses(), 2u);
}

TEST(QueryCacheTest, SpecializationFlagIsPartOfTheKey) {
  auto G = param("g", Type::pairTy(Type::int64Ty(), Type::vecTy()));
  auto A = param("a", Type::doubleTy());
  auto V = param("v", Type::doubleTy());
  Query BagSum = Query::overVec(G.second())
                     .aggregate(E(0.0), lambda({A, V}, A + V),
                                lambda({A}, pair(G.first(), A)));
  Query Q = Query::doubleArray(0)
                .groupBy(lambda({x()}, toInt64(x())))
                .selectNested(G, BagSum);
  QueryCache Cache;
  CompileOptions On;
  On.Exec = Backend::Interp;
  CompileOptions Off = On;
  Off.SpecializeGroupByAggregate = false;
  EXPECT_TRUE(Cache.getOrCompile(Q, On).groupBySpecialized());
  EXPECT_FALSE(Cache.getOrCompile(Q, Off).groupBySpecialized());
  EXPECT_EQ(Cache.misses(), 2u);
}

TEST(QueryCacheTest, EveryOptionButNameIsPartOfTheKey) {
  // One row per CompileOptions field except Name: a request differing
  // from the cached entry in that field alone must miss.
  CompileOptions Base;
  Base.Exec = Backend::Interp;
  Base.SpecializeGroupByAggregate = true;
  Base.EnableCse = true;
  Base.Analyze = analysis::Mode::Strict;
  Base.Rewrite = true;
  Base.Profile = false;
  Base.Vectorize = true;
  Base.Adaptive = true;
  struct Row {
    const char *Field;
    void (*Flip)(CompileOptions &);
  };
  const Row Rows[] = {
      {"Exec", [](CompileOptions &O) { O.Exec = Backend::Native; }},
      {"SpecializeGroupByAggregate",
       [](CompileOptions &O) { O.SpecializeGroupByAggregate = false; }},
      {"EnableCse", [](CompileOptions &O) { O.EnableCse = false; }},
      {"Analyze", [](CompileOptions &O) { O.Analyze = analysis::Mode::Off; }},
      {"Rewrite", [](CompileOptions &O) { O.Rewrite = false; }},
      {"Profile", [](CompileOptions &O) { O.Profile = true; }},
      {"Vectorize", [](CompileOptions &O) { O.Vectorize = false; }},
      {"Adaptive", [](CompileOptions &O) { O.Adaptive = false; }},
  };
  for (const Row &R : Rows) {
    SCOPED_TRACE(R.Field);
    CompileOptions Flipped = Base;
    R.Flip(Flipped);
    ASSERT_FALSE(Flipped == Base);
    QueryCache Cache;
    Cache.getOrCompile(sumSq(), Base);
    EXPECT_FALSE(Cache.lookup(sumSq(), Flipped).valid());
    Cache.getOrCompile(sumSq(), Flipped);
    EXPECT_EQ(Cache.misses(), 2u);
    EXPECT_EQ(Cache.size(), 2u);
  }

  QueryCache Cache;
  CompileOptions Renamed = Base;
  Renamed.Name = "renamed";
  Cache.getOrCompile(sumSq(), Base);
  Cache.getOrCompile(sumSq(), Renamed);
  EXPECT_EQ(Cache.hits(), 1u) << "Name is not part of the key";
}

TEST(QueryCacheDeathTest, StrictRequestMissesAnUnanalyzedEntry) {
  // An Analyze=Off entry carries no diagnostics; a Strict request for the
  // same query must compile afresh and reject it, not reuse the entry.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  E Xi = param("xi", Type::int64Ty());
  Query Q = Query::int64Array(0).select(lambda({Xi}, Xi % E(0))).sum();
  QueryCache Cache;
  CompileOptions Off;
  Off.Exec = Backend::Interp;
  Off.Analyze = analysis::Mode::Off;
  EXPECT_TRUE(Cache.getOrCompile(Q, Off).analysisResult().Diags.empty());
  CompileOptions Strict = Off;
  Strict.Analyze = analysis::Mode::Strict;
  EXPECT_DEATH(Cache.getOrCompile(Q, Strict),
               "rejected by static analysis.*ST2001");
}

TEST(QueryCacheTest, CachedNativeQuerySkipsRecompilation) {
  QueryCache Cache;
  CompiledQuery First = Cache.getOrCompile(sumSq(), {});
  EXPECT_GT(First.compileMillis(), 0.0);
  support::WallTimer T;
  CompiledQuery Second = Cache.getOrCompile(sumSq(), {});
  EXPECT_LT(T.millis(), First.compileMillis() / 2.0)
      << "cache hit must not re-invoke the compiler";
  // And the cached query runs.
  std::vector<double> Xs = {1.0, 2.0};
  Bindings B;
  B.bindDoubleArray(0, Xs.data(), 2);
  EXPECT_DOUBLE_EQ(Second.run(B).scalarValue().asDouble(), 5.0);
}

TEST(QueryCacheTest, ClearEmptiesButHandlesSurvive) {
  QueryCache Cache;
  CompileOptions Options;
  Options.Exec = Backend::Interp;
  CompiledQuery Kept = Cache.getOrCompile(sumSq(), Options);
  Cache.clear();
  EXPECT_EQ(Cache.size(), 0u);
  std::vector<double> Xs = {3.0};
  Bindings B;
  B.bindDoubleArray(0, Xs.data(), 1);
  EXPECT_DOUBLE_EQ(Kept.run(B).scalarValue().asDouble(), 9.0);
}

TEST(QueryCacheTest, GlobalInstanceIsShared) {
  QueryCache &A = QueryCache::global();
  QueryCache &B = QueryCache::global();
  EXPECT_EQ(&A, &B);
}

TEST(QueryCacheTest, LookupPeeksWithoutCompiling) {
  QueryCache Cache;
  CompileOptions Options;
  Options.Exec = Backend::Interp;
  EXPECT_FALSE(Cache.lookup(sumSq(), Options).valid());
  EXPECT_EQ(Cache.misses(), 0u) << "lookup must not count as a miss";
  CompiledQuery Compiled = Cache.getOrCompile(sumSq(), Options);
  CompiledQuery Peeked = Cache.lookup(sumSq(), Options);
  ASSERT_TRUE(Peeked.valid());
  EXPECT_EQ(&Peeked.generatedSource(), &Compiled.generatedSource());
  EXPECT_EQ(Cache.hits(), 0u) << "lookup must not count as a hit";
}

TEST(QueryCacheTest, InsertIsFirstWins) {
  QueryCache Cache;
  CompileOptions Options;
  Options.Exec = Backend::Interp;
  // Two independently compiled modules for one key: the second insert
  // must drop its argument and return the canonical first entry.
  CompiledQuery A = compileQuery(sumSq(), Options);
  CompiledQuery B = compileQuery(sumSq(), Options);
  CompiledQuery InA = Cache.insert(sumSq(), Options, A);
  CompiledQuery InB = Cache.insert(sumSq(), Options, B);
  EXPECT_EQ(Cache.size(), 1u);
  EXPECT_EQ(&InA.generatedSource(), &InB.generatedSource());
  EXPECT_EQ(&InB.generatedSource(), &A.generatedSource());
  EXPECT_EQ(Cache.duplicateCompilesDropped(), 1u);
}

TEST(QueryCacheTest, ConcurrentMissesConvergeOnOneEntry) {
  // The duplicate-insert race: N threads miss the same key at once, all
  // compile (compilation is outside the lock), but first-wins insertion
  // must leave exactly one entry, and every caller must receive it.
  constexpr unsigned Threads = 8;
  QueryCache Cache;
  CompileOptions Options;
  Options.Exec = Backend::Interp;
  std::vector<const std::string *> Sources(Threads);
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < Threads; ++T)
    Pool.emplace_back([&, T] {
      CompiledQuery CQ = Cache.getOrCompile(sumSq(), Options);
      Sources[T] = &CQ.generatedSource();
    });
  for (std::thread &T : Pool)
    T.join();
  EXPECT_EQ(Cache.size(), 1u) << "duplicate entries for one key";
  for (unsigned T = 1; T < Threads; ++T)
    EXPECT_EQ(Sources[T], Sources[0])
        << "caller " << T << " got a non-canonical module";
  EXPECT_EQ(Cache.hits() + Cache.misses(), Threads);
  EXPECT_GE(Cache.misses(), 1u);
}

TEST(QueryCacheTest, ConcurrentInsertLookupEvictSameKey) {
  // Hammer one key from inserting and looking-up threads; the cache must
  // stay coherent: size is always 0 or 1 for the key, lookups only ever
  // see the canonical entry, and nothing crashes or deadlocks.
  constexpr unsigned Iters = 200;
  QueryCache Cache;
  CompileOptions Options;
  Options.Exec = Backend::Interp;
  CompiledQuery Seed = compileQuery(sumSq(), Options);
  std::atomic<bool> Stop{false};
  std::atomic<std::uint64_t> Inserted{0};

  std::vector<std::thread> Pool;
  for (int T = 0; T < 2; ++T)
    Pool.emplace_back([&] {
      for (unsigned I = 0; I < Iters; ++I) {
        CompiledQuery Canon = Cache.insert(sumSq(), Options, Seed);
        EXPECT_TRUE(Canon.valid());
        Inserted.fetch_add(1, std::memory_order_relaxed);
      }
    });
  Pool.emplace_back([&] {
    while (!Stop.load(std::memory_order_relaxed)) {
      CompiledQuery Peek = Cache.lookup(sumSq(), Options);
      if (Peek.valid()) {
        EXPECT_EQ(&Peek.generatedSource(), &Seed.generatedSource());
      }
      EXPECT_LE(Cache.size(), 1u);
    }
  });
  for (std::size_t I = 0; I + 1 < Pool.size(); ++I)
    Pool[I].join();
  Stop.store(true, std::memory_order_relaxed);
  Pool.back().join();

  EXPECT_EQ(Inserted.load(), 2u * Iters) << "every insert returned";
  EXPECT_EQ(Cache.size(), 1u);
  // The entry is runnable.
  CompiledQuery Final = Cache.getOrCompile(sumSq(), Options);
  std::vector<double> Xs = {1.0, 2.0};
  Bindings B;
  B.bindDoubleArray(0, Xs.data(), 2);
  EXPECT_DOUBLE_EQ(Final.run(B).scalarValue().asDouble(), 5.0);
}
