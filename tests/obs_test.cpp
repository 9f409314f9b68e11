//===- tests/obs_test.cpp - steno::obs metrics + tracing -------*- C++ -*-===//
//
// Covers the observability layer: counter atomicity under concurrent
// writers, histogram bucket boundaries, span nesting and Chrome-trace
// JSON well-formedness, the disabled-tracing zero-event guarantee, and
// the end-to-end metric flow through compileQuery/run/QueryCache.
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"
#include "obs/Trace.h"

#include "expr/Dsl.h"
#include "steno/QueryCache.h"
#include "steno/Steno.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

using namespace steno;

namespace {

TEST(Metrics, CounterAtomicUnderThreads) {
  obs::Counter &C = obs::counter("test.counter.atomic");
  C.reset();
  constexpr int Threads = 8;
  constexpr int PerThread = 100000;
  std::vector<std::thread> Workers;
  for (int T = 0; T != Threads; ++T)
    Workers.emplace_back([&C] {
      for (int I = 0; I != PerThread; ++I)
        C.inc();
    });
  for (std::thread &W : Workers)
    W.join();
  EXPECT_EQ(C.value(),
            static_cast<std::uint64_t>(Threads) * PerThread);
}

TEST(Metrics, CounterSameNameSameInstance) {
  obs::Counter &A = obs::counter("test.counter.alias");
  obs::Counter &B = obs::counter("test.counter.alias");
  EXPECT_EQ(&A, &B);
}

TEST(Metrics, GaugeTracksHighWater) {
  obs::Gauge &G = obs::gauge("test.gauge.hw");
  G.reset();
  G.add(3);
  G.add(4); // peak 7
  G.sub(6);
  EXPECT_EQ(G.value(), 1);
  EXPECT_EQ(G.maxValue(), 7);
}

TEST(Metrics, HistogramBucketBoundaries) {
  obs::Histogram &H =
      obs::histogram("test.histo.bounds", {1.0, 2.0, 4.0});
  H.reset();
  // "le" semantics: a value on a boundary lands in that boundary's bucket.
  H.observe(0.5); // le 1
  H.observe(1.0); // le 1 (boundary)
  H.observe(1.5); // le 2
  H.observe(2.0); // le 2 (boundary)
  H.observe(3.0); // le 4
  H.observe(4.0); // le 4 (boundary)
  H.observe(9.0); // +inf
  EXPECT_EQ(H.count(), 7u);
  EXPECT_DOUBLE_EQ(H.sum(), 0.5 + 1.0 + 1.5 + 2.0 + 3.0 + 4.0 + 9.0);
  EXPECT_EQ(H.bucketCount(0), 2u);
  EXPECT_EQ(H.bucketCount(1), 2u);
  EXPECT_EQ(H.bucketCount(2), 2u);
  EXPECT_EQ(H.bucketCount(3), 1u); // implicit +inf
}

TEST(Metrics, HistogramConcurrentObserve) {
  obs::Histogram &H = obs::histogram("test.histo.mt", {10.0});
  H.reset();
  constexpr int Threads = 4;
  constexpr int PerThread = 50000;
  std::vector<std::thread> Workers;
  for (int T = 0; T != Threads; ++T)
    Workers.emplace_back([&H] {
      for (int I = 0; I != PerThread; ++I)
        H.observe(1.0);
    });
  for (std::thread &W : Workers)
    W.join();
  EXPECT_EQ(H.count(), static_cast<std::uint64_t>(Threads) * PerThread);
  EXPECT_DOUBLE_EQ(H.sum(), 1.0 * Threads * PerThread);
  EXPECT_EQ(H.bucketCount(0),
            static_cast<std::uint64_t>(Threads) * PerThread);
}

TEST(Metrics, DumpContainsRegisteredInstruments) {
  obs::counter("test.dump.counter").inc(5);
  obs::gauge("test.dump.gauge").set(2);
  obs::histogram("test.dump.histo", {1.0}).observe(0.5);
  std::string Text = obs::dumpMetrics();
  EXPECT_NE(Text.find("counter test.dump.counter"), std::string::npos);
  EXPECT_NE(Text.find("gauge test.dump.gauge"), std::string::npos);
  EXPECT_NE(Text.find("histogram test.dump.histo"), std::string::npos);
}

TEST(Trace, DisabledRecordsNothing) {
  obs::setTracingEnabled(false);
  obs::resetTrace();
  {
    obs::Span S("never.recorded");
    S.arg("k", 1);
    obs::Span Nested("never.recorded.child");
  }
  EXPECT_EQ(obs::traceEventCount(), 0u);
  EXPECT_EQ(obs::traceDroppedCount(), 0u);
}

TEST(Trace, SpanNestingDepths) {
  obs::setTracingEnabled(true);
  obs::resetTrace();
  EXPECT_EQ(obs::Span::depth(), 0);
  {
    obs::Span Outer("outer");
    EXPECT_EQ(obs::Span::depth(), 1);
    {
      obs::Span Inner("inner");
      EXPECT_EQ(obs::Span::depth(), 2);
    }
    EXPECT_EQ(obs::Span::depth(), 1);
  }
  EXPECT_EQ(obs::Span::depth(), 0);
  obs::setTracingEnabled(false);
  EXPECT_EQ(obs::traceEventCount(), 2u);
  std::string Json = obs::traceJson();
  // Inner closes first, so it is recorded first with depth 1.
  EXPECT_NE(Json.find("\"name\":\"inner\""), std::string::npos);
  EXPECT_NE(Json.find("\"name\":\"outer\""), std::string::npos);
  EXPECT_NE(Json.find("\"depth\":1"), std::string::npos);
  EXPECT_NE(Json.find("\"depth\":0"), std::string::npos);
}

TEST(Trace, JsonWellFormed) {
  obs::setTracingEnabled(true);
  obs::resetTrace();
  {
    obs::Span S("json \"quoted\" name\\path");
    S.arg("rows", 42);
  }
  obs::setTracingEnabled(false);
  std::string Json = obs::traceJson();
  EXPECT_EQ(Json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(Json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(Json.find("\"rows\":42"), std::string::npos);
  // Quotes and backslashes in names must come out escaped.
  EXPECT_NE(Json.find("json \\\"quoted\\\" name\\\\path"),
            std::string::npos);
  // Balanced braces/brackets (no parser in the test deps; structural
  // sanity plus the escaping checks above approximate validity).
  int Braces = 0;
  int Brackets = 0;
  bool InString = false;
  for (std::size_t I = 0; I != Json.size(); ++I) {
    char C = Json[I];
    if (InString) {
      if (C == '\\')
        ++I;
      else if (C == '"')
        InString = false;
      continue;
    }
    if (C == '"')
      InString = true;
    else if (C == '{')
      ++Braces;
    else if (C == '}')
      --Braces;
    else if (C == '[')
      ++Brackets;
    else if (C == ']')
      --Brackets;
  }
  EXPECT_EQ(Braces, 0);
  EXPECT_EQ(Brackets, 0);
  EXPECT_FALSE(InString);
}

TEST(Trace, SpanDurationsNest) {
  obs::setTracingEnabled(true);
  obs::resetTrace();
  {
    obs::Span Outer("dur.outer");
    obs::Span Inner("dur.inner");
  }
  obs::setTracingEnabled(false);
  // Events land innermost-first; both were recorded.
  ASSERT_EQ(obs::traceEventCount(), 2u);
  std::string Json = obs::traceJson();
  std::size_t InnerAt = Json.find("dur.inner");
  std::size_t OuterAt = Json.find("dur.outer");
  ASSERT_NE(InnerAt, std::string::npos);
  ASSERT_NE(OuterAt, std::string::npos);
  EXPECT_LT(InnerAt, OuterAt);
}

/// The ISSUE acceptance flow: an end-to-end compile+run shows nonzero
/// compile / cache-miss / rows counters, and a second structurally equal
/// query is a cache hit. Interp backend keeps the test JIT-free.
TEST(ObsE2E, CompileRunAndCacheCountersFlow) {
  using namespace steno::expr;
  using namespace steno::expr::dsl;

  std::uint64_t Compiles0 = obs::counter("steno.compile.count").value();
  std::uint64_t Hits0 = obs::counter("steno.cache.hits").value();
  std::uint64_t Misses0 = obs::counter("steno.cache.misses").value();
  std::uint64_t Rows0 = obs::counter("steno.rows.consumed").value();

  auto MakeQuery = [] {
    auto X = param("x", Type::int64Ty());
    return query::Query::int64Array(0)
        .where(lambda({X}, X % 2 == 0))
        .select(lambda({X}, X * X));
  };

  CompileOptions Options;
  Options.Exec = Backend::Interp;
  QueryCache Cache;
  CompiledQuery CQ = Cache.getOrCompile(MakeQuery(), Options);

  std::vector<std::int64_t> Xs{1, 2, 3, 4, 5, 6};
  Bindings B;
  B.bindInt64Array(0, Xs.data(), static_cast<std::int64_t>(Xs.size()));
  QueryResult R = CQ.run(B);
  EXPECT_EQ(R.rows().size(), 3u);

  EXPECT_GT(obs::counter("steno.compile.count").value(), Compiles0);
  EXPECT_EQ(obs::counter("steno.cache.misses").value(), Misses0 + 1);
  EXPECT_EQ(obs::counter("steno.rows.consumed").value(),
            Rows0 + Xs.size());
  EXPECT_EQ(Cache.misses(), 1u);
  EXPECT_EQ(Cache.hits(), 0u);

  // A structurally identical query built independently: cache hit, no
  // recompile.
  std::uint64_t Compiles1 = obs::counter("steno.compile.count").value();
  Cache.getOrCompile(MakeQuery(), Options);
  EXPECT_EQ(obs::counter("steno.cache.hits").value(), Hits0 + 1);
  EXPECT_EQ(obs::counter("steno.compile.count").value(), Compiles1);
  EXPECT_EQ(Cache.hits(), 1u);

  std::string Dump = obs::dumpMetrics();
  EXPECT_NE(Dump.find("counter steno.compile.count"), std::string::npos);
  EXPECT_NE(Dump.find("counter steno.rows.consumed"), std::string::npos);
  EXPECT_NE(Dump.find("histogram steno.run.micros"), std::string::npos);
}

/// QueryCache::hits()/misses() may be polled concurrently with
/// getOrCompile (the race the atomics fix): hammer both sides under TSan.
TEST(ObsE2E, CacheCountersReadableWhileCompiling) {
  using namespace steno::expr;
  using namespace steno::expr::dsl;

  QueryCache Cache;
  CompileOptions Options;
  Options.Exec = Backend::Interp;

  std::atomic<bool> Stop{false};
  std::thread Poller([&] {
    std::uint64_t Sink = 0;
    while (!Stop.load(std::memory_order_relaxed))
      Sink += Cache.hits() + Cache.misses();
    (void)Sink;
  });

  for (int I = 0; I != 20; ++I) {
    auto X = param("x", Type::int64Ty());
    query::Query Q = query::Query::int64Array(0).select(
        lambda({X}, X + (I % 4))); // 4 distinct shapes
    Cache.getOrCompile(Q, Options);
  }
  Stop.store(true);
  Poller.join();
  EXPECT_EQ(Cache.hits() + Cache.misses(), 20u);
}

} // namespace
