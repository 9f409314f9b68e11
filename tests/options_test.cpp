//===- tests/options_test.cpp - One source of truth per option -*- C++ -*-===//
//
// Every compile, serve, batch and trace option has exactly one source: a
// struct field or a command-line flag. The environment holds only paths
// and tool switches, so a process started with STENO_* variables that
// once set options compiles and serves exactly as one started without.
//
//===----------------------------------------------------------------------===//

#include "expr/Dsl.h"
#include "obs/Trace.h"
#include "serve/Serve.h"
#include "steno/Steno.h"

#include "gtest/gtest.h"

#include <cstdlib>
#include <utility>

using namespace steno;
using namespace steno::expr;
using namespace steno::expr::dsl;
using query::Query;

TEST(OptionSources, EnvironmentSetsNoOption) {
  auto X = param("x", Type::doubleTy());
  Query Fig1 = Query::doubleArray(0).select(lambda({X}, X * X)).sum();
  CompileOptions Interp;
  Interp.Exec = Backend::Interp;
  std::uint64_t UnsetHash = compileQuery(Fig1, Interp).planHash();

  const std::pair<const char *, const char *> Vars[] = {
      {"STENO_ANALYZE", "off"},   {"STENO_REWRITE", "off"},
      {"STENO_PROFILE", "1"},     {"STENO_VECTORIZE", "off"},
      {"STENO_BATCH_SIZE", "16"}, {"STENO_TRACE_BUF", "1"}};
  for (auto [Name, Value] : Vars)
    ::setenv(Name, Value, 1);

  EXPECT_TRUE(CompileOptions() ==
              (CompileOptions{.Exec = Backend::Native,
                              .SpecializeGroupByAggregate = true,
                              .EnableCse = true,
                              .Analyze = analysis::Mode::Strict,
                              .Rewrite = true,
                              .Profile = false,
                              .Vectorize = true,
                              .Adaptive = true,
                              .Name = "steno_query"}));
  EXPECT_FALSE(serve::ServeOptions().Profile);

  CompileOptions Set;
  Set.Exec = Backend::Interp;
  obs::resetTrace();
  obs::setTracingEnabled(true);
  CompiledQuery CQ = compileQuery(Fig1, Set);
  obs::setTracingEnabled(false);
  EXPECT_TRUE(CQ.vectorized());
  EXPECT_FALSE(CQ.profiled());
  EXPECT_EQ(CQ.planHash(), UnsetHash);
  EXPECT_GT(obs::traceEventCount(), 1u) << "the compile records its phases";
  EXPECT_EQ(obs::traceDroppedCount(), 0u);
  obs::resetTrace();

  for (auto [Name, Value] : Vars)
    ::unsetenv(Name);
}
