//===- tests/jit_test.cpp - Native backend differentials -------*- C++ -*-===//
//
// Validates the compile-load-invoke pipeline (paper §3.3): the native
// backend must agree with the reference executor on the full catalog, the
// one-off compilation cost must be observable (§7.1), compiled query
// objects must be reusable across bindings, and a compiled module must
// delete the files it wrote.
//
//===----------------------------------------------------------------------===//

#include "QueryTestUtil.h"
#include "jit/Jit.h"
#include "support/TempFile.h"

#include "gtest/gtest.h"

#include <filesystem>
#include <unistd.h>

using namespace steno;
using namespace steno::expr;
using namespace steno::expr::dsl;
using namespace steno::testutil;
using query::Query;

TEST(JitCatalog, AllQueriesMatchReference) {
  Catalog C(/*Seed=*/31);
  for (const auto &[Name, Q] : C.Queries) {
    SCOPED_TRACE(Name);
    expectMatchesReference(Q, C.B, Backend::Native, Name);
  }
}

TEST(JitModule, CompileCostIsMeasured) {
  auto X = param("x", Type::doubleTy());
  Query Q = Query::doubleArray(0).select(lambda({X}, X * X)).sum();
  CompiledQuery CQ = compileQuery(Q, {});
  EXPECT_GT(CQ.compileMillis(), 0.0)
      << "the §7.1 one-off cost must be observable";
}

TEST(JitModule, GeneratedSourceIsAvailable) {
  auto X = param("x", Type::doubleTy());
  Query Q = Query::doubleArray(0).where(lambda({X}, X > 0.0)).count();
  CompiledQuery CQ = compileQuery(Q, {});
  EXPECT_NE(CQ.generatedSource().find("extern \"C\""), std::string::npos);
  EXPECT_NE(CQ.generatedSource().find("for ("), std::string::npos);
}

TEST(JitModule, CompileFailureIsReported) {
  std::string Err;
  auto Module = jit::CompiledModule::compile("this is not C++ at all;",
                                             "broken_entry", &Err);
  EXPECT_EQ(Module, nullptr);
  EXPECT_FALSE(Err.empty());
}

TEST(JitModule, MissingSymbolIsReported) {
  std::string Err;
  auto Module = jit::CompiledModule::compile(
      "extern \"C\" void some_other_name(void*, void*) {}\n",
      "expected_name", &Err);
  EXPECT_EQ(Module, nullptr);
  EXPECT_NE(Err.find("dlsym"), std::string::npos) << Err;
}

TEST(JitModule, ReusableAcrossBindings) {
  // The query-cache usage pattern: compile once, run many (paper §7.1).
  auto X = param("x", Type::doubleTy());
  Query Q = Query::doubleArray(0).sum();
  CompiledQuery CQ = compileQuery(Q, {});
  for (std::uint64_t Seed = 0; Seed != 5; ++Seed) {
    std::vector<double> Xs = randomDoubles(100, Seed);
    Bindings B;
    B.bindDoubleArray(0, Xs.data(), 100);
    double Expected = 0;
    for (double V : Xs)
      Expected += V;
    EXPECT_DOUBLE_EQ(CQ.run(B).scalarValue().asDouble(), Expected);
  }
  (void)X;
}

TEST(JitModule, TwoQueriesCoexist) {
  auto X = param("x", Type::doubleTy());
  Query QSum = Query::doubleArray(0).sum();
  Query QCount = Query::doubleArray(0).count();
  CompiledQuery A = compileQuery(QSum, {});
  CompiledQuery B2 = compileQuery(QCount, {});
  std::vector<double> Xs = {1, 2, 3};
  Bindings B;
  B.bindDoubleArray(0, Xs.data(), 3);
  EXPECT_DOUBLE_EQ(A.run(B).scalarValue().asDouble(), 6.0);
  EXPECT_EQ(B2.run(B).scalarValue().asInt64(), 3);
  (void)X;
}

TEST(JitProperty, RandomPipelinesMatchInterp) {
  // A handful of random pipelines through BOTH backends (kept small:
  // each native compile costs hundreds of ms).
  for (std::uint64_t Seed : {3u, 17u, 29u}) {
    std::vector<double> Xs = randomDoubles(150, Seed + 1000);
    Bindings B;
    B.bindDoubleArray(0, Xs.data(),
                      static_cast<std::int64_t>(Xs.size()));
    auto X = param("x", Type::doubleTy());
    Query Q = Query::doubleArray(0)
                  .where(lambda({X}, X > -20.0))
                  .select(lambda({X}, X * X - 1.0))
                  .skip(E(static_cast<std::int64_t>(Seed % 7)))
                  .sum();
    CompileOptions Native;
    Native.Exec = Backend::Native;
    CompileOptions Interp;
    Interp.Exec = Backend::Interp;
    double VN =
        compileQuery(Q, Native).run(B).scalarValue().asDouble();
    double VI =
        compileQuery(Q, Interp).run(B).scalarValue().asDouble();
    EXPECT_DOUBLE_EQ(VN, VI) << "seed " << Seed;
  }
}

//===--------------------------------------------------------------------===//
// Files: a compiled module deletes what it wrote
//===--------------------------------------------------------------------===//

namespace {

bool exists(const std::string &Path) {
  return ::access(Path.c_str(), F_OK) == 0;
}

/// \p Path with its extension (after the last '.') replaced by \p Ext.
std::string withExt(const std::string &Path, const char *Ext) {
  return Path.substr(0, Path.rfind('.')) + Ext;
}

/// Files in the JIT's directory whose names start with \p Prefix.
std::vector<std::string> jitFilesStartingWith(const std::string &Prefix) {
  std::vector<std::string> Out;
  for (const auto &Entry :
       std::filesystem::directory_iterator(support::processTempDir()))
    if (Entry.path().filename().string().rfind(Prefix, 0) == 0)
      Out.push_back(Entry.path().string());
  return Out;
}

constexpr const char *kEmptyEntry =
    "extern \"C\" void jit_files_entry(void *, void *) {}\n";

} // namespace

TEST(JitFiles, CompiledModuleDeletesItsFilesWhenClosed) {
  auto M = jit::CompiledModule::compile(kEmptyEntry, "jit_files_entry");
  ASSERT_NE(M, nullptr);
  std::string Src = M->sourcePath(), So = M->objectPath();
  std::string Log = withExt(So, ".log");
  EXPECT_TRUE(exists(Src)) << Src;
  EXPECT_TRUE(exists(So)) << "the shared object lives as long as the module";
  EXPECT_TRUE(exists(Log)) << Log;
  M.reset();
  EXPECT_FALSE(exists(Src)) << Src;
  EXPECT_FALSE(exists(So)) << So;
  EXPECT_FALSE(exists(Log)) << Log;
}

TEST(JitFiles, FailedCompileKeepsTheSourceItsMessageNames) {
  std::string Err;
  auto M = jit::CompiledModule::compile("this is not C++;", "jit_files_bad",
                                        &Err);
  ASSERT_EQ(M, nullptr);
  std::size_t At = Err.rfind("source: ");
  ASSERT_NE(At, std::string::npos) << Err;
  std::string Src = Err.substr(At + 8);
  EXPECT_TRUE(exists(Src)) << Src;
  EXPECT_TRUE(exists(withExt(Src, ".log")));
  ::unlink(Src.c_str());
  ::unlink(withExt(Src, ".log").c_str());
}

TEST(JitFiles, FailedLoadDeletesItsFiles) {
  std::string Err;
  auto M = jit::CompiledModule::compile(kEmptyEntry, "jit_files_nosym",
                                        &Err);
  ASSERT_EQ(M, nullptr);
  EXPECT_NE(Err.find("dlsym"), std::string::npos) << Err;
  EXPECT_EQ(jitFilesStartingWith("jit_files_nosym_"),
            std::vector<std::string>());
}

TEST(JitFiles, LoadedModuleOwnsNoFile) {
  auto M = jit::CompiledModule::compile(kEmptyEntry, "jit_files_entry");
  ASSERT_NE(M, nullptr);
  std::string Copy = M->objectPath() + ".copy.so";
  std::filesystem::copy_file(M->objectPath(), Copy);
  {
    auto L = jit::CompiledModule::load(Copy, "jit_files_entry");
    ASSERT_NE(L, nullptr);
    EXPECT_EQ(L->objectPath(), Copy);
    EXPECT_TRUE(L->sourcePath().empty());
  }
  EXPECT_TRUE(exists(Copy)) << "load() does not own the object it opened";
  EXPECT_TRUE(exists(M->objectPath()));
  ::unlink(Copy.c_str());
}
