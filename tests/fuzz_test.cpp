//===- tests/fuzz_test.cpp - Differential fuzzer unit tests ----*- C++ -*-===//
//
// Covers the fuzz pipeline end to end: spec serialization round-trips,
// builder validation of malformed specs, generator determinism, small
// differential runs against every backend, certificate-aware
// expectations, the injected-fault mismatch path (shrink -> corpus file
// -> replay), and deterministic replay of the checked-in corpus under
// tests/fuzz_corpus/.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Diff.h"
#include "fuzz/Fuzz.h"
#include "fuzz/Gen.h"
#include "fuzz/Shrink.h"
#include "obs/Metrics.h"
#include "support/Random.h"
#include "support/TempFile.h"

#include "gtest/gtest.h"

#include <filesystem>
#include <fstream>
#include <set>

using namespace steno;
using namespace steno::fuzz;

#ifndef STENO_TESTS_SRC_DIR
#error "tests/CMakeLists.txt must define STENO_TESTS_SRC_DIR"
#endif

namespace {

/// One harness for the whole binary: the three thread pools are cheap to
/// keep but not to churn per test.
DiffHarness &harness() {
  static DiffHarness H;
  return H;
}

QuerySpec simpleSumSpec() {
  QuerySpec S;
  S.Sources.push_back({0, ElemTy::Double, DataClass::Uniform, 16, 5});
  OpSpec Sel;
  Sel.K = OpK::Select;
  Sel.T = TransTmpl::MulC;
  Sel.DArg = 2.0;
  S.Ops.push_back(Sel);
  OpSpec Agg;
  Agg.K = OpK::Agg;
  Agg.A = AggKind::Sum;
  S.Ops.push_back(Agg);
  return S;
}

std::string corpusDir() {
  return std::string(STENO_TESTS_SRC_DIR) + "/fuzz_corpus";
}

} // namespace

//===--------------------------------------------------------------------===//
// Spec serialization
//===--------------------------------------------------------------------===//

TEST(FuzzSpecTest, SerializeParseRoundTrip) {
  QuerySpec S;
  S.Sources.push_back({0, ElemTy::Double, DataClass::Skewed, 33, 77});
  S.Sources.push_back({2, ElemTy::Int64, DataClass::Ascending, 7, 9});
  S.HasCaptureD = true;
  S.CaptureD = -2.25;
  S.HasCaptureI = true;
  S.CaptureI = -3;
  OpSpec Sel;
  Sel.K = OpK::Select;
  Sel.T = TransTmpl::AddC;
  Sel.DArg = 1.5;
  S.Ops.push_back(Sel);
  OpSpec Sm;
  Sm.K = OpK::SelectMany;
  Sm.Slot = 2;
  Sm.N = NestedTmpl::MulXY;
  Sm.IArg = 4;
  S.Ops.push_back(Sm);
  OpSpec Ga;
  Ga.K = OpK::GroupAggDense;
  Ga.IArg = 16;
  Ga.G = GroupStep::Max;
  Ga.Combine = false;
  S.Ops.push_back(Ga);

  std::string Text = serializeSpec(S);
  QuerySpec Parsed;
  std::string Err;
  ASSERT_TRUE(parseSpec(Text, Parsed, &Err)) << Err;
  // Round-trip fixpoint: re-serializing the parse reproduces the text.
  EXPECT_EQ(Text, serializeSpec(Parsed));
  EXPECT_EQ(Parsed.Sources.size(), 2u);
  EXPECT_EQ(Parsed.Sources[1].Slot, 2u);
  EXPECT_EQ(Parsed.Sources[1].Ty, ElemTy::Int64);
  EXPECT_TRUE(Parsed.HasCaptureD);
  EXPECT_DOUBLE_EQ(Parsed.CaptureD, -2.25);
  EXPECT_EQ(Parsed.CaptureI, -3);
  ASSERT_EQ(Parsed.Ops.size(), 3u);
  EXPECT_EQ(Parsed.Ops[1].K, OpK::SelectMany);
  EXPECT_EQ(Parsed.Ops[1].IArg, 4);
  EXPECT_FALSE(Parsed.Ops[2].Combine);
}

TEST(FuzzSpecTest, ParseRejectsMalformedInput) {
  QuerySpec S;
  std::string Err;
  EXPECT_FALSE(parseSpec("", S, &Err));
  EXPECT_FALSE(parseSpec("source 0 double 4 uniform 1\nend\n", S, &Err))
      << "missing header must be rejected";
  EXPECT_FALSE(parseSpec("steno-fuzz v1\nsource 0 double 4 uniform 1\n", S,
                         &Err))
      << "missing end sentinel (truncated file) must be rejected";
  EXPECT_FALSE(parseSpec(
      "steno-fuzz v1\nop frobnicate 1\nend\n", S, &Err));
  EXPECT_FALSE(parseSpec(
      "steno-fuzz v1\nend\nsource 0 double 4 uniform 1\n", S, &Err))
      << "content after end must be rejected";
  EXPECT_FALSE(parseSpec(
      "steno-fuzz v1\nsource 0 double nonsense uniform 1\nend\n", S, &Err));
}

TEST(FuzzSpecTest, CommentsAndBlankLinesIgnored) {
  std::string Text = "# leading comment\n\nsteno-fuzz v1\n"
                     "source 0 double 4 uniform 1  # trailing comment\n"
                     "\nop agg sum 0\nend\n";
  QuerySpec S;
  std::string Err;
  ASSERT_TRUE(parseSpec(Text, S, &Err)) << Err;
  EXPECT_EQ(S.Sources.size(), 1u);
  EXPECT_EQ(S.Ops.size(), 1u);
}

//===--------------------------------------------------------------------===//
// Builder validation
//===--------------------------------------------------------------------===//

TEST(FuzzSpecTest, BuilderRejectsIllFormedSpecs) {
  auto rejects = [](const QuerySpec &S, const char *Why) {
    BuiltQuery B;
    std::string Err;
    EXPECT_FALSE(buildSpec(S, B, &Err)) << Why;
    EXPECT_FALSE(Err.empty()) << Why;
  };

  {
    QuerySpec S; // no sources at all
    rejects(S, "empty spec");
  }
  {
    QuerySpec S = simpleSumSpec();
    S.Sources[0].Slot = 3; // primary must be slot 0
    rejects(S, "primary source off slot 0");
  }
  {
    QuerySpec S = simpleSumSpec();
    S.Sources.push_back(S.Sources[0]); // duplicate slot 0
    rejects(S, "duplicate slot");
  }
  {
    QuerySpec S = simpleSumSpec();
    S.Sources[0].Ty = ElemTy::Int64;
    S.Ops[0].T = TransTmpl::SqrtAbs; // double-only template
    rejects(S, "sqrtabs over int64");
  }
  {
    QuerySpec S = simpleSumSpec();
    OpSpec Extra;
    Extra.K = OpK::Where;
    Extra.P = PredTmpl::GtC;
    S.Ops.push_back(Extra); // after the terminal aggregate
    rejects(S, "operator after terminal");
  }
  {
    QuerySpec S = simpleSumSpec();
    OpSpec Sm;
    Sm.K = OpK::SelectMany;
    Sm.Slot = 0; // the partitioned slot may not be a nested source
    S.Ops.insert(S.Ops.begin(), Sm);
    rejects(S, "nested op over slot 0");
  }
  {
    QuerySpec S = simpleSumSpec();
    OpSpec Ga;
    Ga.K = OpK::GroupAgg;
    Ga.Key = KeyTmpl::Id; // double elements need a bucket key
    S.Ops[1] = Ga;
    rejects(S, "hash group key over double");
  }
  {
    QuerySpec S = simpleSumSpec();
    S.Ops[0].T = TransTmpl::CapScale; // no capture declared
    rejects(S, "capscale without capture");
  }
}

TEST(FuzzSpecTest, BuildsAndSummarizesSimpleSpec) {
  QuerySpec S = simpleSumSpec();
  BuiltQuery B;
  std::string Err;
  ASSERT_TRUE(buildSpec(S, B, &Err)) << Err;
  std::string Summary = specSummary(S);
  EXPECT_NE(Summary.find("double[16,uniform]"), std::string::npos) << Summary;
  EXPECT_NE(Summary.find("agg(sum)"), std::string::npos) << Summary;
}

//===--------------------------------------------------------------------===//
// Generator
//===--------------------------------------------------------------------===//

TEST(FuzzGenTest, DeterministicForFixedSeed) {
  GenOptions GO;
  support::SplitMix64 A(42), B(42), C(43);
  bool Diverged = false;
  for (int I = 0; I != 200; ++I) {
    std::string SA = serializeSpec(generateSpec(A, GO));
    std::string SB = serializeSpec(generateSpec(B, GO));
    EXPECT_EQ(SA, SB) << "same seed must generate identical spec streams";
    if (SA != serializeSpec(generateSpec(C, GO)))
      Diverged = true;
  }
  EXPECT_TRUE(Diverged) << "different seeds should generate different specs";
}

TEST(FuzzGenTest, GeneratedSpecsBuildAndRoundTrip) {
  GenOptions GO;
  support::SplitMix64 Rng(7);
  unsigned Built = 0;
  for (int I = 0; I != 300; ++I) {
    QuerySpec S = generateSpec(Rng, GO);
    std::string Text = serializeSpec(S);
    QuerySpec Parsed;
    std::string Err;
    ASSERT_TRUE(parseSpec(Text, Parsed, &Err)) << Err << "\n" << Text;
    EXPECT_EQ(Text, serializeSpec(Parsed));
    BuiltQuery B;
    if (buildSpec(S, B, &Err))
      ++Built;
  }
  // The generator re-rolls inadmissible draws; the overwhelming majority
  // of emitted specs must build.
  EXPECT_GT(Built, 280u);
}

//===--------------------------------------------------------------------===//
// Differential checking
//===--------------------------------------------------------------------===//

TEST(FuzzDiffTest, EachBackendAgreesWithOracle) {
  // One small run per backend (JIT excluded here: jit_test owns the
  // native path's latency budget; the corpus replay below still covers
  // it). Restricting to one backend exercises the --backend CLI path.
  for (BackendId Id : allBackends(false)) {
    FuzzOptions FO;
    FO.Seed = 11;
    FO.Iters = 25;
    FO.JitEvery = 0;
    FO.HasOnly = true;
    FO.Only = Id;
    FuzzOutcome Out = runFuzz(harness(), FO);
    EXPECT_TRUE(Out.clean()) << backendName(Id);
    EXPECT_EQ(Out.Queries, 25u) << backendName(Id);
  }
}

TEST(FuzzDiffTest, FullMatrixSmokeIsCleanAndCountersMove) {
  obs::Counter &Queries = obs::counter("fuzz.queries");
  obs::Counter &Mismatches = obs::counter("fuzz.mismatches");
  std::uint64_t Q0 = Queries.value(), M0 = Mismatches.value();

  FuzzOptions FO;
  FO.Seed = 2026;
  FO.Iters = 60;
  FO.JitEvery = 0;
  FuzzOutcome Out = runFuzz(harness(), FO);
  EXPECT_TRUE(Out.clean());
  EXPECT_EQ(Out.Queries, 60u);
  // A healthy generator must produce both certified-parallel queries and
  // sequential-fallback queries in a small run.
  EXPECT_GT(Out.Certified, 0u);
  EXPECT_LT(Out.Certified, 60u);
  EXPECT_EQ(Queries.value() - Q0, 60u);
  EXPECT_EQ(Mismatches.value(), M0);
}

TEST(FuzzDiffTest, CertificateExpectations) {
  // An associative sum over one source must fan out on dryad...
  DiffResult R = harness().check(simpleSumSpec(), DiffOptions());
  EXPECT_FALSE(R.Mismatch) << R.Report;
  EXPECT_TRUE(R.Certified);

  // ...while a provably non-associative fold must not: every backend is
  // required to take the sequential fallback and still match the oracle.
  QuerySpec NonAssoc = simpleSumSpec();
  NonAssoc.Ops[1].A = AggKind::FoldNonAssoc;
  R = harness().check(NonAssoc, DiffOptions());
  EXPECT_FALSE(R.Mismatch) << R.Report;
  EXPECT_FALSE(R.Certified)
      << "non-associative fold must not certify as parallel-safe";
}

//===--------------------------------------------------------------------===//
// Injected-fault mismatch pipeline: detect -> shrink -> serialize ->
// replay. This is the proof that a real miscompile would produce a
// replayable corpus file.
//===--------------------------------------------------------------------===//

TEST(FuzzDiffTest, InjectedFaultYieldsReplayableShrunkReproducer) {
  std::string Dir = support::processTempDir() + "/fuzz_inject_corpus";
  std::filesystem::remove_all(Dir);

  FuzzOptions FO;
  FO.Seed = 5;
  FO.Iters = 6;
  FO.JitEvery = 0;
  FO.CorpusDir = Dir;
  FO.Inject = [](BackendId Id) { return Id == BackendId::Plinq8; };
  FuzzOutcome Out = runFuzz(harness(), FO);

  ASSERT_GT(Out.Mismatches, 0u);
  EXPECT_GT(Out.ShrinkSteps, 0u);
  ASSERT_FALSE(Out.Failures.empty());

  const QuerySpec &Shrunk = Out.Failures.front().first;
  const std::string &Path = Out.Failures.front().second;
  ASSERT_FALSE(Path.empty());

  // The reproducer file parses back to the shrunk spec.
  std::ifstream In(Path);
  ASSERT_TRUE(In.good()) << Path;
  std::string Text((std::istreambuf_iterator<char>(In)),
                   std::istreambuf_iterator<char>());
  QuerySpec FromDisk;
  std::string Err;
  ASSERT_TRUE(parseSpec(Text, FromDisk, &Err)) << Err;
  EXPECT_EQ(serializeSpec(FromDisk), serializeSpec(Shrunk));

  // Still failing under the injected fault (the shrinker's invariant)...
  DiffOptions WithFault;
  WithFault.Inject = FO.Inject;
  DiffResult R = harness().check(FromDisk, WithFault);
  EXPECT_TRUE(R.Mismatch);
  EXPECT_FALSE(R.BuildError) << R.Report;

  // ...and clean once the fault is removed: the file is a true backend
  // reproducer, not a corrupted spec.
  R = harness().check(FromDisk, DiffOptions());
  EXPECT_FALSE(R.Mismatch) << R.Report;

  // loadCorpus finds what the fuzz loop wrote.
  std::vector<std::pair<std::string, QuerySpec>> Corpus;
  ASSERT_TRUE(loadCorpus(Dir, Corpus, &Err)) << Err;
  EXPECT_EQ(Corpus.size(), Out.Failures.size());
}

TEST(FuzzShrinkTest, ShrinksInjectedFailureToSmallerSpec) {
  // Build a deliberately bulky spec; under an always-inject fault on
  // plinq8 every candidate still "fails", so the shrinker must drive it
  // to something near-minimal.
  QuerySpec S = simpleSumSpec();
  S.Sources[0].Count = 64;
  OpSpec W;
  W.K = OpK::Where;
  W.P = PredTmpl::AbsGtC;
  W.DArg = 1.0;
  S.Ops.insert(S.Ops.begin(), W);
  S.Ops.insert(S.Ops.begin(), S.Ops[0]);

  DiffOptions DO;
  DO.Inject = [](BackendId Id) { return Id == BackendId::Plinq8; };
  ASSERT_TRUE(harness().check(S, DO).Mismatch);

  ShrinkStats Stats;
  QuerySpec Shrunk = shrinkSpec(harness(), S, DO, ShrinkOptions(), Stats);
  EXPECT_GT(Stats.Steps, 0u);
  EXPECT_GT(Stats.Reductions, 0u);
  EXPECT_LT(Shrunk.Ops.size(), S.Ops.size());
  EXPECT_LE(Shrunk.Sources[0].Count, 1u);
  // The shrunk spec still reproduces and still builds.
  DiffResult R = harness().check(Shrunk, DO);
  EXPECT_TRUE(R.Mismatch);
  EXPECT_FALSE(R.BuildError);
}

//===--------------------------------------------------------------------===//
// Checked-in corpus replay
//===--------------------------------------------------------------------===//

TEST(FuzzCorpusTest, ReplayCheckedInCorpusAcrossAllBackends) {
  std::vector<std::pair<std::string, QuerySpec>> Corpus;
  std::string Err;
  ASSERT_TRUE(loadCorpus(corpusDir(), Corpus, &Err)) << Err;
  ASSERT_GE(Corpus.size(), 10u)
      << "tests/fuzz_corpus must keep at least ten reproducers";

  // Stable replay order (loadCorpus sorts by name).
  for (std::size_t I = 1; I < Corpus.size(); ++I)
    EXPECT_LT(Corpus[I - 1].first, Corpus[I].first);

  DiffOptions DO;
  DO.Backends = allBackends(true); // JIT included: the corpus is small
  for (const auto &[Path, Spec] : Corpus) {
    DiffResult R = harness().check(Spec, DO);
    EXPECT_FALSE(R.BuildError) << Path << ": " << R.Report;
    EXPECT_FALSE(R.Mismatch) << Path << ": " << R.Report;
  }
}

TEST(FuzzCorpusTest, CorpusCoversCertifiedAndFallbackShapes) {
  std::vector<std::pair<std::string, QuerySpec>> Corpus;
  std::string Err;
  ASSERT_TRUE(loadCorpus(corpusDir(), Corpus, &Err)) << Err;
  std::set<std::string> Certified, Fallback;
  for (const auto &[Path, Spec] : Corpus) {
    DiffResult R = harness().check(Spec, DiffOptions());
    (R.Certified ? Certified : Fallback)
        .insert(std::filesystem::path(Path).filename().string());
  }
  // The hand-picked set must exercise both sides of the certificate.
  EXPECT_GE(Certified.size(), 3u);
  EXPECT_GE(Fallback.size(), 2u);
  EXPECT_TRUE(Fallback.count("nonassoc_agg.fuzzspec"));
  EXPECT_TRUE(Fallback.count("nocomb_agg.fuzzspec"));
}

TEST(FuzzCorpusTest, LoadCorpusFailsOnMissingOrCorrupt) {
  std::vector<std::pair<std::string, QuerySpec>> Corpus;
  std::string Err;
  EXPECT_FALSE(loadCorpus("/nonexistent/fuzz_corpus", Corpus, &Err));

  std::string Dir = support::processTempDir() + "/fuzz_corrupt_corpus";
  std::filesystem::create_directories(Dir);
  std::ofstream(Dir + "/bad.fuzzspec") << "steno-fuzz v1\nop agg sum 0\n";
  Corpus.clear();
  EXPECT_FALSE(loadCorpus(Dir, Corpus, &Err))
      << "a truncated corpus file must fail replay, not be skipped";
}
