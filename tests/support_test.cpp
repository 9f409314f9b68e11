//===- tests/support_test.cpp - support/ unit tests ------------*- C++ -*-===//

#include "support/Env.h"
#include "support/Random.h"
#include "support/StringUtil.h"
#include "support/TempFile.h"
#include "support/Timing.h"

#include "gtest/gtest.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <set>

using namespace steno::support;

TEST(StrFormat, Basic) {
  EXPECT_EQ(strFormat("x=%d", 42), "x=42");
  EXPECT_EQ(strFormat("%s-%s", "a", "b"), "a-b");
  EXPECT_EQ(strFormat("plain"), "plain");
}

TEST(StrFormat, LongOutput) {
  std::string Long(5000, 'y');
  EXPECT_EQ(strFormat("%s", Long.c_str()).size(), 5000u);
}

TEST(Join, Empty) { EXPECT_EQ(join({}, ", "), ""); }

TEST(Join, Single) { EXPECT_EQ(join({"a"}, ", "), "a"); }

TEST(Join, Many) { EXPECT_EQ(join({"a", "b", "c"}, "+"), "a+b+c"); }

TEST(SanitizeIdentifier, PassThrough) {
  EXPECT_EQ(sanitizeIdentifier("good_name42"), "good_name42");
}

TEST(SanitizeIdentifier, ReplacesBadChars) {
  EXPECT_EQ(sanitizeIdentifier("a-b.c d"), "a_b_c_d");
}

TEST(SanitizeIdentifier, LeadingDigit) {
  EXPECT_EQ(sanitizeIdentifier("1abc"), "_1abc");
}

TEST(SanitizeIdentifier, Empty) {
  EXPECT_EQ(sanitizeIdentifier(""), "anon");
}

TEST(DoubleLiteral, Integral) {
  // Must not parse as an int literal in generated code.
  EXPECT_EQ(doubleLiteral(2.0), "2.0");
  EXPECT_EQ(doubleLiteral(0.0), "0.0");
  EXPECT_EQ(doubleLiteral(-3.0), "-3.0");
}

TEST(DoubleLiteral, RoundTrips) {
  for (double V : {0.1, 1.0 / 3.0, 1e300, -2.5e-7, 123456.789}) {
    std::string Lit = doubleLiteral(V);
    EXPECT_EQ(std::stod(Lit), V) << Lit;
  }
}

TEST(DoubleLiteral, NonFinite) {
  EXPECT_NE(doubleLiteral(std::nan("")).find("quiet_NaN"),
            std::string::npos);
  EXPECT_NE(doubleLiteral(INFINITY).find("infinity"), std::string::npos);
  EXPECT_NE(doubleLiteral(-INFINITY).find("-"), std::string::npos);
}

TEST(SplitMix64, Deterministic) {
  SplitMix64 A(7);
  SplitMix64 B(7);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(SplitMix64, SeedsDiffer) {
  SplitMix64 A(1);
  SplitMix64 B(2);
  EXPECT_NE(A.next(), B.next());
}

TEST(SplitMix64, DoubleRange) {
  SplitMix64 Rng(99);
  for (int I = 0; I < 1000; ++I) {
    double V = Rng.nextDouble();
    EXPECT_GE(V, 0.0);
    EXPECT_LT(V, 1.0);
  }
}

TEST(SplitMix64, DoubleRangeBounds) {
  SplitMix64 Rng(99);
  for (int I = 0; I < 1000; ++I) {
    double V = Rng.nextDouble(-5, 10);
    EXPECT_GE(V, -5.0);
    EXPECT_LT(V, 10.0);
  }
}

TEST(SplitMix64, NextBelow) {
  SplitMix64 Rng(3);
  std::set<std::uint64_t> Seen;
  for (int I = 0; I < 1000; ++I) {
    std::uint64_t V = Rng.nextBelow(10);
    EXPECT_LT(V, 10u);
    Seen.insert(V);
  }
  EXPECT_EQ(Seen.size(), 10u) << "all residues should appear";
}

TEST(SplitMix64, GaussianMoments) {
  SplitMix64 Rng(42);
  double Sum = 0;
  double SumSq = 0;
  const int N = 200000;
  for (int I = 0; I < N; ++I) {
    double G = Rng.nextGaussian();
    Sum += G;
    SumSq += G * G;
  }
  double Mean = Sum / N;
  double Var = SumSq / N - Mean * Mean;
  EXPECT_NEAR(Mean, 0.0, 0.02);
  EXPECT_NEAR(Var, 1.0, 0.03);
}

TEST(WallTimer, MeasuresSomething) {
  WallTimer T;
  volatile double Sink = 0;
  for (int I = 0; I < 100000; ++I)
    Sink = Sink + I;
  EXPECT_GE(T.seconds(), 0.0);
  EXPECT_GE(T.millis(), T.seconds()); // ms >= s for any elapsed < 1000s
}

TEST(WallTimer, ResetRestarts) {
  WallTimer T;
  volatile double Sink = 0;
  for (int I = 0; I < 100000; ++I)
    Sink = Sink + I;
  double Before = T.seconds();
  T.reset();
  EXPECT_LE(T.seconds(), Before + 1.0);
}

TEST(TempFile, WriteAndRead) {
  std::string Path = processTempDir() + "/support_test.txt";
  writeFile(Path, "hello\nworld");
  EXPECT_EQ(readFileOrEmpty(Path), "hello\nworld");
  std::remove(Path.c_str());
}

TEST(TempFile, ReadMissingIsEmpty) {
  EXPECT_EQ(readFileOrEmpty("/no/such/file/at/all"), "");
}

TEST(TempFile, OverwriteReplaces) {
  std::string Path = processTempDir() + "/support_test2.txt";
  writeFile(Path, "first");
  writeFile(Path, "2nd");
  EXPECT_EQ(readFileOrEmpty(Path), "2nd");
  std::remove(Path.c_str());
}

TEST(TempFileDeath, EmptyDirectoryIsRemovedAtExit) {
  // The threadsafe style re-executes the binary, so the child is a fresh
  // process: with a private TMPDIR it creates its steno-jit-<pid>
  // directory, leaves it empty and exits cleanly. The directory must not
  // outlive it.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  namespace fs = std::filesystem;
  const char *Base = std::getenv("TMPDIR");
  fs::path Private =
      fs::path(Base ? Base : "/tmp") / "steno-support-tempdir-at-exit";
  fs::remove_all(Private);
  fs::create_directories(Private);
  EXPECT_EXIT(
      {
        ::setenv("TMPDIR", Private.c_str(), 1);
        std::exit(fs::is_directory(processTempDir()) ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
  EXPECT_TRUE(fs::is_empty(Private));
  fs::remove_all(Private);
}

TEST(ParseFlag, CaseTable) {
  struct Row {
    const char *Raw; // null = unset
    bool Default;
    bool Want;
  };
  const Row Rows[] = {
      {nullptr, true, true}, {nullptr, false, false}, {"", true, true},
      {"", false, false},    {"0", true, false},      {"0", false, false},
      {"off", true, false},  {"off", false, false},   {"1", true, true},
      {"1", false, true},    {"on", true, true},      {"on", false, true},
  };
  for (const Row &R : Rows)
    EXPECT_EQ(parseFlag(R.Raw, R.Default), R.Want)
        << (R.Raw ? R.Raw : "<unset>") << " default " << R.Default;
}

