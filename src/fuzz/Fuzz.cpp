//===- fuzz/Fuzz.cpp - Top-level differential fuzz loop --------*- C++ -*-===//

#include "fuzz/Fuzz.h"

#include "obs/Metrics.h"
#include "support/StringUtil.h"
#include "support/TempFile.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>

using namespace steno;
using namespace steno::fuzz;

FuzzOutcome fuzz::runFuzz(DiffHarness &Harness, const FuzzOptions &Opts) {
  static obs::Counter &Queries = obs::counter("fuzz.queries");
  static obs::Counter &Rejected = obs::counter("fuzz.rejected");
  static obs::Counter &Mismatches = obs::counter("fuzz.mismatches");
  static obs::Counter &Certified = obs::counter("fuzz.certified");

  FuzzOutcome Out;
  support::SplitMix64 Rng(Opts.Seed);
  if (!Opts.CorpusDir.empty())
    std::filesystem::create_directories(Opts.CorpusDir);

  for (unsigned Iter = 0; Iter != Opts.Iters; ++Iter) {
    DiffOptions DOpts;
    if (Opts.HasOnly)
      DOpts.Backends = {Opts.Only};
    else
      DOpts.Backends = allBackends(Opts.JitEvery != 0 &&
                                   Iter % Opts.JitEvery == 0);
    DOpts.Inject = Opts.Inject;

    // Draw until the pre-screen accepts a candidate. Rejections are
    // generator bugs or intentional conservatism (e.g. an op combination
    // the type checker refuses); they are counted, never fatal.
    QuerySpec Spec;
    DiffResult R;
    bool Valid = false;
    for (unsigned Try = 0; Try != 20 && !Valid; ++Try) {
      Spec = generateSpec(Rng, Opts.Gen);
      R = Harness.check(Spec, DOpts);
      if (R.BuildError) {
        Rejected.inc();
        ++Out.Rejected;
        continue;
      }
      Valid = true;
    }
    if (!Valid)
      continue; // 20 consecutive rejections: skip the iteration

    Queries.inc();
    ++Out.Queries;
    if (R.Certified) {
      Certified.inc();
      ++Out.Certified;
    }
    if (Opts.Verbose)
      std::fprintf(stderr, "fuzz[%u]: %s%s\n", Iter,
                   specSummary(Spec).c_str(),
                   R.Mismatch ? "  << MISMATCH" : "");
    if (!R.Mismatch)
      continue;

    Mismatches.inc();
    ++Out.Mismatches;
    Out.CountMismatches += R.CountMismatch ? 1 : 0;
    std::fprintf(stderr, "steno-fuzz: mismatch at iter %u (seed %llu):\n%s\n",
                 Iter, static_cast<unsigned long long>(Opts.Seed),
                 R.Report.c_str());

    ShrinkStats Stats;
    QuerySpec Small =
        shrinkSpec(Harness, Spec, DOpts, Opts.Shrink, Stats);
    Out.ShrinkSteps += Stats.Steps;

    std::string Path;
    if (!Opts.CorpusDir.empty()) {
      Path = Opts.CorpusDir +
             support::strFormat("/shrunk-seed%llu-iter%u.fuzzspec",
                                static_cast<unsigned long long>(Opts.Seed),
                                Iter);
      DiffResult Final = Harness.check(Small, DOpts);
      std::string Text =
          "# shrunken reproducer: " + specSummary(Small) + "\n";
      for (BackendId Id : Final.failing())
        Text += std::string("# fails: ") + backendName(Id) + "\n";
      Text += serializeSpec(Small);
      support::writeFile(Path, Text);
      std::fprintf(stderr, "steno-fuzz: reproducer written to %s\n",
                   Path.c_str());
    }
    Out.Failures.emplace_back(std::move(Small), std::move(Path));
  }
  return Out;
}

bool fuzz::loadCorpus(const std::string &Dir,
                      std::vector<std::pair<std::string, QuerySpec>> &Out,
                      std::string *Err) {
  namespace fs = std::filesystem;
  std::error_code Ec;
  if (!fs::is_directory(Dir, Ec)) {
    if (Err)
      *Err = "corpus directory missing: " + Dir;
    return false;
  }
  std::vector<std::string> Paths;
  for (const fs::directory_entry &Entry : fs::directory_iterator(Dir, Ec))
    if (Entry.path().extension() == ".fuzzspec")
      Paths.push_back(Entry.path().string());
  std::sort(Paths.begin(), Paths.end());
  for (const std::string &Path : Paths) {
    QuerySpec Spec;
    std::string ParseErr;
    if (!parseSpec(support::readFileOrEmpty(Path), Spec, &ParseErr)) {
      if (Err)
        *Err = Path + ": " + ParseErr;
      return false;
    }
    Out.emplace_back(Path, Spec);
  }
  if (Out.empty()) {
    if (Err)
      *Err = "corpus directory has no .fuzzspec files: " + Dir;
    return false;
  }
  return true;
}
