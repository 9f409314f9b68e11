//===- tools/steno_fuzz.cpp - Differential fuzzer CLI ----------*- C++ -*-===//
//
// Part of the Steno/C++ reproduction of Murray, Isard & Yu,
// "Steno: Automatic Optimization of Declarative Queries" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
//
// The entry point CI's fuzz-smoke job and developers share:
//
//   steno_fuzz --seed 1 --iters 5000            # the CI configuration
//   steno_fuzz --seed 7 --iters 200 --jit-every 1   # full JIT coverage
//   steno_fuzz --backend plinq8 --iters 1000        # one backend only
//   steno_fuzz --replay tests/fuzz_corpus           # replay a corpus
//
// Exit status: 0 when every query matched the reference oracle on every
// backend and every profiled plan counted the scalar interpreter's rows;
// 1 on any mismatch (shrunken reproducers are written to --out); 2 on
// usage errors.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzz.h"
#include "obs/Metrics.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace steno;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: steno_fuzz [options]\n"
      "  --seed N         generator seed (default 1)\n"
      "  --iters N        queries to generate (default 1000)\n"
      "  --backend NAME   restrict to one backend: interp |\n"
      "                   interp-norewrite | interp-vec | interp-adapt |\n"
      "                   jit | plinq1 | plinq2 | plinq8 |\n"
      "                   dryad-static\n"
      "  --jit-every N    run the JIT backend every Nth query (default 50;\n"
      "                   0 disables, 1 = every query)\n"
      "  --out DIR        directory for shrunken reproducers\n"
      "                   (default fuzz_failures)\n"
      "  --replay DIR     replay every .fuzzspec in DIR instead of\n"
      "                   generating\n"
      "  --verbose        per-query progress on stderr\n"
      "  --metrics        dump obs counters on exit\n");
}

bool parseUnsigned(const char *S, unsigned long long &Out) {
  char *End = nullptr;
  Out = std::strtoull(S, &End, 10);
  return End && *End == '\0' && End != S;
}

} // namespace

int main(int Argc, char **Argv) {
  fuzz::FuzzOptions Opts;
  Opts.CorpusDir = "fuzz_failures";
  std::string ReplayDir;
  bool DumpMetrics = false;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto next = [&]() -> const char * {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "steno_fuzz: %s needs a value\n", Arg.c_str());
        std::exit(2);
      }
      return Argv[++I];
    };
    unsigned long long N = 0;
    if (Arg == "--seed") {
      if (!parseUnsigned(next(), N)) {
        usage();
        return 2;
      }
      Opts.Seed = N;
    } else if (Arg == "--iters") {
      if (!parseUnsigned(next(), N)) {
        usage();
        return 2;
      }
      Opts.Iters = static_cast<unsigned>(N);
    } else if (Arg == "--jit-every") {
      if (!parseUnsigned(next(), N)) {
        usage();
        return 2;
      }
      Opts.JitEvery = static_cast<unsigned>(N);
    } else if (Arg == "--backend") {
      if (!fuzz::parseBackendName(next(), Opts.Only)) {
        std::fprintf(stderr, "steno_fuzz: unknown backend\n");
        usage();
        return 2;
      }
      Opts.HasOnly = true;
    } else if (Arg == "--out") {
      Opts.CorpusDir = next();
    } else if (Arg == "--replay") {
      ReplayDir = next();
    } else if (Arg == "--verbose") {
      Opts.Verbose = true;
    } else if (Arg == "--metrics") {
      DumpMetrics = true;
    } else if (Arg == "--help" || Arg == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "steno_fuzz: unknown option %s\n", Arg.c_str());
      usage();
      return 2;
    }
  }

  fuzz::DiffHarness Harness;

  if (!ReplayDir.empty()) {
    std::vector<std::pair<std::string, fuzz::QuerySpec>> Corpus;
    std::string Err;
    if (!fuzz::loadCorpus(ReplayDir, Corpus, &Err)) {
      std::fprintf(stderr, "steno_fuzz: %s\n", Err.c_str());
      return 2;
    }
    fuzz::DiffOptions DOpts;
    DOpts.Backends = fuzz::allBackends(true);
    if (Opts.HasOnly)
      DOpts.Backends = {Opts.Only};
    unsigned Failed = 0;
    for (const auto &[Path, Spec] : Corpus) {
      fuzz::DiffResult R = Harness.check(Spec, DOpts);
      if (R.BuildError || R.Mismatch) {
        ++Failed;
        std::fprintf(stderr, "steno_fuzz: FAIL %s\n%s\n", Path.c_str(),
                     R.Report.c_str());
      } else if (Opts.Verbose) {
        std::fprintf(stderr, "steno_fuzz: ok %s\n", Path.c_str());
      }
    }
    std::printf("steno_fuzz: replayed %zu corpus files, %u failed\n",
                Corpus.size(), Failed);
    return Failed ? 1 : 0;
  }

  fuzz::FuzzOutcome Out = fuzz::runFuzz(Harness, Opts);
  if (DumpMetrics)
    std::fputs(obs::dumpMetrics().c_str(), stderr);
  std::printf("steno_fuzz: seed=%llu queries=%u rejected=%u certified=%u "
              "mismatches=%u count_mismatches=%u shrink_steps=%u\n",
              static_cast<unsigned long long>(Opts.Seed), Out.Queries,
              Out.Rejected, Out.Certified, Out.Mismatches,
              Out.CountMismatches, Out.ShrinkSteps);
  if (!Out.clean()) {
    for (const auto &[Spec, Path] : Out.Failures)
      std::fprintf(stderr, "steno_fuzz: reproducer: %s  (%s)\n",
                   Path.c_str(), fuzz::specSummary(Spec).c_str());
    return 1;
  }
  return 0;
}
