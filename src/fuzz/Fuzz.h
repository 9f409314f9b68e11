//===- fuzz/Fuzz.h - Top-level differential fuzz loop ----------*- C++ -*-===//
//
// Part of the Steno/C++ reproduction of Murray, Isard & Yu,
// "Steno: Automatic Optimization of Declarative Queries" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// generate -> differentially check -> (on mismatch) shrink -> serialize.
/// Shared by the steno_fuzz CLI and tests/fuzz_test.cpp so CI, developers
/// and the unit tests all run the identical loop. Instrumented with obs
/// counters: fuzz.queries, fuzz.rejected, fuzz.mismatches,
/// fuzz.shrink_steps, fuzz.certified.
///
//===----------------------------------------------------------------------===//

#ifndef STENO_FUZZ_FUZZ_H
#define STENO_FUZZ_FUZZ_H

#include "fuzz/Diff.h"
#include "fuzz/Gen.h"
#include "fuzz/Shrink.h"

#include <string>
#include <utility>
#include <vector>

namespace steno {
namespace fuzz {

struct FuzzOptions {
  std::uint64_t Seed = 1;
  unsigned Iters = 1000;
  /// Run the JIT (Native) backend on every Nth query; 0 disables it. The
  /// JIT invokes an external C++ compiler per query (~0.5s), so running
  /// it on every iteration would turn a minutes fuzz run into hours —
  /// sampling keeps it in the matrix at a bounded cost, and
  /// --jit-every 1 buys full coverage when wanted.
  unsigned JitEvery = 50;
  /// Restrict the matrix to one backend (--backend); checks still compare
  /// that backend against the reference oracle.
  bool HasOnly = false;
  BackendId Only = BackendId::Interp;
  /// Directory shrunken reproducers are written into; empty disables
  /// writing.
  std::string CorpusDir;
  /// Fault-injection hook forwarded to the differential executor.
  std::function<bool(BackendId)> Inject;
  /// Per-iteration progress lines on stderr.
  bool Verbose = false;
  GenOptions Gen;
  ShrinkOptions Shrink;
};

struct FuzzOutcome {
  unsigned Queries = 0;    ///< Specs differentially checked.
  unsigned Rejected = 0;   ///< Generator candidates the pre-screen refused.
  unsigned Mismatches = 0; ///< Checks with at least one disagreeing backend.
  /// Of Mismatches, the checks where profile counts disagreed.
  unsigned CountMismatches = 0;
  unsigned Certified = 0;  ///< Checks where a parallel path fanned out.
  unsigned ShrinkSteps = 0;
  /// Shrunken failing specs, paired with the corpus path they were
  /// written to ("" when CorpusDir is empty).
  std::vector<std::pair<QuerySpec, std::string>> Failures;

  bool clean() const { return Mismatches == 0; }
};

/// Runs the fuzz loop. Deterministic for a fixed (Seed, Iters, backend
/// set): the generator stream, the data and the shrinker never consult
/// any other entropy source.
FuzzOutcome runFuzz(DiffHarness &Harness, const FuzzOptions &Opts);

/// Loads every *.fuzzspec under \p Dir (sorted by name, so replay order
/// is stable). Returns false and fills \p Err on a missing directory or
/// an unparsable file — a corrupt corpus should fail the replay test,
/// not be skipped.
bool loadCorpus(const std::string &Dir,
                std::vector<std::pair<std::string, QuerySpec>> &Out,
                std::string *Err);

} // namespace fuzz
} // namespace steno

#endif // STENO_FUZZ_FUZZ_H
