//===- stenobench/Bench.h - steno_bench workload interface ------*- C++ -*-===//
///
/// \file
/// What the harness main (steno_bench.cpp) and the two workloads share:
/// the run configuration, the outcome each workload reports, the names
/// the metric table is built from, and small helpers.
///
/// A workload run has two timed parts. Set-up runs from the start of the
/// workload to the start of its measured phase (exec and exec_stream
/// repeat it from nothing three times and report the median as setup_s).
/// The measured phase runs for RunConfig::Seconds. Every result is
/// compared with the reference interpreter (steno/RefExec.h) outside the
/// timed regions.
///
//===----------------------------------------------------------------------===//

#ifndef STENO_BENCH_BENCH_H
#define STENO_BENCH_BENCH_H

#include "Stats.h"
#include "steno/Result.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace steno {
namespace bench {

struct RunConfig {
  std::string Workload;
  std::uint64_t Seed = 1;
  /// Length of the measured phase; each workload divides it among its
  /// own phases.
  double Seconds = 10;
  /// Scaled-down inputs for the self-test (~2 s per workload).
  bool Smoke = false;
  /// Record spans and report the per-layer metrics instead of the
  /// end-to-end ones.
  bool Traced = false;
};

/// What a workload reports. Metrics missing from a traced run's map are
/// reported as 0 (a layer the workload bypasses does no work).
struct Outcome {
  std::uint64_t Attempted = 0;
  /// Errors, timeouts, sheds and mismatches against the reference.
  std::uint64_t Failed = 0;
  /// The measured phase on the Tracer clock, and the operations run in it
  /// while the tracer recorded spans (traced runs leave it off part of the
  /// time to measure its overhead): the per-operation self times count
  /// the spans that began in the phase, so set-up is left out.
  std::int64_t PhaseBeginNs = 0, PhaseEndNs = 0;
  std::uint64_t TracedOps = 0;
  std::string SetupError; ///< Non-empty: the run is invalid.
  std::map<std::string, double> Metrics;
  std::vector<std::string> Notes; ///< Printed to stderr.
};

/// exec and exec_stream (RunConfig::Workload tells them apart).
Outcome runExec(const RunConfig &C);

/// The exec suite's query names, in suite order (metric name parts).
const std::vector<std::string> &execQueryNames();
/// The exec queries that also run through DistributedQuery::runParallel.
const std::vector<std::string> &execParallelNames();

/// Row-for-row comparison under the fuzz oracle rule (fuzzValueNear).
bool resultsMatch(const QueryResult &Got, const QueryResult &Want);

/// This process's resident-set high-water mark in MB (VmHWM): since the
/// last resetPeakRss(), where the kernel supports resetting it.
double peakRssMb();

/// Returns freed heap to the system and restarts the high-water mark
/// from the current resident set, so harness work done before (the
/// reference answers) does not count as the system's memory.
void resetPeakRss();

/// Keeps the compiler from discarding a computed value.
inline void keep(double V) { __asm__ __volatile__("" : : "g"(V) : "memory"); }

} // namespace bench
} // namespace steno

#endif // STENO_BENCH_BENCH_H
