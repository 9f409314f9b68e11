//===- obs/Metrics.h - Process-wide metrics registry -----------*- C++ -*-===//
//
// Part of the Steno/C++ reproduction of Murray, Isard & Yu,
// "Steno: Automatic Optimization of Declarative Queries" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-safe metrics registry for the whole library: monotonic
/// counters, gauges (with a high-water mark) and fixed-bucket latency
/// histograms. The paper's argument is quantitative — §7.1 break-even
/// between one-off compilation cost and per-run speedup — so every layer
/// (compile pipeline, JIT, caches, scheduler) reports through this
/// registry and perf PRs can prove their win with `obs::dumpMetrics()`.
///
/// Hot-path discipline: instrument registration (name lookup) happens once
/// behind a mutex; after that, increments are single relaxed atomic RMW
/// operations. The idiom at a call site is
///
/// \code
///   static obs::Counter &Runs = obs::counter("steno.run.count");
///   Runs.inc();
/// \endcode
///
/// Exposition: `dumpMetrics()` renders a sorted human-readable text block;
/// `dumpMetricsPrometheus()` the same data in Prometheus text format.
///
//===----------------------------------------------------------------------===//

#ifndef STENO_OBS_METRICS_H
#define STENO_OBS_METRICS_H

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace steno {
namespace obs {

/// Monotonically increasing event count. All operations are lock-free.
class Counter {
public:
  void inc(std::uint64_t N = 1) { V.fetch_add(N, std::memory_order_relaxed); }
  std::uint64_t value() const { return V.load(std::memory_order_relaxed); }
  void reset() { V.store(0, std::memory_order_relaxed); }

private:
  std::atomic<std::uint64_t> V{0};
};

/// Instantaneous level (queue depth, live workers). Tracks the maximum
/// level ever set so bursts survive a later drain.
class Gauge {
public:
  void set(std::int64_t X) {
    V.store(X, std::memory_order_relaxed);
    bumpMax(X);
  }
  void add(std::int64_t N = 1) {
    std::int64_t X = V.fetch_add(N, std::memory_order_relaxed) + N;
    bumpMax(X);
  }
  void sub(std::int64_t N = 1) { V.fetch_sub(N, std::memory_order_relaxed); }
  std::int64_t value() const { return V.load(std::memory_order_relaxed); }
  std::int64_t maxValue() const { return Max.load(std::memory_order_relaxed); }
  void reset() {
    V.store(0, std::memory_order_relaxed);
    Max.store(0, std::memory_order_relaxed);
  }

private:
  void bumpMax(std::int64_t X) {
    std::int64_t Cur = Max.load(std::memory_order_relaxed);
    while (X > Cur &&
           !Max.compare_exchange_weak(Cur, X, std::memory_order_relaxed)) {
    }
  }

  std::atomic<std::int64_t> V{0};
  std::atomic<std::int64_t> Max{0};
};

/// Fixed-bucket distribution. Buckets are half-open intervals
/// (prev_bound, bound]: an observation X lands in the FIRST bucket whose
/// upper bound satisfies X <= bound (Prometheus "le" semantics), so a
/// value exactly equal to a bound deterministically lands in that
/// bound's own bucket — observe(10) with bounds {10, 20} counts in the
/// le=10 bucket, observe(10 + epsilon) in le=20. Anything above the last
/// bound lands in the implicit +inf bucket. observe() is lock-free: one
/// atomic increment plus a CAS loop on the running sum.
class Histogram {
public:
  /// \p UpperBounds must be sorted ascending; the +inf bucket is implicit.
  explicit Histogram(std::vector<double> UpperBounds);

  void observe(double X);

  std::uint64_t count() const { return N.load(std::memory_order_relaxed); }
  double sum() const { return Sum.load(std::memory_order_relaxed); }
  /// Number of explicit buckets (== bounds().size()); bucketCount(size())
  /// is the +inf bucket.
  const std::vector<double> &bounds() const { return Bounds; }
  std::uint64_t bucketCount(std::size_t I) const {
    return Buckets[I].load(std::memory_order_relaxed);
  }
  /// Folds another histogram with IDENTICAL bounds into this one
  /// (per-worker histograms merged after a parallel phase). Asserts on a
  /// bounds mismatch.
  void merge(const Histogram &Other);
  /// Estimated quantile (\p Q in [0, 1]) by linear interpolation inside
  /// the bucket where the cumulative count crosses Q * count(). Returns
  /// 0 for an empty histogram; observations in the +inf bucket clamp the
  /// estimate to the last finite bound.
  double percentile(double Q) const;
  void reset();

private:
  std::vector<double> Bounds;
  std::vector<std::atomic<std::uint64_t>> Buckets; ///< Bounds.size() + 1
  std::atomic<std::uint64_t> N{0};
  std::atomic<double> Sum{0.0};
};

/// Looks up (creating on first use) the named instrument in the global
/// registry. Returned references live for the whole process, so call
/// sites cache them in a function-local static. Re-registering a
/// histogram name ignores the new bounds and returns the existing one.
Counter &counter(const std::string &Name);
Gauge &gauge(const std::string &Name);
Histogram &histogram(const std::string &Name, std::vector<double> Bounds);

/// Sorted human-readable exposition of every registered instrument.
/// Iteration order is deterministic (the registry is a name-sorted map),
/// so repeated dumps diff cleanly.
std::string dumpMetrics();
/// Prometheus text-format exposition of every registered instrument,
/// name-sorted within each instrument class. Names are sanitized to
/// [A-Za-z0-9_] ("steno.run.count" -> "steno_run_count"); gauges also
/// emit a "<name>_max" high-water series; histogram buckets are
/// cumulative le-counts per the exposition format.
std::string dumpMetricsPrometheus();

/// Installs a std::atexit hook that writes exportPrometheus() to the
/// path in $STENO_METRICS_OUT (no-op when unset). Idempotent; invoked
/// automatically on first registry use. Defined in Profile.cpp.
bool registerMetricsExportAtExit();

} // namespace obs
} // namespace steno

#endif // STENO_OBS_METRICS_H
