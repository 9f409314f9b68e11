//===- stenobench/Stats.h - Order statistics and span self time -*- C++ -*-===//
///
/// \file
/// The arithmetic every steno_bench number goes through, kept header-only
/// so the self-test checks exactly the code the harness runs:
///
///  * percentile() interpolates linearly between closest ranks (the
///    "type 7" estimator numpy and R default to), so a median of an even
///    sample is the mean of the two middle values;
///  * geomean() averages ratios across a suite, where one slow query
///    must not dominate;
///  * selfTime() is a span's duration minus the union of its children's
///    intervals clipped to the span, so overlapping children (work a
///    span fanned out to several threads) are not subtracted twice.
///
//===----------------------------------------------------------------------===//

#ifndef STENO_BENCH_STATS_H
#define STENO_BENCH_STATS_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

namespace steno {
namespace bench {

/// The \p Q quantile (0 <= Q <= 1) of \p Sorted, which must be sorted
/// ascending. 0 for an empty sample.
inline double percentileSorted(const std::vector<double> &Sorted, double Q) {
  if (Sorted.empty())
    return 0;
  double H = Q * static_cast<double>(Sorted.size() - 1);
  std::size_t Lo = static_cast<std::size_t>(std::floor(H));
  if (Lo + 1 >= Sorted.size())
    return Sorted.back();
  return Sorted[Lo] + (H - static_cast<double>(Lo)) *
                          (Sorted[Lo + 1] - Sorted[Lo]);
}

inline double percentile(std::vector<double> V, double Q) {
  std::sort(V.begin(), V.end());
  return percentileSorted(V, Q);
}

inline double median(std::vector<double> V) {
  return percentile(std::move(V), 0.5);
}

/// Geometric mean of the positive entries of \p V (0 when there are none).
inline double geomean(const std::vector<double> &V) {
  double LogSum = 0;
  std::size_t N = 0;
  for (double X : V)
    if (X > 0) {
      LogSum += std::log(X);
      ++N;
    }
  return N ? std::exp(LogSum / static_cast<double>(N)) : 0;
}

/// Number of samples strictly above the \p Q quantile of \p Sorted: the
/// support a reported tail percentile rests on.
inline std::size_t samplesBeyond(const std::vector<double> &Sorted, double Q) {
  double P = percentileSorted(Sorted, Q);
  return static_cast<std::size_t>(
      Sorted.end() - std::upper_bound(Sorted.begin(), Sorted.end(), P));
}

/// A half-open time interval [Begin, End) in nanoseconds.
using Interval = std::pair<std::int64_t, std::int64_t>;

/// Total length of the union of \p Parts after clipping each to
/// \p Window.
inline std::int64_t coveredLength(std::vector<Interval> Parts,
                                  const Interval &Window) {
  for (Interval &I : Parts) {
    I.first = std::max(I.first, Window.first);
    I.second = std::min(I.second, Window.second);
  }
  std::sort(Parts.begin(), Parts.end());
  std::int64_t Covered = 0, CurBegin = 0, CurEnd = 0;
  bool Open = false;
  for (const Interval &I : Parts) {
    if (I.second <= I.first)
      continue;
    if (Open && I.first <= CurEnd) {
      CurEnd = std::max(CurEnd, I.second);
      continue;
    }
    if (Open)
      Covered += CurEnd - CurBegin;
    CurBegin = I.first;
    CurEnd = I.second;
    Open = true;
  }
  if (Open)
    Covered += CurEnd - CurBegin;
  return Covered;
}

/// A span's self time: its duration minus the part of it its children
/// cover.
inline std::int64_t selfTime(const Interval &Span,
                             const std::vector<Interval> &Children) {
  return (Span.second - Span.first) - coveredLength(Children, Span);
}

} // namespace bench
} // namespace steno

#endif // STENO_BENCH_STATS_H
