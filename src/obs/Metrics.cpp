//===- obs/Metrics.cpp ----------------------------------------*- C++ -*-===//

#include "obs/Metrics.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>

using namespace steno;
using namespace steno::obs;

Histogram::Histogram(std::vector<double> UpperBounds)
    : Bounds(std::move(UpperBounds)), Buckets(Bounds.size() + 1) {
  assert(std::is_sorted(Bounds.begin(), Bounds.end()) &&
         "histogram bounds must be ascending");
}

void Histogram::observe(double X) {
  std::size_t I =
      std::lower_bound(Bounds.begin(), Bounds.end(), X) - Bounds.begin();
  Buckets[I].fetch_add(1, std::memory_order_relaxed);
  N.fetch_add(1, std::memory_order_relaxed);
  double Cur = Sum.load(std::memory_order_relaxed);
  while (!Sum.compare_exchange_weak(Cur, Cur + X,
                                    std::memory_order_relaxed)) {
  }
}

void Histogram::merge(const Histogram &Other) {
  assert(Bounds == Other.Bounds &&
         "merging histograms with different bucket bounds");
  for (std::size_t I = 0; I != Buckets.size(); ++I) {
    std::uint64_t C = Other.Buckets[I].load(std::memory_order_relaxed);
    if (C)
      Buckets[I].fetch_add(C, std::memory_order_relaxed);
  }
  N.fetch_add(Other.N.load(std::memory_order_relaxed),
              std::memory_order_relaxed);
  double Add = Other.Sum.load(std::memory_order_relaxed);
  double Cur = Sum.load(std::memory_order_relaxed);
  while (!Sum.compare_exchange_weak(Cur, Cur + Add,
                                    std::memory_order_relaxed)) {
  }
}

double Histogram::percentile(double Q) const {
  std::uint64_t Total = count();
  if (Total == 0)
    return 0.0;
  if (Q < 0.0)
    Q = 0.0;
  if (Q > 1.0)
    Q = 1.0;
  double Rank = Q * static_cast<double>(Total);
  std::uint64_t Cum = 0;
  for (std::size_t I = 0; I != Bounds.size(); ++I) {
    std::uint64_t C = bucketCount(I);
    if (C && static_cast<double>(Cum + C) >= Rank) {
      double Lo = I == 0 ? 0.0 : Bounds[I - 1];
      double Frac = (Rank - static_cast<double>(Cum)) /
                    static_cast<double>(C);
      if (Frac < 0.0)
        Frac = 0.0;
      return Lo + (Bounds[I] - Lo) * Frac;
    }
    Cum += C;
  }
  // Rank fell in the +inf bucket: the best bounded estimate is the last
  // finite bound.
  return Bounds.empty() ? 0.0 : Bounds.back();
}

void Histogram::reset() {
  for (std::atomic<std::uint64_t> &B : Buckets)
    B.store(0, std::memory_order_relaxed);
  N.store(0, std::memory_order_relaxed);
  Sum.store(0.0, std::memory_order_relaxed);
}

namespace {

/// The process-wide registry. std::map keeps the exposition sorted;
/// unique_ptr keeps instrument addresses stable across rehashes.
struct Registry {
  std::mutex Mutex;
  std::map<std::string, std::unique_ptr<Counter>> Counters;
  std::map<std::string, std::unique_ptr<Gauge>> Gauges;
  std::map<std::string, std::unique_ptr<Histogram>> Histograms;

  static Registry &get() {
    static Registry *R = [] {
      registerMetricsExportAtExit(); // honor STENO_METRICS_OUT
      return new Registry();         // never destroyed: call sites
    }();                             // hold references across exit
    return *R;
  }
};

std::string fmtDouble(double V) {
  std::ostringstream Out;
  Out << V;
  return Out.str();
}

/// Prometheus metric names may only contain [a-zA-Z0-9_:]; we map every
/// other character (the registry uses '.') to '_'.
std::string promName(const std::string &Name) {
  std::string Out;
  Out.reserve(Name.size());
  for (char C : Name) {
    bool Ok = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
              (C >= '0' && C <= '9') || C == '_';
    Out += Ok ? C : '_';
  }
  if (Out.empty() || (Out[0] >= '0' && Out[0] <= '9'))
    Out.insert(Out.begin(), '_');
  return Out;
}

} // namespace

Counter &obs::counter(const std::string &Name) {
  Registry &R = Registry::get();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  std::unique_ptr<Counter> &Slot = R.Counters[Name];
  if (!Slot)
    Slot = std::make_unique<Counter>();
  return *Slot;
}

Gauge &obs::gauge(const std::string &Name) {
  Registry &R = Registry::get();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  std::unique_ptr<Gauge> &Slot = R.Gauges[Name];
  if (!Slot)
    Slot = std::make_unique<Gauge>();
  return *Slot;
}

Histogram &obs::histogram(const std::string &Name,
                          std::vector<double> Bounds) {
  Registry &R = Registry::get();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  std::unique_ptr<Histogram> &Slot = R.Histograms[Name];
  if (!Slot)
    Slot = std::make_unique<Histogram>(std::move(Bounds));
  return *Slot;
}

std::string obs::dumpMetrics() {
  Registry &R = Registry::get();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  std::string Out;
  for (const auto &[Name, C] : R.Counters)
    Out += "counter " + Name + " " + std::to_string(C->value()) + "\n";
  for (const auto &[Name, G] : R.Gauges)
    Out += "gauge " + Name + " " + std::to_string(G->value()) + " max " +
           std::to_string(G->maxValue()) + "\n";
  for (const auto &[Name, H] : R.Histograms) {
    Out += "histogram " + Name + " count " + std::to_string(H->count()) +
           " sum " + fmtDouble(H->sum()) + "\n";
    for (std::size_t I = 0; I != H->bounds().size(); ++I)
      Out += "  le " + fmtDouble(H->bounds()[I]) + ": " +
             std::to_string(H->bucketCount(I)) + "\n";
    Out += "  le +inf: " +
           std::to_string(H->bucketCount(H->bounds().size())) + "\n";
  }
  return Out;
}

std::string obs::dumpMetricsPrometheus() {
  Registry &R = Registry::get();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  std::string Out;
  for (const auto &[Name, C] : R.Counters) {
    std::string P = promName(Name);
    Out += "# TYPE " + P + " counter\n";
    Out += P + " " + std::to_string(C->value()) + "\n";
  }
  for (const auto &[Name, G] : R.Gauges) {
    std::string P = promName(Name);
    Out += "# TYPE " + P + " gauge\n";
    Out += P + " " + std::to_string(G->value()) + "\n";
    Out += "# TYPE " + P + "_max gauge\n";
    Out += P + "_max " + std::to_string(G->maxValue()) + "\n";
  }
  for (const auto &[Name, H] : R.Histograms) {
    std::string P = promName(Name);
    Out += "# TYPE " + P + " histogram\n";
    std::uint64_t Cum = 0;
    for (std::size_t I = 0; I != H->bounds().size(); ++I) {
      Cum += H->bucketCount(I);
      Out += P + "_bucket{le=\"" + fmtDouble(H->bounds()[I]) + "\"} " +
             std::to_string(Cum) + "\n";
    }
    Out += P + "_bucket{le=\"+Inf\"} " + std::to_string(H->count()) + "\n";
    Out += P + "_sum " + fmtDouble(H->sum()) + "\n";
    Out += P + "_count " + std::to_string(H->count()) + "\n";
  }
  return Out;
}

