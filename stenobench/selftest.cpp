//===- stenobench/selftest.cpp - Checks of the harness arithmetic ---------===//
//
// Percentile, median and geometric mean on hand-computed inputs, and
// span self time with nested, overlapping and out-of-window children.
// Exit status 0 when every check holds.
//
//===----------------------------------------------------------------------===//

#include "Stats.h"
#include "Trace.h"

#include <cmath>
#include <cstdio>
#include <thread>

using namespace steno::bench;

namespace {

int Failures = 0;

void check(bool Ok, const char *What) {
  if (!Ok) {
    std::fprintf(stderr, "FAIL: %s\n", What);
    ++Failures;
  }
}

bool near(double A, double B) { return std::fabs(A - B) < 1e-9; }

void orderStatistics() {
  // Type-7 quantiles: h = q (n - 1), interpolate between floor and ceil.
  std::vector<double> V = {7, 1, 3, 5}; // sorted 1 3 5 7
  check(near(median(V), 4), "median of an even sample averages the middle");
  check(near(percentile(V, 0.25), 2.5), "p25 interpolates: 1 + 0.75 * 2");
  check(near(percentile(V, 0.99), 6.94), "p99 interpolates: 5 + 0.97 * 2");
  check(near(percentile(V, 0), 1) && near(percentile(V, 1), 7),
        "p0 and p100 are the extremes");
  check(near(median({42}), 42), "median of one value");
  check(near(median({}), 0), "median of nothing is 0");
  check(near(geomean({1, 4, 16}), 4), "geomean of 1, 4, 16");
  check(near(geomean({2, 0, 8}), 4), "geomean skips non-positive entries");
  std::vector<double> Thousand;
  for (int I = 1; I <= 1000; ++I)
    Thousand.push_back(I);
  // p99 of 1..1000 is 990.01; 10 samples (991..1000) lie beyond it.
  check(samplesBeyond(Thousand, 0.99) == 10, "10 samples beyond p99 of 1000");

}

void selfTimes() {
  // No children: all of it is self time.
  check(selfTime({0, 100}, {}) == 100, "childless span");
  // Two disjoint nested children.
  check(selfTime({0, 100}, {{10, 20}, {30, 50}}) == 70, "disjoint children");
  // Overlapping children (work fanned out to two threads) count once.
  check(selfTime({0, 100}, {{10, 60}, {40, 80}}) == 30,
        "overlapping children are a union");
  // A child nested in another child, and one duplicated.
  check(selfTime({0, 100}, {{10, 90}, {20, 30}, {10, 90}}) == 20,
        "contained and duplicate children");
  // Children reaching outside the span are clipped to it.
  check(selfTime({50, 150}, {{0, 60}, {140, 400}}) == 80,
        "children clipped to the span");
  check(selfTime({0, 100}, {{200, 300}}) == 100, "child outside the span");
}

void recordedSpans() {
  Tracer::enable(true);
  {
    Span Root("serve.execute", 7);
    { Span Child("jit.run"); }
    std::thread([] { Span Other("wire.pexec", 9); }).join();
  }
  Tracer::enable(false);
  { Span Off("serve.execute"); }
  std::vector<SpanRecord> S = Tracer::collect();
  check(S.size() == 3, "three spans recorded while enabled");
  const SpanRecord *Root = nullptr, *Child = nullptr, *Other = nullptr;
  for (const SpanRecord &R : S) {
    std::string N = R.Name;
    if (N == "serve.execute")
      Root = &R;
    else if (N == "jit.run")
      Child = &R;
    else if (N == "wire.pexec")
      Other = &R;
  }
  check(Root && Child && Other, "every span found");
  if (Root && Child && Other) {
    check(Child->Parent == Root->Id, "nested span links to its parent");
    check(Child->Rid == 7, "child inherits the request id");
    check(Other->Parent == 0 && Other->Rid == 9,
          "another thread starts its own root");
    std::map<std::string, double> L = layerSelfNanos(S);
    check(near(L["serve"] + L["jit"],
               static_cast<double>(Root->End - Root->Begin)),
          "layer self times partition the root span");
  }
}

} // namespace

int main() {
  orderStatistics();
  selfTimes();
  recordedSpans();
  if (Failures)
    std::fprintf(stderr, "%d check(s) failed\n", Failures);
  else
    std::printf("steno_bench self-test: all checks passed\n");
  return Failures ? 1 : 0;
}
