//===- stenobench/Trace.h - Harness-side span recorder ----------*- C++ -*-===//
///
/// \file
/// Spans the harness records around each call it makes into a layer's
/// public function ("<layer>.<call>", e.g. `jit.run`, `dryad.compile`).
/// Nothing inside src/ is instrumented; the spans measure what a caller
/// of each layer sees.
///
/// A span carries its start and end, the span open on the same thread
/// when it began (its parent), and a harness-assigned request id that
/// children inherit. Spans are buffered per thread in memory and only
/// read after every recording thread has been joined; the Chrome
/// trace-event file is written once, when the workload ends. With the
/// tracer disabled a Span costs one relaxed load.
///
//===----------------------------------------------------------------------===//

#ifndef STENO_BENCH_TRACE_H
#define STENO_BENCH_TRACE_H

#include "Stats.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace steno {
namespace bench {

struct SpanRecord {
  const char *Name = "";      ///< "<layer>.<call>"; a string literal.
  std::int64_t Begin = 0;     ///< ns since the trace epoch.
  std::int64_t End = 0;
  std::uint64_t Id = 0;       ///< Unique across threads; never 0.
  std::uint64_t Parent = 0;   ///< 0 for a root span.
  std::uint64_t Rid = 0;      ///< Harness request id (0 = none).
  unsigned Tid = 0;           ///< Harness thread slot.
};

class Tracer {
public:
  static std::int64_t nowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch())
        .count();
  }
  static bool enabled() { return Enabled.load(std::memory_order_relaxed); }
  static void enable(bool On) { Enabled.store(On, std::memory_order_relaxed); }

  /// Every span recorded so far. Call only while no thread records.
  static std::vector<SpanRecord> collect() {
    std::lock_guard<std::mutex> Lock(RegistryMutex);
    std::vector<SpanRecord> All;
    for (const std::unique_ptr<Buffer> &B : Buffers)
      All.insert(All.end(), B->Recs.begin(), B->Recs.end());
    return All;
  }

private:
  friend class Span;

  struct Buffer {
    unsigned Tid = 0;
    std::vector<SpanRecord> Recs;
    std::vector<std::size_t> Open; ///< Indices into Recs of open spans.
  };

  static std::chrono::steady_clock::time_point epoch() {
    static const std::chrono::steady_clock::time_point E =
        std::chrono::steady_clock::now();
    return E;
  }

  /// This thread's buffer, registered on first use. Buffers are owned by
  /// the registry so they outlive the threads that filled them.
  static Buffer &local() {
    thread_local Buffer *Mine = nullptr;
    if (!Mine) {
      std::lock_guard<std::mutex> Lock(RegistryMutex);
      Buffers.push_back(std::make_unique<Buffer>());
      Mine = Buffers.back().get();
      Mine->Tid = static_cast<unsigned>(Buffers.size());
    }
    return *Mine;
  }

  static inline std::atomic<bool> Enabled{false};
  static inline std::mutex RegistryMutex;
  static inline std::vector<std::unique_ptr<Buffer>> Buffers;
  static inline std::atomic<std::uint64_t> NextId{1};
};

/// RAII span: open on construction, closed on destruction. A span with
/// \p Rid 0 inherits its parent's request id.
class Span {
public:
  explicit Span(const char *Name, std::uint64_t Rid = 0) {
    if (!Tracer::enabled())
      return;
    Buf = &Tracer::local();
    SpanRecord R;
    R.Name = Name;
    R.Id = Tracer::NextId.fetch_add(1, std::memory_order_relaxed);
    R.Tid = Buf->Tid;
    R.Rid = Rid;
    if (!Buf->Open.empty()) {
      const SpanRecord &P = Buf->Recs[Buf->Open.back()];
      R.Parent = P.Id;
      if (!R.Rid)
        R.Rid = P.Rid;
    }
    Index = Buf->Recs.size();
    Buf->Open.push_back(Index);
    R.Begin = Tracer::nowNs();
    Buf->Recs.push_back(R);
  }
  ~Span() {
    if (!Buf)
      return;
    Buf->Recs[Index].End = Tracer::nowNs();
    Buf->Open.pop_back();
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  Tracer::Buffer *Buf = nullptr;
  std::size_t Index = 0;
};

/// The layer a span belongs to: its name up to the first '.'.
inline std::string spanLayer(const char *Name) {
  std::string S(Name);
  return S.substr(0, S.find('.'));
}

/// Total self time (ns) per layer over \p Spans.
inline std::map<std::string, double>
layerSelfNanos(const std::vector<SpanRecord> &Spans) {
  std::unordered_map<std::uint64_t, std::vector<Interval>> Children;
  for (const SpanRecord &S : Spans)
    if (S.Parent)
      Children[S.Parent].push_back({S.Begin, S.End});
  std::map<std::string, double> Out;
  static const std::vector<Interval> None;
  for (const SpanRecord &S : Spans) {
    auto It = Children.find(S.Id);
    Out[spanLayer(S.Name)] += static_cast<double>(
        selfTime({S.Begin, S.End}, It == Children.end() ? None : It->second));
  }
  return Out;
}

/// Writes \p Spans as Chrome trace-event JSON (complete "X" events,
/// microsecond timestamps), readable by Perfetto and chrome://tracing.
inline bool writeChromeTrace(const std::string &Path,
                             const std::vector<SpanRecord> &Spans) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", F);
  bool First = true;
  for (const SpanRecord &S : Spans) {
    std::fprintf(F,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                 "\"args\":{\"id\":%llu,\"parent\":%llu,\"rid\":%llu}}",
                 First ? "" : ",", S.Name, spanLayer(S.Name).c_str(),
                 static_cast<double>(S.Begin) / 1e3,
                 static_cast<double>(S.End - S.Begin) / 1e3, S.Tid,
                 static_cast<unsigned long long>(S.Id),
                 static_cast<unsigned long long>(S.Parent),
                 static_cast<unsigned long long>(S.Rid));
    First = false;
  }
  std::fputs("\n]}\n", F);
  return std::fclose(F) == 0;
}

} // namespace bench
} // namespace steno

#endif // STENO_BENCH_TRACE_H
