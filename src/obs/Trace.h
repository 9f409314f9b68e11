//===- obs/Trace.h - Scoped spans + Chrome trace export --------*- C++ -*-===//
//
// Part of the Steno/C++ reproduction of Murray, Isard & Yu,
// "Steno: Automatic Optimization of Declarative Queries" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Scoped timing spans with thread-local nesting, recorded into a bounded
/// lock-free buffer and exported as Chrome trace-event JSON — loadable in
/// chrome://tracing or https://ui.perfetto.dev. The compile pipeline, the
/// JIT, query execution and the dryad scheduler are all instrumented, so
///
/// \code
///   STENO_TRACE=trace.json ./examples/quickstart
/// \endcode
///
/// produces a flame view of lower/validate/specialize/codegen, the
/// compiler invocation vs. dlopen split, and every run().
///
/// Tracing is off by default and compiled down to one relaxed atomic load
/// and a branch per span when disabled. Enable it with the STENO_TRACE
/// environment variable (value = output path, written at process exit) or
/// programmatically with setTracingEnabled(true) + writeTrace()/traceJson().
/// The event buffer holds 65536 events; events past capacity are dropped
/// and counted, never reallocated mid-run.
///
//===----------------------------------------------------------------------===//

#ifndef STENO_OBS_TRACE_H
#define STENO_OBS_TRACE_H

#include <atomic>
#include <cstdint>
#include <string>

namespace steno {
namespace obs {

namespace detail {
extern std::atomic<bool> TraceEnabled;
} // namespace detail

/// True when spans are currently being recorded. One relaxed load.
inline bool tracingEnabled() {
  return detail::TraceEnabled.load(std::memory_order_relaxed);
}

/// RAII span: times the enclosing scope and records one complete ("ph":"X")
/// trace event on destruction. Spans nest per thread; the nesting depth is
/// recorded with the event (Chrome reconstructs the flame from ts/dur, the
/// depth is for tests and text dumps). When tracing is disabled the
/// constructor is a relaxed load + branch and nothing is recorded.
class Span {
public:
  static constexpr int MaxArgs = 4;

  /// \p Name should be a stable descriptive label ("steno.compile").
  explicit Span(const char *Name);
  explicit Span(std::string Name);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  /// Attaches a key/value pair rendered into the event's "args" object
  /// (e.g. rows consumed). \p Key must outlive the program (use a string
  /// literal). At most MaxArgs pairs; extras are ignored.
  void arg(const char *Key, std::int64_t Value);

  /// Current nesting depth of the calling thread (0 = no open span).
  static int depth();

private:
  bool Active = false;
  int NArgs = 0;
  std::string Name;
  double StartUs = 0;
  const char *ArgKeys[MaxArgs] = {};
  std::int64_t ArgVals[MaxArgs] = {};
};

/// Turns span recording on or off. Enabling allocates the event buffer on
/// first use; disabling keeps already-recorded events for export.
void setTracingEnabled(bool Enabled);

/// Drops every recorded event (and the dropped-event count).
void resetTrace();

/// Number of events currently held in the buffer.
std::size_t traceEventCount();
/// Events discarded because the buffer was full.
std::uint64_t traceDroppedCount();

/// Renders every recorded event as a Chrome trace-event JSON document:
/// {"traceEvents":[...],"displayTimeUnit":"ms"}. Call after concurrent
/// work has quiesced (in-flight spans may be mid-record).
std::string traceJson();

/// Writes traceJson() to \p Path. Returns false and fills \p Err on I/O
/// failure.
bool writeTrace(const std::string &Path, std::string *Err = nullptr);

} // namespace obs
} // namespace steno

#endif // STENO_OBS_TRACE_H
