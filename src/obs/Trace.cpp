//===- obs/Trace.cpp ------------------------------------------*- C++ -*-===//

#include "obs/Trace.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <vector>

using namespace steno;
using namespace steno::obs;

std::atomic<bool> obs::detail::TraceEnabled{false};

namespace {

struct Event {
  std::string Name;
  double TsUs = 0;
  double DurUs = 0;
  std::uint32_t Tid = 0;
  int Depth = 0;
  int NArgs = 0;
  const char *ArgKeys[Span::MaxArgs] = {};
  std::int64_t ArgVals[Span::MaxArgs] = {};
};

/// The recording state. Slots are allocated once, on first enable, and
/// never reallocated: a writer claims an index with one fetch_add and owns
/// that slot exclusively, so concurrent spans never contend. Events past
/// capacity are dropped and counted (a bounded buffer beats silently
/// corrupting the hot path with reallocation locks).
struct TraceState {
  std::mutex Mutex; ///< guards Slots allocation and file writing
  std::vector<Event> Slots;
  std::atomic<std::size_t> Next{0};
  std::atomic<std::uint64_t> Dropped{0};
  std::string ExitPath; ///< STENO_TRACE target, written at process exit
  std::chrono::steady_clock::time_point Epoch =
      std::chrono::steady_clock::now();
};

TraceState &state() {
  static TraceState *S = new TraceState(); // never destroyed: spans on
  return *S;                               // detached threads may outlive exit
}

/// Events the buffer holds; later events are dropped and counted.
constexpr std::size_t BufferCapacity = 1 << 16;

void ensureBuffer() {
  TraceState &S = state();
  std::lock_guard<std::mutex> Lock(S.Mutex);
  if (S.Slots.empty())
    S.Slots.resize(BufferCapacity);
}

double nowMicros() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - state().Epoch)
      .count();
}

std::uint32_t threadId() {
  static std::atomic<std::uint32_t> NextId{1};
  thread_local std::uint32_t Id =
      NextId.fetch_add(1, std::memory_order_relaxed);
  return Id;
}

thread_local int SpanDepth = 0;

void record(Event E) {
  TraceState &S = state();
  std::size_t I = S.Next.fetch_add(1, std::memory_order_relaxed);
  if (I < S.Slots.size())
    S.Slots[I] = std::move(E);
  else
    S.Dropped.fetch_add(1, std::memory_order_relaxed);
}

void appendJsonString(std::string &Out, const std::string &Str) {
  Out += '"';
  for (char C : Str) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof Buf, "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  Out += '"';
}

void flushAtExit() {
  TraceState &S = state();
  if (S.ExitPath.empty())
    return;
  std::string Err;
  if (!writeTrace(S.ExitPath, &Err))
    std::fprintf(stderr, "steno: cannot write STENO_TRACE file: %s\n",
                 Err.c_str());
}

/// Reads STENO_TRACE before main() so any span anywhere in the process is
/// captured, and the file lands even if the program never touches obs
/// explicitly.
struct EnvInit {
  EnvInit() {
    const char *Path = std::getenv("STENO_TRACE");
    if (!Path || !*Path)
      return;
    state().ExitPath = Path;
    ensureBuffer();
    detail::TraceEnabled.store(true, std::memory_order_relaxed);
    std::atexit(flushAtExit);
  }
};
EnvInit Init;

} // namespace

Span::Span(const char *SpanName) {
  if (!tracingEnabled())
    return;
  Active = true;
  Name = SpanName;
  ++SpanDepth;
  StartUs = nowMicros();
}

Span::Span(std::string SpanName) {
  if (!tracingEnabled())
    return;
  Active = true;
  Name = std::move(SpanName);
  ++SpanDepth;
  StartUs = nowMicros();
}

Span::~Span() {
  if (!Active)
    return;
  double EndUs = nowMicros();
  --SpanDepth;
  Event E;
  E.Name = std::move(Name);
  E.TsUs = StartUs;
  E.DurUs = EndUs - StartUs;
  E.Tid = threadId();
  E.Depth = SpanDepth;
  E.NArgs = NArgs;
  for (int I = 0; I != NArgs; ++I) {
    E.ArgKeys[I] = ArgKeys[I];
    E.ArgVals[I] = ArgVals[I];
  }
  record(std::move(E));
}

void Span::arg(const char *Key, std::int64_t Value) {
  if (!Active || NArgs == MaxArgs)
    return;
  ArgKeys[NArgs] = Key;
  ArgVals[NArgs] = Value;
  ++NArgs;
}

int Span::depth() { return SpanDepth; }

void obs::setTracingEnabled(bool Enabled) {
  if (Enabled)
    ensureBuffer();
  detail::TraceEnabled.store(Enabled, std::memory_order_relaxed);
}

void obs::resetTrace() {
  TraceState &S = state();
  S.Next.store(0, std::memory_order_relaxed);
  S.Dropped.store(0, std::memory_order_relaxed);
}

std::size_t obs::traceEventCount() {
  TraceState &S = state();
  std::size_t N = S.Next.load(std::memory_order_relaxed);
  return N < S.Slots.size() ? N : S.Slots.size();
}

std::uint64_t obs::traceDroppedCount() {
  return state().Dropped.load(std::memory_order_relaxed);
}

std::string obs::traceJson() {
  TraceState &S = state();
  std::size_t N = traceEventCount();
  std::string Out = "{\"traceEvents\":[";
  char Buf[64];
  for (std::size_t I = 0; I != N; ++I) {
    const Event &E = S.Slots[I];
    if (I)
      Out += ',';
    Out += "{\"name\":";
    appendJsonString(Out, E.Name);
    Out += ",\"cat\":\"steno\",\"ph\":\"X\",\"pid\":1,\"tid\":";
    Out += std::to_string(E.Tid);
    std::snprintf(Buf, sizeof Buf, ",\"ts\":%.3f,\"dur\":%.3f", E.TsUs,
                  E.DurUs);
    Out += Buf;
    Out += ",\"args\":{\"depth\":" + std::to_string(E.Depth);
    for (int A = 0; A != E.NArgs; ++A) {
      Out += ',';
      appendJsonString(Out, E.ArgKeys[A]);
      Out += ':' + std::to_string(E.ArgVals[A]);
    }
    Out += "}}";
  }
  Out += "],\"displayTimeUnit\":\"ms\"}";
  return Out;
}

bool obs::writeTrace(const std::string &Path, std::string *Err) {
  std::string Json = traceJson();
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    if (Err)
      *Err = "cannot open " + Path + " for writing";
    return false;
  }
  std::size_t Written = std::fwrite(Json.data(), 1, Json.size(), F);
  std::fclose(F);
  if (Written != Json.size()) {
    if (Err)
      *Err = "short write to " + Path;
    return false;
  }
  return true;
}
