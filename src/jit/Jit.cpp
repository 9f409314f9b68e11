//===- jit/Jit.cpp --------------------------------------------*- C++ -*-===//

#include "jit/Jit.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/Env.h"
#include "support/Error.h"
#include "support/StringUtil.h"
#include "support/TempFile.h"
#include "support/Timing.h"

#include <atomic>
#include <cassert>
#include <cstdlib>
#include <dlfcn.h>
#include <unistd.h>

using namespace steno;
using namespace steno::jit;
using expr::Value;
using expr::VecView;

#ifndef STENO_HOST_CXX
#define STENO_HOST_CXX "c++"
#endif
#ifndef STENO_SOURCE_INCLUDE
#define STENO_SOURCE_INCLUDE "."
#endif

CompiledModule::~CompiledModule() {
  if (Handle)
    ::dlclose(Handle);
  if (SourcePath.empty()) // from load(): the files are not ours
    return;
  ::unlink(SourcePath.c_str());
  ::unlink(SoPath.c_str());
  ::unlink(LogPath.c_str());
}

std::unique_ptr<CompiledModule>
CompiledModule::compile(const std::string &Source,
                        const std::string &EntrySymbol,
                        std::string *ErrMsg) {
  static std::atomic<unsigned> ModuleCounter{0};
  unsigned Id = ModuleCounter++;

  static obs::Counter &Compiles = obs::counter("jit.compile.count");
  static obs::Counter &Failures = obs::counter("jit.compile.failures");
  static obs::Histogram &CompileMs = obs::histogram(
      "jit.compile.millis", {1, 5, 10, 25, 50, 100, 250, 500, 1e3, 5e3});
  obs::Span CompileSpan("jit.compile");

  const std::string &Dir = support::processTempDir();
  std::string SrcPath = support::strFormat("%s/%s_%u.cpp", Dir.c_str(),
                                           EntrySymbol.c_str(), Id);
  std::string SoPath = support::strFormat("%s/%s_%u.so", Dir.c_str(),
                                          EntrySymbol.c_str(), Id);
  std::string LogPath = support::strFormat("%s/%s_%u.log", Dir.c_str(),
                                           EntrySymbol.c_str(), Id);

  support::WallTimer Timer;
  support::writeFile(SrcPath, Source);

  // The compiler that built this library also builds the generated query.
  const char *Cxx = ::getenv("STENO_CXX");
  if (!Cxx)
    Cxx = STENO_HOST_CXX;
  // -O3 matches the optimization level of statically compiled code, so
  // "Steno vs hand-optimized" comparisons measure code shape, not
  // compiler flags.
  //
  // STENO_JIT_LINT=1 is the debug "lint generated code" mode: the
  // generated translation unit must itself survive -Wall -Wextra -Werror,
  // catching codegen regressions (unused locals, sign-compare, shadowing)
  // that -O3 alone would silently accept.
  bool Lint = support::parseFlag(std::getenv("STENO_JIT_LINT"), false);
  std::string Cmd = support::strFormat(
      "'%s' -std=c++20 -O3%s -fPIC -shared -I '%s' -o '%s' '%s' > '%s' 2>&1",
      Cxx, Lint ? " -Wall -Wextra -Werror" : "", STENO_SOURCE_INCLUDE,
      SoPath.c_str(), SrcPath.c_str(), LogPath.c_str());
  int Rc;
  {
    // The compiler invocation dominates the one-off cost; the dlopen
    // below is microseconds. The split shows up as two child spans.
    obs::Span S("jit.cc");
    Rc = std::system(Cmd.c_str());
  }
  if (Rc != 0) {
    Failures.inc();
    if (ErrMsg)
      *ErrMsg = "compiler failed (exit " + std::to_string(Rc) + "):\n" +
                support::readFileOrEmpty(LogPath) + "\nsource: " + SrcPath;
    return nullptr;
  }

  // From here the module owns its files, so a failed load deletes them;
  // a failed compile above keeps the source its message names.
  auto Module = std::unique_ptr<CompiledModule>(new CompiledModule());
  Module->SourcePath = std::move(SrcPath);
  Module->SoPath = std::move(SoPath);
  Module->LogPath = std::move(LogPath);

  obs::Span LoadSpan("jit.dlopen");
  Module->Handle = ::dlopen(Module->SoPath.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!Module->Handle) {
    Failures.inc();
    if (ErrMsg)
      *ErrMsg = std::string("dlopen failed: ") + ::dlerror();
    return nullptr;
  }
  void *Sym = ::dlsym(Module->Handle, EntrySymbol.c_str());
  if (!Sym) {
    Failures.inc();
    if (ErrMsg)
      *ErrMsg = std::string("dlsym failed: ") + ::dlerror();
    return nullptr;
  }

  Module->Entry = reinterpret_cast<EntryFn>(Sym);
  Module->CompileMs = Timer.millis();
  Compiles.inc();
  CompileMs.observe(Module->CompileMs);
  return Module;
}

std::unique_ptr<CompiledModule>
CompiledModule::load(const std::string &SharedObjectPath,
                     const std::string &EntrySymbol, std::string *ErrMsg) {
  static obs::Counter &Loads = obs::counter("jit.load.count");
  obs::Span LoadSpan("jit.dlopen");
  support::WallTimer Timer;
  void *Handle = ::dlopen(SharedObjectPath.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!Handle) {
    if (ErrMsg)
      *ErrMsg = std::string("dlopen failed: ") + ::dlerror();
    return nullptr;
  }
  void *Sym = ::dlsym(Handle, EntrySymbol.c_str());
  if (!Sym) {
    if (ErrMsg)
      *ErrMsg = std::string("dlsym failed: ") + ::dlerror();
    ::dlclose(Handle);
    return nullptr;
  }
  auto Module = std::unique_ptr<CompiledModule>(new CompiledModule());
  Module->Handle = Handle;
  Module->Entry = reinterpret_cast<EntryFn>(Sym);
  Module->CompileMs = Timer.millis();
  Module->SoPath = SharedObjectPath;
  Loads.inc();
  return Module;
}

//===----------------------------------------------------------------===//
// Execution: binding
//===----------------------------------------------------------------===//

namespace {

rt::CaptureValue bindCapture(const Value &V) {
  rt::CaptureValue Out;
  switch (V.kind()) {
  case expr::TypeKind::Bool:
    Out.B = V.asBool();
    break;
  case expr::TypeKind::Int64:
    Out.I = V.asInt64();
    break;
  case expr::TypeKind::Double:
    Out.D = V.asDouble();
    break;
  case expr::TypeKind::Vec: {
    VecView View = V.asVec();
    Out.VData = View.Data;
    Out.VLen = View.Len;
    break;
  }
  case expr::TypeKind::Pair:
    support::fatalError("pair-typed captures are not supported");
  }
  return Out;
}

} // namespace

void jit::run(EntryFn Fn, const std::vector<expr::SourceBuffer> &Sources,
             const std::vector<Value> &Values, rt::Columns &Out,
             std::uint64_t *ProfCounts) {
  assert(Fn && "running a null entry point");
  std::vector<rt::SourceBinding> BoundSources;
  BoundSources.reserve(Sources.size());
  for (const expr::SourceBuffer &Buf : Sources) {
    rt::SourceBinding B;
    B.D = Buf.DoubleData;
    B.I = Buf.Int64Data;
    B.Count = Buf.Count;
    B.Dim = Buf.Dim;
    BoundSources.push_back(B);
  }
  std::vector<rt::CaptureValue> BoundValues;
  BoundValues.reserve(Values.size());
  for (const Value &V : Values)
    BoundValues.push_back(bindCapture(V));

  rt::Captures Caps;
  Caps.Sources = BoundSources.data();
  Caps.NumSources = static_cast<std::int64_t>(BoundSources.size());
  Caps.Values = BoundValues.data();
  Caps.NumValues = static_cast<std::int64_t>(BoundValues.size());
  Caps.ProfCounts = ProfCounts;

  Fn(&Caps, &Out);
}
