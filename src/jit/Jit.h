//===- jit/Jit.h - Compile-load-invoke backend (paper §3.3) ----*- C++ -*-===//
//
// Part of the Steno/C++ reproduction of Murray, Isard & Yu,
// "Steno: Automatic Optimization of Declarative Queries" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The native backend: writes the generated C++ source to a temp file,
/// invokes the production compiler to build a shared object (the paper
/// invokes csc to build a DLL), loads it with dlopen (Assembly.Load in the
/// paper) and resolves the extern "C" entry point. The measured one-off
/// compilation cost is exposed so the §7.1 break-even experiment can report
/// it. Compiled modules are cached by the facade between invocations, as
/// the paper prescribes.
///
/// A run passes the entry the host's result columns (steno/Rt.h's result
/// ABI): the generated loop appends each row's cells to them inline, or
/// hands over its sink's buffer, and the caller keeps the blocks as its
/// QueryResult. No row costs a call into the host.
///
//===----------------------------------------------------------------------===//

#ifndef STENO_JIT_JIT_H
#define STENO_JIT_JIT_H

#include "expr/Value.h"
#include "steno/Rt.h"

#include <memory>
#include <string>
#include <vector>

namespace steno {
namespace jit {

/// Signature of every generated entry point: it reads the bound sources
/// and captures, and appends its rows to the host's columns.
using EntryFn = void (*)(const rt::Captures *, rt::Columns *);

/// A compiled and loaded query module. Closing the module unloads the
/// shared object, invalidating the entry pointer. A module built by
/// compile() owns its source, shared object and compiler log and deletes
/// them when it closes; a module from load() owns no file.
class CompiledModule {
public:
  ~CompiledModule();
  CompiledModule(const CompiledModule &) = delete;
  CompiledModule &operator=(const CompiledModule &) = delete;

  /// Compiles \p Source (a complete translation unit) and resolves
  /// \p EntrySymbol. Returns nullptr and fills \p ErrMsg on failure. When
  /// the compiler fails, the source and its log stay on disk: the message
  /// names the source.
  static std::unique_ptr<CompiledModule>
  compile(const std::string &Source, const std::string &EntrySymbol,
          std::string *ErrMsg = nullptr);

  /// Loads an already-compiled shared object without invoking the
  /// compiler (compileMillis() reports only the dlopen cost). Returns
  /// nullptr and fills \p ErrMsg on failure.
  static std::unique_ptr<CompiledModule>
  load(const std::string &SharedObjectPath, const std::string &EntrySymbol,
       std::string *ErrMsg = nullptr);

  EntryFn entry() const { return Entry; }
  /// Wall-clock cost of compiler + load, in milliseconds (paper §7.1's
  /// one-off cost: ~69 ms with csc; with g++ -O3 about 0.1 s for a
  /// scalar query and up to about 1 s for one that groups or sorts).
  double compileMillis() const { return CompileMs; }
  /// The generated source; empty for a module from load().
  const std::string &sourcePath() const { return SourcePath; }
  /// The shared object, which exists while the module lives.
  const std::string &objectPath() const { return SoPath; }

private:
  CompiledModule() = default;

  void *Handle = nullptr;
  EntryFn Entry = nullptr;
  double CompileMs = 0;
  std::string SourcePath;
  std::string SoPath;
  std::string LogPath;
};

/// Binds sources/captures into the rt ABI and invokes \p Fn, which
/// appends its rows to \p Out: columns laid out for the query's row type
/// (steno::ResultBuilder::columns()) whose blocks the caller owns.
/// ProfCounts, when non-null, receives the profile flush of a TU
/// generated with profiling hooks (2*NumOps row counters); leave null
/// otherwise.
void run(EntryFn Fn, const std::vector<expr::SourceBuffer> &Sources,
         const std::vector<expr::Value> &Values, rt::Columns &Out,
         std::uint64_t *ProfCounts = nullptr);

} // namespace jit
} // namespace steno

#endif // STENO_JIT_JIT_H
