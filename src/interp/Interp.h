//===- interp/Interp.h - Execute generated loop code directly --*- C++ -*-===//
//
// Part of the Steno/C++ reproduction of Murray, Isard & Yu,
// "Steno: Automatic Optimization of Declarative Queries" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A tree-walking executor for cpptree::Program — the generated fused loop
/// code — against bound sources and captures. The paper compiles the
/// generated AST with the production compiler; this module instead runs
/// the same AST directly. It exists for two reasons: it is the portable
/// backend (no compiler or dlopen needed), and it lets the test suite
/// validate the code generator's output semantics without paying the JIT's
/// one-off compilation cost.
///
//===----------------------------------------------------------------------===//

#ifndef STENO_INTERP_INTERP_H
#define STENO_INTERP_INTERP_H

#include "cpptree/Tree.h"
#include "expr/Value.h"
#include "obs/Profile.h"
#include "steno/Result.h"

#include <vector>

namespace steno {
namespace interp {

/// Bound inputs for one program execution.
struct RunInput {
  const std::vector<expr::SourceBuffer> *Sources = nullptr;
  const std::vector<expr::Value> *Values = nullptr;
  /// When non-null, ProfileCount statements accumulate into this per-run
  /// sink (sized for the program's ProfOps); null runs them as cheap
  /// no-ops.
  obs::ProfileSink *Profile = nullptr;
};

/// Executes \p P against \p In, adding its rows to \p Out (a builder for
/// P.ResultType), which copies their vec payloads out of the program's
/// sinks.
void execute(const cpptree::Program &P, const RunInput &In,
             ResultBuilder &Out);

} // namespace interp
} // namespace steno

#endif // STENO_INTERP_INTERP_H
