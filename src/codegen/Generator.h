//===- codegen/Generator.h - QUIL -> loop-code automaton -------*- C++ -*-===//
//
// Part of the Steno/C++ reproduction of Murray, Isard & Yu,
// "Steno: Automatic Optimization of Declarative Queries" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The code-generator automaton (paper §4.2 and §5): a deterministic
/// pushdown automaton whose input is a QUIL chain and whose output is
/// loop-based imperative code (a cpptree::Program). The finite control is
/// the Figure 4 state machine; the stack holds (α, μ, ω) insertion-point
/// triples (Figure 9), one per open loop. Iterator fusion falls out of
/// splicing each operator's element-wise code into the current loop body
/// at μ; nested-loop generation falls out of the stack discipline,
/// including the Figure 11 "pop two, push (α_outer, μ_nested, ω_outer)"
/// transition that lets downstream operators of the outer query consume
/// nested elements in place.
///
//===----------------------------------------------------------------------===//

#ifndef STENO_CODEGEN_GENERATOR_H
#define STENO_CODEGEN_GENERATOR_H

#include "cpptree/Tree.h"
#include "quil/Quil.h"

#include <string>

namespace steno {
namespace codegen {

/// Code-generation knobs.
struct GenOptions {
  /// Hoist repeated pure subexpressions into locals (§9's CSE; sound for
  /// this side-effect-free expression language, lazy contexts respected).
  bool EnableCse = true;
  /// Count each operator's rows in and out (ProfileCount statements +
  /// Program::ProfOps descriptors). A profiled program is the unprofiled
  /// one plus its counters. Off by default: unprofiled plans carry zero
  /// instrumentation.
  bool Profile = false;
};

/// Generates the fused loop program for \p Chain. \p EntryName becomes the
/// extern "C" symbol of the printed translation unit. The chain must be
/// grammar-valid (quil::validate); invariant violations abort.
cpptree::Program generate(const quil::Chain &Chain,
                          const std::string &EntryName = "steno_query",
                          const GenOptions &Options = GenOptions());

} // namespace codegen
} // namespace steno

#endif // STENO_CODEGEN_GENERATOR_H
