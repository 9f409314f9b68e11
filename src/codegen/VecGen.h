//===- codegen/VecGen.h - Vectorized batch-loop code printer ---*- C++ -*-===//
//
// Part of the Steno/C++ reproduction of Murray, Isard & Yu,
// "Steno: Automatic Optimization of Declarative Queries" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders a vec::VecPlan as a self-contained C++ translation unit with
/// the same extern "C" ABI as cpptree::printProgram. No query runs it:
/// the fused automaton loop beat it (DESIGN.md §5i), so the native
/// backend always compiles cpptree::printProgram's TU. Its only caller is
/// the benchmark's compile-phase replay.
///
/// Where the scalar printer fuses all operators into one
/// element-at-a-time loop, this printer emits one tight loop per operator
/// per batch: Trans writes a cache-resident column through a `__restrict`
/// pointer, Where compacts lane indices into a selection vector with a
/// branchless increment, Take/Skip trim the dense window, and the
/// aggregate folds the surviving lanes into a register accumulator. The
/// generator knows statically when the selection is still dense (only
/// Where breaks density), so each stage is specialized for dense-window
/// or selection-vector input — no per-lane mode test survives into the
/// generated code.
///
/// Trap fidelity matches the scalar TU: lambda bodies are printed per
/// lane with native short-circuit (&&, ||, ?:), and lanes are visited in
/// source order within each stage. Per-operator profile slots move by
/// lane counts once per batch. The batch loop always consumes the whole
/// source (it ignores VStep::Exit), so where the scalar TU `break`s past
/// an exhausted Take/TakeWhile it returns the same rows but counts past
/// the breaking element.
///
//===----------------------------------------------------------------------===//

#ifndef STENO_CODEGEN_VECGEN_H
#define STENO_CODEGEN_VECGEN_H

#include "cpptree/Printer.h"
#include "vec/BatchExec.h"

#include <string>

namespace steno {
namespace codegen {

/// Renders \p Plan (which must have Ok == true) as a complete C++ source
/// file exposing `extern "C" void <EntryName>(const steno::rt::Captures*,
/// steno::rt::Columns*)`, which appends its rows to the host's result
/// columns with steno::rt::appendRow. \p Slots must be the slot usage of
/// the scalar program for the same chain (the vec TU touches the same
/// slots). When \p Profile is set the TU carries per-batch profile
/// accounting against Plan.NumProfOps operator slots, flushed through
/// Captures at exit.
std::string printVectorizedProgram(const vec::VecPlan &Plan,
                                   const cpptree::SlotUsage &Slots,
                                   const std::string &EntryName,
                                   bool Profile);

} // namespace codegen
} // namespace steno

#endif // STENO_CODEGEN_VECGEN_H
