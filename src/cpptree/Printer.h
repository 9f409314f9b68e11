//===- cpptree/Printer.h - Render generated AST to C++ source --*- C++ -*-===//
///
/// \file
/// Renders a cpptree::Program into a self-contained C++ translation unit
/// exposing one extern "C" entry point
///
///   extern "C" void <name>(const steno::rt::Captures *Caps_,
///                          steno::rt::Columns *Out_);
///
/// which the JIT backend compiles into a shared object (paper §3.3). The
/// body appends each result row to the host's typed columns inline
/// (steno::rt::appendRow), or, when its Ret iterates a Vec sink of int64s
/// or doubles, hands the sink's buffer over as the one column
/// (steno::rt::adoptColumn). All runtime support lives in steno/Rt.h
/// (VecView, Pair, the operators, the column appends, orderKey), which
/// every generated source includes, and steno/RtSinks.h (the buffer, its
/// hand-over, the group sinks and the sort), which a source includes only
/// when it declares a sink. The only standard header a source adds is
/// <cmath>, when its body calls a math function: parsing it costs g++
/// more than compiling the query's loop.
///
//===----------------------------------------------------------------------===//

#ifndef STENO_CPPTREE_PRINTER_H
#define STENO_CPPTREE_PRINTER_H

#include "cpptree/Tree.h"

#include <set>
#include <string>

namespace steno {
namespace cpptree {

/// Slots a program touches; used to validate bindings before running.
struct SlotUsage {
  std::set<unsigned> SourceSlots;
  std::set<unsigned> ValueSlots;
};

/// Computes the source/capture slots referenced anywhere in \p P.
SlotUsage scanSlots(const Program &P);

/// Renders \p P as a complete C++ source file.
std::string printProgram(const Program &P);

} // namespace cpptree
} // namespace steno

#endif // STENO_CPPTREE_PRINTER_H
