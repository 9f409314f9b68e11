//===- expr/CxxPrinter.h - Expression -> C++ source rendering --*- C++ -*-===//
///
/// \file
/// Renders an expression tree as a C++ expression string. This is the
/// lambda-inlining half of iterator fusion (paper §4.2, Figure 6): instead
/// of invoking a function object per element, the transformation/predicate
/// body is printed directly into the generated loop, with its parameters
/// renamed to the loop's element variables and its captures rendered as
/// field accesses on the bound capture block (paper §3.3).
///
//===----------------------------------------------------------------------===//

#ifndef STENO_EXPR_CXXPRINTER_H
#define STENO_EXPR_CXXPRINTER_H

#include "expr/Expr.h"

#include <functional>
#include <string>

namespace steno {
namespace expr {

/// Name-resolution hooks for printing. The code generator supplies these to
/// map Param nodes to generated local variables (elem_i, ...) and Capture
/// nodes to capture-block accesses (caps->slot3, ...).
struct CxxNames {
  std::function<std::string(const std::string &ParamName)> Param;
  /// Rendering of a capture-slot access; receives the slot's static type so
  /// the right capture-block field can be selected.
  std::function<std::string(unsigned Slot, const Type &Ty)> Capture;
  /// C++ expression for source slot's double data pointer ("caps->...Data").
  std::function<std::string(unsigned Slot)> SourceData;
  /// C++ expression for source slot's element count.
  std::function<std::string(unsigned Slot)> SourceCount;
};

/// Renders \p E as a parenthesized C++ expression using \p Names.
std::string printExprCxx(const Expr &E, const CxxNames &Names);

/// True when printExprCxx(\p E) calls a <cmath> function: sqrt, floor,
/// ceil, exp, log, pow, or std::fmod for a double `%`.
bool callsCmath(const Expr &E);

} // namespace expr
} // namespace steno

#endif // STENO_EXPR_CXXPRINTER_H
