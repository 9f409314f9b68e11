//===- support/Env.h - STENO_* environment flags ---------------*- C++ -*-===//
///
/// \file
/// The parser for on/off STENO_* environment flags. The environment holds
/// only paths (STENO_CXX, STENO_TRACE, STENO_METRICS_OUT) and tool
/// switches such as STENO_JIT_LINT; no variable sets a compile, serve,
/// batch or trace option — those are struct fields and flags.
///
//===----------------------------------------------------------------------===//

#ifndef STENO_SUPPORT_ENV_H
#define STENO_SUPPORT_ENV_H

namespace steno {
namespace support {

/// Parses an on/off value. Null (unset) and "" yield \p Default; "0" and
/// "off" yield false; anything else yields true.
bool parseFlag(const char *Raw, bool Default);

} // namespace support
} // namespace steno

#endif // STENO_SUPPORT_ENV_H
