//===- support/Env.h - STENO_* environment knobs ---------------*- C++ -*-===//
///
/// \file
/// The two parsers every STENO_* environment knob goes through: one for
/// on/off flags and one for bounded counts. Each knob's reader passes
/// getenv() of its name and its default where the value is used, with no
/// cached copy, so a setenv() between compiles takes effect. Path knobs
/// (STENO_TRACE, STENO_METRICS_OUT, STENO_CXX) are plain strings.
///
//===----------------------------------------------------------------------===//

#ifndef STENO_SUPPORT_ENV_H
#define STENO_SUPPORT_ENV_H

#include <cstdint>

namespace steno {
namespace support {

/// Parses an on/off value. Null (unset) and "" yield \p Default; "0" and
/// "off" yield false; anything else yields true.
bool parseFlag(const char *Raw, bool Default);

/// Parses a positive decimal count clamped to [\p Min, \p Max]. Null, "",
/// trailing garbage and values <= 0 yield \p Default.
std::int64_t parseCount(const char *Raw, std::int64_t Default,
                        std::int64_t Min, std::int64_t Max);

} // namespace support
} // namespace steno

#endif // STENO_SUPPORT_ENV_H
