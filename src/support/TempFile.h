//===- support/TempFile.h - Temporary workspace for the JIT ----*- C++ -*-===//
///
/// \file
/// Creation of per-process temporary directories and files. The JIT backend
/// (paper §3.3) writes generated C++ sources and shared objects here.
///
//===----------------------------------------------------------------------===//

#ifndef STENO_SUPPORT_TEMPFILE_H
#define STENO_SUPPORT_TEMPFILE_H

#include <string>

namespace steno {
namespace support {

/// Creates (once per process) and returns a private temporary directory,
/// e.g. /tmp/steno-jit-<pid>. Aborts via fatalError if creation fails.
/// The process removes the directory at exit when it is empty.
const std::string &processTempDir();

/// Writes \p Contents to \p Path, replacing any existing file. Aborts via
/// fatalError on I/O failure.
void writeFile(const std::string &Path, const std::string &Contents);

/// Reads the entire file at \p Path. Returns an empty string if the file
/// does not exist or cannot be read.
std::string readFileOrEmpty(const std::string &Path);

} // namespace support
} // namespace steno

#endif // STENO_SUPPORT_TEMPFILE_H
