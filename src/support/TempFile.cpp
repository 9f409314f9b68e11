//===- support/TempFile.cpp -----------------------------------*- C++ -*-===//

#include "support/TempFile.h"
#include "support/Error.h"
#include "support/StringUtil.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sys/stat.h>
#include <unistd.h>

using namespace steno;

namespace {

/// The directory processTempDir made and the process that made it. Never
/// destroyed, so the exit handler can still read it after static
/// destructors ran.
const std::string *TempDir = nullptr;
pid_t TempDirOwner = 0;

void removeTempDirIfEmpty() {
  // rmdir removes only an empty directory: an open module's files, or a
  // failed compile's kept source and log, keep it. A forked child (a
  // death test) inherits this handler but not the directory.
  if (::getpid() == TempDirOwner)
    ::rmdir(TempDir->c_str());
}

} // namespace

const std::string &support::processTempDir() {
  static const std::string Dir = [] {
    const char *Base = ::getenv("TMPDIR");
    std::string Path = strFormat("%s/steno-jit-%ld", Base ? Base : "/tmp",
                                 static_cast<long>(::getpid()));
    if (::mkdir(Path.c_str(), 0700) != 0 && errno != EEXIST)
      fatalError("cannot create temp directory " + Path + ": " +
                 std::strerror(errno));
    TempDir = new std::string(Path);
    TempDirOwner = ::getpid();
    std::atexit(removeTempDirIfEmpty);
    return Path;
  }();
  return Dir;
}

void support::writeFile(const std::string &Path, const std::string &Contents) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    fatalError("cannot open " + Path + " for writing: " +
               std::strerror(errno));
  size_t Written = std::fwrite(Contents.data(), 1, Contents.size(), F);
  std::fclose(F);
  if (Written != Contents.size())
    fatalError("short write to " + Path);
}

std::string support::readFileOrEmpty(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return std::string();
  std::string Out;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Out.append(Buf, N);
  std::fclose(F);
  return Out;
}
