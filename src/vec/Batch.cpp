//===- vec/Batch.cpp ------------------------------------------*- C++ -*-===//

#include "vec/Batch.h"
#include "support/Env.h"

#include <cstdlib>

using namespace steno;
using namespace steno::vec;

bool vec::vectorizeEnvEnabled() {
  return support::parseFlag(std::getenv("STENO_VECTORIZE"), true);
}

std::size_t vec::batchSizeFromEnv() {
  return static_cast<std::size_t>(
      support::parseCount(std::getenv("STENO_BATCH_SIZE"), 1024, 16, 65536));
}

Workspace &vec::workspace() {
  thread_local Workspace W;
  return W;
}
