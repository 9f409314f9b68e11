//===- vec/Batch.cpp ------------------------------------------*- C++ -*-===//

#include "vec/Batch.h"

using namespace steno;
using namespace steno::vec;

Workspace &vec::workspace() {
  thread_local Workspace W;
  return W;
}
