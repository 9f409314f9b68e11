//===- support/Env.cpp ----------------------------------------*- C++ -*-===//

#include "support/Env.h"

#include <cstring>

using namespace steno;

bool support::parseFlag(const char *Raw, bool Default) {
  if (!Raw || !*Raw)
    return Default;
  return std::strcmp(Raw, "0") != 0 && std::strcmp(Raw, "off") != 0;
}
