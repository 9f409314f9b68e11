//===- support/Env.cpp ----------------------------------------*- C++ -*-===//

#include "support/Env.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

using namespace steno;

bool support::parseFlag(const char *Raw, bool Default) {
  if (!Raw || !*Raw)
    return Default;
  return std::strcmp(Raw, "0") != 0 && std::strcmp(Raw, "off") != 0;
}

std::int64_t support::parseCount(const char *Raw, std::int64_t Default,
                                 std::int64_t Min, std::int64_t Max) {
  if (!Raw || !*Raw)
    return Default;
  char *End = nullptr;
  long long V = std::strtoll(Raw, &End, 10);
  if (End == Raw || *End != '\0' || V <= 0)
    return Default;
  return std::clamp<std::int64_t>(V, Min, Max);
}
