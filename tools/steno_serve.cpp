//===- tools/steno_serve.cpp - Query service over a Unix socket ----------===//
//
// Part of the Steno/C++ reproduction of Murray, Isard & Yu,
// "Steno: Automatic Optimization of Declarative Queries" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
//
// A long-lived serving process: serve::listenAndServe runs one
// serve::serveConnection thread per client over a Session of one
// QueryService. The protocol is the line-oriented one in serve/Wire.h;
// try it interactively with
//
//   steno_serve --socket /tmp/steno.sock &
//   nc -U /tmp/steno.sock
//
// Exit: 0 on clean SIGINT/SIGTERM shutdown, 2 on usage/bind errors.
//
//===----------------------------------------------------------------------===//

#include "serve/Serve.h"
#include "serve/Wire.h"

#include <cstdio>
#include <cstdlib>
#include <string>

using namespace steno;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: steno_serve [options]\n"
      "  --socket PATH      Unix socket path (default /tmp/steno-serve.sock)\n"
      "  --workers N        execution pool size (default 4)\n"
      "  --max-queue N      admission bound, queued+running (default 64)\n"
      "  --deadline-ms N    default request deadline (default 5000)\n"
      "  --no-recompile     stay on the interpreter backend forever\n"
      "  --profile          per-operator query profiling (wire command\n"
      "                     `profile <handle>`)\n"
      "  --replan-every N   re-plan a handle with feedback after N, 2N,\n"
      "                     4N, ... executions; a re-plan that finds a\n"
      "                     new plan replaces the handle's plan (needs\n"
      "                     --profile; default 64; 0 = never)\n");
}

bool parseUnsigned(const char *S, unsigned long long &Out) {
  char *End = nullptr;
  Out = std::strtoull(S, &End, 10);
  return End && *End == '\0' && End != S;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string SocketPath = "/tmp/steno-serve.sock";
  serve::ServeOptions Opts;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto next = [&]() -> const char * {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "steno_serve: %s needs a value\n", Arg.c_str());
        std::exit(2);
      }
      return Argv[++I];
    };
    unsigned long long N = 0;
    if (Arg == "--socket") {
      SocketPath = next();
    } else if (Arg == "--workers" && parseUnsigned(next(), N)) {
      Opts.Workers = static_cast<unsigned>(N);
    } else if (Arg == "--max-queue" && parseUnsigned(next(), N)) {
      Opts.MaxQueue = static_cast<unsigned>(N);
    } else if (Arg == "--deadline-ms" && parseUnsigned(next(), N)) {
      Opts.DefaultDeadline = std::chrono::milliseconds(N);
    } else if (Arg == "--no-recompile") {
      Opts.BackgroundRecompile = false;
    } else if (Arg == "--profile") {
      Opts.Profile = true;
    } else if (Arg == "--replan-every" && parseUnsigned(next(), N)) {
      Opts.ReplanEvery = static_cast<unsigned>(N);
    } else {
      usage();
      return 2;
    }
  }

  serve::QueryService Svc(Opts);
  std::fprintf(stderr, "steno_serve: workers=%u max-queue=%u\n",
               Opts.Workers, Opts.MaxQueue);
  if (!serve::listenAndServe(SocketPath, "steno_serve",
                             [&Svc] { return serve::sessionFrontend(Svc); }))
    return 2;
  serve::QueryService::Stats S = Svc.stats();
  std::fprintf(stderr,
               "steno_serve: shut down; served %llu requests "
               "(%llu ok, %llu shed, %llu timeout, %llu error)\n",
               static_cast<unsigned long long>(S.Accepted),
               static_cast<unsigned long long>(S.Ok),
               static_cast<unsigned long long>(S.Shed),
               static_cast<unsigned long long>(S.Timeouts),
               static_cast<unsigned long long>(S.Errors));
  return 0;
}
