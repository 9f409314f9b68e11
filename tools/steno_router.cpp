//===- tools/steno_router.cpp - Shard router over a Unix socket ----------===//
//
// Part of the Steno/C++ reproduction of Murray, Isard & Yu,
// "Steno: Automatic Optimization of Declarative Queries" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
//
// The front-end process of the sharded serving layer (DESIGN.md §5k):
// serves its clients with steno_serve's listener and connection loop
// (serve::listenAndServe over ShardRouter::frontend: prepare, exec,
// stats, metrics, quit), and fans each execution out
// across N steno_serve workers using the §6 decomposition — per-shard
// homomorphic prefix + Agg partials combined by the router's Agg* stage,
// gated on the SafetyCertificate. Point it at running workers with
// repeated --shard flags, or let it spawn its own fleet:
//
//   steno_serve --socket /tmp/s0.sock &
//   steno_serve --socket /tmp/s1.sock &
//   steno_router --shard /tmp/s0.sock --shard /tmp/s1.sock &
//   nc -U /tmp/steno-router.sock
//
//   steno_router --spawn 4 --serve-bin ./steno_serve   # self-managed
//
// Exit: 0 on clean SIGINT/SIGTERM shutdown, 2 on usage/bind/spawn errors.
//
//===----------------------------------------------------------------------===//

#include "shard/Shard.h"
#include "shard/Spawn.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <unistd.h>
#include <vector>

using namespace steno;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: steno_router [options]\n"
      "  --socket PATH        listen socket (default /tmp/steno-router.sock)\n"
      "  --shard PATH         a steno_serve worker socket (repeatable)\n"
      "  --spawn N            spawn N steno_serve workers instead\n"
      "  --serve-bin PATH     worker binary for --spawn\n"
      "  --shard-socket-dir D directory for spawned worker sockets\n"
      "                       (default /tmp)\n"
      "  --shard-workers N    execution pool size per spawned worker\n"
      "                       (default 1)\n"
      "  --no-recompile       spawned workers stay on the interpreter\n"
      "  --conns-per-shard N  connection pool bound per shard (default 4)\n"
      "  --deadline-ms N      default request deadline (default 30000)\n"
      "  --retry-budget-ms N  per-sub-request retry budget across shard\n"
      "                       deaths (default 15000)\n"
      "  --retry-backoff-ms N pause before reconnecting after a failure\n"
      "                       (default 50)\n");
}

/// SIGKILLs the spawned workers and removes their sockets, which a killed
/// worker cannot unlink itself.
void stopWorkers(std::vector<shard::WorkerProcess> &Workers) {
  for (shard::WorkerProcess &W : Workers) {
    W.kill9();
    ::unlink(W.socket().c_str());
  }
}

bool parseUnsigned(const char *S, unsigned long long &Out) {
  char *End = nullptr;
  Out = std::strtoull(S, &End, 10);
  return End && *End == '\0' && End != S;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string SocketPath = "/tmp/steno-router.sock";
  std::string ServeBin;
  std::string SpawnDir = "/tmp";
  unsigned SpawnCount = 0;
  unsigned ShardWorkers = 1;
  bool NoRecompile = false;
  shard::RouterOptions Opts;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto next = [&]() -> const char * {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "steno_router: %s needs a value\n",
                     Arg.c_str());
        std::exit(2);
      }
      return Argv[++I];
    };
    unsigned long long N = 0;
    if (Arg == "--socket") {
      SocketPath = next();
    } else if (Arg == "--shard") {
      Opts.ShardSockets.push_back(next());
    } else if (Arg == "--spawn" && parseUnsigned(next(), N)) {
      SpawnCount = static_cast<unsigned>(N);
    } else if (Arg == "--serve-bin") {
      ServeBin = next();
    } else if (Arg == "--shard-socket-dir") {
      SpawnDir = next();
    } else if (Arg == "--shard-workers" && parseUnsigned(next(), N)) {
      ShardWorkers = static_cast<unsigned>(N);
    } else if (Arg == "--no-recompile") {
      NoRecompile = true;
    } else if (Arg == "--conns-per-shard" && parseUnsigned(next(), N)) {
      Opts.ConnsPerShard = static_cast<unsigned>(N);
    } else if (Arg == "--deadline-ms" && parseUnsigned(next(), N)) {
      Opts.DefaultDeadline = std::chrono::milliseconds(N);
    } else if (Arg == "--retry-budget-ms" && parseUnsigned(next(), N)) {
      Opts.RetryBudget = std::chrono::milliseconds(N);
    } else if (Arg == "--retry-backoff-ms" && parseUnsigned(next(), N)) {
      Opts.RetryBackoff = std::chrono::milliseconds(N);
    } else {
      usage();
      return 2;
    }
  }

  std::vector<shard::WorkerProcess> Workers;
  if (SpawnCount) {
    if (!Opts.ShardSockets.empty() || ServeBin.empty()) {
      std::fprintf(stderr, "steno_router: --spawn needs --serve-bin and "
                           "excludes --shard\n");
      return 2;
    }
    std::vector<std::string> ExtraArgs = {
        "--workers", std::to_string(ShardWorkers)};
    if (NoRecompile)
      ExtraArgs.push_back("--no-recompile");
    for (unsigned I = 0; I != SpawnCount; ++I) {
      std::string Sock = SpawnDir + "/steno-shard-" +
                         std::to_string(::getpid()) + "-" +
                         std::to_string(I) + ".sock";
      Workers.emplace_back(ServeBin, Sock, ExtraArgs);
      std::string Err;
      if (!Workers.back().start(&Err)) {
        std::fprintf(stderr, "steno_router: %s\n", Err.c_str());
        stopWorkers(Workers);
        return 2;
      }
      Opts.ShardSockets.push_back(Sock);
    }
  }
  if (Opts.ShardSockets.empty()) {
    std::fprintf(stderr, "steno_router: no shards (--shard or --spawn)\n");
    usage();
    return 2;
  }

  shard::ShardRouter Router(Opts);
  std::fprintf(stderr, "steno_router: fronting %u shard(s)\n",
               Router.shards());
  bool Served = serve::listenAndServe(SocketPath, "steno_router",
                                      [&Router] { return Router.frontend(); });
  stopWorkers(Workers);
  if (!Served)
    return 2;
  std::fprintf(stderr, "steno_router: shut down; %s\n",
               Router.statsJson().c_str());
  return 0;
}
