//===- stenobench/steno_bench.cpp - The repository's benchmark ------------===//
//
// One process runs one workload and prints every metric by name:
//
//   steno_bench --workload exec|exec_stream
//               --seed N [--seconds S] [--json FILE] [--trace FILE]
//               [--smoke]
//
// Untraced, it prints the end-to-end metrics; with --trace FILE it
// records harness-side spans (Trace.h), writes them to FILE as a Chrome
// trace and prints the per-layer metrics instead. Each metric is one
// line "name workload value unit"; --json FILE writes the same data with
// a host stamp. The last stdout line is one JSON object:
//
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
//
// The harness refuses to start when any STENO_* variable is set, so two
// commits are always measured at their code defaults. Exit status: 0
// clean, 1 when a result disagreed with the reference interpreter, 2 on
// usage errors or a refused environment, 3 when set-up failed.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Trace.h"

#include "fuzz/Diff.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <malloc.h>
#include <string>
#include <sys/resource.h>
#include <thread>

extern char **environ;

using namespace steno;
using namespace steno::bench;

namespace {

/// The layers whose calls a measured phase makes: query runs. The
/// compile phases are timed by the replay after the phase, so they have
/// metrics of their own.
const char *const kLayers[] = {"jit", "interp", "dryad"};

struct MetricDef {
  std::string Name;
  const char *Unit;
  bool EndToEnd;
};

void usage() {
  std::fprintf(stderr,
               "usage: steno_bench --workload exec|exec_stream --seed N\n"
               "                   [--seconds S] [--json FILE] "
               "[--trace FILE] [--smoke]\n");
}

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      std::size_t Colon = Line.find(':');
      return Colon == std::string::npos ? Line : Line.substr(Colon + 2);
    }
  return "unknown";
}

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) >= 0x20)
      Out += C;
  }
  return Out;
}

std::string
metricsJson(const std::vector<std::pair<const MetricDef *, double>> &Vals) {
  std::string Out = "{";
  char Buf[256];
  for (std::size_t I = 0; I != Vals.size(); ++I) {
    std::snprintf(Buf, sizeof Buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  I ? ", " : "", Vals[I].first->Name.c_str(), Vals[I].second,
                  Vals[I].first->Unit);
    Out += Buf;
  }
  return Out + "}";
}

/// Each layer's self time over the spans that began in \p O's measured
/// phase, per operation run while tracing, merged into \p O's metrics.
void addTraceMetrics(Outcome &O) {
  std::vector<SpanRecord> InPhase;
  for (const SpanRecord &S : Tracer::collect())
    if (S.Begin >= O.PhaseBeginNs && S.Begin < O.PhaseEndNs)
      InPhase.push_back(S);
  std::map<std::string, double> Self = layerSelfNanos(InPhase);
  double Ops = static_cast<double>(O.TracedOps);
  for (const char *L : kLayers)
    O.Metrics[std::string(L) + ".self_us_per_op"] =
        Ops ? Self[L] / 1e3 / Ops : 0;
}

/// Every metric the harness can print, end-to-end first. BENCHMARK.json
/// declares the same names (the smoke test checks both directions).
const std::vector<MetricDef> &metricTable() {
  static const std::vector<MetricDef> Table = [] {
    std::vector<MetricDef> T = {
        {"setup_s", "s", true},
        {"peak_rss_mb", "MB", true},
        {"throughput_rps", "1/s", true},
        {"latency_p50_us", "us", true},
        {"latency_p99_us", "us", true},

        {"exec.native_ns_per_row", "ns/row", false},
        {"exec.interp_ns_per_row", "ns/row", false},
        {"exec.parallel_ns_per_row", "ns/row", false},
        {"exec.compile_ms", "ms", false},
        {"exec.vectorized_queries", "count", false},
    };
    auto add = [&](const std::string &Name, const char *Unit) {
      T.push_back({Name, Unit, false});
    };
    for (const std::string &Q : execQueryNames()) {
      add("exec." + Q + ".native_ns_per_row", "ns/row");
      add("exec." + Q + ".interp_ns_per_row", "ns/row");
      add("exec." + Q + ".loop_ratio", "ratio");
    }
    for (const std::string &Q : execParallelNames())
      add("exec." + Q + ".parallel_ns_per_row", "ns/row");
    const MetricDef Fixed[] = {
        {"jit.run_overhead_ns", "ns", false},
        {"interp.run_overhead_ns", "ns", false},
        {"quil.lower_us", "us", false},
        {"quil.validate_us", "us", false},
        {"analysis.analyze_us", "us", false},
        {"analysis.rewrite_us", "us", false},
        {"analysis.rewrite_certs", "count", false},
        {"quil.specialize_us", "us", false},
        {"codegen.generate_us", "us", false},
        {"cpptree.print_us", "us", false},
        {"vec.plan_us", "us", false},
        {"codegen.vecgen_us", "us", false},
        {"codegen.tu_bytes", "bytes", false},
        {"jit.cc_ms", "ms", false},
        {"jit.dlopen_ms", "ms", false},
        {"jit.so_bytes", "bytes", false},
        {"jit.cc_peak_rss_mb", "MB", false},
        {"dryad.morsels", "count", false},
        {"dryad.steals", "count", false},
        {"dryad.splits", "count", false},
        {"dryad.idle_share", "ratio", false},
        {"trace.overhead_pct", "%", false},
    };
    T.insert(T.end(), std::begin(Fixed), std::end(Fixed));
    for (const char *L : kLayers)
      add(std::string(L) + ".self_us_per_op", "us");
    return T;
  }();
  return Table;
}

} // namespace

bool steno::bench::resultsMatch(const QueryResult &Got,
                                const QueryResult &Want) {
  if (Got.isScalar() != Want.isScalar() ||
      Got.rows().size() != Want.rows().size())
    return false;
  for (std::size_t I = 0; I != Got.rows().size(); ++I)
    if (!fuzz::fuzzValueNear(Got.rows()[I], Want.rows()[I]))
      return false;
  return true;
}

double steno::bench::peakRssMb() {
  std::ifstream In("/proc/self/status");
  for (std::string Line; std::getline(In, Line);)
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::atof(Line.c_str() + 6) / 1024.0;
  rusage RU{};
  ::getrusage(RUSAGE_SELF, &RU);
  return static_cast<double>(RU.ru_maxrss) / 1024.0;
}

void steno::bench::resetPeakRss() {
  ::malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

int main(int Argc, char **Argv) {
  for (char **Env = environ; *Env; ++Env)
    if (std::strncmp(*Env, "STENO_", 6) == 0) {
      std::string Var(*Env);
      std::fprintf(stderr,
                   "steno_bench: refusing to run with %s set; the benchmark "
                   "measures code defaults only\n",
                   Var.substr(0, Var.find('=')).c_str());
      return 2;
    }

  RunConfig C;
  std::string JsonPath, TracePath;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto next = [&]() -> std::string {
      if (I + 1 >= Argc) {
        usage();
        std::exit(2);
      }
      return Argv[++I];
    };
    if (Arg == "--workload")
      C.Workload = next();
    else if (Arg == "--seed")
      C.Seed = std::strtoull(next().c_str(), nullptr, 10);
    else if (Arg == "--seconds")
      C.Seconds = std::atof(next().c_str());
    else if (Arg == "--json")
      JsonPath = next();
    else if (Arg == "--trace")
      TracePath = next();
    else if (Arg == "--smoke")
      C.Smoke = true;
    else {
      usage();
      return 2;
    }
  }
  if ((C.Workload != "exec" && C.Workload != "exec_stream") ||
      C.Seconds <= 0) {
    usage();
    return 2;
  }
  if (C.Smoke)
    C.Seconds = 2;
  C.Traced = !TracePath.empty();

  Tracer::enable(C.Traced);
  Outcome O = runExec(C);
  Tracer::enable(false);
  for (const std::string &N : O.Notes)
    std::fprintf(stderr, "steno_bench: %s\n", N.c_str());
  if (!O.SetupError.empty()) {
    std::fprintf(stderr, "steno_bench: %s set-up failed: %s\n",
                 C.Workload.c_str(), O.SetupError.c_str());
    return 3;
  }
  if (C.Traced) {
    addTraceMetrics(O);
    if (!writeChromeTrace(TracePath, Tracer::collect())) {
      std::fprintf(stderr, "steno_bench: cannot write %s\n",
                   TracePath.c_str());
      return 3;
    }
  }

  std::vector<std::pair<const MetricDef *, double>> Vals;
  for (const MetricDef &D : metricTable()) {
    if (D.EndToEnd == C.Traced)
      continue;
    auto It = O.Metrics.find(D.Name);
    if (It == O.Metrics.end() && D.EndToEnd) {
      std::fprintf(stderr, "steno_bench: %s did not measure %s\n",
                   C.Workload.c_str(), D.Name.c_str());
      return 3;
    }
    Vals.push_back({&D, It == O.Metrics.end() ? 0.0 : It->second});
  }
  for (const auto &[Name, V] : O.Metrics) {
    bool Known = false;
    for (const MetricDef &D : metricTable())
      Known = Known || Name == D.Name;
    if (!Known)
      std::fprintf(stderr, "steno_bench: undeclared metric %s\n", Name.c_str());
  }
  for (const auto &[D, V] : Vals)
    std::printf("%-36s %-13s %14.6g %s\n", D->Name.c_str(),
                C.Workload.c_str(), V, D->Unit);

  bool Correct = O.Failed == 0 && O.Attempted > 0;
  if (!JsonPath.empty()) {
    std::FILE *F = std::fopen(JsonPath.c_str(), "w");
    if (!F) {
      std::fprintf(stderr, "steno_bench: cannot write %s\n", JsonPath.c_str());
      return 3;
    }
    std::fprintf(
        F,
        "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
        "\"traced\": %s,\n \"host\": {\"cores\": %u, \"cpu\": \"%s\", "
        "\"compiler\": \"%s\", \"build_type\": \"%s\", \"git_sha\": \"%s\"},\n"
        " \"correct\": %s, \"attempted\": %llu, \"failed\": %llu,\n"
        " \"metrics\": %s}\n",
        C.Workload.c_str(), static_cast<unsigned long long>(C.Seed), C.Seconds,
        C.Traced ? "true" : "false", std::thread::hardware_concurrency(),
        jsonEscape(cpuModel()).c_str(), STENO_BENCH_COMPILER,
        STENO_BENCH_BUILD_TYPE, STENO_BENCH_GIT_SHA,
        Correct ? "true" : "false",
        static_cast<unsigned long long>(O.Attempted),
        static_cast<unsigned long long>(O.Failed), metricsJson(Vals).c_str());
    std::fclose(F);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(O.Attempted),
              static_cast<unsigned long long>(O.Failed),
              metricsJson(Vals).c_str());
  return Correct ? 0 : 1;
}
