//===- obs/Profile.cpp - Per-operator query profiles ----------*- C++ -*-===//

#include "obs/Profile.h"
#include "obs/Metrics.h"
#include "support/Env.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <sstream>

using namespace steno;
using namespace steno::obs;

//===----------------------------------------------------------------------===//
// QueryProfile
//===----------------------------------------------------------------------===//

void QueryProfile::merge(const ProfileSink &S, unsigned Worker) {
  std::size_t NC = std::min(S.Counts.size(), Counts.size());
  for (std::size_t I = 0; I != NC; ++I)
    if (S.Counts[I])
      Counts[I].fetch_add(S.Counts[I], std::memory_order_relaxed);
  std::size_t NN = std::min(S.Nanos.size(), Nanos.size());
  for (std::size_t I = 0; I != NN; ++I)
    if (S.Nanos[I])
      Nanos[I].fetch_add(S.Nanos[I], std::memory_order_relaxed);
  if (Worker >= ProfileMaxWorkers)
    Worker = ProfileMaxWorkers - 1;
  Workers[Worker].fetch_add(1, std::memory_order_relaxed);
  Runs.fetch_add(1, std::memory_order_relaxed);
}

ProfileSnapshot QueryProfile::snapshot(std::uint64_t PlanHash) const {
  ProfileSnapshot S;
  S.PlanHash = PlanHash;
  S.Name = Desc.Name;
  S.Symbols = Desc.Symbols;
  S.RewrittenFrom = Desc.RewrittenFrom;
  S.Runs = Runs.load(std::memory_order_relaxed);
  S.Ops.reserve(Desc.Ops.size());
  for (std::size_t K = 0; K != Desc.Ops.size(); ++K) {
    OpProfile O;
    O.Label = Desc.Ops[K].Label;
    O.Depth = Desc.Ops[K].Depth;
    O.Timed = Desc.Ops[K].Timed;
    O.OpId = Desc.Ops[K].OpId;
    O.RowsIn = Counts[2 * K].load(std::memory_order_relaxed);
    O.RowsOut = Counts[2 * K + 1].load(std::memory_order_relaxed);
    O.Nanos = Nanos[K].load(std::memory_order_relaxed);
    S.Ops.push_back(std::move(O));
  }
  for (unsigned W = 0; W != ProfileMaxWorkers; ++W) {
    std::uint64_t N = Workers[W].load(std::memory_order_relaxed);
    if (N)
      S.WorkerMerges.emplace_back(W, N);
  }
  return S;
}

//===----------------------------------------------------------------------===//
// ProfileStore
//===----------------------------------------------------------------------===//

QueryProfile &ProfileStore::ensure(std::uint64_t PlanHash,
                                   const PlanDesc &Desc) {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::unique_ptr<QueryProfile> &Slot = Plans[PlanHash];
  if (!Slot)
    Slot = std::make_unique<QueryProfile>(Desc);
  return *Slot;
}

void ProfileStore::merge(std::uint64_t PlanHash, const ProfileSink &S) {
  QueryProfile *P = nullptr;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = Plans.find(PlanHash);
    if (It == Plans.end())
      return;
    P = It->second.get();
  }
  P->merge(S, profileWorker());
}

std::optional<ProfileSnapshot>
ProfileStore::snapshot(std::uint64_t PlanHash) const {
  const QueryProfile *P = nullptr;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = Plans.find(PlanHash);
    if (It == Plans.end())
      return std::nullopt;
    P = It->second.get();
  }
  return P->snapshot(PlanHash);
}

namespace {

/// True when two snapshots describe the identical operator shape, so
/// their per-op counters can be summed index-for-index.
bool sameOpShape(const ProfileSnapshot &A, const ProfileSnapshot &B) {
  if (A.Ops.size() != B.Ops.size())
    return false;
  for (std::size_t K = 0; K != A.Ops.size(); ++K)
    if (A.Ops[K].Label != B.Ops[K].Label || A.Ops[K].OpId != B.Ops[K].OpId)
      return false;
  return true;
}

/// Folds \p Other's per-pred counters into \p S by predicate identity:
/// every (Label, OpId) pair with OpId != 0 that appears exactly once in
/// BOTH snapshots is summed. Covers rewrite versions that permuted (or
/// dropped) predicates, where index-wise folding would attribute rows to
/// the wrong operator.
void foldByOpId(ProfileSnapshot &S, const ProfileSnapshot &Other) {
  auto UniqueIds = [](const ProfileSnapshot &P) {
    std::map<std::uint64_t, int> N;
    for (const OpProfile &O : P.Ops)
      if (O.OpId)
        ++N[O.OpId];
    return N;
  };
  std::map<std::uint64_t, int> Mine = UniqueIds(S);
  std::map<std::uint64_t, int> Theirs = UniqueIds(Other);
  for (OpProfile &O : S.Ops) {
    if (!O.OpId || Mine[O.OpId] != 1)
      continue;
    auto It = Theirs.find(O.OpId);
    if (It == Theirs.end() || It->second != 1)
      continue;
    for (const OpProfile &T : Other.Ops)
      if (T.OpId == O.OpId && T.Label == O.Label) {
        O.RowsIn += T.RowsIn;
        O.RowsOut += T.RowsOut;
        O.Nanos += T.Nanos;
        break;
      }
  }
}

void foldRuns(ProfileSnapshot &S, const ProfileSnapshot &Other) {
  if (!Other.Runs)
    return;
  S.Runs += Other.Runs;
  S.PriorRuns += Other.Runs;
  if (!S.ResolvedFrom)
    S.ResolvedFrom = Other.PlanHash;
  if (sameOpShape(S, Other)) {
    for (std::size_t K = 0; K != S.Ops.size(); ++K) {
      S.Ops[K].RowsIn += Other.Ops[K].RowsIn;
      S.Ops[K].RowsOut += Other.Ops[K].RowsOut;
      S.Ops[K].Nanos += Other.Ops[K].Nanos;
    }
  } else {
    foldByOpId(S, Other);
  }
}

} // namespace

std::optional<ProfileSnapshot>
ProfileStore::snapshotResolved(std::uint64_t PlanHash) const {
  // Collect only the cheap provenance edges (hash, RewrittenFrom) under
  // the lock — deliberately NOT snapshotAll(), whose per-plan copies
  // would make every adaptive compile O(total registered plans).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> Edges;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Edges.reserve(Plans.size());
    for (const auto &[Hash, P] : Plans)
      Edges.emplace_back(Hash, P->desc().RewrittenFrom);
  }

  // BFS the weakly-connected provenance component containing PlanHash:
  // edges hash -> RewrittenFrom, followed in BOTH directions, so
  // multi-hop chains (v1 -> v2 -> v3) and provenance siblings (two
  // rewrite products of the same original) all fold together.
  std::vector<std::uint64_t> Component{PlanHash};
  auto Seen = [&](std::uint64_t H) {
    return std::find(Component.begin(), Component.end(), H) !=
           Component.end();
  };
  for (std::size_t I = 0; I != Component.size(); ++I) {
    std::uint64_t Cur = Component[I];
    for (const auto &[Hash, From] : Edges) {
      if (Hash == Cur && From && !Seen(From))
        Component.push_back(From);
      if (From == Cur && !Seen(Hash))
        Component.push_back(Hash);
    }
  }

  // Registered members in plan-hash order (Edges inherits the map's
  // ordering), so the fold — and the primary shape for an unregistered
  // hash — is deterministic.
  std::vector<std::uint64_t> Members;
  for (const auto &[Hash, From] : Edges) {
    (void)From;
    if (Seen(Hash))
      Members.push_back(Hash);
  }
  if (Members.empty())
    return std::nullopt;

  bool SelfRegistered = Seen(PlanHash) &&
                        std::find(Members.begin(), Members.end(),
                                  PlanHash) != Members.end();
  ProfileSnapshot Out;
  std::uint64_t Primary = SelfRegistered ? PlanHash : Members.front();
  if (auto S = snapshot(Primary))
    Out = *S;
  else
    return std::nullopt;
  if (!SelfRegistered) {
    // The caller holds a pre-rewrite hash that was never registered:
    // serve a rewrite relative's profile under the requested hash.
    Out.ResolvedFrom = Out.PlanHash;
    Out.PriorRuns = Out.Runs;
    Out.PlanHash = PlanHash;
  }
  for (std::uint64_t H : Members) {
    if (H == Primary)
      continue;
    if (auto S = snapshot(H))
      foldRuns(Out, *S);
  }
  return Out;
}

std::vector<ProfileSnapshot> ProfileStore::snapshotAll() const {
  std::vector<std::pair<std::uint64_t, const QueryProfile *>> Refs;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Refs.reserve(Plans.size());
    for (const auto &[Hash, P] : Plans)
      Refs.emplace_back(Hash, P.get());
  }
  std::vector<ProfileSnapshot> Out;
  Out.reserve(Refs.size());
  for (const auto &[Hash, P] : Refs)
    Out.push_back(P->snapshot(Hash));
  return Out;
}

std::size_t ProfileStore::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Plans.size();
}

void ProfileStore::clear() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Plans.clear();
}

ProfileStore &ProfileStore::global() {
  // Leaked intentionally: profiled queries may merge from detached
  // threads during process teardown.
  static ProfileStore *Store = new ProfileStore();
  return *Store;
}

//===----------------------------------------------------------------------===//
// Environment + worker attribution
//===----------------------------------------------------------------------===//

bool obs::profilingEnvEnabled() {
  return support::parseFlag(std::getenv("STENO_PROFILE"), false);
}

namespace {
thread_local unsigned ProfileWorkerId = 0;
} // namespace

unsigned obs::profileWorker() { return ProfileWorkerId; }
void obs::setProfileWorker(unsigned W) { ProfileWorkerId = W; }

//===----------------------------------------------------------------------===//
// Rendering
//===----------------------------------------------------------------------===//

namespace {

void appendEscaped(std::string &Out, const std::string &S) {
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof Buf, "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
}

std::string fmtPct(double X) {
  char Buf[32];
  std::snprintf(Buf, sizeof Buf, "%.1f", X);
  return Buf;
}

std::string fmtSel(double Sel) {
  if (Sel < 0)
    return "-";
  char Buf[32];
  std::snprintf(Buf, sizeof Buf, "%.4f", Sel);
  return Buf;
}

std::string fmtNanos(std::uint64_t Ns) {
  char Buf[48];
  if (Ns >= 1000000000ULL)
    std::snprintf(Buf, sizeof Buf, "%.3fs", static_cast<double>(Ns) / 1e9);
  else if (Ns >= 1000000ULL)
    std::snprintf(Buf, sizeof Buf, "%.3fms", static_cast<double>(Ns) / 1e6);
  else if (Ns >= 1000ULL)
    std::snprintf(Buf, sizeof Buf, "%.3fus", static_cast<double>(Ns) / 1e3);
  else
    std::snprintf(Buf, sizeof Buf, "%" PRIu64 "ns", Ns);
  return Buf;
}

} // namespace

std::string obs::renderExplainAnalyze(const ProfileSnapshot &S) {
  std::string Out;
  char Buf[256];
  std::snprintf(Buf, sizeof Buf,
                "EXPLAIN ANALYZE %s  [plan 0x%016" PRIx64 ", %" PRIu64
                " run%s]\n",
                S.Name.c_str(), S.PlanHash, S.Runs, S.Runs == 1 ? "" : "s");
  Out += Buf;
  if (S.PriorRuns) {
    std::snprintf(Buf, sizeof Buf,
                  "  includes %" PRIu64 " run%s from plan 0x%016" PRIx64
                  " (rewrite provenance)\n",
                  S.PriorRuns, S.PriorRuns == 1 ? "" : "s", S.ResolvedFrom);
    Out += Buf;
  }
  if (!S.Symbols.empty())
    Out += "  quil: " + S.Symbols + "\n";
  std::uint64_t Total = S.totalNanos();
  for (const OpProfile &O : S.Ops) {
    Out += "  ";
    Out.append(2 * O.Depth, ' ');
    Out += "-> " + O.Label;
    std::snprintf(Buf, sizeof Buf, "  rows_in=%" PRIu64 " rows_out=%" PRIu64,
                  O.RowsIn, O.RowsOut);
    Out += Buf;
    Out += " sel=" + fmtSel(O.selectivity());
    if (O.Timed) {
      Out += " time=" + fmtNanos(O.Nanos);
      double Pct = Total ? 100.0 * static_cast<double>(O.Nanos) /
                               static_cast<double>(Total)
                         : 0.0;
      Out += " (" + fmtPct(Pct) + "%)";
    }
    Out += "\n";
  }
  if (!S.WorkerMerges.empty()) {
    Out += "  workers:";
    for (const auto &[W, N] : S.WorkerMerges) {
      std::snprintf(Buf, sizeof Buf, " %u:%" PRIu64, W, N);
      Out += Buf;
    }
    Out += "\n";
  }
  return Out;
}

std::string obs::profileJson(const ProfileSnapshot &S) {
  std::string Out;
  char Buf[192];
  std::snprintf(Buf, sizeof Buf, "{\"plan\":\"0x%016" PRIx64 "\",", S.PlanHash);
  Out += Buf;
  Out += "\"name\":\"";
  appendEscaped(Out, S.Name);
  Out += "\",\"symbols\":\"";
  appendEscaped(Out, S.Symbols);
  std::snprintf(Buf, sizeof Buf, "\",\"runs\":%" PRIu64 ",", S.Runs);
  Out += Buf;
  if (S.PriorRuns) {
    std::snprintf(Buf, sizeof Buf,
                  "\"prior_runs\":%" PRIu64 ",\"resolved_from\":\"0x%016" PRIx64
                  "\",",
                  S.PriorRuns, S.ResolvedFrom);
    Out += Buf;
  }
  Out += "\"workers\":{";
  bool First = true;
  for (const auto &[W, N] : S.WorkerMerges) {
    std::snprintf(Buf, sizeof Buf, "%s\"%u\":%" PRIu64, First ? "" : ",", W,
                  N);
    Out += Buf;
    First = false;
  }
  Out += "},\"total_nanos\":";
  std::uint64_t Total = S.totalNanos();
  std::snprintf(Buf, sizeof Buf, "%" PRIu64 ",\"ops\":[", Total);
  Out += Buf;
  First = true;
  for (const OpProfile &O : S.Ops) {
    if (!First)
      Out += ",";
    First = false;
    Out += "{\"op\":\"";
    appendEscaped(Out, O.Label);
    double Pct = Total && O.Timed ? 100.0 * static_cast<double>(O.Nanos) /
                                        static_cast<double>(Total)
                                  : 0.0;
    std::snprintf(Buf, sizeof Buf,
                  "\",\"depth\":%u,\"rows_in\":%" PRIu64
                  ",\"rows_out\":%" PRIu64 ",\"selectivity\":%.6f"
                  ",\"nanos\":%" PRIu64 ",\"time_pct\":%.1f}",
                  O.Depth, O.RowsIn, O.RowsOut,
                  O.selectivity() < 0 ? -1.0 : O.selectivity(), O.Nanos, Pct);
    Out += Buf;
  }
  Out += "]}";
  return Out;
}

namespace {

// Prometheus label values allow backslash-escaped '\\', '"' and '\n'.
void appendLabelEscaped(std::string &Out, const std::string &S) {
  for (char C : S) {
    if (C == '\\' || C == '"')
      Out += '\\';
    if (C == '\n') {
      Out += "\\n";
      continue;
    }
    Out += C;
  }
}

} // namespace

std::string obs::profilesPrometheus() {
  std::vector<ProfileSnapshot> All = ProfileStore::global().snapshotAll();
  if (All.empty())
    return "";
  std::string Out;
  char Buf[256];
  Out += "# TYPE steno_profile_runs_total counter\n";
  for (const ProfileSnapshot &S : All) {
    std::snprintf(Buf, sizeof Buf,
                  "steno_profile_runs_total{plan=\"0x%016" PRIx64
                  "\",name=\"",
                  S.PlanHash);
    Out += Buf;
    appendLabelEscaped(Out, S.Name);
    std::snprintf(Buf, sizeof Buf, "\"} %" PRIu64 "\n", S.Runs);
    Out += Buf;
  }
  Out += "# TYPE steno_profile_op_rows_total counter\n";
  Out += "# TYPE steno_profile_op_nanos_total counter\n";
  for (const ProfileSnapshot &S : All) {
    for (std::size_t K = 0; K != S.Ops.size(); ++K) {
      const OpProfile &O = S.Ops[K];
      for (int Dir = 0; Dir != 2; ++Dir) {
        std::snprintf(Buf, sizeof Buf,
                      "steno_profile_op_rows_total{plan=\"0x%016" PRIx64
                      "\",op=\"%zu\",label=\"",
                      S.PlanHash, K);
        Out += Buf;
        appendLabelEscaped(Out, O.Label);
        std::snprintf(Buf, sizeof Buf, "\",dir=\"%s\"} %" PRIu64 "\n",
                      Dir ? "out" : "in", Dir ? O.RowsOut : O.RowsIn);
        Out += Buf;
      }
      if (!O.Timed)
        continue;
      std::snprintf(Buf, sizeof Buf,
                    "steno_profile_op_nanos_total{plan=\"0x%016" PRIx64
                    "\",op=\"%zu\",label=\"",
                    S.PlanHash, K);
      Out += Buf;
      appendLabelEscaped(Out, O.Label);
      std::snprintf(Buf, sizeof Buf, "\"} %" PRIu64 "\n", O.Nanos);
      Out += Buf;
    }
  }
  return Out;
}

std::string obs::exportPrometheus() {
  return dumpMetricsPrometheus() + profilesPrometheus();
}

//===----------------------------------------------------------------------===//
// STENO_METRICS_OUT
//===----------------------------------------------------------------------===//

namespace {

void writeMetricsAtExit() {
  const char *Path = std::getenv("STENO_METRICS_OUT");
  if (!Path || !*Path)
    return;
  std::FILE *F = std::fopen(Path, "w");
  if (!F)
    return;
  std::string Text = exportPrometheus();
  std::fwrite(Text.data(), 1, Text.size(), F);
  std::fclose(F);
}

} // namespace

bool obs::registerMetricsExportAtExit() {
  static const bool Registered = [] {
    if (const char *Path = std::getenv("STENO_METRICS_OUT");
        Path && *Path)
      std::atexit(writeMetricsAtExit);
    return true;
  }();
  return Registered;
}
