//===- serve/Wire.cpp - Line protocol for steno_serve ----------*- C++ -*-===//

#include "serve/Wire.h"

#include "obs/Metrics.h"
#include "obs/Profile.h"
#include "support/StringUtil.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>

using namespace steno;
using namespace steno::serve;

//===--------------------------------------------------------------------===//
// FdStream
//===--------------------------------------------------------------------===//

bool FdStream::readLine(std::string &Line) {
  Line.clear();
  for (;;) {
    while (Pos < Buf.size()) {
      char C = Buf[Pos++];
      if (C == '\n') {
        if (!Line.empty() && Line.back() == '\r')
          Line.pop_back();
        return true;
      }
      if (Line.size() == MaxLine) {
        TooLong = true;
        return false;
      }
      Line.push_back(C);
    }
    Buf.clear();
    Pos = 0;
    char Chunk[4096];
    ssize_t N = ::read(Fd, Chunk, sizeof Chunk);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    if (N == 0)
      return false; // EOF; a partial unterminated line is dropped
    Buf.assign(Chunk, static_cast<std::size_t>(N));
  }
}

bool FdStream::writeAll(const std::string &Bytes) {
  std::size_t Off = 0;
  while (Off < Bytes.size()) {
    // MSG_NOSIGNAL: a peer death (e.g. a SIGKILLed shard worker) must
    // surface as a write error the retry layer can handle, never a
    // process-killing SIGPIPE in an embedder that didn't ignore it.
    ssize_t N = ::send(Fd, Bytes.data() + Off, Bytes.size() - Off,
                       MSG_NOSIGNAL);
    if (N < 0 && errno == ENOTSOCK) // pipes/files in tests
      N = ::write(Fd, Bytes.data() + Off, Bytes.size() - Off);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Off += static_cast<std::size_t>(N);
  }
  return true;
}

//===--------------------------------------------------------------------===//
// Frames
//===--------------------------------------------------------------------===//

namespace {

std::string oneLine(std::string S) {
  for (std::size_t I = 0; (I = S.find('\n', I)) != std::string::npos;)
    S.replace(I, 1, "; ");
  return S;
}

std::string errorFrame(const std::string &Message) {
  return "error " + oneLine(Message) + "\n";
}

std::string statsJson(const QueryService::Stats &S) {
  // End-to-end request latency percentiles from the (process-wide)
  // serve.request.micros histogram the execution path populates. The
  // bounds must match ServeMetrics so this resolves to the same
  // registered instrument rather than creating a second one.
  obs::Histogram &Lat = obs::histogram(
      "serve.request.micros", {10, 100, 1e3, 1e4, 1e5, 1e6, 1e7});
  char Buf[1536];
  std::snprintf(
      Buf, sizeof Buf,
      "{\"sessions\":%llu,\"prepares\":%llu,\"accepted\":%llu,"
      "\"ok\":%llu,\"shed\":%llu,\"timeouts\":%llu,\"errors\":%llu,"
      "\"degraded_runs\":%llu,\"native_runs\":%llu,"
      "\"recompiles_scheduled\":%llu,\"recompiles_done\":%llu,"
      "\"recompiles_failed\":%llu,\"recompiles_saturated\":%llu,"
      "\"replans\":%llu,\"replan_swaps\":%llu,"
      "\"replan_no_change\":%llu,\"partial_runs\":%llu,"
      "\"queue_depth\":%lld,"
      "\"latency_us\":{\"p50\":%.1f,\"p95\":%.1f,\"p99\":%.1f}}",
      static_cast<unsigned long long>(S.Sessions),
      static_cast<unsigned long long>(S.Prepares),
      static_cast<unsigned long long>(S.Accepted),
      static_cast<unsigned long long>(S.Ok),
      static_cast<unsigned long long>(S.Shed),
      static_cast<unsigned long long>(S.Timeouts),
      static_cast<unsigned long long>(S.Errors),
      static_cast<unsigned long long>(S.DegradedRuns),
      static_cast<unsigned long long>(S.NativeRuns),
      static_cast<unsigned long long>(S.RecompilesScheduled),
      static_cast<unsigned long long>(S.RecompilesDone),
      static_cast<unsigned long long>(S.RecompilesFailed),
      static_cast<unsigned long long>(S.RecompilesSaturated),
      static_cast<unsigned long long>(S.Replans),
      static_cast<unsigned long long>(S.ReplanSwaps),
      static_cast<unsigned long long>(S.ReplanNoChange),
      static_cast<unsigned long long>(S.PartialRuns),
      static_cast<long long>(S.QueueDepth), Lat.percentile(0.50),
      Lat.percentile(0.95), Lat.percentile(0.99));
  return Buf;
}

} // namespace

//===--------------------------------------------------------------------===//
// Exact value codec and the answer frame
//===--------------------------------------------------------------------===//

namespace {

void encodeValue(const expr::Value &V, std::string &Out) {
  char Buf[64];
  switch (V.kind()) {
  case expr::TypeKind::Bool:
    Out += V.asBool() ? "b 1" : "b 0";
    return;
  case expr::TypeKind::Int64:
    Out += "i ";
    Out += std::to_string(V.asInt64());
    return;
  case expr::TypeKind::Double:
    // %a round-trips every double (including nan/±inf) through strtod.
    std::snprintf(Buf, sizeof Buf, "d %a", V.asDouble());
    Out += Buf;
    return;
  case expr::TypeKind::Vec: {
    expr::VecView View = V.asVec();
    Out += "v ";
    Out += std::to_string(View.Len);
    for (std::int64_t I = 0; I != View.Len; ++I) {
      std::snprintf(Buf, sizeof Buf, " %a", View.Data[I]);
      Out += Buf;
    }
    return;
  }
  case expr::TypeKind::Pair:
    Out += "p ";
    encodeValue(V.first(), Out);
    Out += ' ';
    encodeValue(V.second(), Out);
    return;
  }
}

/// Token-stream decoder for encodeValue output. istream's operator>>
/// does not reliably accept hexfloats, so doubles go through strtod.
struct ValueDecoder {
  std::istringstream In;
  std::deque<std::vector<double>> &Arena;

  ValueDecoder(const std::string &S, std::deque<std::vector<double>> &A)
      : In(S), Arena(A) {}

  bool decodeDouble(double &D) {
    std::string Tok;
    if (!(In >> Tok))
      return false;
    const char *C = Tok.c_str();
    char *End = nullptr;
    D = std::strtod(C, &End);
    return End != C && *End == '\0';
  }

  bool decode(expr::Value &Out) {
    std::string Tag;
    if (!(In >> Tag))
      return false;
    if (Tag == "b") {
      int B = 0;
      if (!(In >> B) || (B != 0 && B != 1))
        return false;
      Out = expr::Value(B == 1);
      return true;
    }
    if (Tag == "i") {
      std::string Tok;
      if (!(In >> Tok))
        return false;
      const char *C = Tok.c_str();
      char *End = nullptr;
      long long I = std::strtoll(C, &End, 10);
      if (End == C || *End != '\0')
        return false;
      Out = expr::Value(static_cast<std::int64_t>(I));
      return true;
    }
    if (Tag == "d") {
      double D = 0;
      if (!decodeDouble(D))
        return false;
      Out = expr::Value(D);
      return true;
    }
    if (Tag == "v") {
      std::int64_t Len = 0;
      if (!(In >> Len) || Len < 0)
        return false;
      Arena.emplace_back();
      std::vector<double> &Vec = Arena.back();
      Vec.reserve(static_cast<std::size_t>(Len));
      for (std::int64_t I = 0; I != Len; ++I) {
        double D = 0;
        if (!decodeDouble(D))
          return false;
        Vec.push_back(D);
      }
      Out = expr::Value(expr::VecView{Vec.data(), Len});
      return true;
    }
    if (Tag == "p") {
      expr::Value First, Second;
      if (!decode(First) || !decode(Second))
        return false;
      Out = expr::Value::makePair(First, Second);
      return true;
    }
    return false;
  }
};

} // namespace

std::string serve::wireValue(const expr::Value &V) {
  std::string Out;
  encodeValue(V, Out);
  return Out;
}

bool serve::parseWireValue(const std::string &Enc, expr::Value &Out,
                           std::deque<std::vector<double>> &Arena,
                           std::string *Err) {
  ValueDecoder D(Enc, Arena);
  if (!D.decode(Out)) {
    if (Err)
      *Err = "malformed wire value: " + Enc;
    return false;
  }
  std::string Rest;
  if (D.In >> Rest) {
    if (Err)
      *Err = "trailing garbage in wire value: " + Enc;
    return false;
  }
  return true;
}

std::string serve::renderResponse(const Response &R) {
  unsigned long long Id = R.Id;
  switch (R.St) {
  case Status::Timeout:
    return support::strFormat("timeout %llu\n", Id);
  case Status::Shed:
    return support::strFormat("shed %llu\n", Id);
  case Status::Error:
    return support::strFormat(
        "error %llu %s\n", Id,
        oneLine(R.Message.empty() ? "internal error" : R.Message).c_str());
  case Status::Ok:
    break;
  }
  std::string Out = support::strFormat(
      "result %llu %s %zu degraded=%d native=%d queue_us=%.1f "
      "run_us=%.1f\n",
      Id, R.Result.isScalar() ? "scalar" : "rows", R.Result.rows().size(),
      R.Degraded ? 1 : 0, R.NativePlan ? 1 : 0, R.QueueMicros, R.RunMicros);
  for (const expr::Value &V : R.Result.rows()) {
    Out += "row ";
    Out += wireValue(V);
    Out += '\n';
  }
  Out += "done\n";
  return Out;
}

//===--------------------------------------------------------------------===//
// Server side
//===--------------------------------------------------------------------===//

Frontend serve::sessionFrontend(QueryService &Svc) {
  std::shared_ptr<Session> Sess = Svc.openSession();
  auto Handles = std::make_shared<std::vector<PreparedHandle>>();
  Frontend F;
  F.Prepare = [Sess, Handles](const std::string &Spec, std::string &Err) {
    PreparedHandle P = Sess->prepare(Spec, &Err);
    if (P)
      Handles->push_back(P);
    return P != nullptr;
  };
  F.Execute = [Sess, Handles](std::size_t H,
                              std::chrono::milliseconds Deadline) {
    return Sess->execute((*Handles)[H], Deadline);
  };
  F.Stats = [&Svc] { return statsJson(Svc.stats()); };
  F.DefaultDeadline = Svc.options().DefaultDeadline;
  F.ExecutePartial = [&Svc, Handles](std::size_t H, std::size_t Begin,
                                     std::size_t Len,
                                     std::chrono::milliseconds Deadline) {
    return Svc.executePartial((*Handles)[H], Begin, Len, Deadline);
  };
  F.Profile = [Handles](std::size_t H, std::string &Json, std::string &Err) {
    CompiledQuery Plan = (*Handles)[H]->currentPlan();
    if (!Plan.profiled()) {
      Err = support::strFormat(
          "handle %zu was prepared without profiling (start the service "
          "with --profile or STENO_PROFILE=1)",
          H);
      return false;
    }
    // Resolved through rewrite provenance: a plan the rewriter changed
    // inherits runs accumulated under its pre-rewrite hash, so a fresh
    // prepare of a long-profiled query answers with the merged stats
    // instead of "never executed".
    auto Snap = obs::ProfileStore::global().snapshotResolved(Plan.planHash());
    if (!Snap) {
      Err = support::strFormat(
          "no profile recorded for handle %zu yet (never executed)", H);
      return false;
    }
    Json = obs::profileJson(*Snap);
    return true;
  };
  return F;
}

namespace {

/// Parses and runs one exec or pexec request. The answer carries the
/// client's rid, or the frontend's request id when the client sent none.
Response execRequest(const Frontend &F, bool Partial,
                     std::istringstream &Fields, std::size_t Handles) {
  std::size_t H = 0, Begin = 0, Len = 0;
  long long DeadlineMs = -1;
  unsigned long long Rid = 0;
  Response R;
  if (!(Fields >> H) || (Partial && !(Fields >> Begin >> Len))) {
    R.Message = Partial ? "pexec needs a handle and a range"
                        : "exec needs a handle";
    return R;
  }
  Fields >> DeadlineMs >> Rid; // both optional
  if (H >= Handles) {
    R.Message = support::strFormat("unknown handle %zu", H);
  } else {
    std::chrono::milliseconds Deadline =
        DeadlineMs >= 0 ? std::chrono::milliseconds(DeadlineMs)
                        : F.DefaultDeadline;
    R = Partial ? F.ExecutePartial(H, Begin, Len, Deadline)
                : F.Execute(H, Deadline);
  }
  if (Rid)
    R.Id = Rid;
  return R;
}

} // namespace

void serve::serveConnection(const Frontend &F, int Fd) {
  FdStream S(Fd, MaxRequestLine);
  // A client past a bound gets one error frame; shutting the socket down
  // both ways then ends its writes and shows it EOF after the frame.
  auto refuse = [&S](const std::string &Why) {
    S.writeAll(errorFrame(Why));
    ::shutdown(S.fd(), SHUT_RDWR);
  };
  std::size_t Handles = 0; // prepared so far: numbers 0..Handles-1
  std::string Line;
  while (S.readLine(Line)) {
    std::istringstream Fields(Line);
    std::string Cmd;
    if (!(Fields >> Cmd))
      continue; // blank line

    if (Cmd == "quit") {
      S.writeAll("bye\n");
      return;
    }

    std::string Answer;
    if (Cmd == "prepare") {
      // The spec's own `end` line frames the payload.
      std::string SpecText, SpecLine;
      bool SawEnd = false;
      while (!SawEnd && SpecText.size() <= MaxSpecFrame &&
             S.readLine(SpecLine)) {
        SpecText += SpecLine;
        SpecText += '\n';
        SawEnd = SpecLine == "end";
      }
      if (SpecText.size() > MaxSpecFrame) {
        refuse(support::strFormat("spec frame longer than %zu bytes",
                                  MaxSpecFrame));
        return;
      }
      if (!SawEnd)
        break; // EOF mid-spec drops the connection
      std::string Err;
      if (F.Prepare(SpecText, Err))
        Answer = support::strFormat("prepared %zu\n", Handles++);
      else
        Answer = errorFrame(Err);
    } else if (Cmd == "exec" || (Cmd == "pexec" && F.ExecutePartial)) {
      Answer = renderResponse(execRequest(F, Cmd == "pexec", Fields, Handles));
    } else if (Cmd == "stats") {
      Answer = "stats " + F.Stats() + "\n";
    } else if (Cmd == "profile" && F.Profile) {
      std::size_t H = 0;
      std::string Json, Err;
      if (!(Fields >> H))
        Answer = errorFrame("profile needs a handle");
      else if (H >= Handles)
        Answer = errorFrame(support::strFormat("unknown handle %zu", H));
      else
        Answer = F.Profile(H, Json, Err) ? "profile " + Json + "\n"
                                         : errorFrame(Err);
    } else if (Cmd == "metrics") {
      std::string Text = obs::exportPrometheus();
      std::size_t NLines = static_cast<std::size_t>(
          std::count(Text.begin(), Text.end(), '\n'));
      Answer = support::strFormat("metrics %zu\n", NLines) + Text;
    } else {
      Answer = errorFrame("unknown command '" + Cmd + "'");
    }
    if (!S.writeAll(Answer))
      return;
  }
  if (S.tooLong())
    refuse(support::strFormat("request line longer than %zu bytes",
                              MaxRequestLine));
}

namespace {

/// The listening socket, closed by the SIGINT/SIGTERM handler.
std::atomic<int> ListenFd{-1};

void closeListener(int) {
  // Unblock accept(): shutdown() on a listening socket is
  // implementation-defined, but close() reliably fails the accept.
  int Fd = ListenFd.exchange(-1);
  if (Fd >= 0)
    ::close(Fd);
}

} // namespace

bool serve::listenAndServe(const std::string &SocketPath, const char *Tool,
                           const std::function<Frontend()> &NewConnection) {
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (SocketPath.size() >= sizeof Addr.sun_path) {
    std::fprintf(stderr, "%s: socket path too long\n", Tool);
    return false;
  }
  std::strncpy(Addr.sun_path, SocketPath.c_str(), sizeof Addr.sun_path - 1);
  ::unlink(SocketPath.c_str()); // stale socket from a previous run
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0 ||
      ::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof Addr) < 0 ||
      ::listen(Fd, 64) < 0) {
    std::fprintf(stderr, "%s: cannot listen on %s: %s\n", Tool,
                 SocketPath.c_str(), std::strerror(errno));
    if (Fd >= 0)
      ::close(Fd);
    return false;
  }
  ListenFd.store(Fd);
  std::signal(SIGINT, closeListener);
  std::signal(SIGTERM, closeListener);
  std::signal(SIGPIPE, SIG_IGN); // client hangups surface as write errors
  std::fprintf(stderr, "%s: listening on %s\n", Tool, SocketPath.c_str());

  std::vector<std::thread> Connections;
  for (;;) {
    int Conn = ::accept(Fd, nullptr, nullptr);
    if (Conn >= 0) {
      Connections.emplace_back([Conn, F = NewConnection()] {
        serveConnection(F, Conn);
        ::close(Conn);
      });
      continue;
    }
    if (ListenFd.load() < 0) // closed by the signal handler
      break;
    if (errno == EINTR)
      continue;
    std::fprintf(stderr, "%s: accept: %s\n", Tool, std::strerror(errno));
    closeListener(0);
    break;
  }

  for (std::thread &T : Connections)
    T.join();
  ::unlink(SocketPath.c_str());
  return true;
}

//===--------------------------------------------------------------------===//
// Client side
//===--------------------------------------------------------------------===//

bool WireClient::prepare(const std::string &SpecText, std::uint64_t &Handle,
                         std::string &Err) {
  Err.clear();
  std::string Frame = "prepare\n" + SpecText;
  if (Frame.back() != '\n')
    Frame += '\n';
  std::string Line;
  if (!S.writeAll(Frame) || !S.readLine(Line))
    return false;
  std::istringstream Fields(Line);
  std::string Tok;
  unsigned long long H = 0;
  Fields >> Tok;
  if (Tok == "prepared" && Fields >> H) {
    Handle = H;
    return true;
  }
  if (Tok != "error")
    return false;
  Err = Line.size() > 6 ? Line.substr(6) : "unspecified error";
  return true;
}

bool WireClient::exec(std::uint64_t Handle, std::int64_t DeadlineMs,
                      std::uint64_t Rid, Response &Out) {
  return S.writeAll(support::strFormat(
             "exec %llu %lld %llu\n",
             static_cast<unsigned long long>(Handle),
             static_cast<long long>(DeadlineMs),
             static_cast<unsigned long long>(Rid))) &&
         answer(Rid, Out);
}

bool WireClient::pexec(std::uint64_t Handle, std::size_t Begin,
                       std::size_t Len, std::int64_t DeadlineMs,
                       std::uint64_t Rid, Response &Out) {
  return S.writeAll(support::strFormat(
             "pexec %llu %zu %zu %lld %llu\n",
             static_cast<unsigned long long>(Handle), Begin, Len,
             static_cast<long long>(DeadlineMs),
             static_cast<unsigned long long>(Rid))) &&
         answer(Rid, Out);
}

bool WireClient::answer(std::uint64_t Rid, Response &Out) {
  Out = Response();
  std::string Line;
  if (!S.readLine(Line))
    return false;
  std::istringstream Fields(Line);
  std::string Tok;
  unsigned long long Id = 0;
  if (!(Fields >> Tok >> Id) || (Rid && Id != Rid))
    return false; // torn frame, or a stale answer from a lost exchange
  Out.Id = Id;
  if (Tok == "timeout" || Tok == "shed") {
    Out.St = Tok == "timeout" ? Status::Timeout : Status::Shed;
    return true;
  }
  if (Tok == "error") {
    std::getline(Fields >> std::ws, Out.Message);
    return true;
  }
  std::string Shape, Degraded, Native, Queue, Run;
  std::size_t NRows = 0;
  if (Tok != "result" ||
      !(Fields >> Shape >> NRows >> Degraded >> Native >> Queue >> Run) ||
      (Shape != "scalar" && Shape != "rows") ||
      Queue.rfind("queue_us=", 0) != 0 || Run.rfind("run_us=", 0) != 0)
    return false;
  Out.Degraded = Degraded == "degraded=1";
  Out.NativePlan = Native == "native=1";
  Out.QueueMicros = std::atof(Queue.c_str() + 9);
  Out.RunMicros = std::atof(Run.c_str() + 7);

  auto Arena = std::make_shared<std::deque<std::vector<double>>>();
  std::vector<expr::Value> Rows;
  for (std::size_t I = 0; I != NRows; ++I) {
    expr::Value V;
    if (!S.readLine(Line) || Line.rfind("row ", 0) != 0 ||
        !parseWireValue(Line.substr(4), V, *Arena))
      return false;
    Rows.push_back(V);
  }
  if (!S.readLine(Line) || Line != "done")
    return false;
  Out.St = Status::Ok;
  Out.Result = QueryResult(Shape == "scalar", std::move(Rows),
                           std::move(Arena));
  return true;
}

bool WireClient::stats(std::string &Json) {
  if (!S.writeAll("stats\n"))
    return false;
  std::string Line;
  if (!S.readLine(Line) || Line.rfind("stats ", 0) != 0)
    return false;
  Json = Line.substr(6);
  return true;
}

bool WireClient::profile(std::uint64_t Handle, std::string &Json,
                         std::string *Err) {
  if (!S.writeAll(support::strFormat(
          "profile %llu\n", static_cast<unsigned long long>(Handle)))) {
    if (Err)
      *Err = "write failed";
    return false;
  }
  std::string Line;
  if (!S.readLine(Line)) {
    if (Err)
      *Err = "connection closed";
    return false;
  }
  if (Line.rfind("profile ", 0) == 0) {
    Json = Line.substr(8);
    return true;
  }
  if (Err)
    *Err = Line.rfind("error ", 0) == 0 ? Line.substr(6)
                                        : "unexpected frame: " + Line;
  return false;
}

bool WireClient::metrics(std::string &Text) {
  Text.clear();
  if (!S.writeAll("metrics\n"))
    return false;
  std::string Line;
  if (!S.readLine(Line) || Line.rfind("metrics ", 0) != 0)
    return false;
  std::size_t NLines = 0;
  std::istringstream Fields(Line.substr(8));
  if (!(Fields >> NLines))
    return false;
  for (std::size_t I = 0; I != NLines; ++I) {
    if (!S.readLine(Line))
      return false;
    Text += Line;
    Text += '\n';
  }
  return true;
}

void WireClient::quit() {
  if (!S.writeAll("quit\n"))
    return;
  std::string Line;
  S.readLine(Line); // bye
}
