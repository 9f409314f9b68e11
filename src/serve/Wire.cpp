//===- serve/Wire.cpp - Line protocol for steno_serve ----------*- C++ -*-===//

#include "serve/Wire.h"

#include "obs/Metrics.h"
#include "obs/Profile.h"
#include "obs/Trace.h"
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

/// Appends the wireValue text of row \p Row's cells of type \p Ty, from
/// column \p C of \p R on, read from the columns; advances \p C past
/// them. Doubles print as %a hexfloats, which strtod reads back bit for
/// bit, ±inf included (a NaN keeps its sign, not its payload).
void encodeCells(const QueryResult &R, std::int64_t Row, const expr::Type &Ty,
                 std::size_t &C, std::string &Out) {
  char Buf[64];
  switch (Ty.kind()) {
  case expr::TypeKind::Bool:
    Out += R.int64Column(C++)[Row] ? "b 1" : "b 0";
    return;
  case expr::TypeKind::Int64:
    Out += "i ";
    Out += std::to_string(R.int64Column(C++)[Row]);
    return;
  case expr::TypeKind::Double:
    std::snprintf(Buf, sizeof Buf, "d %a", R.doubleColumn(C++)[Row]);
    Out += Buf;
    return;
  case expr::TypeKind::Vec: {
    std::span<const std::int64_t> Ends = R.int64Column(C);
    std::span<const double> Data = R.doubleColumn(C + 1);
    C += 2;
    std::int64_t Begin = Row ? Ends[Row - 1] : 0;
    Out += "v ";
    Out += std::to_string(Ends[Row] - Begin);
    for (std::int64_t I = Begin; I != Ends[Row]; ++I) {
      std::snprintf(Buf, sizeof Buf, " %a", Data[I]);
      Out += Buf;
    }
    return;
  }
  case expr::TypeKind::Pair:
    Out += "p ";
    encodeCells(R, Row, *Ty.first(), C, Out);
    Out += ' ';
    encodeCells(R, Row, *Ty.second(), C, Out);
    return;
  }
}

/// Token-stream decoder for wireValue output. istream's operator>> does
/// not reliably accept hexfloats, so numbers go through strtod/strtoll. A
/// decoded vec views its elements in Vecs: growing Vecs moves each vector
/// without moving its elements.
struct ValueDecoder {
  std::istringstream In;
  std::vector<std::vector<double>> Vecs;

  explicit ValueDecoder(const std::string &S) : In(S) {}

  /// Reads the next token into \p Out; false unless \p Parse takes it
  /// whole.
  template <typename T, typename ParseFn> bool number(T &Out, ParseFn Parse) {
    std::string Tok;
    if (!(In >> Tok))
      return false;
    char *End = nullptr;
    Out = static_cast<T>(Parse(Tok.c_str(), &End));
    return End != Tok.c_str() && *End == '\0';
  }
  bool int64(std::int64_t &Out) {
    return number(Out, [](const char *C, char **E) {
      return std::strtoll(C, E, 10);
    });
  }
  bool dbl(double &Out) { return number(Out, std::strtod); }

  bool decode(expr::Value &Out) {
    std::string Tag;
    if (!(In >> Tag))
      return false;
    std::int64_t I = 0;
    double D = 0;
    if (Tag == "b" || Tag == "i") {
      if (!int64(I) || (Tag == "b" && I != 0 && I != 1))
        return false;
      Out = Tag == "b" ? expr::Value(I == 1) : expr::Value(I);
      return true;
    }
    if (Tag == "d") {
      if (!dbl(D))
        return false;
      Out = expr::Value(D);
      return true;
    }
    if (Tag == "v") {
      if (!int64(I) || I < 0)
        return false;
      // No reserve: the count is outside input, and a value whose count
      // outruns its elements fails when they run out.
      std::vector<double> &Vec = Vecs.emplace_back();
      for (; I != 0; --I) {
        if (!dbl(D))
          return false;
        Vec.push_back(D);
      }
      Out = expr::Value(expr::VecView{
          Vec.data(), static_cast<std::int64_t>(Vec.size())});
      return true;
    }
    expr::Value First, Second;
    if (Tag != "p" || !decode(First) || !decode(Second))
      return false;
    Out = expr::Value::makePair(First, Second);
    return true;
  }
};

} // namespace

std::string serve::wireValue(const expr::Value &V) {
  ResultBuilder Row(false);
  Row.add(V);
  QueryResult R = Row.finish();
  std::string Out;
  std::size_t C = 0;
  encodeCells(R, 0, *R.rowType(), C, Out);
  return Out;
}

bool serve::parseWireValue(const std::string &Enc, ResultBuilder &Out,
                           std::string *Err) {
  ValueDecoder D(Enc);
  expr::Value V;
  if (!D.decode(V)) {
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
  if (!Out.fits(V)) {
    if (Err)
      *Err = "wire value of another row type: " + Enc;
    return false;
  }
  Out.add(V);
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
  const QueryResult &Res = R.Result;
  std::string Out = support::strFormat(
      "result %llu %s %lld degraded=%d native=%d queue_us=%.1f "
      "run_us=%.1f\n",
      Id, Res.isScalar() ? "scalar" : "rows",
      static_cast<long long>(Res.numRows()), R.Degraded ? 1 : 0,
      R.NativePlan ? 1 : 0, R.QueueMicros, R.RunMicros);
  for (std::int64_t Row = 0; Row != Res.numRows(); ++Row) {
    Out += "row ";
    std::size_t C = 0;
    encodeCells(Res, Row, *Res.rowType(), C, Out);
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
          "with --profile)",
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
/// The serve.exec span records both: a router's rid then leads to the
/// serve.request span of the worker's request id.
Response execRequest(const Frontend &F, bool Partial,
                     std::istringstream &Fields, std::size_t Handles) {
  obs::Span Sp("serve.exec");
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
    Sp.arg("request_id", static_cast<std::int64_t>(R.Id));
  }
  if (Rid) {
    Sp.arg("rid", static_cast<std::int64_t>(Rid));
    R.Id = Rid;
  }
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

  // The frame does not spell the row type: the builder takes it from the
  // first row.
  ResultBuilder Rows(Shape == "scalar");
  for (std::size_t I = 0; I != NRows; ++I)
    if (!S.readLine(Line) || Line.rfind("row ", 0) != 0 ||
        !parseWireValue(Line.substr(4), Rows))
      return false;
  if (!S.readLine(Line) || Line != "done")
    return false;
  Out.St = Status::Ok;
  Out.Result = Rows.finish();
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
