//===- serve/Wire.h - Line protocol for steno_serve ------------*- C++ -*-===//
//
// Part of the Steno/C++ reproduction of Murray, Isard & Yu,
// "Steno: Automatic Optimization of Declarative Queries" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The textual protocol steno_serve and steno_router speak over a local
/// (Unix-domain) socket. Line-oriented, human-debuggable with `nc -U`:
///
///   client                              server
///   ------                              ------
///   prepare
///   steno-fuzz v1
///   source 0 double 64 uniform 7
///   op select square 0
///   op agg sum 0
///   end
///                                       prepared 0
///   exec 0 250
///                                       result <id> scalar 1 degraded=1
///                                           native=0 queue_us=.. run_us=..
///                                       row d 0x1.98e26aa1f0beep+17
///                                       done
///   stats
///                                       stats {"accepted":1,...,
///                                           "latency_us":{"p50":..,...}}
///   profile 0
///                                       profile {"plan":"0x..","ops":[..]}
///   metrics
///                                       metrics <nlines>
///                                       <nlines> lines of Prometheus text
///   quit
///                                       bye
///
/// The spec payload is framed by the grammar's own `end` terminator, so
/// no byte counting is needed. A rejected prepare, an unknown command or
/// a malformed `profile` answers a single `error <message>` line
/// (embedded newlines become "; "). A server reads at most
/// MaxRequestLine bytes per line and MaxSpecFrame bytes of spec per
/// prepare; past either it answers one `error <message>` line and closes
/// the connection. Answers a client reads are not bounded.
///
/// **One answer frame.** Both execution verbs,
///
///   exec <handle> [deadline_ms [rid]]                 (the whole query)
///   pexec <handle> <begin> <len> [deadline_ms [rid]]  (a shard's §6
///       vertex over elements [begin, begin+len) of source slot 0)
///
/// answer with exactly one of
///
///   result <id> scalar|rows <n> degraded=<0|1> native=<0|1>
///       queue_us=<f> run_us=<f>, then <n> x "row <wireValue>", then "done"
///   timeout <id>  |  shed <id>  |  error <id> <message>
///
/// where <id> echoes the client's rid, or is the service's request id
/// when the client sent none (0: the request never reached the service).
/// The admission-control statuses map onto the wire one-to-one. Rows use
/// the exact wireValue codec (hexfloat doubles), so a client decodes the
/// bit-exact QueryResult the service computed (a NaN keeps its sign, not
/// its payload): the shard router combines partials arithmetically and
/// re-renders whole results for its own client. The server writes each
/// row straight from the result's typed columns; the client decodes the
/// rows into columns through a ResultBuilder, which takes the row type
/// from the first row, so an answer with no rows has no row type. The
/// router keys its exactly-once retry protocol on the echoed rid
/// (DESIGN.md §5k).
///
/// `profile` answers with the accumulated obs::ProfileStore entry for the
/// handle's plan (an error when the service runs unprofiled or the plan
/// never executed); `metrics` dumps the whole obs registry plus per-plan
/// profiles in Prometheus text exposition format, line-count framed. The
/// router serves prepare, exec, stats, metrics and quit; `pexec` and
/// `profile` are unknown commands there.
///
/// The protocol logic lives here (not in the tools) so the framing and a
/// full socketpair round trip are unit-testable without a real listener.
///
//===----------------------------------------------------------------------===//

#ifndef STENO_SERVE_WIRE_H
#define STENO_SERVE_WIRE_H

#include "serve/Serve.h"

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace steno {
namespace serve {

/// Buffered line I/O over a file descriptor (socket or pipe). Does not
/// own the descriptor.
class FdStream {
public:
  /// \p MaxLine bounds the bytes one line may hold before its '\n'.
  explicit FdStream(int Fd, std::size_t MaxLine = SIZE_MAX)
      : Fd(Fd), MaxLine(MaxLine) {}

  /// Reads up to the next '\n' (consumed, not returned; a trailing '\r'
  /// is stripped). Returns false on EOF or error with nothing buffered,
  /// and on a line longer than the bound (then tooLong() is true).
  bool readLine(std::string &Line);

  /// True once readLine() met a line longer than the bound.
  bool tooLong() const { return TooLong; }

  /// Writes all of \p Bytes. Returns false on error.
  bool writeAll(const std::string &Bytes);

  int fd() const { return Fd; }

private:
  int Fd;
  std::size_t MaxLine;
  bool TooLong = false;
  std::string Buf;
  std::size_t Pos = 0;
};

/// Renders an exec/pexec answer (the one frame documented above), with
/// R.Id as the echoed id. Exposed for tests.
std::string renderResponse(const Response &R);

/// Exact wire encoding of one value: space-separated prefix form —
/// `b 0|1`, `i <dec>`, `d <hexfloat|nan|inf|-inf>`, `v <len> <d>...`,
/// `p <enc> <enc>` (recursive). Hexfloat (%a / strtod) round-trips every
/// double bit-exactly, which fuzzValueStr's %.17g does not guarantee for
/// the combine arithmetic downstream.
std::string wireValue(const expr::Value &V);

/// Decodes wireValue output and adds it to \p Out as a row, its vec
/// payloads copied into the builder's columns. False with \p Err filled
/// (and nothing added) on malformed input, trailing garbage, or a value
/// of another type than the rows already added.
bool parseWireValue(const std::string &Enc, ResultBuilder &Out,
                    std::string *Err = nullptr);

/// The verbs one client connection runs: a QueryService session's in
/// steno_serve, the ShardRouter's in steno_router. serveConnection parses
/// each request and renders its answer; these run it. Handles are
/// connection-local numbers 0, 1, ... in prepare order, kept by whoever
/// built the Frontend. An empty optional verb answers `unknown command`.
struct Frontend {
  /// Prepares \p Spec as the next handle; false with \p Err filled when
  /// the spec is rejected.
  std::function<bool(const std::string &Spec, std::string &Err)> Prepare;
  /// exec: runs handle \p H whole.
  std::function<Response(std::size_t H, std::chrono::milliseconds Deadline)>
      Execute;
  /// The `stats` answer: one JSON object.
  std::function<std::string()> Stats;
  /// The deadline of an exec or pexec that names none.
  std::chrono::milliseconds DefaultDeadline{5000};
  /// pexec (optional): runs handle \p H's §6 vertex over [Begin,
  /// Begin+Len) of source slot 0.
  std::function<Response(std::size_t H, std::size_t Begin, std::size_t Len,
                         std::chrono::milliseconds Deadline)>
      ExecutePartial;
  /// profile (optional): handle \p H's profile JSON, or false with \p Err.
  std::function<bool(std::size_t H, std::string &Json, std::string &Err)>
      Profile;
};

/// The verbs of a fresh Session on \p Svc: prepare, exec, pexec, stats
/// and profile.
Frontend sessionFrontend(QueryService &Svc);

/// What one client may send a server: bytes per request line, and bytes
/// of spec text per prepare frame.
constexpr std::size_t MaxRequestLine = std::size_t{64} << 10;
constexpr std::size_t MaxSpecFrame = std::size_t{1} << 20;

/// Serves one connection on \p Fd with \p F until EOF, `quit`, or a
/// write failure. A client that sends a longer line or spec frame than
/// the bounds above gets one `error` frame, and the connection is shut
/// down. Blocking; run one thread per connection.
void serveConnection(const Frontend &F, int Fd);

/// Listens on the Unix-domain socket \p SocketPath (replacing a stale
/// one) and serves each accepted connection on its own thread with a
/// Frontend from \p NewConnection, until SIGINT or SIGTERM closes the
/// listening socket. Then joins the connection threads, unlinks the
/// socket and returns true. Installs the process's SIGINT/SIGTERM
/// handlers and ignores SIGPIPE, so one listener runs per process. False,
/// after a message prefixed with \p Tool, when the socket cannot be set
/// up.
bool listenAndServe(const std::string &SocketPath, const char *Tool,
                    const std::function<Frontend()> &NewConnection);

/// Client half of the protocol, for the shard router's sub-requests and
/// the end-to-end tests. prepare, exec, pexec, stats and metrics return
/// false only when the exchange broke (write failure, EOF, a torn or
/// stale frame); the connection is then unusable.
class WireClient {
public:
  explicit WireClient(int Fd) : S(Fd) {}

  /// Sends a prepare frame. On `prepared` sets \p Handle and clears
  /// \p Err; on `error` (a rejected spec) fills \p Err.
  bool prepare(const std::string &SpecText, std::uint64_t &Handle,
               std::string &Err);

  /// Sends `exec <handle> <deadline_ms> <rid>` (a negative deadline means
  /// the server's default; rid 0 means none) and decodes the answer into
  /// \p Out: timeout/shed/error statuses are completed exchanges. A
  /// nonzero \p Rid must come back echoed, or the answer is stale.
  bool exec(std::uint64_t Handle, std::int64_t DeadlineMs, std::uint64_t Rid,
            Response &Out);

  /// Sends `pexec <handle> <begin> <len> <deadline_ms> <rid>`: the
  /// handle's §6 vertex over the range, answered as exec is.
  bool pexec(std::uint64_t Handle, std::size_t Begin, std::size_t Len,
             std::int64_t DeadlineMs, std::uint64_t Rid, Response &Out);

  /// Fetches the service stats line (one JSON object).
  bool stats(std::string &Json);

  /// Fetches the accumulated per-operator profile of \p Handle's plan as
  /// one JSON object (obs::profileJson). False with \p Err filled when
  /// the service is unprofiled, the handle is unknown, or the plan never
  /// executed.
  bool profile(std::uint64_t Handle, std::string &Json,
               std::string *Err = nullptr);

  /// Fetches the Prometheus text exposition of the metrics registry and
  /// all query profiles.
  bool metrics(std::string &Text);

  /// Sends `quit` and reads the `bye`.
  void quit();

private:
  /// Reads one exec/pexec answer into \p Out.
  bool answer(std::uint64_t Rid, Response &Out);

  FdStream S;
};

} // namespace serve
} // namespace steno

#endif // STENO_SERVE_WIRE_H
