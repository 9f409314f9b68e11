//===- tests/serve_test.cpp - Query service & wire protocol ----*- C++ -*-===//
//
// Coverage for the serving layer (serve/Serve.h, serve/Wire.h):
// session lifecycle and prepared-handle memoization, QueryCache sharing
// across sessions, deadline timeouts and load shedding made
// deterministic via ServeOptions::ExecHook, the interpreter-degradation
// path (saturated compile pool), the background native swap, a
// multi-client stress run asserting exactly one response per request
// against the reference oracle, a swap soak that executes through the
// mid-stream plan swap, a handle's whole plan-slot life (interp v1 ->
// native v1 -> native feedback v2) under load, the fuzz corpus replayed
// through the service, and the line protocol (its one answer frame
// rendered and decoded, and a session end-to-end) over a socketpair. The
// stress and soak tests are in the TSan CI job.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Diff.h"
#include "serve/Serve.h"
#include "serve/Wire.h"
#include "steno/RefExec.h"

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <mutex>
#include <sstream>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <unordered_set>
#include <vector>

#include "gtest/gtest.h"

using namespace steno;
using namespace steno::serve;

namespace {

//===--------------------------------------------------------------------===//
// Helpers
//===--------------------------------------------------------------------===//

/// A one-way latch the ExecHook tests park workers on.
class Gate {
public:
  void open() {
    {
      std::lock_guard<std::mutex> Lock(M);
      Opened = true;
    }
    Cv.notify_all();
  }
  void wait() {
    std::unique_lock<std::mutex> Lock(M);
    Cv.wait(Lock, [&] { return Opened; });
  }

private:
  std::mutex M;
  std::condition_variable Cv;
  bool Opened = false;
};

fuzz::QuerySpec sumSqSpec(std::uint32_t Count = 48, std::uint64_t Seed = 7) {
  fuzz::QuerySpec S;
  S.Sources.push_back(
      {0, fuzz::ElemTy::Double, fuzz::DataClass::Uniform, Count, Seed});
  fuzz::OpSpec Sel;
  Sel.K = fuzz::OpK::Select;
  Sel.T = fuzz::TransTmpl::Square;
  fuzz::OpSpec Agg;
  Agg.K = fuzz::OpK::Agg;
  Agg.A = fuzz::AggKind::Sum;
  S.Ops = {Sel, Agg};
  return S;
}

fuzz::QuerySpec whereCountSpec() {
  fuzz::QuerySpec S;
  S.Sources.push_back(
      {0, fuzz::ElemTy::Double, fuzz::DataClass::Skewed, 48, 21});
  fuzz::OpSpec Wh;
  Wh.K = fuzz::OpK::Where;
  Wh.P = fuzz::PredTmpl::GtC;
  Wh.DArg = 5.0;
  fuzz::OpSpec Agg;
  Agg.K = fuzz::OpK::Agg;
  Agg.A = fuzz::AggKind::Count;
  S.Ops = {Wh, Agg};
  return S;
}

fuzz::QuerySpec orderBySpec() {
  fuzz::QuerySpec S;
  S.Sources.push_back(
      {0, fuzz::ElemTy::Double, fuzz::DataClass::Uniform, 32, 23});
  fuzz::OpSpec Ord;
  Ord.K = fuzz::OpK::OrderBy;
  Ord.Key = fuzz::KeyTmpl::Abs;
  fuzz::OpSpec Arr;
  Arr.K = fuzz::OpK::ToArray;
  S.Ops = {Ord, Arr};
  return S;
}

std::string specText(const fuzz::QuerySpec &S) {
  return fuzz::serializeSpec(S);
}

bool resultsMatch(const QueryResult &Got, const QueryResult &Want) {
  if (Got.isScalar() != Want.isScalar() ||
      Got.rows().size() != Want.rows().size())
    return false;
  for (std::size_t I = 0; I != Got.rows().size(); ++I)
    if (!fuzz::fuzzValueNear(Got.rows()[I], Want.rows()[I]))
      return false;
  return true;
}

QueryResult reference(const PreparedHandle &P) {
  return runReference(P->query(), P->bindings());
}

/// Bit-exact equality: every row's exact wire encoding agrees.
bool sameBits(const QueryResult &Got, const QueryResult &Want) {
  if (Got.isScalar() != Want.isScalar() ||
      Got.rows().size() != Want.rows().size())
    return false;
  for (std::size_t I = 0; I != Got.rows().size(); ++I)
    if (wireValue(Got.rows()[I]) != wireValue(Want.rows()[I]))
      return false;
  return true;
}

/// Service options for tests that must never invoke the external
/// compiler: interpreter plans only.
ServeOptions interpOnly() {
  ServeOptions O;
  O.BackgroundRecompile = false;
  return O;
}

} // namespace

//===--------------------------------------------------------------------===//
// Session lifecycle & prepared handles
//===--------------------------------------------------------------------===//

TEST(ServeSession, DistinctIdsAndPreparedMemoization) {
  QueryService Svc(interpOnly());
  auto S1 = Svc.openSession();
  auto S2 = Svc.openSession();
  EXPECT_NE(S1->id(), S2->id());

  std::string Err;
  std::string Text = specText(sumSqSpec());
  PreparedHandle A = S1->prepare(Text, &Err);
  ASSERT_TRUE(A) << Err;
  PreparedHandle B = S1->prepare(Text, &Err);
  EXPECT_EQ(A.get(), B.get())
      << "re-preparing the same text in one session returns one handle";
  EXPECT_EQ(Svc.stats().Sessions, 2u);
  EXPECT_EQ(Svc.stats().Prepares, 1u) << "memoized, not re-prepared";
}

TEST(ServeSession, MalformedSpecIsACleanError) {
  QueryService Svc(interpOnly());
  auto Sess = Svc.openSession();
  std::string Err;
  EXPECT_EQ(Sess->prepare("not a spec\n", &Err), nullptr);
  EXPECT_FALSE(Err.empty());
  // Grammar errors too (unknown op), not just a missing header.
  EXPECT_EQ(Sess->prepare("steno-fuzz v1\nsource 0 double 4 uniform 1\n"
                          "op frobnicate\nend\n",
                          &Err),
            nullptr);
  Err.clear();
  EXPECT_EQ(Sess->prepare("garbage\n", &Err), nullptr);
  EXPECT_FALSE(Err.empty());
  EXPECT_EQ(Svc.stats().Errors, 0u)
      << "prepare failures are not request errors";
}

TEST(ServeSession, ExecuteNullHandleErrors) {
  QueryService Svc(interpOnly());
  auto Sess = Svc.openSession();
  Response R = Sess->execute(nullptr);
  EXPECT_EQ(R.St, Status::Error);
  EXPECT_EQ(Svc.stats().Errors, 1u);
}

TEST(ServePrepare, SpecOverTheRowCapFailsBeforeBuilding) {
  QueryService Svc(interpOnly());
  std::string Err;
  // 2^32 - 1 doubles would be a 32 GB allocation.
  EXPECT_EQ(Svc.prepare("steno-fuzz v1\nsource 0 double 4294967295 uniform 1\n"
                        "op agg sum 0\nend\n",
                        &Err),
            nullptr);
  EXPECT_NE(Err.find(std::to_string(fuzz::MaxSpecRows)), std::string::npos)
      << Err;
  EXPECT_EQ(Svc.stats().Prepares, 0u);
}

TEST(ServePrepare, StructurallyEqualSpecsShareOneCachedPlan) {
  QueryService Svc(interpOnly());
  auto S1 = Svc.openSession();
  auto S2 = Svc.openSession();
  std::string Err;
  // Same pipeline text prepared from two different sessions.
  PreparedHandle A = S1->prepare(specText(sumSqSpec()), &Err);
  PreparedHandle B = S2->prepare(specText(sumSqSpec()), &Err);
  ASSERT_TRUE(A && B) << Err;
  EXPECT_NE(A.get(), B.get()) << "distinct handles";
  EXPECT_EQ(Svc.cache().misses(), 1u) << "one compile";
  EXPECT_EQ(Svc.cache().hits(), 1u) << "second prepare hit the cache";
  EXPECT_EQ(Svc.cache().size(), 1u);
  // And both run to the same (correct) answer.
  QueryResult Want = reference(A);
  EXPECT_TRUE(resultsMatch(S1->execute(A).Result, Want));
  EXPECT_TRUE(resultsMatch(S2->execute(B).Result, Want));
}

//===--------------------------------------------------------------------===//
// Admission control: deadlines and load shedding
//===--------------------------------------------------------------------===//

TEST(ServeAdmission, QueuedRequestTimesOutPastDeadline) {
  Gate G;
  std::atomic<int> Parked{0};
  ServeOptions O = interpOnly();
  O.Workers = 1; // one worker: the gate serializes the queue behind it
  O.ExecHook = [&G, &Parked] {
    ++Parked;
    G.wait();
  };
  QueryService Svc(O);
  auto Sess = Svc.openSession();
  std::string Err;
  PreparedHandle P = Sess->prepare(specText(sumSqSpec()), &Err);
  ASSERT_TRUE(P) << Err;

  std::thread Blocked([&] {
    Response R = Sess->execute(P, std::chrono::milliseconds(10000));
    EXPECT_EQ(R.St, Status::Ok);
  });
  // Wait until the first request holds the one worker (an admitted
  // request may not have reached the pool yet), then queue one with a
  // deadline that will expire while it waits behind the parked worker.
  while (Parked.load() < 1)
    std::this_thread::yield();
  std::thread Doomed([&] {
    Response R = Sess->execute(P, std::chrono::milliseconds(30));
    EXPECT_EQ(R.St, Status::Timeout);
    EXPECT_NE(R.Id, 0u);
  });
  while (Svc.stats().QueueDepth < 2)
    std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  G.open();
  Blocked.join();
  Doomed.join();
  QueryService::Stats S = Svc.stats();
  EXPECT_EQ(S.Timeouts, 1u);
  EXPECT_EQ(S.Ok, 1u);
  EXPECT_EQ(S.QueueDepth, 0);
}

TEST(ServeAdmission, FullQueueSheds) {
  Gate G;
  ServeOptions O = interpOnly();
  O.Workers = 1;
  O.MaxQueue = 2;
  O.ExecHook = [&G] { G.wait(); };
  QueryService Svc(O);
  auto Sess = Svc.openSession();
  std::string Err;
  PreparedHandle P = Sess->prepare(specText(sumSqSpec()), &Err);
  ASSERT_TRUE(P) << Err;

  std::vector<std::thread> Occupants;
  for (int I = 0; I < 2; ++I)
    Occupants.emplace_back([&] {
      Response R = Sess->execute(P, std::chrono::milliseconds(10000));
      EXPECT_EQ(R.St, Status::Ok);
    });
  while (Svc.stats().QueueDepth < 2)
    std::this_thread::yield();

  // Queue is at capacity: the next request is rejected immediately, on
  // the caller's thread, without waiting for the gate.
  Response Shed = Sess->execute(P, std::chrono::milliseconds(10000));
  EXPECT_EQ(Shed.St, Status::Shed);
  EXPECT_NE(Shed.Id, 0u);

  G.open();
  for (std::thread &T : Occupants)
    T.join();
  QueryService::Stats S = Svc.stats();
  EXPECT_EQ(S.Shed, 1u);
  EXPECT_EQ(S.Ok, 2u);
  EXPECT_EQ(S.Accepted, 2u) << "the shed request was never admitted";
}

//===--------------------------------------------------------------------===//
// Graceful degradation & the background native swap
//===--------------------------------------------------------------------===//

TEST(ServeDegrade, SaturatedCompileQueueStaysInterpretedAndCorrect) {
  ServeOptions O;
  O.BackgroundRecompile = true;
  O.MaxCompileQueue = 0; // a permanently saturated compiler
  QueryService Svc(O);
  auto Sess = Svc.openSession();
  std::string Err;
  PreparedHandle P = Sess->prepare(specText(sumSqSpec()), &Err);
  ASSERT_TRUE(P) << Err;
  EXPECT_FALSE(P->nativeReady());

  QueryResult Want = reference(P);
  for (int I = 0; I < 3; ++I) {
    Response R = Sess->execute(P);
    ASSERT_EQ(R.St, Status::Ok);
    EXPECT_TRUE(R.Degraded) << "interpreted while a native plan is wanted";
    EXPECT_FALSE(R.NativePlan);
    EXPECT_TRUE(resultsMatch(R.Result, Want));
  }
  QueryService::Stats S = Svc.stats();
  EXPECT_GE(S.RecompilesSaturated, 1u);
  EXPECT_EQ(S.RecompilesDone, 0u);
  EXPECT_EQ(S.DegradedRuns, 3u);
  EXPECT_FALSE(P->nativeReady());
}

TEST(ServeDegrade, BackgroundRecompileSwapsInTheNativePlan) {
  ServeOptions O; // recompile on, real compile queue
  QueryService Svc(O);
  auto Sess = Svc.openSession();
  std::string Err;
  PreparedHandle P = Sess->prepare(specText(sumSqSpec()), &Err);
  ASSERT_TRUE(P) << Err;

  QueryResult Want = reference(P);
  // First runs may be degraded (compile in flight); all must be correct.
  Response Early = Sess->execute(P);
  ASSERT_EQ(Early.St, Status::Ok);
  EXPECT_TRUE(resultsMatch(Early.Result, Want));

  Svc.drainRecompiles();
  ASSERT_TRUE(P->nativeReady()) << "compile completed after drain";
  EXPECT_GT(P->nativeCompileMillis(), 0.0);

  Response Late = Sess->execute(P);
  ASSERT_EQ(Late.St, Status::Ok);
  EXPECT_TRUE(Late.NativePlan) << "post-swap runs take the native plan";
  EXPECT_FALSE(Late.Degraded);
  EXPECT_TRUE(resultsMatch(Late.Result, Want));
  EXPECT_EQ(Svc.stats().RecompilesDone, 1u);
}

TEST(ServeDegrade, EqualQueriesShareOneNativeCompile) {
  ServeOptions O;
  QueryService Svc(O);
  auto S1 = Svc.openSession();
  auto S2 = Svc.openSession();
  std::string Err;
  PreparedHandle A = S1->prepare(specText(sumSqSpec()), &Err);
  ASSERT_TRUE(A) << Err;
  Svc.drainRecompiles();
  ASSERT_TRUE(A->nativeReady());
  // A structurally equal prepare after the first swap: the scheduled
  // recompile resolves from the cache without a second compiler run.
  PreparedHandle B = S2->prepare(specText(sumSqSpec()), &Err);
  ASSERT_TRUE(B) << Err;
  Svc.drainRecompiles();
  EXPECT_TRUE(B->nativeReady());
  QueryService::Stats S = Svc.stats();
  EXPECT_EQ(S.RecompilesDone, 2u) << "both handles upgraded";
  EXPECT_EQ(Svc.cache().duplicateCompilesDropped(), 0u);
  Response R = S2->execute(B);
  EXPECT_TRUE(R.NativePlan);
  EXPECT_TRUE(resultsMatch(R.Result, reference(B)));
}

//===--------------------------------------------------------------------===//
// Stress: N clients, exactly one response per request, oracle-correct
//===--------------------------------------------------------------------===//

TEST(ServeStress, EightClientsThousandRequestsEach) {
  constexpr unsigned Clients = 8;
  constexpr unsigned PerClient = 1000;
  ServeOptions O;
  O.Workers = 4;
  O.MaxQueue = 64; // > Clients: a closed loop can never shed
  QueryService Svc(O);

  struct SpecEntry {
    std::string Text;
    QueryResult Expected;
  };
  std::vector<SpecEntry> Mix;
  {
    auto Setup = Svc.openSession();
    std::string Err;
    for (const fuzz::QuerySpec &S :
         {sumSqSpec(), whereCountSpec(), orderBySpec()}) {
      SpecEntry E;
      E.Text = specText(S);
      PreparedHandle P = Setup->prepare(E.Text, &Err);
      ASSERT_TRUE(P) << Err;
      E.Expected = reference(P);
      Mix.push_back(std::move(E));
    }
  }

  std::atomic<std::uint64_t> Mismatches{0}, NonOk{0};
  std::vector<std::vector<std::uint64_t>> Ids(Clients);
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < Clients; ++C) {
    Threads.emplace_back([&, C] {
      auto Sess = Svc.openSession();
      std::string Err;
      std::vector<PreparedHandle> Handles;
      for (const SpecEntry &E : Mix) {
        PreparedHandle P = Sess->prepare(E.Text, &Err);
        if (!P)
          return; // counted below as missing responses
        Handles.push_back(P);
      }
      for (unsigned I = 0; I < PerClient; ++I) {
        std::size_t Which = (C + I) % Mix.size();
        Response R = Sess->execute(Handles[Which]);
        Ids[C].push_back(R.Id);
        if (R.St != Status::Ok) {
          NonOk.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (!resultsMatch(R.Result, Mix[Which].Expected))
          Mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();

  // Exactly one response per request, every id unique, zero mismatches.
  std::unordered_set<std::uint64_t> Unique;
  std::uint64_t Total = 0;
  for (const auto &V : Ids) {
    EXPECT_EQ(V.size(), PerClient) << "one response per request";
    Total += V.size();
    for (std::uint64_t Id : V) {
      EXPECT_NE(Id, 0u);
      EXPECT_TRUE(Unique.insert(Id).second) << "duplicate response id";
    }
  }
  EXPECT_EQ(Total, Clients * PerClient);
  EXPECT_EQ(Mismatches.load(), 0u);
  EXPECT_EQ(NonOk.load(), 0u);
  QueryService::Stats S = Svc.stats();
  EXPECT_EQ(S.Ok, Clients * PerClient);
  EXPECT_EQ(S.Accepted, Clients * PerClient);
  EXPECT_EQ(S.QueueDepth, 0);
}

//===--------------------------------------------------------------------===//
// Soak: executing through the mid-stream plan swap
//===--------------------------------------------------------------------===//

TEST(ServeSoak, PlanSwapMidStreamKeepsResultsIdentical) {
  constexpr unsigned Threads = 4;
  ServeOptions O;
  O.BackgroundRecompile = false; // we trigger the swap by hand, mid-run
  O.Workers = 4;
  O.MaxQueue = 64;
  QueryService Svc(O);
  auto Sess = Svc.openSession();
  std::string Err;
  PreparedHandle P = Sess->prepare(specText(sumSqSpec(64, 91)), &Err);
  ASSERT_TRUE(P) << Err;
  QueryResult Want = reference(P);

  // Runners hammer the handle until told to stop; the stop lands only
  // after the swap, so the stream provably spans interp -> native.
  std::atomic<bool> Stop{false};
  std::atomic<std::uint64_t> Sent{0}, Mismatches{0}, NonOk{0},
      NativeRuns{0}, InterpRuns{0};
  std::vector<std::thread> Runners;
  for (unsigned T = 0; T < Threads; ++T) {
    Runners.emplace_back([&] {
      auto Mine = Svc.openSession();
      while (!Stop.load(std::memory_order_relaxed)) {
        Sent.fetch_add(1, std::memory_order_relaxed);
        Response R = Mine->execute(P);
        if (R.St != Status::Ok) {
          NonOk.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        (R.NativePlan ? NativeRuns : InterpRuns)
            .fetch_add(1, std::memory_order_relaxed);
        if (!resultsMatch(R.Result, Want))
          Mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Force the native recompile while the runners are mid-stream, so the
  // release/acquire publish is exercised under real contention.
  while (InterpRuns.load(std::memory_order_relaxed) == 0)
    std::this_thread::yield();
  EXPECT_TRUE(Svc.scheduleRecompile(P));
  EXPECT_FALSE(Svc.scheduleRecompile(P)) << "second schedule is a no-op";
  Svc.drainRecompiles();
  // A post-swap grace period so every runner sees the native plan.
  std::uint64_t SwapMark = NativeRuns.load(std::memory_order_relaxed);
  while (NativeRuns.load(std::memory_order_relaxed) <
         SwapMark + Threads * 4)
    std::this_thread::yield();
  Stop.store(true, std::memory_order_relaxed);
  for (std::thread &T : Runners)
    T.join();

  EXPECT_EQ(NonOk.load(), 0u);
  EXPECT_EQ(Mismatches.load(), 0u)
      << "results identical before, across and after the swap";
  ASSERT_TRUE(P->nativeReady());
  EXPECT_GT(InterpRuns.load(), 0u) << "pre-swap executions exist";
  EXPECT_GT(NativeRuns.load(), 0u) << "post-swap executions exist";
  EXPECT_EQ(NativeRuns.load() + InterpRuns.load(), Sent.load())
      << "exactly one Ok response per request";
  // After the swap every further run is native.
  Response R = Sess->execute(P);
  EXPECT_TRUE(R.NativePlan);
  EXPECT_TRUE(resultsMatch(R.Result, Want));
}

namespace {

/// Two same-shaped preds in pessimal order: the first passes ~all of the
/// uniform [-100, 100] data, the second a sliver. Static ranking sees two
/// identical costs and keeps the written order; only observed feedback
/// can swap them — which makes the adaptive v1 -> v2 re-swap observable.
fuzz::QuerySpec skewedPredsSpec(double LowC, double HighC) {
  fuzz::QuerySpec S;
  S.Sources.push_back(
      {0, fuzz::ElemTy::Double, fuzz::DataClass::Uniform, 256, 33});
  fuzz::OpSpec W1;
  W1.K = fuzz::OpK::Where;
  W1.P = fuzz::PredTmpl::GtC;
  W1.DArg = LowC;
  fuzz::OpSpec W2;
  W2.K = fuzz::OpK::Where;
  W2.P = fuzz::PredTmpl::GtC;
  W2.DArg = HighC;
  fuzz::OpSpec Agg;
  Agg.K = fuzz::OpK::Agg;
  Agg.A = fuzz::AggKind::Sum;
  S.Ops = {W1, W2, Agg};
  return S;
}

} // namespace

TEST(ServeSoak, AdaptiveReplanSwapsMidStreamKeepsResultsIdentical) {
  constexpr unsigned Threads = 4;
  ServeOptions O;
  O.BackgroundRecompile = false; // interp v1 -> interp v2, swapped by hand
  O.Profile = true;              // feedback needs observed runs
  O.ReplanEvery = 0; // no cadence: the test triggers the re-plan itself
  O.Workers = 4;
  O.MaxQueue = 64;
  QueryService Svc(O);
  auto Sess = Svc.openSession();
  std::string Err;
  PreparedHandle P = Sess->prepare(specText(skewedPredsSpec(-99.0, 95.0)),
                                   &Err);
  ASSERT_TRUE(P) << Err;
  QueryResult Want = reference(P);
  const std::uint64_t V1Hash = P->currentPlan().planHash();
  auto swapped = [&] { return P->currentPlan().planHash() != V1Hash; };

  // Runners hammer the handle across the v1 -> v2 swap; the stop lands
  // only after the swap, so the stream provably spans both.
  std::atomic<bool> Stop{false};
  std::atomic<std::uint64_t> Sent{0}, Ok{0}, Mismatches{0}, NonOk{0};
  std::vector<std::thread> Runners;
  for (unsigned T = 0; T < Threads; ++T) {
    Runners.emplace_back([&] {
      auto Mine = Svc.openSession();
      while (!Stop.load(std::memory_order_relaxed)) {
        Sent.fetch_add(1, std::memory_order_relaxed);
        Response R = Mine->execute(P);
        if (R.St != Status::Ok) {
          NonOk.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        Ok.fetch_add(1, std::memory_order_relaxed);
        if (!resultsMatch(R.Result, Want))
          Mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Enough profiled v1 runs to ripen the feedback, then re-plan
  // mid-stream.
  std::uint64_t Need = quil::MinObservedRuns + 4;
  while (Ok.load(std::memory_order_relaxed) < Need)
    std::this_thread::yield();
  for (int Attempt = 0; Attempt != 1000 && !swapped(); ++Attempt) {
    Svc.scheduleAdaptiveReplan(P);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(swapped()) << "feedback re-plan never swapped in";
  // A post-swap grace period so every runner sees the v2 plan.
  std::uint64_t SwapMark = Ok.load(std::memory_order_relaxed);
  while (Ok.load(std::memory_order_relaxed) < SwapMark + Threads * 4)
    std::this_thread::yield();
  Stop.store(true, std::memory_order_relaxed);
  for (std::thread &T : Runners)
    T.join();

  EXPECT_EQ(NonOk.load(), 0u);
  EXPECT_EQ(Mismatches.load(), 0u)
      << "results identical before, across and after the swap";
  EXPECT_GE(SwapMark, Need) << "pre-swap executions exist";
  EXPECT_EQ(Ok.load(), Sent.load()) << "exactly one Ok response per request";
  EXPECT_GE(Svc.stats().ReplanSwaps, 1u);
  // The feedback plan replaced v1 for good.
  EXPECT_TRUE(swapped());
  Response R = Sess->execute(P);
  EXPECT_TRUE(resultsMatch(R.Result, Want));
}

//===--------------------------------------------------------------------===//
// One plan slot: every swap of a handle's life, under load
//===--------------------------------------------------------------------===//

TEST(ServeLifecycle, InterpNativeFeedbackWithExecutorsRunning) {
  constexpr unsigned Threads = 4;
  ServeOptions O; // background recompile on, real compile queue
  O.Profile = true;
  O.ReplanEvery = 0; // the test triggers the re-plan itself
  O.Workers = 4;
  O.MaxQueue = 64;
  QueryService Svc(O);
  auto Sess = Svc.openSession();
  std::string Err;
  PreparedHandle P = Sess->prepare(specText(skewedPredsSpec(-97.0, 93.0)),
                                   &Err);
  ASSERT_TRUE(P) << Err;
  QueryResult Want = reference(P);

  // v1 interpreted: the native compile prepare() queued is in flight.
  Response First = Sess->execute(P);
  ASSERT_EQ(First.St, Status::Ok);
  EXPECT_FALSE(First.NativePlan);
  EXPECT_TRUE(First.Degraded);
  EXPECT_TRUE(resultsMatch(First.Result, Want));

  // Executors run through every swap below. Once native v1 has landed,
  // no response may run interpreted again: the feedback v2 replaces it
  // with its own native twin.
  std::atomic<bool> Stop{false};
  std::atomic<std::uint64_t> Sent{0}, Mismatches{0}, NonOk{0}, InterpRuns{0},
      NativeRuns{0}, InterpAfterNative{0};
  std::vector<std::thread> Runners;
  auto stopRunners = [&] {
    Stop.store(true, std::memory_order_relaxed);
    for (std::thread &T : Runners)
      if (T.joinable())
        T.join();
  };
  // Joins the executors on every exit, a failed ASSERT included.
  struct OnExit {
    std::function<void()> Fn;
    ~OnExit() { Fn(); }
  } JoinOnExit{stopRunners};
  for (unsigned T = 0; T < Threads; ++T) {
    Runners.emplace_back([&] {
      auto Mine = Svc.openSession();
      while (!Stop.load(std::memory_order_relaxed)) {
        bool WasNative = P->nativeReady();
        Sent.fetch_add(1, std::memory_order_relaxed);
        Response R = Mine->execute(P);
        if (R.St != Status::Ok) {
          NonOk.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (!resultsMatch(R.Result, Want))
          Mismatches.fetch_add(1, std::memory_order_relaxed);
        if (WasNative && !R.NativePlan)
          InterpAfterNative.fetch_add(1, std::memory_order_relaxed);
        (R.NativePlan ? NativeRuns : InterpRuns)
            .fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  auto waitFor = [](const std::function<bool()> &Done) {
    for (int Spin = 0; Spin != 10000; ++Spin) {
      if (Done())
        return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  };
  auto runsPast = [&](std::uint64_t Mark) {
    return [&, Mark] {
      return NativeRuns.load(std::memory_order_relaxed) >=
             Mark + Threads * 4;
    };
  };

  // v1 native.
  Svc.drainRecompiles();
  ASSERT_TRUE(P->nativeReady());
  const std::uint64_t V1Hash = P->currentPlan().planHash();
  ASSERT_TRUE(waitFor(runsPast(0)));

  // v2: feedback re-plan, compiled natively in the background and
  // published as the handle's plan.
  std::uint64_t Need = quil::MinObservedRuns + 4;
  ASSERT_TRUE(waitFor([&] {
    return NativeRuns.load(std::memory_order_relaxed) >= Need;
  }));
  ASSERT_TRUE(waitFor([&] {
    if (Svc.scheduleAdaptiveReplan(P))
      Svc.drainRecompiles();
    return Svc.stats().ReplanSwaps >= 1;
  })) << "feedback re-plan never swapped in";
  ASSERT_TRUE(waitFor(runsPast(NativeRuns.load())));
  stopRunners();

  EXPECT_EQ(NonOk.load(), 0u);
  EXPECT_EQ(Mismatches.load(), 0u) << "every version matches the reference";
  EXPECT_EQ(InterpAfterNative.load(), 0u)
      << "ran interpreted after native v1 landed";
  EXPECT_EQ(InterpRuns.load() + NativeRuns.load(), Sent.load())
      << "exactly one Ok response per request";

  // The final plan is v2's native twin: the plan the same feedback
  // compiles to, not v1.
  CompiledQuery Final = P->currentPlan();
  EXPECT_EQ(Final.backend(), Backend::Native);
  EXPECT_NE(Final.planHash(), V1Hash);
  CompileOptions V2Options;
  V2Options.Exec = Backend::Interp;
  V2Options.Analyze = analysis::Mode::Off;
  V2Options.Profile = true;
  V2Options.Adaptive = true;
  EXPECT_EQ(Final.planHash(), compileQuery(P->query(), V2Options).planHash());
  Response R = Sess->execute(P);
  ASSERT_EQ(R.St, Status::Ok);
  EXPECT_TRUE(R.NativePlan);
  EXPECT_FALSE(R.Degraded);
  EXPECT_TRUE(resultsMatch(R.Result, Want));
  QueryService::Stats S = Svc.stats();
  EXPECT_EQ(S.ReplanSwaps, 1u);
  EXPECT_EQ(S.RecompilesDone, 2u) << "native v1 and v2's native twin";
}

TEST(ServeLifecycle, NativeUpgradeOfAReplannedPlanStaysOutOfTheCache) {
  ServeOptions O;
  O.BackgroundRecompile = false; // interp v2; its native twin by hand
  O.Profile = true;
  O.ReplanEvery = 0;
  QueryService Svc(O);
  auto Sess = Svc.openSession();
  std::string Err;
  std::string Text = specText(skewedPredsSpec(-96.0, 91.0));
  PreparedHandle P = Sess->prepare(Text, &Err);
  ASSERT_TRUE(P) << Err;
  QueryResult Want = reference(P);
  auto run = [&] {
    Response R = Sess->execute(P);
    EXPECT_EQ(R.St, Status::Ok);
    EXPECT_TRUE(resultsMatch(R.Result, Want));
    return R;
  };

  // Ripen the feedback on interp v1 from plain runs, then replace it
  // with interp v2.
  for (std::uint64_t I = 0; I != quil::MinObservedRuns + 2; ++I)
    run();
  const std::uint64_t V1Hash = P->currentPlan().planHash();
  ASSERT_TRUE(Svc.scheduleAdaptiveReplan(P));
  const std::uint64_t V2Hash = P->currentPlan().planHash();
  ASSERT_NE(V2Hash, V1Hash);
  EXPECT_FALSE(run().NativePlan);

  // The native upgrade compiles the handle's plan, v2, not the static
  // plan the cache holds.
  ASSERT_TRUE(Svc.scheduleRecompile(P));
  Svc.drainRecompiles();
  ASSERT_TRUE(P->nativeReady());
  EXPECT_EQ(P->currentPlan().planHash(), V2Hash);
  EXPECT_TRUE(run().NativePlan);

  // It was published to this handle alone: the cache keys prepare()'s
  // options, and its native entry (if any) is not v2.
  CompileOptions Static;
  Static.Exec = Backend::Interp;
  Static.Analyze = analysis::Mode::Off;
  Static.Profile = true;
  Static.Adaptive = false;
  CompiledQuery CachedInterp = Svc.cache().lookup(P->query(), Static);
  ASSERT_TRUE(CachedInterp.valid()) << "the lookup uses prepare()'s key";
  EXPECT_EQ(CachedInterp.planHash(), V1Hash);
  Static.Exec = Backend::Native;
  CompiledQuery CachedNative = Svc.cache().lookup(P->query(), Static);
  EXPECT_TRUE(!CachedNative.valid() || CachedNative.planHash() != V2Hash);
  // A new handle for the same spec starts from the static plan.
  PreparedHandle Fresh = Svc.prepare(Text, &Err);
  ASSERT_TRUE(Fresh) << Err;
  EXPECT_EQ(Fresh->currentPlan().planHash(), V1Hash);
}

TEST(ServeLifecycle, ReplanCadenceDoublesFromReplanEvery) {
  // Re-plans fire after ReplanEvery x 2^k executions: 4, 8, 16, 32, 64
  // and 128 of 128, not at every multiple of 4 (which made 32).
  ServeOptions O;
  O.Workers = 1;
  O.BackgroundRecompile = false; // re-plans compile on the one worker
  O.Profile = true;
  O.ReplanEvery = 4;
  QueryService Svc(O);
  auto Sess = Svc.openSession();
  std::string Err;
  PreparedHandle P = Sess->prepare(specText(skewedPredsSpec(-95.0, 89.0)),
                                   &Err);
  ASSERT_TRUE(P) << Err;
  QueryResult Want = reference(P);
  auto run = [&] {
    Response R = Sess->execute(P);
    ASSERT_EQ(R.St, Status::Ok);
    EXPECT_TRUE(resultsMatch(R.Result, Want));
  };
  for (int I = 0; I != 128; ++I)
    run();
  // The 128th answer leaves before its re-plan runs. One more execution,
  // which is no cadence point, queues behind that re-plan on the single
  // worker.
  run();
  EXPECT_EQ(Svc.stats().Replans, 6u);
}

//===--------------------------------------------------------------------===//
// The fuzz corpus, replayed through the service
//===--------------------------------------------------------------------===//

TEST(ServeCorpus, EveryReproducerMatchesTheOracleThroughServe) {
  namespace fs = std::filesystem;
  std::string Dir = std::string(STENO_TESTS_SRC_DIR) + "/fuzz_corpus";
  ASSERT_TRUE(fs::exists(Dir));
  QueryService Svc(interpOnly());
  auto Sess = Svc.openSession();
  unsigned Replayed = 0;
  for (const auto &Entry : fs::directory_iterator(Dir)) {
    if (Entry.path().extension() != ".fuzzspec")
      continue;
    std::ifstream In(Entry.path());
    std::stringstream Ss;
    Ss << In.rdbuf();
    std::string Err;
    PreparedHandle P = Sess->prepare(Ss.str(), &Err);
    ASSERT_TRUE(P) << Entry.path() << ": " << Err;
    Response R = Sess->execute(P);
    ASSERT_EQ(R.St, Status::Ok) << Entry.path();
    EXPECT_TRUE(resultsMatch(R.Result, reference(P))) << Entry.path();
    ++Replayed;
  }
  EXPECT_GE(Replayed, 17u) << "corpus went missing";
}

//===--------------------------------------------------------------------===//
// Wire protocol
//===--------------------------------------------------------------------===//

/// Renders \p R as the server would, then decodes it with the client's
/// one reader (the answer is pre-written to the client's socket, so its
/// request goes unanswered by anyone else). False when the reader
/// rejects the frame.
bool roundTrip(const Response &R, std::uint64_t Rid, Response &Out) {
  int Fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds) != 0)
    return false;
  bool Ok = FdStream(Fds[0]).writeAll(renderResponse(R)) &&
            WireClient(Fds[1]).exec(0, -1, Rid, Out);
  ::close(Fds[0]);
  ::close(Fds[1]);
  return Ok;
}

TEST(ServeWire, RenderStatusFrames) {
  Response Out;
  Response T;
  T.St = Status::Timeout;
  T.Id = 7;
  ASSERT_TRUE(roundTrip(T, 0, Out));
  EXPECT_EQ(Out.St, Status::Timeout);
  EXPECT_EQ(Out.Id, 7u);

  Response Sh;
  Sh.St = Status::Shed;
  Sh.Id = 9;
  ASSERT_TRUE(roundTrip(Sh, 9, Out));
  EXPECT_EQ(Out.St, Status::Shed);
  EXPECT_EQ(Out.Id, 9u);

  Response E;
  E.St = Status::Error;
  E.Id = 11;
  E.Message = "bad spec:\nline 2";
  ASSERT_TRUE(roundTrip(E, 0, Out));
  EXPECT_EQ(Out.St, Status::Error);
  EXPECT_EQ(Out.Id, 11u);
  EXPECT_EQ(Out.Message, "bad spec:; line 2");
  Response Anon;
  Anon.St = Status::Error;
  ASSERT_TRUE(roundTrip(Anon, 0, Out));
  EXPECT_EQ(Out.Message, "internal error");

  // A result decodes to the exact values, flags and timings: -0.0, NaN
  // and nested pairs survive the round trip. (Every row of a result has
  // the one row type.)
  Response Ok;
  Ok.St = Status::Ok;
  Ok.Id = 13;
  Ok.Degraded = true;
  Ok.QueueMicros = 2.5;
  Ok.RunMicros = 40.5;
  auto row = [](double D, std::int64_t I, double E) {
    return expr::Value::makePair(
        expr::Value(D),
        expr::Value::makePair(expr::Value(I), expr::Value(E)));
  };
  ResultBuilder Rows(/*Scalar=*/false);
  Rows.add(row(-0.0, -3, 0.1));
  Rows.add(row(std::nan(""), 0, -0.0));
  Ok.Result = Rows.finish();
  ASSERT_TRUE(roundTrip(Ok, 13, Out));
  EXPECT_EQ(Out.St, Status::Ok);
  EXPECT_EQ(Out.Id, 13u);
  EXPECT_TRUE(Out.Degraded);
  EXPECT_FALSE(Out.NativePlan);
  EXPECT_DOUBLE_EQ(Out.QueueMicros, 2.5);
  EXPECT_DOUBLE_EQ(Out.RunMicros, 40.5);
  EXPECT_TRUE(sameBits(Out.Result, Ok.Result));

  // An answer echoing another request's id is stale: the exchange broke.
  EXPECT_FALSE(roundTrip(Ok, 14, Out));
}

TEST(ServeWire, StatusNames) {
  EXPECT_STREQ(statusName(Status::Ok), "ok");
  EXPECT_STREQ(statusName(Status::Timeout), "timeout");
  EXPECT_STREQ(statusName(Status::Shed), "shed");
  EXPECT_STREQ(statusName(Status::Error), "error");
}

TEST(ServeWire, SocketpairEndToEnd) {
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  QueryService Svc(interpOnly());
  std::thread Server([&] { serveConnection(sessionFrontend(Svc), Fds[0]); });
  WireClient Client(Fds[1]);

  // Prepare a scalar query and a row-producing one.
  std::uint64_t HSum = 99, HRows = 99;
  std::string Err;
  ASSERT_TRUE(Client.prepare(specText(sumSqSpec()), HSum, Err));
  ASSERT_EQ(Err, "");
  EXPECT_EQ(HSum, 0u);
  ASSERT_TRUE(Client.prepare(specText(orderBySpec()), HRows, Err));
  ASSERT_EQ(Err, "");
  EXPECT_EQ(HRows, 1u);

  // A malformed spec is a completed exchange with an error, not a
  // dropped connection.
  std::uint64_t HBad = 99;
  EXPECT_TRUE(Client.prepare("steno-fuzz v1\nsource 0 double 4 uniform 1\n"
                             "op frobnicate\nend\n",
                             HBad, Err));
  EXPECT_FALSE(Err.empty());
  EXPECT_EQ(HBad, 99u);

  // Expected values: an identically configured service runs the same
  // plans in process, so the wire must deliver their exact bits.
  QueryService Ref(interpOnly());
  auto Sess = Ref.openSession();
  PreparedHandle PSum = Sess->prepare(specText(sumSqSpec()), &Err);
  PreparedHandle PRows = Sess->prepare(specText(orderBySpec()), &Err);
  ASSERT_TRUE(PSum && PRows) << Err;
  QueryResult WantSum = Sess->execute(PSum).Result;
  QueryResult WantRows = Sess->execute(PRows).Result;
  EXPECT_TRUE(resultsMatch(WantSum, reference(PSum)));
  EXPECT_TRUE(resultsMatch(WantRows, reference(PRows)));

  // No rid: the answer carries the service's request id.
  Response R;
  ASSERT_TRUE(Client.exec(HSum, 1000, 0, R));
  EXPECT_EQ(R.St, Status::Ok) << R.Message;
  EXPECT_NE(R.Id, 0u);
  EXPECT_TRUE(R.Result.isScalar());
  EXPECT_TRUE(sameBits(R.Result, WantSum));

  // A rid comes back echoed.
  ASSERT_TRUE(Client.exec(HRows, 1000, 4242, R));
  EXPECT_EQ(R.St, Status::Ok) << R.Message;
  EXPECT_EQ(R.Id, 4242u);
  EXPECT_FALSE(R.Result.isScalar());
  EXPECT_TRUE(sameBits(R.Result, WantRows));

  // Unknown handle: an error answer on a healthy connection.
  ASSERT_TRUE(Client.exec(42, 1000, 43, R));
  EXPECT_EQ(R.St, Status::Error);
  EXPECT_EQ(R.Id, 43u);
  EXPECT_NE(R.Message.find("unknown handle 42"), std::string::npos)
      << R.Message;

  std::string Json;
  ASSERT_TRUE(Client.stats(Json));
  EXPECT_NE(Json.find("\"ok\":2"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"prepares\":2"), std::string::npos) << Json;

  Client.quit();
  Server.join();
  ::close(Fds[0]);
  ::close(Fds[1]);
}

// A deadline too far out for the clock never expires: the due time
// saturates instead of overflowing into the past, so the request runs.
TEST(ServeWire, DeadlinePastTheClockRangeStillRuns) {
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  QueryService Svc(interpOnly());
  std::thread Server([&] { serveConnection(sessionFrontend(Svc), Fds[0]); });
  WireClient Client(Fds[1]);
  std::uint64_t H = 99;
  std::string Err;
  ASSERT_TRUE(Client.prepare(specText(sumSqSpec()), H, Err));
  ASSERT_EQ(Err, "");

  // INT64_MAX ms overflows its conversion to nanoseconds; 9223372036854
  // ms converts, and overflows only when added to the clock's now.
  for (std::int64_t Ms : {std::numeric_limits<std::int64_t>::max(),
                          std::int64_t{9223372036854}}) {
    Response R;
    ASSERT_TRUE(Client.exec(H, Ms, 0, R)) << Ms;
    EXPECT_EQ(R.St, Status::Ok) << Ms << ": " << R.Message;
    EXPECT_TRUE(R.Result.isScalar()) << Ms;
  }
  EXPECT_EQ(Svc.stats().Timeouts, 0u);

  Client.quit();
  Server.join();
  ::close(Fds[0]);
  ::close(Fds[1]);
}

TEST(ServeWire, EofMidSpecDropsConnectionCleanly) {
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  QueryService Svc(interpOnly());
  std::thread Server([&] { serveConnection(sessionFrontend(Svc), Fds[0]); });
  {
    FdStream S(Fds[1]);
    S.writeAll("prepare\nsteno-fuzz v1\nsource 0 double 4 uniform 1\n");
  }
  ::close(Fds[1]); // EOF before the spec's `end`
  Server.join();   // must return, not spin or crash
  ::close(Fds[0]);
  EXPECT_EQ(Svc.stats().Prepares, 0u);
}

namespace {

/// Sends \p Bytes to a served connection from a second thread (the
/// server stops reading at the bound) and expects one error frame, then
/// EOF, with nothing prepared.
void expectRefused(const std::string &Bytes) {
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  QueryService Svc(interpOnly());
  std::thread Server([&] { serveConnection(sessionFrontend(Svc), Fds[0]); });
  std::thread Writer([&] { FdStream(Fds[1]).writeAll(Bytes); });
  std::string Line;
  EXPECT_TRUE(FdStream(Fds[1]).readLine(Line));
  EXPECT_EQ(Line.rfind("error ", 0), 0u) << Line;
  char C;
  EXPECT_EQ(::read(Fds[1], &C, 1), 0) << "no EOF after the error frame";
  Server.join();
  ::close(Fds[0]);
  Writer.join();
  ::close(Fds[1]);
  EXPECT_EQ(Svc.stats().Prepares, 0u);
}

} // namespace

TEST(ServeWire, OverlongRequestLineGetsAnErrorThenEof) {
  expectRefused(std::string(2 << 20, 'x')); // 2 MiB, no newline
}

TEST(ServeWire, OverlongSpecFrameGetsAnErrorThenEof) {
  std::string Frame = "prepare\nsteno-fuzz v1\n";
  while (Frame.size() <= 2 * MaxSpecFrame)
    Frame += "source 0 double 4 uniform 1\n"; // never an `end`
  expectRefused(Frame);
}

//===--------------------------------------------------------------------===//
// Shutdown: destruction races against in-flight background work
//===--------------------------------------------------------------------===//

TEST(ServeShutdown, DestroyDuringInflightBackgroundCompileSwap) {
  // Tear the service down while the background native compile — a real
  // external-compiler run scheduled by prepare() — is still in flight.
  // The destructor must wait for the swap callback (which touches stats,
  // the cache, and the handle's publish flag), not race it. Distinct
  // specs per iteration guarantee a fresh compile is genuinely running
  // when the destructor fires.
  for (std::uint64_t Round = 0; Round != 2; ++Round) {
    ServeOptions O;
    O.BackgroundRecompile = true;
    PreparedHandle P;
    {
      QueryService Svc(O);
      auto Sess = Svc.openSession();
      std::string Err;
      P = Sess->prepare(specText(sumSqSpec(48, 1000 + Round)), &Err);
      ASSERT_TRUE(P) << Err;
      Response R = Sess->execute(P);
      ASSERT_EQ(R.St, Status::Ok);
      // Destroy now, with the compile (almost certainly) unfinished.
    }
    // The handle outlives the service; the swap either completed before
    // teardown finished or never published — both are consistent states,
    // and the publish flag must not be written after this point.
    bool ReadyAtTeardown = P->nativeReady();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_EQ(P->nativeReady(), ReadyAtTeardown)
        << "swap published after the service was destroyed";
  }
}

TEST(ServeShutdown, DestroyWhileRequestExecutes) {
  // A worker is parked inside a request when the destructor runs: the
  // pool must drain it (fulfilling the promise) before members die.
  Gate Entered, Release;
  std::atomic<bool> First{true};
  ServeOptions O;
  O.BackgroundRecompile = false;
  O.Workers = 1;
  O.ExecHook = [&] {
    if (First.exchange(false)) {
      Entered.open();
      Release.wait();
    }
  };
  QueryService *Svc = new QueryService(O);
  auto Sess = Svc->openSession();
  std::string Err;
  PreparedHandle P = Sess->prepare(specText(sumSqSpec()), &Err);
  ASSERT_TRUE(P) << Err;

  std::thread Client([&] {
    Response R = Sess->execute(P);
    EXPECT_EQ(R.St, Status::Ok);
  });
  Entered.wait();
  std::thread Destroyer([&] { delete Svc; });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  Release.open();
  Destroyer.join();
  Client.join();
}
