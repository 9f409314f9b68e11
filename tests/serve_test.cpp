//===- tests/serve_test.cpp - Query service & wire protocol ----*- C++ -*-===//
//
// Coverage for the serving layer (serve/Serve.h, serve/Wire.h):
// session lifecycle and prepared-handle memoization, QueryCache sharing
// across sessions, deadline timeouts and load shedding made
// deterministic via ServeOptions::ExecHook, the interpreter-degradation
// path (saturated compile queue), the background native swap, a
// multi-client stress run asserting exactly one response per request
// against the reference oracle, a swap soak that executes through the
// mid-stream plan swap, a handle's whole plan-slot life (interp v1 ->
// native v1 -> feedback v2 -> revert) under load, the fuzz corpus
// replayed through the service, and the line protocol end-to-end over a
// socketpair. The stress and soak tests are in the TSan CI job.
//
//===----------------------------------------------------------------------===//

#include "adapt/Adapt.h"
#include "fuzz/Diff.h"
#include "serve/Serve.h"
#include "serve/Wire.h"
#include "steno/RefExec.h"

#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <functional>
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
  EXPECT_EQ(A->specText(), Text);
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
  Response R = Sess->executeSpec("garbage\n", std::chrono::milliseconds(100));
  EXPECT_EQ(R.St, Status::Error);
  EXPECT_FALSE(R.Message.empty());
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
  ServeOptions O = interpOnly();
  O.Workers = 1; // one worker: the gate serializes the queue behind it
  O.ExecHook = [&G] { G.wait(); };
  QueryService Svc(O);
  auto Sess = Svc.openSession();
  std::string Err;
  PreparedHandle P = Sess->prepare(specText(sumSqSpec()), &Err);
  ASSERT_TRUE(P) << Err;

  std::thread Blocked([&] {
    Response R = Sess->execute(P, std::chrono::milliseconds(10000));
    EXPECT_EQ(R.St, Status::Ok);
  });
  // Wait until the first request is admitted, then queue one with a
  // deadline that will expire while it waits behind the parked worker.
  while (Svc.stats().QueueDepth < 1)
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
  O.AdaptiveReplan = true;
  O.ReplanEvery = 0; // no cadence: the test triggers the re-plan itself
  O.AdaptWindow = 0; // no judgement: the soak only exercises the swap
  O.Workers = 4;
  O.MaxQueue = 64;
  QueryService Svc(O);
  auto Sess = Svc.openSession();
  std::string Err;
  PreparedHandle P = Sess->prepare(specText(skewedPredsSpec(-99.0, 95.0)),
                                   &Err);
  ASSERT_TRUE(P) << Err;
  QueryResult Want = reference(P);

  // Runners hammer the handle across the static -> adaptive swap; the
  // stop lands only after the swap, so the stream provably spans both.
  std::atomic<bool> Stop{false};
  std::atomic<std::uint64_t> Sent{0}, Mismatches{0}, NonOk{0},
      AdaptiveRuns{0}, StaticRuns{0};
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
        (R.AdaptivePlan ? AdaptiveRuns : StaticRuns)
            .fetch_add(1, std::memory_order_relaxed);
        if (!resultsMatch(R.Result, Want))
          Mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Enough profiled static runs to ripen the feedback under any
  // min-sample setting, then re-plan mid-stream.
  std::uint64_t Need =
      adapt::FeedbackStore::global().minSamples() + 4;
  while (StaticRuns.load(std::memory_order_relaxed) < Need)
    std::this_thread::yield();
  for (int Attempt = 0; Attempt != 1000 && !P->adaptiveLive(); ++Attempt) {
    Svc.scheduleAdaptiveReplan(P);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(P->adaptiveLive()) << "feedback re-plan never swapped in";
  // A post-swap grace period so every runner sees the v2 plan.
  std::uint64_t SwapMark = AdaptiveRuns.load(std::memory_order_relaxed);
  while (AdaptiveRuns.load(std::memory_order_relaxed) <
         SwapMark + Threads * 4)
    std::this_thread::yield();
  Stop.store(true, std::memory_order_relaxed);
  for (std::thread &T : Runners)
    T.join();

  EXPECT_EQ(NonOk.load(), 0u);
  EXPECT_EQ(Mismatches.load(), 0u)
      << "results identical before, across and after the re-swap";
  EXPECT_GT(StaticRuns.load(), 0u) << "pre-swap executions exist";
  EXPECT_GT(AdaptiveRuns.load(), 0u) << "post-swap executions exist";
  EXPECT_EQ(StaticRuns.load() + AdaptiveRuns.load(), Sent.load())
      << "exactly one Ok response per request";
  QueryService::Stats S = Svc.stats();
  EXPECT_GE(S.ReplanSwaps, 1u);
  EXPECT_GE(S.AdaptiveRuns, AdaptiveRuns.load());
  // After the swap every further run is the feedback plan.
  Response R = Sess->execute(P);
  EXPECT_TRUE(R.AdaptivePlan);
  EXPECT_TRUE(resultsMatch(R.Result, Want));
}

TEST(ServeAdapt, ConsecutiveMispredictionsPinTheStaticPlan) {
  ServeOptions O;
  O.BackgroundRecompile = false;
  O.Profile = true;
  O.AdaptiveReplan = true;
  O.ReplanEvery = 0;
  O.AdaptWindow = 4;
  // Force every judgement to a misprediction: two consecutive strikes
  // must trip the ignorance list and pin the static plan.
  O.AdaptJudge = [](double, double) { return true; };
  QueryService Svc(O);
  auto Sess = Svc.openSession();
  std::string Err;
  PreparedHandle P = Sess->prepare(specText(skewedPredsSpec(-98.0, 90.0)),
                                   &Err);
  ASSERT_TRUE(P) << Err;
  QueryResult Want = reference(P);

  // Ripen the feedback on the static plan.
  std::uint64_t Seed = adapt::FeedbackStore::global().minSamples() + 2;
  for (std::uint64_t I = 0; I != Seed; ++I) {
    Response R = Sess->execute(P);
    ASSERT_EQ(R.St, Status::Ok);
    EXPECT_FALSE(R.AdaptivePlan);
    EXPECT_TRUE(resultsMatch(R.Result, Want));
  }

  auto waitReverted = [&](std::uint64_t WantReverts) {
    for (int Spin = 0; Spin != 2000; ++Spin) {
      if (!P->adaptiveLive() && Svc.stats().AdaptReverted >= WantReverts)
        return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  };

  for (std::uint64_t Cycle = 1; Cycle <= 2; ++Cycle) {
    ASSERT_TRUE(Svc.scheduleAdaptiveReplan(P)) << "cycle " << Cycle;
    ASSERT_TRUE(P->adaptiveLive());
    // Run out the judgement window on the v2 plan; results never drift.
    for (unsigned R = 0; R != O.AdaptWindow; ++R) {
      Response Rsp = Sess->execute(P);
      ASSERT_EQ(Rsp.St, Status::Ok);
      EXPECT_TRUE(Rsp.AdaptivePlan) << "cycle " << Cycle << " run " << R;
      EXPECT_TRUE(resultsMatch(Rsp.Result, Want));
    }
    // The judge fired on the last windowed run (after the response was
    // answered): the forced misprediction reverts to the static plan.
    ASSERT_TRUE(waitReverted(Cycle)) << "cycle " << Cycle;
  }

  // Strike two tripped the quarantine: the handle is pinned, further
  // re-plans refuse, and every subsequent run is the static plan.
  EXPECT_TRUE(P->pinnedStatic());
  QueryService::Stats S = Svc.stats();
  EXPECT_EQ(S.AdaptReverted, 2u);
  EXPECT_EQ(S.AdaptPinned, 1u);
  EXPECT_EQ(S.ReplanSwaps, 2u);
  EXPECT_FALSE(Svc.scheduleAdaptiveReplan(P));
  Response R = Sess->execute(P);
  ASSERT_EQ(R.St, Status::Ok);
  EXPECT_FALSE(R.AdaptivePlan);
  EXPECT_TRUE(resultsMatch(R.Result, Want));
}

//===--------------------------------------------------------------------===//
// One plan slot: every swap of a handle's life, under load
//===--------------------------------------------------------------------===//

TEST(ServeLifecycle, InterpNativeFeedbackRevertWithExecutorsRunning) {
  constexpr unsigned Threads = 4;
  ServeOptions O; // background recompile on, real compile queue
  O.Profile = true;
  O.AdaptiveReplan = true;
  O.ReplanEvery = 0; // the test triggers the re-plan itself
  O.AdaptWindow = 16;
  O.AdaptJudge = [](double, double) { return true; }; // force the revert
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
  // no response may run interpreted again: a revert returns to native
  // v1, and every feedback version is a native twin.
  std::atomic<bool> Stop{false};
  std::atomic<std::uint64_t> Sent{0}, Mismatches{0}, NonOk{0}, InterpRuns{0},
      NativeRuns{0}, AdaptiveRuns{0}, InterpAfterNative{0};
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
        (R.AdaptivePlan ? AdaptiveRuns
                        : R.NativePlan ? NativeRuns : InterpRuns)
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
  ASSERT_TRUE(waitFor(runsPast(0)));

  // v2: feedback re-plan, compiled natively in the background. The
  // executors run out its judgement window, and the forced misprediction
  // reverts the handle to native v1.
  std::uint64_t Need = adapt::FeedbackStore::global().minSamples() + 4;
  ASSERT_TRUE(waitFor([&] {
    return NativeRuns.load(std::memory_order_relaxed) >= Need;
  }));
  ASSERT_TRUE(waitFor([&] {
    if (Svc.scheduleAdaptiveReplan(P))
      Svc.drainRecompiles();
    return Svc.stats().ReplanSwaps >= 1;
  })) << "feedback re-plan never swapped in";
  ASSERT_TRUE(waitFor([&] { return Svc.stats().AdaptReverted >= 1; }));
  EXPECT_FALSE(P->adaptiveLive());
  EXPECT_FALSE(P->pinnedStatic()) << "one strike does not pin";
  ASSERT_TRUE(waitFor(runsPast(NativeRuns.load())));
  stopRunners();

  EXPECT_EQ(NonOk.load(), 0u);
  EXPECT_EQ(Mismatches.load(), 0u) << "every version matches the reference";
  EXPECT_EQ(InterpAfterNative.load(), 0u)
      << "ran interpreted after native v1 landed";
  EXPECT_GE(AdaptiveRuns.load(), O.AdaptWindow) << "v2 ran its window";
  EXPECT_EQ(InterpRuns.load() + NativeRuns.load() + AdaptiveRuns.load(),
            Sent.load())
      << "exactly one Ok response per request";

  // After the revert: native v1, not the feedback version, not the
  // interpreter.
  Response R = Sess->execute(P);
  ASSERT_EQ(R.St, Status::Ok);
  EXPECT_TRUE(R.NativePlan);
  EXPECT_FALSE(R.AdaptivePlan);
  EXPECT_FALSE(R.Degraded);
  EXPECT_TRUE(resultsMatch(R.Result, Want));
  QueryService::Stats S = Svc.stats();
  EXPECT_EQ(S.ReplanSwaps, 1u);
  EXPECT_EQ(S.AdaptReverted, 1u);
  EXPECT_EQ(S.RecompilesDone, 2u) << "native v1 and v2's native twin";
}

TEST(ServeLifecycle, NativeV1LandingUnderALiveFeedbackVersionKeepsIt) {
  ServeOptions O;
  O.BackgroundRecompile = false; // interp v2; native v1 compiled by hand
  O.Profile = true;
  O.AdaptiveReplan = true;
  O.ReplanEvery = 0;
  O.AdaptWindow = 4;
  O.AdaptJudge = [](double, double) { return true; };
  QueryService Svc(O);
  auto Sess = Svc.openSession();
  std::string Err;
  PreparedHandle P = Sess->prepare(specText(skewedPredsSpec(-96.0, 91.0)),
                                   &Err);
  ASSERT_TRUE(P) << Err;
  QueryResult Want = reference(P);
  auto run = [&] {
    Response R = Sess->execute(P);
    EXPECT_EQ(R.St, Status::Ok);
    EXPECT_TRUE(resultsMatch(R.Result, Want));
    return R;
  };

  // Ripen the feedback on interp v1, then swap in interp v2.
  for (std::uint64_t I = 0;
       I != adapt::FeedbackStore::global().minSamples() + 2; ++I)
    EXPECT_FALSE(run().AdaptivePlan);
  ASSERT_TRUE(Svc.scheduleAdaptiveReplan(P));
  ASSERT_TRUE(P->adaptiveLive());

  // Native v1 lands under the live v2: the static plan upgrades, v2 stays.
  ASSERT_TRUE(Svc.scheduleRecompile(P));
  Svc.drainRecompiles();
  ASSERT_TRUE(P->nativeReady());
  EXPECT_TRUE(P->adaptiveLive());
  Response V2 = run();
  EXPECT_TRUE(V2.AdaptivePlan);
  EXPECT_FALSE(V2.NativePlan);

  // Run out the judgement window; the forced misprediction reverts to
  // native v1.
  for (unsigned I = 1; I != O.AdaptWindow; ++I)
    EXPECT_TRUE(run().AdaptivePlan);
  for (int Spin = 0; Spin != 2000 && P->adaptiveLive(); ++Spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_FALSE(P->adaptiveLive());
  Response V1 = run();
  EXPECT_TRUE(V1.NativePlan);
  EXPECT_FALSE(V1.AdaptivePlan);
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

TEST(ServeWire, RenderStatusFrames) {
  Response T;
  T.St = Status::Timeout;
  T.Id = 7;
  EXPECT_EQ(renderResponse(T), "timeout 7\n");
  Response Sh;
  Sh.St = Status::Shed;
  Sh.Id = 9;
  EXPECT_EQ(renderResponse(Sh), "shed 9\n");
  Response E;
  E.St = Status::Error;
  E.Message = "bad spec:\nline 2";
  EXPECT_EQ(renderResponse(E), "error bad spec:; line 2\n");
  Response Anon;
  Anon.St = Status::Error;
  EXPECT_EQ(renderResponse(Anon), "error internal error\n");
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
  std::thread Server([&] { serveConnection(Svc, Fds[0]); });
  WireClient Client(Fds[1]);

  // Prepare a scalar query and a row-producing one.
  std::uint64_t HSum = 99, HRows = 99;
  std::string Err;
  ASSERT_TRUE(Client.prepare(specText(sumSqSpec()), HSum, Err)) << Err;
  EXPECT_EQ(HSum, 0u);
  ASSERT_TRUE(Client.prepare(specText(orderBySpec()), HRows, Err)) << Err;
  EXPECT_EQ(HRows, 1u);

  // A malformed spec is an error frame, not a dropped connection.
  std::uint64_t HBad = 99;
  EXPECT_FALSE(Client.prepare("steno-fuzz v1\nsource 0 double 4 uniform 1\n"
                              "op frobnicate\nend\n",
                              HBad, Err));
  EXPECT_FALSE(Err.empty());

  // Expected rows, rendered exactly as the server renders them.
  QueryService Ref(interpOnly());
  auto RefSess = Ref.openSession();
  PreparedHandle RefSum = RefSess->prepare(specText(sumSqSpec()), &Err);
  PreparedHandle RefRows = RefSess->prepare(specText(orderBySpec()), &Err);
  ASSERT_TRUE(RefSum && RefRows) << Err;
  QueryResult WantSum = reference(RefSum);
  QueryResult WantRows = reference(RefRows);

  WireClient::ExecResult R;
  ASSERT_TRUE(Client.exec(HSum, 1000, R));
  EXPECT_EQ(R.St, Status::Ok);
  EXPECT_TRUE(R.Scalar);
  ASSERT_EQ(R.Rows.size(), 1u);
  EXPECT_EQ(R.Rows[0], fuzz::fuzzValueStr(WantSum.scalarValue()));

  ASSERT_TRUE(Client.exec(HRows, 1000, R));
  EXPECT_EQ(R.St, Status::Ok);
  EXPECT_FALSE(R.Scalar);
  ASSERT_EQ(R.Rows.size(), WantRows.rows().size());
  for (std::size_t I = 0; I != R.Rows.size(); ++I)
    EXPECT_EQ(R.Rows[I], fuzz::fuzzValueStr(WantRows.rows()[I])) << I;

  // Unknown handle: an error frame on a healthy connection.
  ASSERT_TRUE(Client.exec(42, 1000, R));
  EXPECT_EQ(R.St, Status::Error);

  std::string Json;
  ASSERT_TRUE(Client.stats(Json));
  EXPECT_NE(Json.find("\"ok\":2"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"prepares\":2"), std::string::npos) << Json;

  Client.quit();
  Server.join();
  ::close(Fds[0]);
  ::close(Fds[1]);
}

TEST(ServeWire, EofMidSpecDropsConnectionCleanly) {
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  QueryService Svc(interpOnly());
  std::thread Server([&] { serveConnection(Svc, Fds[0]); });
  {
    FdStream S(Fds[1]);
    S.writeAll("prepare\nsteno-fuzz v1\nsource 0 double 4 uniform 1\n");
  }
  ::close(Fds[1]); // EOF before the spec's `end`
  Server.join();   // must return, not spin or crash
  ::close(Fds[0]);
  EXPECT_EQ(Svc.stats().Prepares, 0u);
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
