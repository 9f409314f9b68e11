//===- dryad/ThreadPool.cpp -----------------------------------*- C++ -*-===//

#include "dryad/ThreadPool.h"
#include "obs/Metrics.h"
#include "support/Timing.h"

#include <cassert>

using namespace steno;
using namespace steno::dryad;

ThreadPool::ThreadPool(unsigned Workers)
    : Workers(Workers == 0 ? 1 : Workers) {
  Threads.reserve(this->Workers);
  for (unsigned I = 0; I != this->Workers; ++I)
    Threads.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    ShuttingDown = true;
  }
  WorkReady.notify_all();
  for (std::thread &T : Threads)
    if (T.joinable())
      T.join();
}

bool ThreadPool::submit(std::function<void()> Task) {
  static obs::Counter &Submitted = obs::counter("dryad.tasks.submitted");
  static obs::Counter &Rejected =
      obs::counter("dryad.tasks.rejected_shutdown");
  static obs::Gauge &QueueDepth = obs::gauge("dryad.queue.depth");
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    if (ShuttingDown) {
      // Deterministic rejection: the task is never enqueued, so it can
      // never race the worker join and be silently dropped mid-drain.
      Rejected.inc();
      return false;
    }
    Queue.push_back(std::move(Task));
    ++Pending;
    // Signalled under the lock: the worker that takes the task then
    // happens-after the signal, so a pool destroyed once its work has
    // drained cannot tear down the condition variable under a submitter
    // that is still signalling it.
    WorkReady.notify_one();
  }
  Submitted.inc();
  QueueDepth.add(1);
  return true;
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> Lock(Mutex);
  AllDone.wait(Lock, [this] { return Pending == 0; });
}

void ThreadPool::workerLoop() {
  // Busy time across all workers; utilization over a window is
  // busy_micros / (wall micros * workerCount()).
  static obs::Counter &Completed = obs::counter("dryad.tasks.completed");
  static obs::Counter &BusyMicros =
      obs::counter("dryad.worker.busy_micros");
  static obs::Gauge &QueueDepth = obs::gauge("dryad.queue.depth");
  for (;;) {
    std::function<void()> Task;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      WorkReady.wait(Lock,
                     [this] { return ShuttingDown || !Queue.empty(); });
      if (Queue.empty())
        return; // shutting down
      Task = std::move(Queue.front());
      Queue.pop_front();
    }
    QueueDepth.sub(1);
    support::WallTimer Timer;
    Task();
    Completed.inc();
    BusyMicros.inc(static_cast<std::uint64_t>(Timer.seconds() * 1e6));
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      --Pending;
      if (Pending == 0)
        AllDone.notify_all();
    }
  }
}
