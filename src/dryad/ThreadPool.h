//===- dryad/ThreadPool.h - Worker pool for partition vertices -*- C++ -*-===//
///
/// \file
/// A fixed-size worker pool. Stands in for the machines of the paper's
/// 100-node research cluster and for the PLINQ thread pool of §6; on this
/// box it provides the execution substrate for dryad::homomorphicApply
/// and the morsel scheduler.
///
//===----------------------------------------------------------------------===//

#ifndef STENO_DRYAD_THREADPOOL_H
#define STENO_DRYAD_THREADPOOL_H

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace steno {
namespace dryad {

/// Fixed pool of worker threads draining a FIFO task queue.
class ThreadPool {
public:
  /// Spawns \p Workers threads (at least one).
  explicit ThreadPool(unsigned Workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  unsigned workerCount() const { return Workers; }

  /// Enqueues \p Task for execution. Tasks must not throw. Returns false
  /// — deterministically, without enqueuing — once shutdown() has begun;
  /// a rejected task never runs, and the caller owns the fallback (run
  /// it inline, or drop it). Before this contract, a submit racing the
  /// destructor could enqueue a task after the last worker had already
  /// exited, leaving it silently unexecuted and a later wait() hung.
  bool submit(std::function<void()> Task);

  /// Blocks until every submitted task has finished.
  void wait();

  /// Begins shutdown: every submit from this point on is rejected, the
  /// workers drain the already-accepted queue and exit. Idempotent;
  /// called by the destructor. Returns after all workers have joined.
  void shutdown();

private:
  void workerLoop();

  unsigned Workers;
  std::vector<std::thread> Threads;
  std::deque<std::function<void()>> Queue;
  std::mutex Mutex;
  std::condition_variable WorkReady;
  std::condition_variable AllDone;
  unsigned Pending = 0;
  bool ShuttingDown = false;
};

} // namespace dryad
} // namespace steno

#endif // STENO_DRYAD_THREADPOOL_H
