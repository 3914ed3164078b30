//===-- support/ThreadPool.h - Fixed-size worker pool -----------*- C++ -*-==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small fixed-size worker pool with a parallelFor/parallelMap API,
/// used to parallelize the embarrassingly-parallel pipeline stages
/// (per-function analysis scans, per-benchmark fan-out; the frontend
/// lexes and parses on the calling thread). Design constraints:
///
///  - Determinism is the caller's job: parallelFor only promises that
///    every index runs exactly once; callers produce per-index results
///    and merge them in index order so output is byte-identical to a
///    sequential run.
///  - A pool with jobs() == 1 never spawns threads and runs every body
///    inline on the calling thread — `--jobs=1` is exactly the
///    sequential pipeline.
///  - Nested parallelFor calls from inside a worker run inline (no
///    deadlock, no oversubscription).
///  - The first exception (by lowest index) thrown by a body is
///    rethrown on the calling thread after all workers drain.
///
/// The process-wide pool is configured once via setGlobalJobs() (the
/// tools' `--jobs=N` flag) or the DMM_THREADS environment variable, and
/// defaults to the hardware concurrency. Both spellings go through
/// parseJobs(); the tools reject a malformed value of either.
///
//===----------------------------------------------------------------------===//

#ifndef DMM_SUPPORT_THREADPOOL_H
#define DMM_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

namespace dmm {

/// Hooks that propagate a per-thread context value (the telemetry
/// layer's current span id) from the thread submitting a parallelFor to
/// the workers executing its body. The pool itself is context-agnostic:
/// it calls Capture() on the submitting thread when a loop is
/// published, Install(ctx) on each worker before it pulls indices
/// (returning the worker's previous value), and Restore(saved) after
/// the worker drains the loop. All three must be set or none; unset
/// hooks cost nothing. Registered once, before the first parallelFor
/// that should carry context (support/ cannot depend on telemetry/, so
/// the telemetry layer registers these at startup).
struct PoolTaskContext {
  uint64_t (*Capture)() = nullptr;
  uint64_t (*Install)(uint64_t Ctx) = nullptr;
  void (*Restore)(uint64_t Saved) = nullptr;
};

/// Installs the process-wide context hooks (see PoolTaskContext).
void setPoolTaskContext(const PoolTaskContext &Hooks);

/// Installs a hook that every pool worker thread runs once, on itself,
/// before it takes any work; null removes it. Workers that are already
/// running are not revisited, so register it before the pool is built.
/// Like PoolTaskContext it keeps support/ free of telemetry/: the crash
/// handler registers one that gives each worker an alternate signal
/// stack.
void setPoolWorkerStartHook(void (*Hook)());

/// Fixed set of worker threads executing parallelFor loops.
class ThreadPool {
public:
  /// \p Jobs total workers including the calling thread; 0 means
  /// hardware concurrency. The pool spawns Jobs-1 threads.
  explicit ThreadPool(unsigned Jobs = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  unsigned jobs() const { return NumJobs; }

  /// Invokes \p Body(I) for every I in [0, N), distributing indices
  /// across the workers and the calling thread. Blocks until all
  /// indices completed. Rethrows the lowest-index exception, if any.
  void parallelFor(size_t N, const std::function<void(size_t)> &Body);

  /// parallelFor that collects one result per index, in index order.
  template <typename T, typename Fn>
  std::vector<T> parallelMap(size_t N, Fn &&Body) {
    std::vector<T> Results(N);
    parallelFor(N, [&](size_t I) { Results[I] = Body(I); });
    return Results;
  }

  /// True when called from one of this process' pool worker threads
  /// (any pool); nested parallel regions run inline.
  static bool inWorker();

private:
  struct Loop; ///< One active parallelFor (shared by its workers).

  void workerMain();
  /// Pulls indices from \p L until exhausted; records the first error.
  static void runLoop(Loop &L);

  unsigned NumJobs = 1;
  std::vector<std::thread> Workers;

  std::mutex Mu;
  std::condition_variable WakeWorkers;
  Loop *Current = nullptr; ///< Loop workers should join, or null.
  bool ShuttingDown = false;
};

/// The process-wide pool (lazily constructed). Pipeline stages pull
/// their parallelism from here so one `--jobs=N` flag governs all of
/// them.
ThreadPool &globalThreadPool();

/// Reconfigures the global pool's worker count (1 = sequential).
/// Replaces the pool; must not be called while a parallelFor is
/// running.
void setGlobalJobs(unsigned Jobs);

/// Parses a worker count the way `--jobs=<N>` and DMM_THREADS spell it:
/// a positive decimal integer of at most nine digits and nothing else.
/// Returns 0 for anything else.
unsigned parseJobs(std::string_view Text);

/// The value of DMM_THREADS when it is set, non-empty and rejected by
/// parseJobs(); null otherwise. The tools check it when no `--jobs`
/// flag was given and exit 2 on a malformed value; the global pool
/// itself falls back to all cores.
const char *invalidThreadsEnv();

} // namespace dmm

#endif // DMM_SUPPORT_THREADPOOL_H
