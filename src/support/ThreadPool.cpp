//===-- support/ThreadPool.cpp --------------------------------------------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>

using namespace dmm;

namespace {
thread_local bool InPoolWorker = false;

// Context hooks (see PoolTaskContext in the header). Stored as three
// atomics so registration can race with pool startup; a loop uses the
// hooks only when all three were visible when it was published.
std::atomic<uint64_t (*)()> CtxCapture{nullptr};
std::atomic<uint64_t (*)(uint64_t)> CtxInstall{nullptr};
std::atomic<void (*)(uint64_t)> CtxRestore{nullptr};

std::atomic<void (*)()> WorkerStartHook{nullptr};
} // namespace

void dmm::setPoolTaskContext(const PoolTaskContext &Hooks) {
  CtxCapture.store(Hooks.Capture, std::memory_order_relaxed);
  CtxInstall.store(Hooks.Install, std::memory_order_relaxed);
  CtxRestore.store(Hooks.Restore, std::memory_order_release);
}

void dmm::setPoolWorkerStartHook(void (*Hook)()) {
  WorkerStartHook.store(Hook, std::memory_order_release);
}

/// One active parallelFor: an atomic index dispenser plus completion
/// accounting. Workers and the calling thread all pull from Next until
/// it reaches N.
struct ThreadPool::Loop {
  size_t N = 0;
  const std::function<void(size_t)> *Body = nullptr;

  std::atomic<size_t> Next{0};
  std::atomic<unsigned> ActiveWorkers{0};

  /// Context captured on the submitting thread (PoolTaskContext);
  /// installed on workers while they execute this loop's body.
  uint64_t Ctx = 0;
  bool HasCtx = false;

  std::mutex ErrMu;
  size_t FirstErrorIndex = ~size_t(0);
  std::exception_ptr FirstError;

  std::mutex DoneMu;
  std::condition_variable Done;
};

ThreadPool::ThreadPool(unsigned Jobs) {
  if (Jobs == 0) {
    Jobs = std::thread::hardware_concurrency();
    if (Jobs == 0)
      Jobs = 1;
  }
  NumJobs = Jobs;
  for (unsigned I = 1; I < NumJobs; ++I)
    Workers.emplace_back([this] { workerMain(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    ShuttingDown = true;
  }
  WakeWorkers.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

bool ThreadPool::inWorker() { return InPoolWorker; }

void ThreadPool::runLoop(Loop &L) {
  for (;;) {
    size_t I = L.Next.fetch_add(1, std::memory_order_relaxed);
    if (I >= L.N)
      return;
    try {
      (*L.Body)(I);
    } catch (...) {
      std::lock_guard<std::mutex> Lock(L.ErrMu);
      if (I < L.FirstErrorIndex) {
        L.FirstErrorIndex = I;
        L.FirstError = std::current_exception();
      }
    }
  }
}

void ThreadPool::workerMain() {
  InPoolWorker = true;
  if (auto *Hook = WorkerStartHook.load(std::memory_order_acquire))
    Hook();
  Loop *Joined = nullptr;
  for (;;) {
    Loop *L;
    {
      std::unique_lock<std::mutex> Lock(Mu);
      WakeWorkers.wait(Lock, [&] {
        return ShuttingDown || (Current && Current != Joined);
      });
      if (ShuttingDown)
        return;
      L = Current;
      Joined = L; // Never re-join a loop this worker already drained.
      L->ActiveWorkers.fetch_add(1, std::memory_order_relaxed);
    }
    if (L->HasCtx) {
      // Inherit the submitting thread's context (innermost span) for
      // the duration of this loop, then restore the worker's own.
      uint64_t Saved = CtxInstall.load(std::memory_order_relaxed)(L->Ctx);
      runLoop(*L);
      CtxRestore.load(std::memory_order_relaxed)(Saved);
    } else {
      runLoop(*L);
    }
    // Decrement under DoneMu: the caller owns the Loop on its stack and
    // may destroy it the moment it observes ActiveWorkers == 0, so the
    // zero-crossing store and the notify must be inside the lock.
    {
      std::lock_guard<std::mutex> Lock(L->DoneMu);
      L->ActiveWorkers.fetch_sub(1, std::memory_order_acq_rel);
      L->Done.notify_all();
    }
  }
}

void ThreadPool::parallelFor(size_t N,
                             const std::function<void(size_t)> &Body) {
  if (N == 0)
    return;
  // Sequential pool, tiny loop, or nested call from a worker: run
  // inline. Exceptions propagate naturally.
  if (NumJobs == 1 || N == 1 || InPoolWorker) {
    for (size_t I = 0; I != N; ++I)
      Body(I);
    return;
  }

  Loop L;
  L.N = N;
  L.Body = &Body;
  if (auto *Restore = CtxRestore.load(std::memory_order_acquire)) {
    (void)Restore;
    auto *Capture = CtxCapture.load(std::memory_order_relaxed);
    auto *Install = CtxInstall.load(std::memory_order_relaxed);
    if (Capture && Install) {
      L.Ctx = Capture();
      L.HasCtx = true;
    }
  }
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Current = &L;
  }
  WakeWorkers.notify_all();

  // The calling thread is a worker too.
  runLoop(L);

  // Detach the loop so no further workers can join (joins happen under
  // Mu while Current == &L), then wait for the joined ones to drain.
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Current = nullptr;
  }
  {
    std::unique_lock<std::mutex> Lock(L.DoneMu);
    L.Done.wait(Lock, [&] {
      return L.ActiveWorkers.load(std::memory_order_acquire) == 0;
    });
  }

  if (L.FirstError)
    std::rethrow_exception(L.FirstError);
}

//===----------------------------------------------------------------------===//
// Global pool
//===----------------------------------------------------------------------===//

namespace {

std::unique_ptr<ThreadPool> &globalPoolSlot() {
  static std::unique_ptr<ThreadPool> Pool;
  return Pool;
}

unsigned defaultJobs() {
  const char *Env = std::getenv("DMM_THREADS");
  return Env ? parseJobs(Env) : 0; // 0: hardware concurrency
}

} // namespace

unsigned dmm::parseJobs(std::string_view Text) {
  if (Text.empty() || Text.size() > 9)
    return 0;
  unsigned Jobs = 0;
  for (char Ch : Text) {
    if (Ch < '0' || Ch > '9')
      return 0;
    Jobs = Jobs * 10 + static_cast<unsigned>(Ch - '0');
  }
  return Jobs;
}

const char *dmm::invalidThreadsEnv() {
  const char *Env = std::getenv("DMM_THREADS");
  return Env && *Env && !parseJobs(Env) ? Env : nullptr;
}

ThreadPool &dmm::globalThreadPool() {
  auto &Slot = globalPoolSlot();
  if (!Slot)
    Slot = std::make_unique<ThreadPool>(defaultJobs());
  return *Slot;
}

void dmm::setGlobalJobs(unsigned Jobs) {
  globalPoolSlot() = std::make_unique<ThreadPool>(Jobs ? Jobs : 0);
}
