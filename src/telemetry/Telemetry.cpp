//===-- telemetry/Telemetry.cpp -------------------------------------------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//

#include "telemetry/Telemetry.h"

#include "support/ThreadPool.h"
#include "telemetry/FlightRecorder.h"
#include "telemetry/MemoryAccounting.h"

#include <algorithm>

#if defined(__unix__) || defined(__APPLE__)
#include <time.h>
#define DMM_HAVE_THREAD_CPU_CLOCK 1
#else
#define DMM_HAVE_THREAD_CPU_CLOCK 0
#endif

using namespace dmm;

Telemetry *Telemetry::Active = nullptr;
thread_local TelemetryShard *TelemetryShard::ActiveShard = nullptr;

namespace {

/// The calling thread's innermost open span. Worker threads get the
/// submitting thread's value installed for the duration of a
/// parallelFor via the pool context hooks below.
thread_local uint64_t CurrentSpanTL = 0;

uint64_t threadCpuNanos() {
#if DMM_HAVE_THREAD_CPU_CLOCK
  struct timespec TS;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &TS) != 0)
    return 0;
  return static_cast<uint64_t>(TS.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(TS.tv_nsec);
#else
  return 0;
#endif
}

} // namespace

bool NamespaceOrder::operator()(std::string_view A, std::string_view B) const {
  const size_t DotA = std::min(A.find('.'), A.size());
  const size_t DotB = std::min(B.find('.'), B.size());
  if (int C = A.substr(0, DotA).compare(B.substr(0, DotB)))
    return C < 0;
  return A.substr(DotA) < B.substr(DotB);
}

Telemetry::Telemetry()
    : Epoch(std::chrono::steady_clock::now()), SpanLimit(size_t(1) << 18) {
  // A 0/1 gauge, present in every registry, so consumers can tell
  // "memory accounting reported zero" from "platform cannot measure".
  // merge() treats it as a gauge (max), not a sum.
  Counters["telemetry.memacct.enabled"] = memacct::available() ? 1 : 0;
  // Register the span-context propagation hooks with the thread pool
  // once per process: workers inherit the submitting thread's current
  // span for the duration of a parallel loop, so spans opened inside
  // worker tasks attach to the spawning span. With no registry ever
  // constructed the pool carries no hooks and no per-task cost.
  static std::once_flag Once;
  std::call_once(Once, [] {
    PoolTaskContext Hooks;
    Hooks.Capture = [] { return CurrentSpanTL; };
    Hooks.Install = [](uint64_t Ctx) {
      uint64_t Saved = CurrentSpanTL;
      CurrentSpanTL = Ctx;
      return Saved;
    };
    Hooks.Restore = [](uint64_t Saved) { CurrentSpanTL = Saved; };
    setPoolTaskContext(Hooks);
  });
}

uint64_t Telemetry::currentSpanId() { return CurrentSpanTL; }

uint64_t Telemetry::nowNanos() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - Epoch)
      .count();
}

void Telemetry::setSpanLimit(size_t Limit) {
  std::lock_guard<std::mutex> Lock(Mu);
  SpanLimit = Limit;
}

void Telemetry::count(const char *Name, uint64_t Delta) {
  Telemetry *T = Active;
  if (!T)
    return;
  if (TelemetryShard *S = TelemetryShard::ActiveShard; S && S->T == T) {
    S->Local[Name] += Delta;
    return;
  }
  T->addCounter(Name, Delta);
}

void Telemetry::addCounter(const std::string &Name, uint64_t Delta) {
  std::lock_guard<std::mutex> Lock(Mu);
  Counters[Name] += Delta;
}

uint64_t Telemetry::beginSpan(const char *Name, uint64_t Parent,
                              uint64_t StartNanos, unsigned &DepthOut) {
  std::lock_guard<std::mutex> Lock(Mu);
  // A stale parent id (from a previous registry on this thread) cannot
  // resolve here; treat it as a root.
  if (Parent > Spans.size())
    Parent = 0;
  DepthOut = Parent ? Spans[Parent - 1].Depth + 1 : 0;

  // The aggregate exists from first activation, so a span still open
  // at emission time lists with zero calls.
  Phases.try_emplace(Name, PhaseStat{0, 0, DepthOut});

  if (Spans.size() >= SpanLimit) {
    ++SpansDropped;
    Counters["telemetry.spans_dropped"] = SpansDropped;
    return 0;
  }
  SpanRecord R;
  R.Id = Spans.size() + 1;
  R.Parent = Parent;
  R.Name = Name;
  R.StartNanos = StartNanos;
  R.Depth = DepthOut;
  Spans.push_back(std::move(R));
  return Spans.back().Id;
}

void Telemetry::endSpan(uint64_t Id, const char *Name, uint64_t DurNanos,
                        uint64_t CpuNanos, int64_t MemNetBytes,
                        int64_t MemPeakBytes, unsigned Depth,
                        std::vector<SpanArg> Args) {
  std::lock_guard<std::mutex> Lock(Mu);
  if (Id != 0 && Id <= Spans.size()) {
    SpanRecord &R = Spans[Id - 1];
    R.DurNanos = DurNanos;
    R.CpuNanos = CpuNanos;
    R.MemNetBytes = MemNetBytes;
    R.MemPeakBytes = MemPeakBytes;
    R.Args = std::move(Args);
  }
  PhaseStat &P = Phases.try_emplace(Name, PhaseStat{0, 0, Depth}).first->second;
  P.Nanos += DurNanos;
  ++P.Invocations;
  if (Depth < P.Depth)
    P.Depth = Depth;
}

void Telemetry::merge(const Telemetry &Other) {
  std::lock_guard<std::mutex> Lock(Mu);
  const uint64_t Offset = Spans.size();
  for (const SpanRecord &S : Other.Spans) {
    if (Spans.size() >= SpanLimit) {
      ++SpansDropped;
      Counters["telemetry.spans_dropped"] = SpansDropped;
      continue;
    }
    SpanRecord R = S;
    R.Id = S.Id + Offset;
    if (R.Parent)
      R.Parent += Offset;
    Spans.push_back(std::move(R));
  }
  for (const auto &[Name, Value] : Other.Counters) {
    // Gauges (currently only the memacct capability flag) take the max
    // instead of summing, so folding N registries stays 0/1.
    if (Name == "telemetry.memacct.enabled")
      Counters[Name] = std::max(Counters[Name], Value);
    else
      Counters[Name] += Value;
  }
  for (const auto &[Name, OP] : Other.Phases) {
    auto [It, Inserted] = Phases.try_emplace(Name, OP);
    if (Inserted)
      continue;
    PhaseStat &P = It->second;
    P.Nanos += OP.Nanos;
    P.Invocations += OP.Invocations;
    if (OP.Depth < P.Depth)
      P.Depth = OP.Depth;
  }
}

TelemetryShard::TelemetryShard(Telemetry *T)
    : T(T), Prev(ActiveShard) {
  ActiveShard = this;
}

TelemetryShard::~TelemetryShard() {
  ActiveShard = Prev;
  if (!T || Local.empty())
    return;
  std::lock_guard<std::mutex> Lock(T->Mu);
  for (const auto &[Name, Delta] : Local)
    T->Counters[Name] += Delta;
}

const PhaseStat *Telemetry::phase(std::string_view Name) const {
  auto It = Phases.find(Name);
  return It == Phases.end() ? nullptr : &It->second;
}

uint64_t Telemetry::counter(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Counters.find(Name);
  return It == Counters.end() ? 0 : It->second;
}

//===----------------------------------------------------------------------===//
// Span (RAII)
//===----------------------------------------------------------------------===//

Span::Span(const char *Name) : T(Telemetry::Active), Name(Name) {
  // The flight recorder (crash diagnostics) tracks spans even when no
  // Telemetry registry is installed, so a crash on a plain run still
  // reports where in the pipeline it happened.
  flightSpanBegin(Name);
  if (!T)
    return;
  StartNanos = T->nowNanos();
  Id = T->beginSpan(Name, CurrentSpanTL, StartNanos, Depth);
  SavedParent = CurrentSpanTL;
  if (Id)
    CurrentSpanTL = Id;
  MemPushed = memacct::push();
  CpuStart = threadCpuNanos();
}

Span::~Span() {
  flightSpanEnd();
  if (!T)
    return;
  memacct::Frame F;
  if (MemPushed)
    F = memacct::pop();
  const uint64_t End = T->nowNanos();
  uint64_t CpuEnd = threadCpuNanos();
  CurrentSpanTL = SavedParent;
  T->endSpan(Id, Name, End > StartNanos ? End - StartNanos : 0,
             CpuEnd > CpuStart ? CpuEnd - CpuStart : 0, F.NetBytes,
             F.PeakBytes, Depth, std::move(Args));
}

void Span::arg(const char *Key, uint64_t Value) {
  if (!T)
    return;
  SpanArg A;
  A.Key = Key;
  A.IntValue = Value;
  Args.push_back(std::move(A));
}

void Span::arg(const char *Key, std::string Value) {
  if (!T)
    return;
  SpanArg A;
  A.Key = Key;
  A.StrValue = std::move(Value);
  A.IsString = true;
  Args.push_back(std::move(A));
}
