//===-- telemetry/FlightRecorder.cpp --------------------------------------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//

#include "telemetry/FlightRecorder.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <new>
#include <type_traits>

using namespace dmm;

std::atomic<FlightRecorder *> FlightRecorder::Active{nullptr};

const char *dmm::flightEventKindName(FlightEventKind Kind) {
  switch (Kind) {
  case FlightEventKind::Log:
    return "log";
  case FlightEventKind::SpanBegin:
    return "span_begin";
  case FlightEventKind::SpanEnd:
    return "span_end";
  }
  return "log";
}

/// One thread's state: a single-writer event ring plus its open-span
/// stack. The owning thread is the only writer; Head's release store
/// publishes each completed entry.
struct FlightRecorder::Ring {
  std::atomic<uint64_t> Head{0};
  std::atomic<uint32_t> SpanDepth{0};
  FlightEvent *Entries = nullptr;
  const char *SpanNames[kMaxSpanDepth] = {};
};

namespace {

constexpr size_t MyThreadIndexNone = static_cast<size_t>(-1);

/// The calling thread's ring within the installed recorder. A thread
/// keeps its slot for the recorder's (= process's) lifetime.
thread_local FlightRecorder::Ring *MyRingTL = nullptr;
thread_local size_t MyThreadIndexTL = MyThreadIndexNone;

} // namespace

FlightRecorder::FlightRecorder(size_t Cap)
    : Capacity(Cap < 8 ? 8 : Cap),
      EpochNanos(std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now().time_since_epoch())
                     .count()) {
  Rings = new Ring[kMaxThreads];
  // One contiguous block for all rings, allocated before any signal
  // handler could ever walk it. calloc rather than value-initializing
  // new[]: the block is 2 MiB at the default capacity, and calloc'd
  // memory this large comes straight from mmap as the kernel's shared
  // zero page, so only the rings a thread actually writes ever get
  // committed. All-zero bytes are exactly FlightEvent's default value,
  // and FlightEvent is an aggregate (an implicit-lifetime type), so the
  // block holds valid FlightEvents without a constructor call.
  static_assert(std::is_aggregate_v<FlightEvent> &&
                    std::is_trivially_destructible_v<FlightEvent>,
                "calloc'd FlightEvents need no constructor or destructor");
  auto *Block = static_cast<FlightEvent *>(
      std::calloc(kMaxThreads * Capacity, sizeof(FlightEvent)));
  if (!Block)
    throw std::bad_alloc();
  for (size_t I = 0; I < kMaxThreads; ++I)
    Rings[I].Entries = Block + I * Capacity;
}

void FlightRecorder::install(size_t Capacity) {
  static std::once_flag Once;
  std::call_once(Once, [Capacity] {
    // Leaked deliberately: the recorder must stay valid for signal
    // handlers until the very end of the process.
    Active.store(new FlightRecorder(Capacity), std::memory_order_release);
  });
}

uint64_t FlightRecorder::nowNanos() const {
  uint64_t Now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now().time_since_epoch())
                     .count();
  return Now >= EpochNanos ? Now - EpochNanos : 0;
}

FlightRecorder::Ring *FlightRecorder::myRing() {
  if (MyRingTL)
    return MyRingTL;
  uint32_t Index = NextThread.fetch_add(1, std::memory_order_relaxed);
  if (Index >= kMaxThreads)
    return nullptr;
  MyRingTL = &Rings[Index];
  MyThreadIndexTL = Index;
  return MyRingTL;
}

void FlightRecorder::record(FlightEventKind Kind, uint8_t Level,
                            const char *Text) {
  Ring *R = myRing();
  uint64_t Seq = NextSeq.fetch_add(1, std::memory_order_relaxed) + 1;
  if (!R) {
    NoSlotDrops.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  uint64_t Head = R->Head.load(std::memory_order_relaxed);
  FlightEvent &E = R->Entries[Head % Capacity];
  E.Seq = Seq;
  E.TimeNanos = nowNanos();
  E.Thread = static_cast<uint32_t>(MyThreadIndexTL);
  E.Kind = Kind;
  E.Level = Level;
  if (!Text)
    Text = "";
  size_t Len = strnlen(Text, sizeof(E.Text) - 1);
  memcpy(E.Text, Text, Len);
  E.Text[Len] = '\0';
  R->Head.store(Head + 1, std::memory_order_release);
}

void FlightRecorder::spanBegin(const char *Name) {
  Ring *R = myRing();
  if (R) {
    uint32_t Depth = R->SpanDepth.load(std::memory_order_relaxed);
    if (Depth < kMaxSpanDepth)
      R->SpanNames[Depth] = Name;
    R->SpanDepth.store(Depth + 1, std::memory_order_release);
  }
  record(FlightEventKind::SpanBegin, 0, Name);
}

void FlightRecorder::spanEnd() {
  Ring *R = myRing();
  const char *Name = "";
  if (R) {
    uint32_t Depth = R->SpanDepth.load(std::memory_order_relaxed);
    if (Depth > 0) {
      R->SpanDepth.store(Depth - 1, std::memory_order_release);
      if (Depth - 1 < kMaxSpanDepth && R->SpanNames[Depth - 1])
        Name = R->SpanNames[Depth - 1];
    }
  }
  record(FlightEventKind::SpanEnd, 0, Name);
}

size_t FlightRecorder::currentSpanStack(const char **Names,
                                        size_t Max) const {
  const Ring *R = MyRingTL;
  if (!R)
    return 0;
  uint32_t Depth = R->SpanDepth.load(std::memory_order_relaxed);
  if (Depth > kMaxSpanDepth)
    Depth = kMaxSpanDepth;
  size_t N = 0;
  for (uint32_t I = 0; I < Depth && N < Max; ++I)
    if (R->SpanNames[I])
      Names[N++] = R->SpanNames[I];
  return N;
}

uint64_t FlightRecorder::eventsDropped() const {
  uint64_t Dropped = NoSlotDrops.load(std::memory_order_relaxed);
  size_t Threads = threadCount();
  for (size_t I = 0; I < Threads; ++I) {
    uint64_t Head = Rings[I].Head.load(std::memory_order_acquire);
    if (Head > Capacity)
      Dropped += Head - Capacity;
  }
  return Dropped;
}

size_t FlightRecorder::threadCount() const {
  uint32_t N = NextThread.load(std::memory_order_acquire);
  return N > kMaxThreads ? kMaxThreads : N;
}

uint64_t FlightRecorder::ringHead(size_t Thread) const {
  return Rings[Thread].Head.load(std::memory_order_acquire);
}

const FlightEvent *FlightRecorder::ringEntries(size_t Thread) const {
  return Rings[Thread].Entries;
}

size_t FlightRecorder::currentThreadIndex() const {
  return MyRingTL ? MyThreadIndexTL : MyThreadIndexNone;
}

std::vector<FlightEvent> FlightRecorder::snapshot() const {
  std::vector<FlightEvent> Out;
  size_t Threads = threadCount();
  for (size_t I = 0; I < Threads; ++I) {
    uint64_t Head = Rings[I].Head.load(std::memory_order_acquire);
    uint64_t Retained = Head < Capacity ? Head : Capacity;
    for (uint64_t J = Head - Retained; J < Head; ++J) {
      FlightEvent E = Rings[I].Entries[J % Capacity];
      E.Text[sizeof(E.Text) - 1] = '\0'; // Defensive against torn copies.
      Out.push_back(E);
    }
  }
  std::sort(Out.begin(), Out.end(),
            [](const FlightEvent &A, const FlightEvent &B) {
              return A.Seq < B.Seq;
            });
  return Out;
}
