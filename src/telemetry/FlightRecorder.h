//===-- telemetry/FlightRecorder.h - Per-thread event rings -----*- C++ -*-==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-capacity in-memory flight recorder: every thread that emits
/// log events or opens spans writes into its own lock-free ring buffer,
/// so the most recent activity of each thread survives to a crash and
/// can be dumped by the async-signal-safe crash handler
/// (telemetry/CrashHandler.h) without taking locks or allocating.
///
/// Design mirrors the TelemetryShard pattern from PR-5: per-thread
/// single-writer state registered in a global table. Each ring is
/// written only by its owning thread (a plain store plus a release
/// store of the head index), so recording is wait-free and never
/// contends. All ring memory is allocated once at install() time; after
/// that the recorder performs no allocation, which is what makes the
/// crash-time walk safe. The allocation is committed lazily: the event
/// block is calloc'd zero pages, so a ring costs physical memory only
/// once its thread writes to it, and a short run (`--version`) pays for
/// one ring, not 64.
///
/// Alongside the rings, the recorder keeps each thread's stack of open
/// span names (pushed/popped by the Span RAII class in Telemetry.cpp,
/// independent of whether a Telemetry registry is active) so a crash
/// report can say *where in the pipeline* the process died even on runs
/// with no --metrics/--stats-json.
///
/// Events beyond a ring's capacity overwrite the oldest entry (that is
/// the point of a flight recorder); the number of overwritten events is
/// reported as "recorder_dropped" in the stats v3 diagnostics section.
///
//===----------------------------------------------------------------------===//

#ifndef DMM_TELEMETRY_FLIGHTRECORDER_H
#define DMM_TELEMETRY_FLIGHTRECORDER_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace dmm {

enum class FlightEventKind : uint8_t {
  Log = 0,       ///< A log event that passed the logger's level filter.
  SpanBegin = 1, ///< A Span opened (Text = span name).
  SpanEnd = 2,   ///< A Span closed (Text = span name).
};

/// Returns "log", "span_begin", or "span_end". Async-signal-safe.
const char *flightEventKindName(FlightEventKind Kind);

/// One recorded event. POD with a fixed-size text payload so rings can
/// be walked from a signal handler.
struct FlightEvent {
  uint64_t Seq = 0;       ///< Global 1-based sequence number.
  uint64_t TimeNanos = 0; ///< Nanoseconds since the recorder's epoch.
  uint32_t Thread = 0;    ///< Dense recorder thread index (0-based).
  FlightEventKind Kind = FlightEventKind::Log;
  uint8_t Level = 0; ///< LogLevel for Kind == Log; 0 otherwise.
  char Text[102];    ///< NUL-terminated, truncated message / span name.
};

/// The process-wide recorder. Install once near the top of main();
/// instrumentation sites reach it through the free helpers below, which
/// cost one atomic load when no recorder is installed.
class FlightRecorder {
public:
  /// Per-thread ring state; opaque outside FlightRecorder.cpp. Public
  /// only so the implementation's thread_local cache can name it.
  struct Ring;

  static constexpr size_t kDefaultCapacity = 256; ///< Events per thread.
  static constexpr size_t kMaxThreads = 64;
  static constexpr size_t kMaxSpanDepth = 64;
  static constexpr size_t kCrashTailEvents = 64; ///< Per-thread dump cap.

  /// The installed recorder, or null. One atomic load.
  static FlightRecorder *active() {
    return Active.load(std::memory_order_acquire);
  }

  /// Installs the process-wide recorder with \p Capacity event slots
  /// per thread (rounded up to 8). Idempotent: the first call wins and
  /// the recorder lives for the rest of the process.
  static void install(size_t Capacity = kDefaultCapacity);

  /// Records an event on the calling thread's ring. Wait-free; never
  /// allocates. Threads beyond kMaxThreads count into dropped().
  void record(FlightEventKind Kind, uint8_t Level, const char *Text);

  /// \name Span-stack maintenance (called by the Span RAII class).
  /// @{
  void spanBegin(const char *Name);
  void spanEnd();
  /// @}

  /// Copies the calling thread's open-span names, outermost first, into
  /// \p Names (at most \p Max). Returns the count. Async-signal-safe
  /// when called from the owning thread.
  size_t currentSpanStack(const char **Names, size_t Max) const;

  /// Total events ever recorded.
  uint64_t eventsRecorded() const {
    return NextSeq.load(std::memory_order_relaxed);
  }
  /// Events lost: overwritten by ring wrap-around plus events from
  /// threads that arrived after all kMaxThreads slots were taken.
  uint64_t eventsDropped() const;

  size_t capacity() const { return Capacity; }

  /// Copies the retained events of every ring, sorted by Seq. Takes no
  /// locks but allocates — for tests and post-run reporting, not for
  /// signal context. Concurrent writers may tear entries mid-copy;
  /// call after worker threads are quiescent for exact results.
  std::vector<FlightEvent> snapshot() const;

  /// \name Crash-handler access (async-signal-safe)
  /// Raw views over the per-thread state for the write()-only JSON
  /// emitter in CrashHandler.cpp.
  /// @{
  size_t threadCount() const;
  /// Ring \p Thread's next write index (entries [Head-retained, Head)).
  uint64_t ringHead(size_t Thread) const;
  const FlightEvent *ringEntries(size_t Thread) const;
  /// The calling thread's recorder index, or SIZE_MAX if it never
  /// recorded.
  size_t currentThreadIndex() const;
  /// @}

private:
  explicit FlightRecorder(size_t Capacity);

  Ring *myRing();

  static std::atomic<FlightRecorder *> Active;

  size_t Capacity;
  Ring *Rings; ///< kMaxThreads rings, allocated once at install().
  std::atomic<uint32_t> NextThread{0};
  std::atomic<uint64_t> NextSeq{0};
  std::atomic<uint64_t> NoSlotDrops{0};
  uint64_t EpochNanos = 0; ///< steady_clock epoch for TimeNanos.

  uint64_t nowNanos() const;
};

/// \name Instrumentation helpers
/// No-ops (one atomic load) when no recorder is installed.
/// @{
inline void flightRecordLog(uint8_t Level, const char *Msg) {
  if (FlightRecorder *R = FlightRecorder::active())
    R->record(FlightEventKind::Log, Level, Msg);
}
inline void flightSpanBegin(const char *Name) {
  if (FlightRecorder *R = FlightRecorder::active())
    R->spanBegin(Name);
}
inline void flightSpanEnd() {
  if (FlightRecorder *R = FlightRecorder::active())
    R->spanEnd();
}
/// @}

} // namespace dmm

#endif // DMM_TELEMETRY_FLIGHTRECORDER_H
