//===-- telemetry/MemoryAccounting.h - Per-span heap accounting -*- C++ -*-==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Counting-allocator layer for per-span memory accounting: the
/// implementation file replaces the global operator new/delete with
/// versions that, when the calling thread has at least one accounting
/// frame open, charge each allocation's usable size to every open frame
/// on that thread. A Span (telemetry/Telemetry.h) pushes a frame while
/// it is open and reads back net and peak heap bytes when it closes.
///
/// Accounting is strictly per thread: an allocation is charged to the
/// frames of the thread that performed it. Frees are credited the same
/// way, so a frame's net can go negative when it frees memory allocated
/// before it opened — that is real information (the span released
/// memory), not an error. Frames nest up to a fixed depth; spans deeper
/// than that report zero memory.
///
/// The disabled-path cost (no frame open on the thread) is one
/// thread-local integer test per allocation. On platforms without
/// malloc_usable_size (non-glibc), which the build probes for, the
/// layer compiles to no-ops and every span reports zero bytes. Check
/// available(); it is also surfaced as the "memory_accounting" stats
/// field and the "telemetry.memacct.enabled" counter (a 0/1 gauge, not
/// a sum).
///
//===----------------------------------------------------------------------===//

#ifndef DMM_TELEMETRY_MEMORYACCOUNTING_H
#define DMM_TELEMETRY_MEMORYACCOUNTING_H

#include <cstdint>

namespace dmm {
namespace memacct {

/// Net/peak heap movement observed by one accounting frame.
struct Frame {
  int64_t NetBytes = 0;
  int64_t PeakBytes = 0;
};

/// Maximum nesting of accounting frames per thread.
inline constexpr int kMaxDepth = 64;

/// Opens an accounting frame on the calling thread. Returns false (and
/// opens nothing) when the per-thread depth limit is reached; the
/// matching pop() must then be skipped.
bool push();

/// Closes the innermost frame and returns its totals.
Frame pop();

/// True when the platform supports usable-size accounting (glibc).
bool available();

} // namespace memacct
} // namespace dmm

#endif // DMM_TELEMETRY_MEMORYACCOUNTING_H
