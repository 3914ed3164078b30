//===-- telemetry/Stats.h - Versioned stats document ------------*- C++ -*-==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one view model of a run's telemetry: a document holding per-span
/// wall/cpu time and memory peaks, the flat phase aggregates, and every
/// counter. Every rendered view reads it: `--metrics` (printMetrics),
/// `--trace-json` (printChromeTrace), `--stats-json` (printStats, the
/// versioned "dmm-stats" schema consumed by `scripts/run_bench.sh` and
/// the schema-validation tests) and `--report` (telemetry/HtmlReport.h).
///
/// Compatibility policy (see docs/OBSERVABILITY.md): within a major
/// version, fields are only ever added, never removed or retyped;
/// consumers must ignore unknown fields. A breaking change increments
/// "version". Timing/memory fields (start_ns, wall_ns, cpu_ns,
/// mem_net_bytes, mem_peak_bytes, and "jobs") vary run to run; all
/// other fields are deterministic for a given input.
///
/// The document holds the registry's own record types (SpanRecord,
/// PhaseStat, the name-ordered maps) rather than mirrors of them. It is
/// either snapshotted from a registry (buildStats) or parsed back from
/// a stats file (parseStats), so `--report --from-stats=FILE` works
/// without re-running the pipeline.
///
//===----------------------------------------------------------------------===//

#ifndef DMM_TELEMETRY_STATS_H
#define DMM_TELEMETRY_STATS_H

#include "telemetry/Telemetry.h"

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace dmm {
namespace stats {

inline constexpr const char kSchemaName[] = "dmm-stats";
/// Version history: 1 — phases/counters/spans (PR-5); 2 — adds the
/// optional "profiler" section (shadow-memory profiler summary,
/// snapshots, and per-site byte attribution); 3 — adds the optional
/// "diagnostics" section (per-level log counts, flight-recorder
/// totals, crash-report count). Documents without the optional
/// sections are valid at any version that permits them; parseStats
/// accepts every version in [kMinSchemaVersion, kSchemaVersion].
inline constexpr int kSchemaVersion = 3;
inline constexpr int kMinSchemaVersion = 1;

/// One point of the shadow profiler's high-water-mark timeline (v2).
struct ProfilerSnapshotRow {
  uint64_t Event = 0; ///< 1-based allocation-event index.
  uint64_t LiveBytes = 0;
  uint64_t LiveBytesNoDead = 0; ///< Live bytes after removing dead members.
  uint64_t LiveObjects = 0;     ///< Live complete objects.
  bool operator==(const ProfilerSnapshotRow &) const = default;
};

/// One (allocation site, class, leaf member) attribution cell (v2).
struct ProfilerSiteRow {
  std::string File; ///< "<unknown>" when the site has no location.
  uint64_t Line = 0;
  std::string Class;  ///< Name of the allocated class.
  std::string Member; ///< Qualified name of the leaf data member.
  uint64_t Objects = 0;
  uint64_t AllocBytes = 0;
  uint64_t WrittenBytes = 0;
  uint64_t ReadBytes = 0;
  uint64_t AddrTakenBytes = 0;
  uint64_t NeverReadBytes = 0; ///< Allocated but never read.
  bool StaticDead = false;     ///< Member (or an enclosing member) is in
                               ///< the analysis dead set.
  bool operator==(const ProfilerSiteRow &) const = default;
};

/// The optional "profiler" object introduced in schema version 2. All
/// fields are deterministic for a given program (no timing), so whole
/// sections compare equal across --jobs levels.
struct ProfilerSection {
  bool Present = false; ///< Section exists in the document.
  uint64_t ObjectSpace = 0;
  uint64_t DeadMemberSpace = 0;
  uint64_t HighWaterMark = 0;
  uint64_t HighWaterMarkNoDead = 0;
  uint64_t NumObjects = 0;
  uint64_t AllocEvents = 0;
  uint64_t FreeEvents = 0;
  uint64_t LeakedObjects = 0;
  uint64_t PeakAllocEvent = 0;
  uint64_t SnapshotStride = 1;
  std::vector<ProfilerSnapshotRow> Snapshots; ///< Event ascending.
  std::vector<ProfilerSiteRow> Sites; ///< (File, Line, Class, Member).
};

/// The optional "diagnostics" object introduced in schema version 3:
/// the run's own observability health. Log counts are per-level event
/// totals (post level-filter); recorder fields mirror the flight
/// recorder (telemetry/FlightRecorder.h); Crashes counts crash
/// reports written by this process (nonzero only if a signal handler
/// fired and the process somehow lived to emit stats — it exists so
/// batch drivers folding many registries surface half-died runs).
struct DiagnosticsSection {
  bool Present = false; ///< Section exists in the document.
  uint64_t LogError = 0;
  uint64_t LogWarn = 0;
  uint64_t LogInfo = 0;
  uint64_t LogDebug = 0;
  uint64_t LogTrace = 0;
  uint64_t RecorderEvents = 0;
  uint64_t RecorderDropped = 0;
  uint64_t Crashes = 0;
};

/// The parsed/built document.
struct StatsDocument {
  int Version = kSchemaVersion;
  std::string Tool; ///< e.g. "deadmember 0.3.0".
  unsigned Jobs = 0;
  bool MemAccounting = false; ///< Platform supports heap accounting.
  ProfilerSection Profiler; ///< Present only when --profile ran (v2).
  DiagnosticsSection Diagnostics; ///< Filled by buildStats (v3).
  PhaseMap Phases;     ///< Depth is 0 in parsed documents.
  CounterMap Counters;
  std::vector<SpanRecord> Spans; ///< In begin order; Spans[I].Id == I+1.
  /// Registry clock at buildStats time (0 in parsed documents); stamps
  /// the trace's counter event. Not part of the stats schema.
  uint64_t SnapshotNanos = 0;
};

/// Snapshots \p T into a document. Call after parallel regions have
/// completed.
StatsDocument buildStats(const Telemetry &T, std::string Tool,
                         unsigned Jobs);

/// Writes the document as schema-versioned JSON.
void printStats(const StatsDocument &D, std::ostream &OS);

/// Writes the human-readable phase/counter table, rows in the
/// documented name order, phases indented by tree depth.
void printMetrics(const StatsDocument &D, std::ostream &OS);

/// Writes Chrome trace-event JSON ({"traceEvents": [...]}, loadable in
/// chrome://tracing or Perfetto): one duration event per span with its
/// id, parent link, and memory/attribute args, then one instant event
/// carrying every counter.
void printChromeTrace(const StatsDocument &D, std::ostream &OS);

/// Parses and validates a stats JSON document: strict JSON, schema
/// name/version, required fields with correct types, span parent ids
/// resolving to earlier spans. On failure returns false and sets
/// \p Error.
bool parseStats(std::string_view Text, StatsDocument &Out,
                std::string &Error);

} // namespace stats
} // namespace dmm

#endif // DMM_TELEMETRY_STATS_H
