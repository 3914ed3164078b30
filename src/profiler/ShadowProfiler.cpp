//===-- profiler/ShadowProfiler.cpp - Per-byte shadow memory --------------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//

#include "profiler/ShadowProfiler.h"

#include "ast/Decl.h"
#include "ast/Type.h"
#include "support/Casting.h"
#include "support/SourceManager.h"
#include "telemetry/Telemetry.h"

#include <algorithm>
#include <cassert>

using namespace dmm;

namespace {

/// Snapshot buffer cap: when a new snapshot would exceed this, every
/// other snapshot is dropped and the stride doubles (massif's scheme).
constexpr size_t kMaxSnapshots = 256;

} // namespace

ShadowProfiler::ShadowProfiler(const ClassHierarchy &CH, FieldSet DeadSet)
    : Layout(CH), Dead(std::move(DeadSet)) {}

ShadowProfiler::~ShadowProfiler() = default;

//===----------------------------------------------------------------------===//
// Layout expansion
//===----------------------------------------------------------------------===//

void ShadowProfiler::expandClass(const ClassDecl *CD, uint64_t Base,
                                 bool DeadCtx, ClassInfo &CI) {
  for (const FieldSlot &S : Layout.layout(CD).AllFields) {
    const bool FieldDead = DeadCtx || Dead.count(S.Field) != 0;
    const Type *Ty = S.Field->type();
    if (const ClassDecl *Member = Ty->asClassDecl()) {
      // A by-value class member embeds the member class' complete
      // object; its leaves are the nested class' own leaves.
      expandClass(Member, Base + S.Offset, FieldDead, CI);
      continue;
    }
    if (const auto *AT = dyn_cast<ArrayType>(Ty)) {
      if (const ClassDecl *Elem = AT->element()->asClassDecl()) {
        const uint64_t Stride = Layout.sizeOf(AT->element());
        for (uint64_t I = 0; I < AT->size(); ++I)
          expandClass(Elem, Base + S.Offset + I * Stride, FieldDead, CI);
        continue;
      }
      // Scalar arrays fall through: one leaf covering the whole array
      // (element accesses attribute to the array member as a unit).
    }
    // Leaf: scalar member or scalar array. Merge ranges into an
    // existing leaf for the same field at the same nesting only when
    // produced by repeated non-virtual bases (same FieldDecl appears in
    // AllFields twice); distinct leaves otherwise.
    LeafInfo Leaf;
    Leaf.Field = S.Field;
    Leaf.Ranges.push_back({Base + S.Offset, S.Size});
    Leaf.Bytes = S.Size;
    Leaf.StaticDead = FieldDead;
    CI.LeafIndex[S.Field].push_back(static_cast<uint32_t>(CI.Leaves.size()));
    CI.Leaves.push_back(std::move(Leaf));
  }
}

const ShadowProfiler::ClassInfo &
ShadowProfiler::classInfo(const ClassDecl *CD) {
  auto It = Classes.find(CD);
  if (It != Classes.end())
    return *It->second;
  auto CI = std::make_unique<ClassInfo>();
  CI->CD = CD;
  CI->Size = Layout.layout(CD).CompleteSize;
  CI->DeadPer = Layout.deadBytes(CD, Dead);
  CI->ShrunkPer = Layout.sizeWithoutDead(CD, Dead);
  expandClass(CD, 0, /*DeadCtx=*/false, *CI);
  return *Classes.emplace(CD, std::move(CI)).first->second;
}

//===----------------------------------------------------------------------===//
// Allocation / deallocation events
//===----------------------------------------------------------------------===//

void ShadowProfiler::registerObjects(const ClassDecl *CD, uint64_t Count,
                                     uint64_t FirstID, SourceLocation Site) {
  if (Finalized || Count == 0)
    return;
  const ClassInfo &CI = classInfo(CD);
  AllocRecord R;
  R.Site = Site;
  R.CI = &CI;
  R.FirstID = FirstID;
  R.Count = Count;
  const auto Index = static_cast<uint32_t>(Records.size());
  Records.push_back(R);
  LiveGroups[FirstID] = Index;
  for (uint64_t I = 0; I < Count; ++I) {
    ShadowObject &SO = Shadows[FirstID + I];
    SO.CI = &CI;
    SO.Record = Index;
    SO.Bytes.assign(CI.Size, SB_Allocated);
  }
}

void ShadowProfiler::recordAllocEvent(uint64_t FirstID) {
  if (Finalized)
    return;
  auto It = LiveGroups.find(FirstID);
  if (It == LiveGroups.end())
    return;
  AllocRecord &R = Records[It->second];
  if (R.Counted)
    return;
  R.Counted = true;

  // Mirror computeDynamicMetrics' Alloc case exactly: the trace and the
  // shadow profiler see the same events in the same order, so the
  // running aggregates match the replayed ones byte-for-byte.
  const uint64_t Bytes = R.Count * R.CI->Size;
  DynamicMetrics &M = Sum.Metrics;
  M.ObjectSpace += Bytes;
  M.DeadMemberSpace += R.Count * R.CI->DeadPer;
  M.NumObjects += R.Count;
  LiveBytes += Bytes;
  LiveShrunkBytes += R.Count * R.CI->ShrunkPer;
  LiveObjects += R.Count;
  ++Sum.AllocEvents;
  if (LiveBytes > M.HighWaterMark) {
    M.HighWaterMark = LiveBytes;
    Sum.PeakAllocEvent = Sum.AllocEvents;
  }
  M.HighWaterMarkNoDead = std::max(M.HighWaterMarkNoDead, LiveShrunkBytes);

  if (Sum.AllocEvents % Sum.SnapshotStride == 0)
    takeSnapshot();
}

void ShadowProfiler::takeSnapshot() {
  if (Sum.Snapshots.size() >= kMaxSnapshots) {
    // Massif-style compaction: double the stride, keep the snapshots
    // that fall on the new schedule. Deterministic for a given event
    // sequence.
    Sum.SnapshotStride *= 2;
    const uint64_t Stride = Sum.SnapshotStride;
    Sum.Snapshots.erase(
        std::remove_if(Sum.Snapshots.begin(), Sum.Snapshots.end(),
                       [Stride](const stats::ProfilerSnapshotRow &S) {
                         return S.Event % Stride != 0;
                       }),
        Sum.Snapshots.end());
    if (Sum.AllocEvents % Stride != 0)
      return; // This event is no longer on the schedule.
  }
  Sum.Snapshots.push_back(
      {Sum.AllocEvents, LiveBytes, LiveShrunkBytes, LiveObjects});
  // An instant span puts the snapshot on the Chrome trace timeline and
  // into the stats span tree. All args are deterministic.
  Span S("profiler.snapshot");
  S.arg("event", Sum.AllocEvents);
  S.arg("live_bytes", LiveBytes);
  S.arg("live_bytes_no_dead", LiveShrunkBytes);
  S.arg("live_objects", LiveObjects);
}

void ShadowProfiler::recordFree(uint64_t FirstID) {
  if (Finalized)
    return;
  auto It = LiveGroups.find(FirstID);
  if (It == LiveGroups.end())
    return;
  const uint32_t Index = It->second;
  AllocRecord &R = Records[Index];
  if (!R.Counted)
    return; // The matching alloc event was never recorded; neither is
            // the free (mirrors the trace's TraceIDs guard).

  const uint64_t Bytes = R.Count * R.CI->Size;
  const uint64_t Shrunk = R.Count * R.CI->ShrunkPer;
  LiveBytes -= std::min(LiveBytes, Bytes);
  LiveShrunkBytes -= std::min(LiveShrunkBytes, Shrunk);
  LiveObjects -= std::min(LiveObjects, R.Count);
  ++Sum.FreeEvents;

  foldGroup(Index);
  LiveGroups.erase(It);
}

//===----------------------------------------------------------------------===//
// Member access marking
//===----------------------------------------------------------------------===//

void ShadowProfiler::mark(uint64_t ObjectID, const FieldDecl *F,
                          uint8_t Bits) {
  if (Finalized || ObjectID == 0 || !F)
    return;
  auto It = Shadows.find(ObjectID);
  if (It == Shadows.end())
    return;
  ShadowObject &SO = It->second;
  auto LI = SO.CI->LeafIndex.find(F);
  if (LI == SO.CI->LeafIndex.end())
    return;
  for (uint32_t LeafIdx : LI->second) {
    const LeafInfo &Leaf = SO.CI->Leaves[LeafIdx];
    for (const Range &R : Leaf.Ranges) {
      // Check the first byte: marks always cover whole ranges, so if it
      // already carries the bits the rest of the range does too.
      if (R.Size == 0 || (SO.Bytes[R.Offset] & Bits) == Bits)
        continue;
      for (uint64_t B = 0; B < R.Size; ++B)
        SO.Bytes[R.Offset + B] |= Bits;
    }
  }
}

void ShadowProfiler::recordRead(uint64_t ObjectID, const FieldDecl *F) {
  mark(ObjectID, F, SB_Read);
}

void ShadowProfiler::recordWrite(uint64_t ObjectID, const FieldDecl *F) {
  mark(ObjectID, F, SB_Written);
}

void ShadowProfiler::recordAddrTaken(uint64_t ObjectID, const FieldDecl *F) {
  mark(ObjectID, F, SB_AddrTaken);
}

//===----------------------------------------------------------------------===//
// Folding and finalization
//===----------------------------------------------------------------------===//

void ShadowProfiler::foldObject(const AllocRecord &R, uint64_t ObjectID) {
  auto It = Shadows.find(ObjectID);
  if (It == Shadows.end())
    return;
  const ShadowObject &SO = It->second;
  const SourceLocation Site = R.Site;
  for (const LeafInfo &Leaf : SO.CI->Leaves) {
    SiteKey Key{Site.fileID(), Site.offset(), SO.CI->CD, Leaf.Field};
    stats::ProfilerSiteRow &A = Cells[Key];
    uint8_t Flags = 0;
    for (const Range &Rg : Leaf.Ranges)
      for (uint64_t B = 0; B < Rg.Size; ++B)
        Flags |= SO.Bytes[Rg.Offset + B];
    ++A.Objects;
    A.AllocBytes += Leaf.Bytes;
    A.StaticDead = Leaf.StaticDead;
    if (Flags & SB_Written) {
      A.WrittenBytes += Leaf.Bytes;
      Sum.WrittenBytes += Leaf.Bytes;
    }
    if (Flags & SB_Read) {
      A.ReadBytes += Leaf.Bytes;
      Sum.ReadBytes += Leaf.Bytes;
    } else {
      A.NeverReadBytes += Leaf.Bytes;
      Sum.NeverReadBytes += Leaf.Bytes;
    }
    if (Flags & SB_AddrTaken) {
      A.AddrTakenBytes += Leaf.Bytes;
      Sum.AddrTakenBytes += Leaf.Bytes;
    }
  }
  Shadows.erase(It);
}

void ShadowProfiler::foldGroup(uint32_t RecordIndex) {
  const AllocRecord &R = Records[RecordIndex];
  for (uint64_t I = 0; I < R.Count; ++I)
    foldObject(R, R.FirstID + I);
}

const ProfileSummary &ShadowProfiler::finalize(const SourceManager *SM) {
  if (Finalized)
    return Sum;

  // Objects still live at exit leaked; their shadow state still counts
  // toward the attribution table.
  for (const auto &[FirstID, Index] : LiveGroups) {
    const AllocRecord &R = Records[Index];
    if (!R.Counted)
      continue;
    Sum.LeakedObjects += R.Count;
    foldGroup(Index);
  }
  LiveGroups.clear();
  Finalized = true;

  // Resolve cells into display rows and order them deterministically.
  Sum.Sites.reserve(Cells.size());
  for (auto &[Key, Row] : Cells) {
    PresumedLoc Loc;
    if (SM)
      Loc = SM->presumedLoc(SourceLocation(Key.File, Key.Offset));
    if (Loc.isValid()) {
      Row.File = std::string(Loc.Filename);
      Row.Line = Loc.Line;
    } else {
      Row.File = "<unknown>";
      Row.Line = 0;
    }
    Row.Class = Key.CD->name();
    Row.Member = Key.Field->qualifiedName();
    Sum.Sites.push_back(std::move(Row));
  }
  std::sort(Sum.Sites.begin(), Sum.Sites.end(),
            [](const stats::ProfilerSiteRow &L,
               const stats::ProfilerSiteRow &R) {
              if (L.File != R.File)
                return L.File < R.File;
              if (L.Line != R.Line)
                return L.Line < R.Line;
              if (L.Class != R.Class)
                return L.Class < R.Class;
              return L.Member < R.Member;
            });
  return Sum;
}

const ProfileSummary &ShadowProfiler::summary() const {
  assert(Finalized && "summary() before finalize()");
  return Sum;
}

void ShadowProfiler::emitCounters() const {
  const DynamicMetrics &M = Sum.Metrics;
  Telemetry::count("profiler.allocs", Sum.AllocEvents);
  Telemetry::count("profiler.frees", Sum.FreeEvents);
  Telemetry::count("profiler.objects", M.NumObjects);
  Telemetry::count("profiler.object_bytes", M.ObjectSpace);
  Telemetry::count("profiler.dead_member_bytes", M.DeadMemberSpace);
  Telemetry::count("profiler.high_water_mark", M.HighWaterMark);
  Telemetry::count("profiler.high_water_mark_no_dead", M.HighWaterMarkNoDead);
  Telemetry::count("profiler.leaked_objects", Sum.LeakedObjects);
  Telemetry::count("profiler.snapshots", Sum.Snapshots.size());
  Telemetry::count("profiler.snapshot_stride", Sum.SnapshotStride);
  Telemetry::count("profiler.sites", Sum.Sites.size());
  Telemetry::count("profiler.read_bytes", Sum.ReadBytes);
  Telemetry::count("profiler.written_bytes", Sum.WrittenBytes);
  Telemetry::count("profiler.addr_taken_bytes", Sum.AddrTakenBytes);
  Telemetry::count("profiler.never_read_bytes", Sum.NeverReadBytes);
}

stats::ProfilerSection dmm::toProfilerSection(const ProfileSummary &P) {
  stats::ProfilerSection S;
  S.Present = true;
  S.ObjectSpace = P.Metrics.ObjectSpace;
  S.DeadMemberSpace = P.Metrics.DeadMemberSpace;
  S.HighWaterMark = P.Metrics.HighWaterMark;
  S.HighWaterMarkNoDead = P.Metrics.HighWaterMarkNoDead;
  S.NumObjects = P.Metrics.NumObjects;
  S.AllocEvents = P.AllocEvents;
  S.FreeEvents = P.FreeEvents;
  S.LeakedObjects = P.LeakedObjects;
  S.PeakAllocEvent = P.PeakAllocEvent;
  S.SnapshotStride = P.SnapshotStride;
  S.Snapshots = P.Snapshots;
  S.Sites = P.Sites;
  return S;
}
