//===-- interp/Memory.h - Storage model of both engines ---------*- C++ -*-==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The storage model both execution engines (the tree-walking
/// Interpreter and the bytecode VM) run on: storage nodes for scalars,
/// class instances and arrays; the module-wide slot numbering that
/// addresses a member inside any object that has it; and the attributed
/// scalar load/store and memberwise copy. Scalar storages owned by a
/// data member record that member, so every dynamic read/write is
/// attributed to a FieldDecl — the hook the soundness property tests
/// and the dynamic dead-space measurements rely on. Because both
/// engines share this code, they fire the same attribution events in
/// the same order by construction.
///
//===----------------------------------------------------------------------===//

#ifndef DMM_INTERP_MEMORY_H
#define DMM_INTERP_MEMORY_H

#include "ast/Decl.h"
#include "hierarchy/ObjectLayout.h"
#include "interp/Value.h"
#include "profiler/ShadowProfiler.h"

#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace dmm {

class ASTContext;
class AllocationTrace;

/// Per-member dynamic access counts, keyed by FieldDecl. Feeds the
/// --measure "heat" report (how often each member is actually read and
/// written at run time, aggregated per class by the driver).
struct FieldHeat {
  std::map<const FieldDecl *, uint64_t> Reads;
  std::map<const FieldDecl *, uint64_t> Writes;
};

/// Execution configuration and instrumentation sinks.
struct InterpOptions {
  /// Abort with an error after this many evaluation steps.
  uint64_t MaxSteps = 100'000'000;

  /// When set, object allocations/deallocations are recorded here. The
  /// paper's measurements cover all objects created during execution:
  /// heap, stack and global.
  AllocationTrace *Trace = nullptr;

  /// When set, receives every FieldDecl whose value is read at run time.
  /// Loads whose value feeds only a delete/free argument are not
  /// recorded (mirroring the analysis' deallocation exemption, paper
  /// footnote 3) unless CountDeallocationReads is set.
  std::set<const FieldDecl *> *ReadSet = nullptr;
  /// Record member loads that only feed delete/free (see ReadSet).
  bool CountDeallocationReads = false;
  /// When set, receives every distinct FieldDecl in order of *first*
  /// dynamic read (same deallocation exemption as ReadSet). The fuzzing
  /// harness (src/fuzz) cites this order in its failure records, so an
  /// unsound classification can be tied to the earliest offending read.
  std::vector<const FieldDecl *> *ReadTrace = nullptr;
  /// When set, receives every FieldDecl written at run time.
  std::set<const FieldDecl *> *WriteSet = nullptr;
  /// When set, receives per-member dynamic read/write counts. Reads
  /// feeding only delete/free follow the same exemption as ReadSet.
  FieldHeat *Heat = nullptr;
  /// When set, the shadow-memory profiler is driven on every object
  /// allocation/deallocation, member read/write, and address-take
  /// (profiler/ShadowProfiler.h), adjacent to the matching Trace events
  /// so the profiler and the trace see identical event streams. Null
  /// costs one branch per event.
  ShadowProfiler *Profiler = nullptr;
};

/// One storage node. A tagged union of scalar / object / array.
struct Storage {
  enum class SK { Scalar, Object, Array };

  SK Kind = SK::Scalar;

  /// The data member this storage (or aggregate) realizes, when it is a
  /// field subobject; null for locals, globals, temporaries, and array
  /// elements.
  const FieldDecl *OwnerField = nullptr;

  /// Scalar payload.
  Value V;

  /// Object payload: the member storages, indexed by each member's
  /// SlotLayout slot; holes are null.
  const ClassDecl *Class = nullptr;
  std::vector<Storage *> Slots;
  /// Identity of the complete object this node belongs to (for trace
  /// attribution); 0 when not part of a traced object.
  uint64_t ObjectID = 0;

  /// Array payload.
  const Type *ElemType = nullptr;
  std::vector<Storage *> Elems;

  bool Alive = true; ///< Cleared on delete / scope exit (use-after-free
                     ///< detection).
};

// Storage nodes dominate the resident set of allocation-heavy programs.
static_assert(sizeof(Storage) <= 160, "Storage node grew");

/// Owns all Storage nodes of one execution; addresses are stable.
class MemoryArena {
public:
  Storage *createScalar(const FieldDecl *Owner = nullptr) {
    Storage &S = Nodes.emplace_back();
    S.Kind = Storage::SK::Scalar;
    S.OwnerField = Owner;
    return &S;
  }

  Storage *createObject(const ClassDecl *CD,
                        const FieldDecl *Owner = nullptr) {
    Storage &S = Nodes.emplace_back();
    S.Kind = Storage::SK::Object;
    S.Class = CD;
    S.OwnerField = Owner;
    return &S;
  }

  Storage *createArray(const Type *ElemType,
                       const FieldDecl *Owner = nullptr) {
    Storage &S = Nodes.emplace_back();
    S.Kind = Storage::SK::Array;
    S.ElemType = ElemType;
    S.OwnerField = Owner;
    return &S;
  }

  size_t numNodes() const { return Nodes.size(); }

private:
  std::deque<Storage> Nodes;
};

/// The zero value of a declared type (scalars are zero-initialized for
/// determinism).
Value zeroValue(const Type *Ty);

/// The module-wide slot numbering of data members. Two fields share a
/// slot only when no complete class contains both (greedy coloring in
/// first-appearance order), so a field's slot is the same in every
/// object that has it: a member access needs no receiver class. Slots
/// are reused across unrelated classes, so a lookup must check that the
/// node it finds realizes the requested field (see member()).
class SlotLayout {
public:
  static constexpr uint32_t NoSlot = ~0u;

  /// How to create the storage of one member slot.
  struct Entry {
    const FieldDecl *Field = nullptr;
    uint32_t Slot = 0;
    /// The class of a class-typed member, or the element class of a
    /// class array.
    const ClassDecl *Class = nullptr;
    /// Arrays: element type and static extent; null for non-arrays.
    const Type *ElemType = nullptr;
    uint64_t Count = 0;
    /// Zero value of a scalar member or scalar-array element.
    Value Zero;
  };
  struct ClassSlots {
    /// The unique members of a complete object in layout order (first
    /// occurrence in ClassLayout::AllFields: a repeated non-virtual
    /// base shares the first subobject).
    std::vector<Entry> Members;
    /// Storage::Slots size of an instance (1 + max slot, 0 if none).
    uint32_t NumSlots = 0;
  };

  SlotLayout() = default;
  SlotLayout(const ASTContext &Ctx, const LayoutEngine &Layout);

  /// The slot of \p F, or NoSlot when no complete class has it.
  uint32_t slotOf(const FieldDecl *F) const {
    unsigned ID = F->declID();
    return ID < FieldSlots.size() ? FieldSlots[ID] : NoSlot;
  }
  /// The slots of an object of class \p CD (empty when incomplete).
  const ClassSlots &of(const ClassDecl *CD) const {
    return Classes[ClassIndex[CD->declID()]];
  }

private:
  std::vector<uint32_t> FieldSlots; ///< By declID.
  std::vector<uint32_t> ClassIndex; ///< By declID, into Classes.
  std::vector<ClassSlots> Classes;  ///< ASTContext::classes() order.
};

/// A guest runtime error (null dereference, step-limit exhaustion,
/// division by zero, ...). Both engines unwind their evaluator with it
/// and catch it in run(), which keeps the evaluation paths free of
/// error plumbing.
struct GuestError {
  std::string Message;
};

/// The state and storage routines both engines share: the options and
/// their sinks, the arena, the slot numbering, and the attributed
/// scalar access and memberwise copy. The access routines are inline
/// so the VM's dispatch loop keeps them on its hot path.
class MemoryModel {
protected:
  /// Slots stays empty: each engine numbers the slots in its own
  /// constructor, so the VM can time it as part of compilation.
  MemoryModel(const ClassHierarchy &CH, const InterpOptions &Options)
      : Options(Options), Layout(CH) {}

  [[noreturn]] static void fail(const std::string &Message);

  /// Allocates a complete object (Owner null) or a class-typed member
  /// subobject of \p CD, every member storage tagged with \p ObjectID.
  Storage *allocObject(const ClassDecl *CD, const FieldDecl *Owner,
                       uint64_t ObjectID);

  /// The storage of member \p F (whose slot is \p Slot) in \p Obj, or
  /// null when \p Obj is not an object that has it.
  static Storage *member(const Storage *Obj, const FieldDecl *F,
                         uint32_t Slot) {
    if (Obj->Kind != Storage::SK::Object || Slot >= Obj->Slots.size())
      return nullptr;
    Storage *S = Obj->Slots[Slot];
    return S && S->OwnerField == F ? S : nullptr;
  }

  /// Marks a storage tree dead so later reads/writes are diagnosed as
  /// use-after-free.
  static void markDead(Storage *S) {
    S->Alive = false;
    for (Storage *FS : S->Slots)
      if (FS)
        markDead(FS);
    for (Storage *ES : S->Elems)
      markDead(ES);
  }

  /// Loads a scalar, attributing the read to its member.
  Value loadScalar(Storage *S) {
    if (!S->Alive)
      fail("read from destroyed object");
    if (S->Kind != Storage::SK::Scalar)
      fail("scalar read from aggregate storage");
    if (const FieldDecl *F = S->OwnerField) {
      if (Options.ReadSet)
        Options.ReadSet->insert(F);
      if (Options.ReadTrace && TracedReads.insert(F).second)
        Options.ReadTrace->push_back(F);
      if (Options.Heat)
        ++Options.Heat->Reads[F];
      if (Options.Profiler)
        Options.Profiler->recordRead(S->ObjectID, F);
    }
    return S->V;
  }

  /// Stores an already converted value, attributing the write.
  void storeScalar(Storage *S, const Value &Converted) {
    if (!S->Alive)
      fail("write to destroyed object");
    if (S->Kind != Storage::SK::Scalar)
      fail("scalar write to aggregate storage");
    if (S->OwnerField)
      recordWrite(S, /*ProfilerOnly=*/false);
    S->V = Converted;
  }

  /// Memberwise copy of \p Src into \p Dst, members in \p Dst's layout
  /// order. Copy-initialization (\p InitForm) reports its writes to the
  /// profiler only; class assignment attributes them fully.
  void copyMembers(Storage *Dst, Storage *Src, bool InitForm) {
    if (Dst->Kind == Storage::SK::Scalar && Src->Kind == Storage::SK::Scalar) {
      if (Dst->OwnerField)
        recordWrite(Dst, InitForm);
      Dst->V = loadScalar(Src);
      return;
    }
    if (Dst->Kind == Storage::SK::Object) {
      for (const SlotLayout::Entry &E : Slots.of(Dst->Class).Members)
        if (Storage *SrcS = member(Src, E.Field, E.Slot))
          copyMembers(Dst->Slots[E.Slot], SrcS, InitForm);
    }
    if (Dst->Kind == Storage::SK::Array)
      for (size_t I = 0; I < Dst->Elems.size() && I < Src->Elems.size(); ++I)
        copyMembers(Dst->Elems[I], Src->Elems[I], InitForm);
  }

  InterpOptions Options;
  LayoutEngine Layout;
  SlotLayout Slots;
  MemoryArena Arena;
  uint64_t NumCompleteObjects = 0;

private:
  Storage *allocMember(const SlotLayout::Entry &E, uint64_t ObjectID);

  void recordWrite(Storage *S, bool ProfilerOnly) {
    if (!ProfilerOnly) {
      if (Options.WriteSet)
        Options.WriteSet->insert(S->OwnerField);
      if (Options.Heat)
        ++Options.Heat->Writes[S->OwnerField];
    }
    if (Options.Profiler)
      Options.Profiler->recordWrite(S->ObjectID, S->OwnerField);
  }

  /// Fields already appended to Options.ReadTrace (first-read dedup).
  std::set<const FieldDecl *> TracedReads;
};

} // namespace dmm

#endif // DMM_INTERP_MEMORY_H
