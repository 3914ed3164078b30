//===-- interp/Memory.cpp -------------------------------------------------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//

#include "interp/Memory.h"

#include "ast/ASTContext.h"

#include <algorithm>

using namespace dmm;

Value dmm::zeroValue(const Type *Ty) {
  if (Ty->isPointer()) {
    if (isa<FunctionType>(cast<PointerType>(Ty)->pointee()))
      return Value::ofFn(nullptr);
    return Value::nullPtr();
  }
  if (Ty->isMemberPointer())
    return Value::ofMemberPtr(nullptr);
  if (const auto *BT = dyn_cast<BuiltinType>(Ty)) {
    switch (BT->builtinKind()) {
    case BuiltinType::BK::Double:
      return Value::ofDouble(0.0);
    case BuiltinType::BK::Bool:
      return Value::ofBool(false);
    case BuiltinType::BK::Char:
      return Value::ofChar(0);
    case BuiltinType::BK::NullPtr:
      return Value::nullPtr();
    default:
      return Value::ofInt(0);
    }
  }
  return Value::ofInt(0);
}

//===----------------------------------------------------------------------===//
// Slot numbering
//===----------------------------------------------------------------------===//

SlotLayout::SlotLayout(const ASTContext &Ctx, const LayoutEngine &Layout)
    : FieldSlots(Ctx.numDecls(), NoSlot), ClassIndex(Ctx.numDecls(), 0),
      Classes(Ctx.classes().size()) {
  // Interference: two fields conflict when they co-occur in some
  // complete class's unique field list. Scratch tables are indexed by
  // declID (LastClass: the last class listing a field; OrderOf: its
  // first-appearance rank) to keep this cheap for the many small
  // programs of a fuzz campaign.
  std::vector<std::vector<const FieldDecl *>> ClassFields(Classes.size());
  std::vector<std::vector<uint32_t>> FieldClasses; ///< By rank.
  std::vector<const FieldDecl *> Order;
  std::vector<uint32_t> LastClass(Ctx.numDecls(), NoSlot);
  std::vector<uint32_t> OrderOf(Ctx.numDecls(), NoSlot);
  for (uint32_t CI = 0; CI != Classes.size(); ++CI) {
    const ClassDecl *CD = Ctx.classes()[CI];
    ClassIndex[CD->declID()] = CI;
    if (!CD->isComplete())
      continue;
    for (const FieldSlot &Slot : Layout.layout(CD).AllFields) {
      unsigned ID = Slot.Field->declID();
      if (LastClass[ID] == CI)
        continue; // Repeated non-virtual base: share the first subobject.
      LastClass[ID] = CI;
      ClassFields[CI].push_back(Slot.Field);
      if (OrderOf[ID] == NoSlot) {
        OrderOf[ID] = static_cast<uint32_t>(Order.size());
        Order.push_back(Slot.Field);
        FieldClasses.emplace_back();
      }
      FieldClasses[OrderOf[ID]].push_back(CI);
    }
  }
  // Greedy coloring in global first-appearance order: each field takes
  // the lowest slot no co-occurring field holds (UsedBy[s] == rank + 1).
  std::vector<uint32_t> UsedBy;
  for (uint32_t Rank = 0; Rank != Order.size(); ++Rank) {
    for (uint32_t CI : FieldClasses[Rank])
      for (const FieldDecl *Other : ClassFields[CI])
        if (uint32_t S = slotOf(Other); S != NoSlot) {
          if (S >= UsedBy.size())
            UsedBy.resize(S + 1, 0);
          UsedBy[S] = Rank + 1;
        }
    uint32_t Slot = 0;
    while (Slot < UsedBy.size() && UsedBy[Slot] == Rank + 1)
      ++Slot;
    FieldSlots[Order[Rank]->declID()] = Slot;
  }
  for (size_t CI = 0; CI != ClassFields.size(); ++CI) {
    ClassSlots &CS = Classes[CI];
    for (const FieldDecl *F : ClassFields[CI]) {
      Entry E;
      E.Field = F;
      E.Slot = slotOf(F);
      CS.NumSlots = std::max(CS.NumSlots, E.Slot + 1);
      const Type *Ty = F->type();
      if (const auto *AT = dyn_cast<ArrayType>(Ty)) {
        E.ElemType = AT->element();
        E.Count = AT->size();
        Ty = AT->element();
      }
      E.Class = Ty->asClassDecl();
      if (!E.Class)
        E.Zero = zeroValue(Ty);
      CS.Members.push_back(E);
    }
  }
}

//===----------------------------------------------------------------------===//
// Shared engine state
//===----------------------------------------------------------------------===//

void MemoryModel::fail(const std::string &Message) {
  throw GuestError{Message};
}

Storage *MemoryModel::allocObject(const ClassDecl *CD, const FieldDecl *Owner,
                                  uint64_t ObjectID) {
  if (!CD->isComplete())
    fail("cannot create object of incomplete class '" + CD->name() + "'");
  if (!Owner)
    ++NumCompleteObjects;
  const SlotLayout::ClassSlots &CS = Slots.of(CD);
  Storage *Obj = Arena.createObject(CD, Owner);
  Obj->ObjectID = ObjectID;
  Obj->Slots.assign(CS.NumSlots, nullptr);
  for (const SlotLayout::Entry &E : CS.Members)
    Obj->Slots[E.Slot] = allocMember(E, ObjectID);
  return Obj;
}

Storage *MemoryModel::allocMember(const SlotLayout::Entry &E,
                                  uint64_t ObjectID) {
  if (!E.ElemType) {
    if (E.Class)
      return allocObject(E.Class, E.Field, ObjectID);
    Storage *S = Arena.createScalar(E.Field);
    S->V = E.Zero;
    S->ObjectID = ObjectID;
    return S;
  }
  Storage *Arr = Arena.createArray(E.ElemType, E.Field);
  Arr->ObjectID = ObjectID;
  for (uint64_t I = 0; I != E.Count; ++I) {
    if (E.Class) {
      Arr->Elems.push_back(allocObject(E.Class, E.Field, ObjectID));
    } else {
      Storage *S = Arena.createScalar(E.Field);
      S->V = E.Zero;
      S->ObjectID = ObjectID;
      Arr->Elems.push_back(S);
    }
  }
  return Arr;
}
