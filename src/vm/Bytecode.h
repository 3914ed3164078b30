//===-- vm/Bytecode.h - Register bytecode for MiniC++ -----------*- C++ -*-==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The flat register-based bytecode the VM executes (docs/VM.md). A
/// Module is the unit of compilation: one dense function table (every
/// FunctionDecl in the program, constructors and destructor bodies
/// included, plus one synthetic global-initializer), an interned
/// constant pool, per-class construction/destruction plans, and side
/// tables for allocation sites, string literals, virtual-call sites,
/// and failure messages.
///
/// Member offsets: member accesses carry the field's module-wide slot
/// from the SlotLayout both engines share (interp/Memory.h), so a
/// compiled member access is a bounds check plus one indexed load —
/// valid for any dynamic receiver class, since a field keeps its slot
/// in every class that embeds it.
///
/// Instructions are fixed width: a 16-bit opcode, five 16-bit operands
/// (registers, local slots, small indices) and one 32-bit operand for
/// pool indices and jump targets.
///
//===----------------------------------------------------------------------===//

#ifndef DMM_VM_BYTECODE_H
#define DMM_VM_BYTECODE_H

#include "ast/Decl.h"
#include "interp/Value.h"

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace dmm {

class StringLiteralExpr;
class MethodDecl;

namespace vm {

/// Sentinel for "no function" operands (missing arity-0 constructor,
/// destructor without a body, ...).
constexpr uint32_t NoFunc = 0xFFFFFFFFu;
/// Sentinel for an unpatched jump target; never survives compilation.
constexpr uint32_t NoTarget = 0xFFFFFFFFu;

/// Scalar store conversion, precompiled from the declared type
/// (Interpreter::convertForStore lowered to a dense enum).
enum class Conv : uint8_t { None, Int, Double, Bool, Char };

enum class Op : uint16_t {
  // Constants and moves.
  LoadK,   ///< R[A] = Consts[X]
  Move,    ///< R[A] = R[B]
  ConvOp,  ///< R[A] = convert(R[B], Conv(C))
  Str,     ///< R[A] = pointer to (lazily created) string literal X
  BoolOp,  ///< R[A] = ofBool(R[B].asBool())

  // Control flow.
  Jmp,    ///< PC = X
  JmpF,   ///< if (!R[A].asBool()) PC = X
  JmpT,   ///< if (R[A].asBool()) PC = X
  JmpNMD, ///< if (!frame.MostDerived) PC = X   (ctor vbase guard)
  Fail,   ///< throw runtime error Msgs[X]

  // Locals. Storage-backed locals live in LS[slot]; register-resident
  // scalars are plain registers (no ops needed beyond Move/ConvOp).
  LocPtr,      ///< R[A] = ofPtr({LS[B]})
  LdLoc,       ///< R[A] = loadOrDecay(LS[B])
  LSet,        ///< LS[A] = R[B].Ptr.Pointee
  DeclScalar,  ///< LS[A] = fresh scalar; V = convert(R[B], Conv(C))
  DeclRefVar,  ///< LS[A] = R[B].Ptr.Pointee (reference variable bind)
  DestroyLoc,  ///< destroyCompleteObject(LS[A])

  // Globals. GS = storage bound mid-declaration (the interpreter's
  // global-init frame locals); GP = published after the declaration
  // completes (the interpreter's Globals map).
  GlobPtr,    ///< R[A] = ofPtr({GS[B]}); fail Msgs[X] if unbound
  GlobPtrPub, ///< R[A] = ofPtr({GP[B]}); fail Msgs[X] if unpublished
  GDeclScalar, ///< GS[A] = fresh scalar; V = convert(R[B], Conv(C))
  GDeclRef,   ///< GS[A] = R[B].Ptr.Pointee
  GBind,      ///< GS[A] = R[B].Ptr.Pointee
  GPublish,   ///< GP[A] = GS[A]
  GMarkObj,   ///< append R[A].Ptr.Pointee to the global teardown list

  // this / member access bases.
  ThisOp,  ///< R[A] = ofPtr({frame.This}); fail Msgs[X] if null
  ArrowChk, ///< validate R[A] as `->` base (non-null pointer to object)
  DotChk,  ///< validate R[A] as rvalue `.` base (non-null pointer)

  // Fields. Places are Ptr values whose Pointee is the storage node.
  FieldPlace, ///< R[A] = slot C of object R[B], which must realize
              ///< FieldTable[D] (colors are reused across unrelated
              ///< classes); fail Msgs[X] on miss
  MemPtrPlace, ///< R[A] = member R[C] (a MemberPtr) of object R[B]

  // Subscripts (index register, then base, per evalLValue order).
  IdxArr,  ///< R[A] = element R[C] of array place R[B]
  IdxPtr,  ///< R[A] = element R[C] relative to pointer R[B]
  DerefP,  ///< R[A] = place of *R[B]; fails "dereference of null pointer"

  // Loads and stores through places.
  Decay,     ///< R[A] = loadOrDecay(place R[B])
  LoadSc,    ///< R[A] = loadScalar(place R[B])  (strict)
  LoadNA,    ///< R[A] = raw value of place R[B], alive/kind checked,
             ///< no read attribution (deallocation-argument loads)
  RawV,      ///< R[A] = raw V of place R[B] (plain-assign result)
  StoreAt,   ///< storeScalar(place R[A], R[B], Conv(C))

  // Unary / binary operators.
  Neg,      ///< R[A] = -R[B] (double or int, by value kind)
  NotOp,    ///< R[A] = ofBool(!R[B].asBool())
  BitNot,   ///< R[A] = ofInt(~R[B].asInt())
  AddrTake, ///< recordAddrTaken on place R[A]'s owner field
  AddrIdxA, ///< R[A] = &array-place R[B][R[C]] (keeps provenance)
  AddrIdxP, ///< R[A] = &pointer R[B][R[C]]
  ChkSub,   ///< validate R[A] is a pointer ("subscript of non-pointer");
            ///< runs between base and index of `&p[i]`, as the tree does
  IncDec,   ///< R[A] = old/new of place R[B]; C bit0=inc, bit1=pre;
            ///< Conv(D)
  Bin,      ///< R[A] = R[B] op(C) R[D] (full evalBinary semantics)
  AddII,    ///< R[A] = ofInt(R[B].IntVal + rhs); rhs is R[D].IntVal, or
            ///< Consts[X].IntVal when C bit0 is set (folded literal).
            ///< E=1 adds one more (the deliberate fault-injection
            ///< miscompile)
  SubII,    ///< R[A] = ofInt(R[B].IntVal - rhs); C bit0/X as AddII
  MulII,    ///< R[A] = ofInt(R[B].IntVal * rhs); C bit0/X as AddII
  CmpII,    ///< R[A] = ofBool(R[B].IntVal <op C> rhs); rhs is
            ///< R[D].IntVal, or Consts[X].IntVal when E bit0 is set
  Compound, ///< New = R[C] op(E) R[D]; storeScalar(place R[B], New,
            ///< Conv(X)); R[A] = New (C holds the pre-loaded old value)
  CompoundR, ///< register form: New = R[C] op(E) R[D];
             ///< R[B] = convert(New, Conv(X)); R[A] = New
  IncDecR,  ///< register form of IncDec on R[B]; C bit0=inc, bit1=pre;
            ///< Conv(D); R[A] = result
  CastPtr,  ///< R[A] = pointer cast of R[B]

  // Calls. Arguments occupy consecutive registers [B, B+C).
  Call,     ///< R[A] = call Functions[X] (no receiver)
  CallM,    ///< R[A] = call Functions[X] with This = object R[D]
  CallV,    ///< R[A] = call Functions[R[E].IntVal] with This = R[D]
  CallI,    ///< R[A] = indirect call through fn-pointer R[D]
  ChkFn,    ///< validate R[A] as a non-null function pointer
  VDisp,    ///< R[A] = ofInt(resolved function index) for virtual site
            ///< X with receiver object R[B] (inline-cached)
  Ret,      ///< return R[A]
  RetUnit,  ///< return unit

  // Objects and arrays.
  AllocObj, ///< R[A] = new object of Classes[X] at site B
  CtorCall, ///< construct object R[A] as Classes[X], ctor E (NoFunc16 =
            ///< implicit default), args [B,B+C), D = most-derived
  CtorElems, ///< construct each element of array place R[A] as
             ///< Classes[X] via its arity-0 ctor (member arrays)
  ArrLocal, ///< R[A] = new local/global array per ArrayDescs[X]
  ArrNew,   ///< R[A] = heap array-new per ArrayDescs[X], count R[B]
  NewScal0, ///< R[A] = pointer to fresh scalar with V = Consts[X]
  NewScalI, ///< R[A] = pointer to fresh scalar, V = convert(R[B], C)
  DeleteOp, ///< delete R[A]; B = array form
  CopyInit, ///< memberwise copy-initialize object R[A] from R[B]
  CopyAsgn, ///< class assignment: object place R[B] = R[C]; R[A]=R[C]

  // Fused forms (appended so the dispatch table order above is stable).
  JmpCmpII, ///< fused integer compare-and-branch for statement
            ///< conditions: lhs R[A].IntVal, rhs R[D].IntVal (or
            ///< Consts[D].IntVal when E bit1 is set), comparison kind C
            ///< as CmpII; PC = X when the result equals E bit0
  LdFld,    ///< R[A] = loadOrDecay(member D at slot-color C of object
            ///< R[B]); fuses FieldPlace+Decay, X = failure message
  StFld,    ///< storeScalar(member D at slot-color C of object R[B],
            ///< R[A], Conv(E)); fuses FieldPlace+StoreAt, X = message
  DivII,    ///< R[A] = ofInt(R[B].IntVal / rhs), "integer division by
            ///< zero" when rhs is 0; C bit0/X as AddII
  RemII,    ///< R[A] = ofInt(R[B].IntVal % rhs), "integer remainder by
            ///< zero" when rhs is 0; C bit0/X as AddII
};

/// 16-bit sentinel used in CtorCall's E operand.
constexpr uint16_t NoFunc16 = 0xFFFFu;

/// One fixed-width instruction.
struct Insn {
  Op Opcode = Op::RetUnit;
  uint16_t A = 0, B = 0, C = 0, D = 0, E = 0;
  uint32_t X = 0;
};

/// How one parameter is bound at call entry (resolved at compile time
/// from the declared type and the escape analysis).
struct ParamPlan {
  enum class PK : uint8_t {
    RefBind,       ///< reference: LS[Slot] = arg.Ptr.Pointee
    ClassShare,    ///< by-value class: LS[Slot] = arg object (shared)
    ScalarStorage, ///< fresh scalar storage holding convert(arg)
    ScalarReg,     ///< register-resident: R[Slot] = convert(arg)
  };
  PK Kind = PK::ScalarReg;
  uint16_t Slot = 0;
  Conv ConvKind = Conv::None;
};

/// One function-table entry. Indexed densely; includes every
/// FunctionDecl (methods, constructors, destructors, builtins) plus a
/// synthetic global initializer at Module::GlobalInitIdx.
struct FuncEntry {
  const FunctionDecl *Decl = nullptr;
  bool Defined = false;
  bool IsBuiltin = false;
  BuiltinKind Builtin = BuiltinKind::None;
  /// Constructors bind parameters without the by-value-class share rule
  /// and are invoked through the construction protocol.
  bool IsCtor = false;
  std::vector<ParamPlan> Params;
  uint16_t NumRegs = 0;
  uint16_t NumLocals = 0;
  std::vector<Insn> Code;
  /// Precomputed failure messages (empty when never needed).
  std::string UndefinedMsg; ///< "call to undefined function '...'"
  std::string ArgCountMsg;  ///< argument/constructor count mismatch
};

/// What a direct data member of a class is, for the construction and
/// destruction walks (CD->fields() order).
struct MemberPlan {
  const FieldDecl *Field = nullptr;
  uint32_t SlotColor = 0;
  enum class MK : uint8_t { Scalar, Class, ClassArray, Other } Kind =
      MK::Scalar;
  uint32_t ElemClassIdx = 0; ///< For Class/ClassArray: Classes[] index.
};

/// Per-class object plan: construction/destruction walk data. The
/// member slots come from the shared SlotLayout (interp/Memory.h).
struct ClassPlan {
  const ClassDecl *Decl = nullptr;
  uint64_t CompleteSize = 0; ///< Layout bytes, for the allocation trace.
  /// Direct members in declaration order.
  std::vector<MemberPlan> Members;
  /// Transitive virtual bases (ClassHierarchy order) and direct
  /// non-virtual bases, as Classes[] indices.
  std::vector<uint32_t> VBases;
  std::vector<uint32_t> NVBases;
  uint32_t Arity0Ctor = NoFunc;  ///< Functions[] index, or NoFunc.
  uint32_t DtorBody = NoFunc;    ///< Functions[] index of a destructor
                                 ///< with a body, or NoFunc.
};

/// Allocation-site descriptor for array creation ops.
struct ArrayDesc {
  const Type *ElemType = nullptr;
  int32_t ElemClassIdx = -1;  ///< -1 for non-class elements.
  uint32_t ZeroConstIdx = 0;  ///< Element zero value (non-class).
  uint64_t Count = 0;         ///< Static extent (ArrLocal only).
  uint32_t SiteIdx = 0;       ///< Sites[] index for registerObjects.
};

/// Virtual-call site: the static method plus its failure message; the
/// VM keeps a parallel per-site inline cache.
struct VCallSite {
  const MethodDecl *Method = nullptr;
  std::string FailMsg;
};

/// A compiled program.
struct Module {
  std::vector<Value> Consts;
  std::vector<FuncEntry> Functions;
  std::vector<ClassPlan> Classes;
  std::vector<ArrayDesc> ArrayDescs;
  std::vector<SourceLocation> Sites;
  std::vector<const StringLiteralExpr *> StringSites;
  std::vector<VCallSite> VSites;
  std::vector<std::string> Msgs;
  /// Fields referenced by FieldPlace's D operand: the runtime checks
  /// that the slot it indexes actually realizes this field, since slot
  /// colors are shared between fields of unrelated classes.
  std::vector<const FieldDecl *> FieldTable;
  /// Globals, in ASTContext::globals() order.
  std::vector<const VarDecl *> Globals;
  uint32_t GlobalInitIdx = NoFunc;

  /// Lookup tables keyed by declaration.
  std::unordered_map<const FunctionDecl *, uint32_t> FuncIdx;
  std::unordered_map<const ClassDecl *, uint32_t> ClassIdx;
};

} // namespace vm
} // namespace dmm

#endif // DMM_VM_BYTECODE_H
