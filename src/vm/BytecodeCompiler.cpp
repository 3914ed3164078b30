//===-- vm/BytecodeCompiler.cpp -------------------------------------------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
//
// Lowering notes. The golden rule is interp/Interpreter.cpp: every
// compiled sequence performs the same observable actions (instrumented
// loads/stores, allocations, failure messages) in the same order as the
// corresponding eval* function. Comments of the form "evalX:" cite the
// mirrored interpreter path.
//
//===----------------------------------------------------------------------===//

#include "vm/BytecodeCompiler.h"

#include "ast/ASTContext.h"
#include "ast/Expr.h"
#include "ast/Stmt.h"
#include "hierarchy/ClassHierarchy.h"
#include "hierarchy/ObjectLayout.h"
#include "interp/Memory.h"

#include <algorithm>
#include <cstring>
#include <set>
#include <stdexcept>

using namespace dmm;
using namespace dmm::vm;

namespace {

/// Store conversion of a declared type (convertForStore, precompiled).
Conv convFor(const Type *Ty) {
  if (!Ty)
    return Conv::None;
  if (const auto *BT = dyn_cast<BuiltinType>(Ty)) {
    switch (BT->builtinKind()) {
    case BuiltinType::BK::Int:
      return Conv::Int;
    case BuiltinType::BK::Double:
      return Conv::Double;
    case BuiltinType::BK::Bool:
      return Conv::Bool;
    case BuiltinType::BK::Char:
      return Conv::Char;
    default:
      return Conv::None;
    }
  }
  return Conv::None;
}

bool isIntType(const Type *Ty) {
  const auto *BT = dyn_cast_or_null<BuiltinType>(Ty);
  return BT && BT->builtinKind() == BuiltinType::BK::Int;
}

/// CmpII/JmpCmpII comparison-kind operand for a binary operator, or -1
/// when the operator is not a comparison.
int cmpCode(BinaryOpKind K) {
  switch (K) {
  case BinaryOpKind::LT: return 0;
  case BinaryOpKind::GT: return 1;
  case BinaryOpKind::LE: return 2;
  case BinaryOpKind::GE: return 3;
  case BinaryOpKind::EQ: return 4;
  case BinaryOpKind::NE: return 5;
  default: return -1;
  }
}

/// Strips explicit casts (evalLValue's Cast case / stripCastsForDealloc).
const Expr *stripCasts(const Expr *E) {
  while (const auto *CE = dyn_cast<CastExpr>(E))
    E = CE->sub();
  return E;
}

/// Constant-pool interning key.
struct ConstKey {
  uint8_t Kind;
  uint64_t Bits;
  bool operator<(const ConstKey &O) const {
    return Kind != O.Kind ? Kind < O.Kind : Bits < O.Bits;
  }
};

class Compiler {
public:
  Compiler(const ASTContext &Ctx, const ClassHierarchy &CH,
           const LayoutEngine &Layout, const SlotLayout &Slots,
           const CompilerConfig &Config)
      : Ctx(Ctx), CH(CH), Layout(Layout), Slots(Slots), Config(Config) {}

  Module compile();

private:
  const ASTContext &Ctx;
  const ClassHierarchy &CH;
  const LayoutEngine &Layout;
  const SlotLayout &Slots;
  CompilerConfig Config;
  Module M;

  std::map<ConstKey, uint32_t> ConstMap;
  std::unordered_map<std::string, uint32_t> MsgMap;
  std::unordered_map<const VarDecl *, uint32_t> GlobalIdx;

  //===--- Per-function state ---------------------------------------------===//

  struct Binding {
    bool InReg = false;
    uint16_t Idx = 0;
  };
  struct Loop {
    size_t ScopeDepth;
    std::vector<size_t> BreakPatches;
    std::vector<size_t> ContinuePatches;
  };

  FuncEntry *F = nullptr;
  std::unordered_map<const VarDecl *, Binding> Bind;
  std::set<const VarDecl *> Escaped;
  std::vector<std::vector<uint16_t>> Scopes;
  std::vector<Loop> Loops;
  uint16_t FirstTmp = 0, Tmp = 0, HighWater = 0, NextSlot = 0;
  bool InGlobalInit = false;
  static constexpr uint16_t Any = 0xFFFF;

  //===--- Small helpers --------------------------------------------------===//

  size_t emit(Op O, uint16_t A = 0, uint16_t B = 0, uint16_t C = 0,
              uint16_t D = 0, uint16_t E = 0, uint32_t X = 0) {
    F->Code.push_back({O, A, B, C, D, E, X});
    return F->Code.size() - 1;
  }
  size_t here() const { return F->Code.size(); }
  void patch(size_t At) {
    F->Code[At].X = static_cast<uint32_t>(F->Code.size());
  }
  void patchTo(size_t At, size_t Target) {
    F->Code[At].X = static_cast<uint32_t>(Target);
  }

  uint16_t allocTmp(unsigned N = 1) {
    if (Tmp + N > 0xFFF0)
      throw std::runtime_error("vm: function needs too many registers");
    uint16_t R = Tmp;
    Tmp = static_cast<uint16_t>(Tmp + N);
    HighWater = std::max(HighWater, Tmp);
    return R;
  }
  uint16_t target(uint16_t Dst) { return Dst == Any ? allocTmp() : Dst; }

  uint32_t internConst(const Value &V) {
    ConstKey K{};
    K.Kind = static_cast<uint8_t>(V.Kind);
    switch (V.Kind) {
    case Value::VK::Double:
      std::memcpy(&K.Bits, &V.DoubleVal, sizeof(double));
      break;
    case Value::VK::Ptr: // Only the null pointer is ever a constant.
      K.Bits = 0;
      break;
    case Value::VK::FnPtr:
      K.Bits = reinterpret_cast<uint64_t>(V.Fn);
      break;
    case Value::VK::MemberPtr:
      K.Bits = reinterpret_cast<uint64_t>(V.Member);
      break;
    default:
      K.Bits = static_cast<uint64_t>(V.IntVal);
      break;
    }
    auto It = ConstMap.find(K);
    if (It != ConstMap.end())
      return It->second;
    uint32_t Idx = static_cast<uint32_t>(M.Consts.size());
    M.Consts.push_back(V);
    ConstMap.emplace(K, Idx);
    return Idx;
  }

  uint32_t msg(const std::string &S) {
    auto It = MsgMap.find(S);
    if (It != MsgMap.end())
      return It->second;
    uint32_t Idx = static_cast<uint32_t>(M.Msgs.size());
    M.Msgs.push_back(S);
    MsgMap.emplace(S, Idx);
    return Idx;
  }

  uint32_t site(SourceLocation Loc) {
    M.Sites.push_back(Loc);
    return static_cast<uint32_t>(M.Sites.size() - 1);
  }

  /// FieldTable index for FieldPlace's identity check (16-bit operand).
  uint16_t fieldIdx(const FieldDecl *FD) {
    auto It = FieldIdxMap.find(FD);
    if (It != FieldIdxMap.end())
      return It->second;
    if (M.FieldTable.size() >= 0xFFFF)
      throw std::runtime_error("vm: too many fields");
    uint16_t Idx = static_cast<uint16_t>(M.FieldTable.size());
    M.FieldTable.push_back(FD);
    FieldIdxMap.emplace(FD, Idx);
    return Idx;
  }
  std::unordered_map<const FieldDecl *, uint16_t> FieldIdxMap;

  uint16_t loadConst(const Value &V, uint16_t Dst) {
    uint16_t R = target(Dst);
    emit(Op::LoadK, R, 0, 0, 0, 0, internConst(V));
    return R;
  }

  uint32_t classIdx(const ClassDecl *CD) { return M.ClassIdx.at(CD); }
  uint32_t funcIdx(const FunctionDecl *FD) { return M.FuncIdx.at(FD); }

  //===--- Module construction --------------------------------------------===//

  void indexFunctions();
  void buildClassPlans();
  void compileFunctions();
  void compileGlobalInit();

  ParamPlan planParam(const ParamDecl *P, bool IsCtor);
  void beginFunction(FuncEntry &Entry, const FunctionDecl *FD, bool IsCtor);
  void finishFunction();

  //===--- Pre-pass: escape analysis + local binding ----------------------===//

  void analyzeStmt(const Stmt *S);
  void analyzeExpr(const Expr *E);
  void analyzeVarDecl(const VarDecl *V);
  void noteEscape(const Expr *E);
  void assignLocal(const VarDecl *V);
  std::vector<const VarDecl *> PendingLocals;

  //===--- Statement compilation ------------------------------------------===//

  void compileStmt(const Stmt *S);
  void compileCompound(const CompoundStmt *CS);
  void compileVarDecl(const VarDecl *V);
  void compileGlobalVarDecl(const VarDecl *V);
  void emitScopeDestroys(size_t DownToDepth);

  //===--- Expression compilation -----------------------------------------===//

  uint16_t rval(const Expr *E, uint16_t Dst = Any);
  void rvalInto(const Expr *E, uint16_t Dst) {
    uint16_t R = rval(E, Dst);
    if (R != Dst)
      emit(Op::Move, Dst, R);
  }
  uint16_t place(const Expr *E, uint16_t Dst = Any);
  void placeInto(const Expr *E, uint16_t Dst) {
    uint16_t R = place(E, Dst);
    if (R != Dst)
      emit(Op::Move, Dst, R);
  }
  uint16_t objectBase(const Expr *Base, bool IsArrow);
  uint16_t compileAssign(const AssignExpr *E, uint16_t Dst, bool NeedResult);
  uint16_t compileUnary(const UnaryExpr *E, uint16_t Dst);
  uint16_t compileIncDec(const UnaryExpr *E, uint16_t Dst);
  uint16_t compileBinary(const BinaryExpr *E, uint16_t Dst);
  uint16_t compileCall(const CallExpr *E, uint16_t Dst);
  uint16_t compileNew(const NewExpr *E, uint16_t Dst);
  uint16_t deallocArg(const Expr *E);
  uint16_t emitFail(const std::string &Message, uint16_t Dst);

  /// Rvalue whose result register may alias a local's home register.
  /// Only legal when the value is consumed before any other side effect
  /// can run (jump conditions, store sources, the rhs of a binary op).
  uint16_t rvalA(const Expr *E);
  /// Rvalue in statement position: effects only, result discarded.
  void rvalVoid(const Expr *E);
  /// True when evaluating E might write a register-resident local
  /// (conservative: any assignment or ++/-- anywhere inside). Calls
  /// cannot: register residency implies the variable never escapes.
  static bool containsWrite(const Expr *E);
  /// Operand eligible for the int fast path: an int-typed expression
  /// form whose compiled result is guaranteed to be exactly
  /// Value::VK::Int at run time (so its IntVal can be consumed raw and
  /// the Conv::Int it would otherwise pass through is the identity).
  bool fastIntOperand(const Expr *E);
  /// True when evaluating E cannot produce any observable effect — no
  /// storage reads/writes, no allocation, no failure, no output. Such
  /// an rhs may be reordered across the member-storage check that the
  /// fused StFld performs after its source evaluates.
  bool isPureOperand(const Expr *E);
  /// Emit the conditional branch for a condition expression. Integer
  /// comparisons with fast operands fuse into one JmpCmpII; everything
  /// else materializes the boolean and branches JmpF/JmpT. Returns the
  /// emit site, to be patched to the branch target.
  size_t emitCondBranch(const Expr *Cond, bool JumpOnTrue);
  /// Slot for a field access, 0xFFFF when no complete class has the
  /// field (the access then fails the slot check at run time).
  uint16_t fieldSlot(const FieldDecl *Field) {
    uint32_t Slot = Slots.slotOf(Field);
    return Slot == SlotLayout::NoSlot ? 0xFFFF : static_cast<uint16_t>(Slot);
  }

  /// Locals mid-declaration: the tree-walker binds a scalar/reference
  /// local only after its initializer evaluates, so `int x = x;` fails
  /// "not in scope" there; the VM pre-binds registers and must compile
  /// such references to the same failure.
  std::set<const VarDecl *> DeadLocals;
  std::unordered_map<const StringLiteralExpr *, uint32_t> StrSiteIdx;

  /// 16-bit operand guards: these never trip on realistic programs, but
  /// overflowing silently would miscompile.
  uint16_t site16(SourceLocation Loc) {
    uint32_t S = site(Loc);
    if (S > 0xFFFF)
      throw std::runtime_error("vm: too many allocation sites");
    return static_cast<uint16_t>(S);
  }
  uint16_t fn16(uint32_t FuncIdx) {
    if (FuncIdx >= NoFunc16)
      throw std::runtime_error("vm: too many functions for ctor index");
    return static_cast<uint16_t>(FuncIdx);
  }

  /// Evaluates call/ctor arguments into a fresh consecutive register
  /// block; ByRef(i) selects lvalue (place) evaluation.
  template <typename ByRefFn>
  uint16_t compileArgs(const std::vector<Expr *> &Args, ByRefFn ByRef,
                       bool IsFree = false) {
    uint16_t Base = allocTmp(static_cast<unsigned>(Args.size()));
    for (size_t I = 0; I != Args.size(); ++I) {
      if (ByRef(I))
        placeInto(Args[I], static_cast<uint16_t>(Base + I));
      else if (IsFree) {
        uint16_t R = deallocArg(Args[I]);
        if (R != Base + I)
          emit(Op::Move, static_cast<uint16_t>(Base + I), R);
      } else
        rvalInto(Args[I], static_cast<uint16_t>(Base + I));
    }
    return Base;
  }

  static bool ctorParamIsRef(const ConstructorDecl *Ctor, size_t I) {
    return Ctor && I < Ctor->params().size() &&
           Ctor->params()[I]->type()->isReference();
  }
  /// ByRef flags for a call's arguments (evalCall: resolved callee's
  /// params; for indirect calls the callee's static function type).
  static bool callParamIsRef(const FunctionDecl *Callee,
                             const FunctionType *FT, size_t I) {
    if (Callee)
      return I < Callee->params().size() &&
             Callee->params()[I]->type()->isReference();
    if (FT)
      return I < FT->params().size() && FT->params()[I]->isReference();
    return false;
  }
  static const FunctionType *calleeFnType(const CallExpr *Call) {
    const Type *T = Call->callee()->type();
    if (!T)
      return nullptr;
    if (T->isPointer())
      T = cast<PointerType>(T)->pointee();
    return dyn_cast<FunctionType>(T);
  }

  uint32_t arrayDesc(const Type *ElemTy, uint64_t Count, SourceLocation Loc) {
    ArrayDesc D;
    D.ElemType = ElemTy;
    if (const ClassDecl *CD = ElemTy->asClassDecl())
      D.ElemClassIdx = static_cast<int32_t>(classIdx(CD));
    else
      D.ZeroConstIdx = internConst(zeroValue(ElemTy));
    D.Count = Count;
    D.SiteIdx = site(Loc);
    M.ArrayDescs.push_back(D);
    return static_cast<uint32_t>(M.ArrayDescs.size() - 1);
  }
};

//===----------------------------------------------------------------------===//
// Module construction
//===----------------------------------------------------------------------===//

void Compiler::indexFunctions() {
  for (const FunctionDecl *FD : Ctx.functions()) {
    uint32_t Idx = static_cast<uint32_t>(M.Functions.size());
    M.FuncIdx.emplace(FD, Idx);
    FuncEntry E;
    E.Decl = FD;
    E.IsBuiltin = FD->isBuiltin();
    E.Builtin = FD->builtinKind();
    E.IsCtor = isa<ConstructorDecl>(FD);
    // Constructors run their initializer prologue even without a body
    // (Interpreter::construct); everything else follows isDefined().
    E.Defined = E.IsCtor || FD->isDefined();
    if (E.IsBuiltin)
      E.UndefinedMsg = "call to undefined function '" + FD->name() + "'";
    else
      E.UndefinedMsg =
          "call to undefined function '" + FD->qualifiedName() + "'";
    if (E.IsCtor)
      E.ArgCountMsg = "constructor argument count mismatch for '" +
                      cast<ConstructorDecl>(FD)->parent()->name() + "'";
    else
      E.ArgCountMsg =
          "argument count mismatch calling '" + FD->qualifiedName() + "'";
    M.Functions.push_back(std::move(E));
  }
}

void Compiler::buildClassPlans() {
  for (const ClassDecl *CD : Ctx.classes())
    M.ClassIdx.emplace(CD, static_cast<uint32_t>(M.Classes.size())),
        M.Classes.push_back(ClassPlan{});
  for (const ClassDecl *CD : Ctx.classes()) {
    ClassPlan &P = M.Classes[classIdx(CD)];
    P.Decl = CD;
    if (!CD->isComplete())
      continue;
    P.CompleteSize = Layout.layout(CD).CompleteSize;
    for (const ClassDecl *VB : CH.virtualBases(CD))
      P.VBases.push_back(classIdx(VB));
    for (const BaseSpecifier &BS : CD->bases())
      if (!BS.IsVirtual)
        P.NVBases.push_back(classIdx(BS.Base));
    for (const FieldDecl *Field : CD->fields()) {
      MemberPlan MP;
      MP.Field = Field;
      MP.SlotColor = Slots.slotOf(Field);
      if (const ClassDecl *Member = Field->type()->asClassDecl()) {
        MP.Kind = MemberPlan::MK::Class;
        MP.ElemClassIdx = classIdx(Member);
      } else if (const auto *AT = dyn_cast<ArrayType>(Field->type())) {
        if (const ClassDecl *Elem = AT->element()->asClassDecl()) {
          MP.Kind = MemberPlan::MK::ClassArray;
          MP.ElemClassIdx = classIdx(Elem);
        } else
          MP.Kind = MemberPlan::MK::Other;
      } else
        MP.Kind = MemberPlan::MK::Scalar;
      P.Members.push_back(MP);
    }
    for (ConstructorDecl *C : CD->constructors())
      if (C->params().empty() && P.Arity0Ctor == NoFunc)
        P.Arity0Ctor = funcIdx(C);
    if (DestructorDecl *Dtor = CD->destructor())
      if (Dtor->body())
        P.DtorBody = funcIdx(Dtor);
  }
}

ParamPlan Compiler::planParam(const ParamDecl *P, bool IsCtor) {
  ParamPlan Plan;
  if (P->type()->isReference()) {
    Plan.Kind = ParamPlan::PK::RefBind;
    Plan.Slot = NextSlot++;
  } else if (!IsCtor && P->type()->asClassDecl()) {
    // callFunction: by-value class parameters share the argument object;
    // constructors bind them as plain scalar storage (construct()).
    Plan.Kind = ParamPlan::PK::ClassShare;
    Plan.Slot = NextSlot++;
  } else if (Escaped.count(P)) {
    Plan.Kind = ParamPlan::PK::ScalarStorage;
    Plan.Slot = NextSlot++;
    Plan.ConvKind = convFor(P->type());
  } else {
    Plan.Kind = ParamPlan::PK::ScalarReg;
    Plan.Slot = allocTmp(); // Parameter registers precede temporaries.
    Plan.ConvKind = convFor(P->type());
  }
  if (Plan.Kind != ParamPlan::PK::ScalarReg)
    Bind[P] = {false, Plan.Slot};
  else
    Bind[P] = {true, Plan.Slot};
  return Plan;
}

void Compiler::beginFunction(FuncEntry &Entry, const FunctionDecl *FD,
                             bool IsCtor) {
  F = &Entry;
  Bind.clear();
  Escaped.clear();
  Scopes.clear();
  Loops.clear();
  DeadLocals.clear();
  PendingLocals.clear();
  Tmp = HighWater = NextSlot = 0;
  InGlobalInit = false;

  // Pre-pass: escapes and the full local-variable list.
  if (FD) {
    if (const auto *Ctor = dyn_cast<ConstructorDecl>(FD))
      for (const CtorInitializer &Init : Ctor->initializers())
        for (size_t I = 0; I != Init.Args.size(); ++I) {
          // Reference parameters of the target ctor bind argument
          // lvalues (construct()'s EvalArgs).
          if (ctorParamIsRef(Init.TargetCtor, I))
            noteEscape(Init.Args[I]);
          analyzeExpr(Init.Args[I]);
        }
    if (FD->body())
      analyzeStmt(FD->body());
    for (const ParamDecl *P : FD->params())
      F->Params.push_back(planParam(P, IsCtor));
  }
  for (const VarDecl *V : PendingLocals)
    assignLocal(V);
  FirstTmp = Tmp;
}

void Compiler::finishFunction() {
  emit(Op::RetUnit);
  F->NumRegs = std::max<uint16_t>(HighWater, 1);
  F->NumLocals = NextSlot;
  // Every jump must have been patched.
  for (const Insn &I : F->Code)
    if ((I.Opcode == Op::Jmp || I.Opcode == Op::JmpF ||
         I.Opcode == Op::JmpT || I.Opcode == Op::JmpNMD) &&
        I.X == NoTarget)
      throw std::runtime_error("vm: unpatched jump");
  F = nullptr;
}

void Compiler::compileFunctions() {
  for (size_t I = 0; I != M.Functions.size(); ++I) {
    FuncEntry &E = M.Functions[I];
    const FunctionDecl *FD = E.Decl;
    if (!FD || E.IsBuiltin || !E.Defined)
      continue;
    beginFunction(E, FD, E.IsCtor);
    if (const auto *Ctor = dyn_cast<ConstructorDecl>(FD)) {
      // construct(): virtual bases (most-derived only), non-virtual
      // bases, members in declaration order, then the body.
      const ClassDecl *CD = Ctor->parent();
      const ClassPlan &P = M.Classes[classIdx(CD)];
      uint16_t This = allocTmp();
      emit(Op::ThisOp, This, 0, 0, 0, 0,
           msg("'this' used outside a method")); // Never fails in a ctor.
      auto FindInit = [&](auto Pred) -> const CtorInitializer * {
        for (const CtorInitializer &Init : Ctor->initializers())
          if (Pred(Init))
            return &Init;
        return nullptr;
      };
      auto EmitCtorCall = [&](uint16_t ObjReg, uint32_t CI,
                              const CtorInitializer *Init, uint32_t Arity0,
                              bool MostDerived) {
        uint16_t SavedTmp = Tmp;
        uint16_t ArgBase = 0, Argc = 0;
        uint16_t CtorIdx16 = NoFunc16;
        if (Init) {
          const ConstructorDecl *Target = Init->TargetCtor;
          Argc = static_cast<uint16_t>(Init->Args.size());
          ArgBase = compileArgs(Init->Args, [&](size_t I) {
            return ctorParamIsRef(Target, I);
          });
          if (Target)
            CtorIdx16 = fn16(funcIdx(Target));
        } else if (Arity0 != NoFunc)
          CtorIdx16 = fn16(Arity0);
        emit(Op::CtorCall, ObjReg, ArgBase, Argc, MostDerived, CtorIdx16,
             CI);
        Tmp = SavedTmp;
      };
      if (!P.VBases.empty()) {
        size_t Skip = emit(Op::JmpNMD, 0, 0, 0, 0, 0, NoTarget);
        for (uint32_t VBI : P.VBases) {
          const ClassDecl *VB = M.Classes[VBI].Decl;
          const CtorInitializer *Init = FindInit(
              [&](const CtorInitializer &I) { return I.Base == VB; });
          EmitCtorCall(This, VBI, Init, M.Classes[VBI].Arity0Ctor, false);
        }
        patch(Skip);
      }
      for (uint32_t BI : P.NVBases) {
        const ClassDecl *Base = M.Classes[BI].Decl;
        const CtorInitializer *Init = FindInit(
            [&](const CtorInitializer &I) { return I.Base == Base; });
        EmitCtorCall(This, BI, Init, M.Classes[BI].Arity0Ctor, false);
      }
      for (const MemberPlan &MP : P.Members) {
        const CtorInitializer *Init = FindInit(
            [&](const CtorInitializer &I) { return I.Field == MP.Field; });
        uint16_t SavedTmp = Tmp;
        switch (MP.Kind) {
        case MemberPlan::MK::Class: {
          uint16_t FP = allocTmp();
          emit(Op::FieldPlace, FP, This,
               static_cast<uint16_t>(MP.SlotColor), fieldIdx(MP.Field), 0,
               msg("object has no storage for member '" +
                   MP.Field->name() + "'"));
          EmitCtorCall(FP, MP.ElemClassIdx, Init,
                       M.Classes[MP.ElemClassIdx].Arity0Ctor, true);
          break;
        }
        case MemberPlan::MK::ClassArray: {
          uint16_t FP = allocTmp();
          emit(Op::FieldPlace, FP, This,
               static_cast<uint16_t>(MP.SlotColor), fieldIdx(MP.Field), 0,
               msg("object has no storage for member '" +
                   MP.Field->name() + "'"));
          emit(Op::CtorElems, FP, 0, 0, 0, 0, MP.ElemClassIdx);
          break;
        }
        case MemberPlan::MK::Scalar:
        case MemberPlan::MK::Other:
          if (Init && !Init->Args.empty()) {
            uint16_t V = rval(Init->Args[0]);
            uint16_t FP = allocTmp();
            emit(Op::FieldPlace, FP, This,
                 static_cast<uint16_t>(MP.SlotColor), fieldIdx(MP.Field), 0,
                 msg("object has no storage for member '" +
                     MP.Field->name() + "'"));
            emit(Op::StoreAt, FP, V,
                 static_cast<uint16_t>(convFor(MP.Field->type())));
          }
          break;
        }
        Tmp = SavedTmp;
      }
      if (Ctor->body())
        compileCompound(Ctor->body());
    } else {
      compileCompound(FD->body());
    }
    finishFunction();
  }
}

void Compiler::compileGlobalInit() {
  M.Functions.push_back(FuncEntry{});
  M.GlobalInitIdx = static_cast<uint32_t>(M.Functions.size() - 1);
  FuncEntry &E = M.Functions[M.GlobalInitIdx];
  E.Defined = true;
  beginFunction(E, nullptr, false);
  InGlobalInit = true;
  // Global initializers may contain escapes of globals only; analyze to
  // keep the walker honest about nested constructs (no locals here).
  for (const VarDecl *GV : Ctx.globals())
    compileGlobalVarDecl(GV);
  finishFunction();
}

Module Compiler::compile() {
  indexFunctions();
  // Globals get their table indices before any body compiles: function
  // bodies reference them through GlobPtrPub.
  for (const VarDecl *GV : Ctx.globals()) {
    GlobalIdx.emplace(GV, static_cast<uint32_t>(M.Globals.size()));
    M.Globals.push_back(GV);
  }
  buildClassPlans();
  compileFunctions();
  compileGlobalInit();
  return std::move(M);
}

//===----------------------------------------------------------------------===//
// Pre-pass: escapes and local bindings
//===----------------------------------------------------------------------===//

void Compiler::noteEscape(const Expr *E) {
  const Expr *S = stripCasts(E);
  if (const auto *DRE = dyn_cast<DeclRefExpr>(S))
    if (const auto *V = dyn_cast_or_null<VarDecl>(DRE->referent()))
      Escaped.insert(V);
}

void Compiler::analyzeVarDecl(const VarDecl *V) {
  PendingLocals.push_back(V);
  if (V->type()->isReference() && V->init())
    noteEscape(V->init());
  if (V->init())
    analyzeExpr(V->init());
  const ConstructorDecl *Ctor = V->ctor();
  for (size_t I = 0; I != V->ctorArgs().size(); ++I) {
    if (ctorParamIsRef(Ctor, I))
      noteEscape(V->ctorArgs()[I]);
    analyzeExpr(V->ctorArgs()[I]);
  }
}

void Compiler::analyzeStmt(const Stmt *S) {
  if (!S)
    return;
  switch (S->kind()) {
  case Stmt::Kind::Compound:
    for (const Stmt *Sub : cast<CompoundStmt>(S)->stmts())
      analyzeStmt(Sub);
    break;
  case Stmt::Kind::Decl:
    for (const VarDecl *V : cast<DeclStmt>(S)->vars())
      analyzeVarDecl(V);
    break;
  case Stmt::Kind::Expr:
    analyzeExpr(cast<ExprStmt>(S)->expr());
    break;
  case Stmt::Kind::If: {
    const auto *IS = cast<IfStmt>(S);
    analyzeExpr(IS->cond());
    analyzeStmt(IS->thenStmt());
    analyzeStmt(IS->elseStmt());
    break;
  }
  case Stmt::Kind::While: {
    const auto *WS = cast<WhileStmt>(S);
    analyzeExpr(WS->cond());
    analyzeStmt(WS->body());
    break;
  }
  case Stmt::Kind::For: {
    const auto *FS = cast<ForStmt>(S);
    analyzeStmt(FS->init());
    if (FS->cond())
      analyzeExpr(FS->cond());
    if (FS->step())
      analyzeExpr(FS->step());
    analyzeStmt(FS->body());
    break;
  }
  case Stmt::Kind::Return:
    if (const Expr *V = cast<ReturnStmt>(S)->value())
      analyzeExpr(V);
    break;
  case Stmt::Kind::Break:
  case Stmt::Kind::Continue:
  case Stmt::Kind::Null:
    break;
  }
}

void Compiler::analyzeExpr(const Expr *E) {
  if (!E)
    return;
  switch (E->kind()) {
  case Expr::Kind::Unary: {
    const auto *UE = cast<UnaryExpr>(E);
    if (UE->op() == UnaryOpKind::AddrOf)
      noteEscape(UE->sub());
    analyzeExpr(UE->sub());
    break;
  }
  case Expr::Kind::Call: {
    const auto *CE = cast<CallExpr>(E);
    const FunctionDecl *Callee = CE->directCallee();
    const FunctionType *FT = Callee ? nullptr : calleeFnType(CE);
    if (!Callee)
      analyzeExpr(CE->callee());
    else if (const auto *ME = dyn_cast<MemberExpr>(CE->callee()))
      analyzeExpr(ME->base());
    for (size_t I = 0; I != CE->args().size(); ++I) {
      if (callParamIsRef(Callee, FT, I))
        noteEscape(CE->args()[I]);
      analyzeExpr(CE->args()[I]);
    }
    break;
  }
  case Expr::Kind::New: {
    const auto *NE = cast<NewExpr>(E);
    if (NE->arraySize())
      analyzeExpr(NE->arraySize());
    const ConstructorDecl *Ctor = NE->constructor();
    for (size_t I = 0; I != NE->ctorArgs().size(); ++I) {
      if (ctorParamIsRef(Ctor, I))
        noteEscape(NE->ctorArgs()[I]);
      analyzeExpr(NE->ctorArgs()[I]);
    }
    break;
  }
  case Expr::Kind::Binary: {
    const auto *BE = cast<BinaryExpr>(E);
    analyzeExpr(BE->lhs());
    analyzeExpr(BE->rhs());
    break;
  }
  case Expr::Kind::Assign: {
    const auto *AE = cast<AssignExpr>(E);
    analyzeExpr(AE->lhs());
    analyzeExpr(AE->rhs());
    break;
  }
  case Expr::Kind::Conditional: {
    const auto *CE = cast<ConditionalExpr>(E);
    analyzeExpr(CE->cond());
    analyzeExpr(CE->thenExpr());
    analyzeExpr(CE->elseExpr());
    break;
  }
  case Expr::Kind::Comma: {
    const auto *CE = cast<CommaExpr>(E);
    analyzeExpr(CE->lhs());
    analyzeExpr(CE->rhs());
    break;
  }
  case Expr::Kind::Member:
    analyzeExpr(cast<MemberExpr>(E)->base());
    break;
  case Expr::Kind::MemberPointerAccess: {
    const auto *MPA = cast<MemberPointerAccessExpr>(E);
    analyzeExpr(MPA->base());
    analyzeExpr(MPA->pointer());
    break;
  }
  case Expr::Kind::Subscript: {
    const auto *SE = cast<SubscriptExpr>(E);
    analyzeExpr(SE->base());
    analyzeExpr(SE->index());
    break;
  }
  case Expr::Kind::Cast:
    analyzeExpr(cast<CastExpr>(E)->sub());
    break;
  case Expr::Kind::Delete:
    analyzeExpr(cast<DeleteExpr>(E)->sub());
    break;
  case Expr::Kind::Sizeof:
    if (const Expr *Sub = cast<SizeofExpr>(E)->exprOperand())
      analyzeExpr(Sub);
    break;
  default:
    break;
  }
}

void Compiler::assignLocal(const VarDecl *V) {
  if (Bind.count(V))
    return; // A VarDecl is bound once per function.
  const Type *Ty = V->type();
  bool Scalar = !Ty->isReference() && !Ty->asClassDecl() && !Ty->isArray();
  if (Scalar && !Escaped.count(V)) {
    Bind[V] = {true, allocTmp()};
  } else {
    if (NextSlot == 0xFFFF)
      throw std::runtime_error("vm: too many locals");
    Bind[V] = {false, NextSlot++};
  }
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

void Compiler::emitScopeDestroys(size_t DownToDepth) {
  for (size_t S = Scopes.size(); S > DownToDepth; --S) {
    const std::vector<uint16_t> &Objs = Scopes[S - 1];
    for (auto It = Objs.rbegin(); It != Objs.rend(); ++It)
      emit(Op::DestroyLoc, *It);
  }
}

void Compiler::compileCompound(const CompoundStmt *CS) {
  Scopes.emplace_back();
  for (const Stmt *S : CS->stmts()) {
    if (const auto *DS = dyn_cast<DeclStmt>(S)) {
      for (const VarDecl *V : DS->vars()) {
        uint16_t SavedTmp = Tmp;
        compileVarDecl(V);
        Tmp = SavedTmp;
      }
      continue;
    }
    compileStmt(S);
  }
  emitScopeDestroys(Scopes.size() - 1);
  Scopes.pop_back();
}

void Compiler::compileStmt(const Stmt *S) {
  uint16_t SavedTmp = Tmp;
  switch (S->kind()) {
  case Stmt::Kind::Compound:
    compileCompound(cast<CompoundStmt>(S));
    break;
  case Stmt::Kind::Decl: {
    // execStmt's degenerate-block case: construct, then destroy at once.
    Scopes.emplace_back();
    for (const VarDecl *V : cast<DeclStmt>(S)->vars())
      compileVarDecl(V);
    emitScopeDestroys(Scopes.size() - 1);
    Scopes.pop_back();
    break;
  }
  case Stmt::Kind::Expr:
    rvalVoid(cast<ExprStmt>(S)->expr());
    break;
  case Stmt::Kind::If: {
    const auto *IS = cast<IfStmt>(S);
    size_t Else = emitCondBranch(IS->cond(), /*JumpOnTrue=*/false);
    compileStmt(IS->thenStmt());
    if (IS->elseStmt()) {
      size_t End = emit(Op::Jmp, 0, 0, 0, 0, 0, NoTarget);
      patch(Else);
      compileStmt(IS->elseStmt());
      patch(End);
    } else {
      patch(Else);
    }
    break;
  }
  case Stmt::Kind::While: {
    const auto *WS = cast<WhileStmt>(S);
    size_t CondLabel = here();
    size_t Exit = emitCondBranch(WS->cond(), /*JumpOnTrue=*/false);
    Tmp = SavedTmp;
    Loops.push_back({Scopes.size(), {}, {}});
    compileStmt(WS->body());
    emit(Op::Jmp, 0, 0, 0, 0, 0, static_cast<uint32_t>(CondLabel));
    Loop L = std::move(Loops.back());
    Loops.pop_back();
    patch(Exit);
    for (size_t P : L.BreakPatches)
      patch(P);
    for (size_t P : L.ContinuePatches)
      patchTo(P, CondLabel);
    break;
  }
  case Stmt::Kind::For: {
    const auto *FS = cast<ForStmt>(S);
    Scopes.emplace_back(); // For-init objects outlive the loop body.
    if (FS->init()) {
      if (const auto *DS = dyn_cast<DeclStmt>(FS->init())) {
        for (const VarDecl *V : DS->vars())
          compileVarDecl(V);
      } else {
        compileStmt(FS->init());
      }
    }
    Tmp = SavedTmp;
    size_t CondLabel = here();
    size_t Exit = static_cast<size_t>(-1);
    if (FS->cond()) {
      Exit = emitCondBranch(FS->cond(), /*JumpOnTrue=*/false);
      Tmp = SavedTmp;
    }
    Loops.push_back({Scopes.size(), {}, {}});
    compileStmt(FS->body());
    size_t StepLabel = here();
    if (FS->step()) {
      rvalVoid(FS->step());
      Tmp = SavedTmp;
    }
    emit(Op::Jmp, 0, 0, 0, 0, 0, static_cast<uint32_t>(CondLabel));
    Loop L = std::move(Loops.back());
    Loops.pop_back();
    if (Exit != static_cast<size_t>(-1))
      patch(Exit);
    for (size_t P : L.BreakPatches)
      patch(P);
    for (size_t P : L.ContinuePatches)
      patchTo(P, StepLabel);
    // Loop exit: destroy for-init objects (execStmt's InitObjects).
    emitScopeDestroys(Scopes.size() - 1);
    Scopes.pop_back();
    break;
  }
  case Stmt::Kind::Break:
  case Stmt::Kind::Continue: {
    if (Loops.empty()) {
      // Flow::Break/Continue with no enclosing loop escapes all the way
      // to callFunction: an early function exit yielding unit, with
      // every open block's objects destroyed on the way out.
      uint16_t V = loadConst(Value::unit(), Any);
      emitScopeDestroys(0);
      emit(Op::Ret, V);
      break;
    }
    emitScopeDestroys(Loops.back().ScopeDepth);
    size_t J = emit(Op::Jmp, 0, 0, 0, 0, 0, NoTarget);
    if (S->kind() == Stmt::Kind::Break)
      Loops.back().BreakPatches.push_back(J);
    else
      Loops.back().ContinuePatches.push_back(J);
    break;
  }
  case Stmt::Kind::Return: {
    const auto *RS = cast<ReturnStmt>(S);
    uint16_t V;
    if (RS->value())
      V = rval(RS->value());
    else
      V = loadConst(Value::unit(), Any);
    emitScopeDestroys(0);
    emit(Op::Ret, V);
    break;
  }
  case Stmt::Kind::Null:
    break;
  }
  Tmp = SavedTmp;
}

void Compiler::compileVarDecl(const VarDecl *V) {
  assignLocal(V); // No-op when the pre-pass already bound it.
  const Binding &B = Bind.at(V);
  const Type *Ty = V->type();

  if (Ty->isReference()) {
    if (!V->init()) {
      emitFail("reference variable '" + V->name() + "' lacks an initializer",
               allocTmp());
      return;
    }
    // The tree-walker binds the reference only after the place
    // evaluates; the initializer sees the variable as out of scope.
    DeadLocals.insert(V);
    uint16_t P = place(V->init());
    DeadLocals.erase(V);
    emit(Op::DeclRefVar, B.Idx, P);
    return;
  }

  if (const ClassDecl *CD = Ty->asClassDecl()) {
    uint16_t Obj = allocTmp();
    emit(Op::AllocObj, Obj, site16(V->location()), 0, 0, 0, classIdx(CD));
    // execVarDecl binds the frame local before evaluating the
    // initializer or constructor arguments.
    emit(Op::LSet, B.Idx, Obj);
    if (V->init()) {
      uint16_t Src = rval(V->init());
      emit(Op::CopyInit, Obj, Src);
    } else {
      const ConstructorDecl *Ctor = V->ctor();
      uint16_t Argc = static_cast<uint16_t>(V->ctorArgs().size());
      uint16_t ArgBase = compileArgs(V->ctorArgs(), [&](size_t I) {
        return ctorParamIsRef(Ctor, I);
      });
      emit(Op::CtorCall, Obj, ArgBase, Argc, /*MostDerived=*/1,
           Ctor ? fn16(funcIdx(Ctor)) : NoFunc16, classIdx(CD));
    }
    Scopes.back().push_back(B.Idx);
    return;
  }

  if (const auto *AT = dyn_cast<ArrayType>(Ty)) {
    uint16_t Arr = allocTmp();
    emit(Op::ArrLocal, Arr, 0, 0, 0, 0,
         arrayDesc(AT->element(), AT->size(), V->location()));
    emit(Op::LSet, B.Idx, Arr);
    if (AT->element()->asClassDecl())
      Scopes.back().push_back(B.Idx);
    return;
  }

  uint16_t Init;
  Conv CK = Conv::None;
  if (V->init()) {
    DeadLocals.insert(V); // Bound only after the initializer evaluates.
    CK = convFor(Ty);
    if (B.InReg && CK == Conv::Int && fastIntOperand(V->init())) {
      // Exactly-Int initializer: skip the identity ConvOp and land in
      // the home register directly (the variable is dead during its
      // own initializer, so no instruction can read the register
      // before the final write).
      rvalInto(V->init(), B.Idx);
      DeadLocals.erase(V);
      return;
    }
    Init = rval(V->init());
    DeadLocals.erase(V);
  } else {
    Init = loadConst(zeroValue(Ty), Any);
  }
  if (B.InReg) {
    emit(Op::ConvOp, B.Idx, Init, static_cast<uint16_t>(CK));
  } else {
    emit(Op::DeclScalar, B.Idx, Init, static_cast<uint16_t>(CK));
  }
}

void Compiler::compileGlobalVarDecl(const VarDecl *V) {
  uint16_t SavedTmp = Tmp;
  uint32_t GI = GlobalIdx.at(V);
  const Type *Ty = V->type();

  if (Ty->isReference()) {
    if (!V->init()) {
      emitFail("reference variable '" + V->name() + "' lacks an initializer",
               allocTmp());
      Tmp = SavedTmp;
      return;
    }
    uint16_t P = place(V->init());
    emit(Op::GDeclRef, static_cast<uint16_t>(GI), P);
    emit(Op::GPublish, static_cast<uint16_t>(GI));
    Tmp = SavedTmp;
    return;
  }

  if (const ClassDecl *CD = Ty->asClassDecl()) {
    uint16_t Obj = allocTmp();
    emit(Op::AllocObj, Obj, site16(V->location()), 0, 0, 0, classIdx(CD));
    // execVarDecl binds the frame local before evaluating the
    // initializer; the global-frame analog is the unpublished binding.
    emit(Op::GBind, static_cast<uint16_t>(GI), Obj);
    if (V->init()) {
      uint16_t Src = rval(V->init());
      emit(Op::CopyInit, Obj, Src);
    } else {
      const ConstructorDecl *Ctor = V->ctor();
      uint16_t Argc = static_cast<uint16_t>(V->ctorArgs().size());
      uint16_t ArgBase = compileArgs(V->ctorArgs(), [&](size_t I) {
        return ctorParamIsRef(Ctor, I);
      });
      emit(Op::CtorCall, Obj, ArgBase, Argc, /*MostDerived=*/1,
           Ctor ? fn16(funcIdx(Ctor)) : NoFunc16, classIdx(CD));
    }
    emit(Op::GPublish, static_cast<uint16_t>(GI));
    emit(Op::GMarkObj, Obj);
    Tmp = SavedTmp;
    return;
  }

  if (const auto *AT = dyn_cast<ArrayType>(Ty)) {
    uint16_t Arr = allocTmp();
    emit(Op::ArrLocal, Arr, 0, 0, 0, 0,
         arrayDesc(AT->element(), AT->size(), V->location()));
    emit(Op::GBind, static_cast<uint16_t>(GI), Arr);
    emit(Op::GPublish, static_cast<uint16_t>(GI));
    if (AT->element()->asClassDecl())
      emit(Op::GMarkObj, Arr);
    Tmp = SavedTmp;
    return;
  }

  uint16_t Init;
  Conv CK = Conv::None;
  if (V->init()) {
    Init = rval(V->init());
    CK = convFor(Ty);
  } else {
    Init = loadConst(zeroValue(Ty), Any);
  }
  emit(Op::GDeclScalar, static_cast<uint16_t>(GI), Init,
       static_cast<uint16_t>(CK));
  emit(Op::GPublish, static_cast<uint16_t>(GI));
  Tmp = SavedTmp;
}

//===----------------------------------------------------------------------===//
// Lvalues
//===----------------------------------------------------------------------===//

uint16_t Compiler::emitFail(const std::string &Message, uint16_t Dst) {
  emit(Op::Fail, 0, 0, 0, 0, 0, msg(Message));
  return Dst;
}

uint16_t Compiler::objectBase(const Expr *Base, bool IsArrow) {
  // evalObjectBase; the checks validate in place without mutating, so
  // the checked register doubles as the place result.
  if (IsArrow) {
    uint16_t R = rval(Base);
    emit(Op::ArrowChk, R);
    return R;
  }
  if (Base->isLValue())
    return place(Base);
  uint16_t R = rval(Base);
  emit(Op::DotChk, R);
  return R;
}

uint16_t Compiler::place(const Expr *E, uint16_t Dst) {
  switch (E->kind()) {
  case Expr::Kind::DeclRef: {
    const auto *DRE = cast<DeclRefExpr>(E);
    Decl *D = DRE->referent();
    if (auto *V = dyn_cast_or_null<VarDecl>(D)) {
      if (DeadLocals.count(V))
        return emitFail("variable '" + V->name() +
                            "' is not in scope at run time",
                        target(Dst));
      auto It = Bind.find(V);
      if (It != Bind.end()) {
        if (It->second.InReg)
          // Escape analysis storage-backs every address-carrying use;
          // reaching here means the analysis missed a case.
          throw std::runtime_error("vm: lvalue use of register local");
        uint16_t R = target(Dst);
        emit(Op::LocPtr, R, It->second.Idx);
        return R;
      }
      if (V->isGlobal()) {
        uint16_t R = target(Dst);
        emit(InGlobalInit ? Op::GlobPtr : Op::GlobPtrPub, R,
             static_cast<uint16_t>(GlobalIdx.at(V)), 0, 0, 0,
             msg("global '" + V->name() + "' used before initialization"));
        return R;
      }
      return emitFail("variable '" + V->name() +
                          "' is not in scope at run time",
                      target(Dst));
    }
    if (auto *Field = dyn_cast_or_null<FieldDecl>(D)) {
      uint16_t R = target(Dst);
      emit(Op::ThisOp, R, 0, 0, 0, 0,
           msg("member '" + Field->name() + "' used outside a method"));
      emit(Op::FieldPlace, R, R, fieldSlot(Field), fieldIdx(Field), 0,
           msg("object has no storage for member '" + Field->name() + "'"));
      return R;
    }
    return emitFail("cannot take the location of '" + DRE->declName() + "'",
                    target(Dst));
  }
  case Expr::Kind::Member: {
    const auto *ME = cast<MemberExpr>(E);
    const auto *Field = dyn_cast_or_null<FieldDecl>(ME->member());
    if (!Field)
      return emitFail("member expression does not name a data member",
                      target(Dst));
    uint16_t Base = objectBase(ME->base(), ME->isArrow());
    uint16_t R = target(Dst);
    emit(Op::FieldPlace, R, Base, fieldSlot(Field), fieldIdx(Field), 0,
         msg("object has no storage for member '" + Field->name() + "'"));
    return R;
  }
  case Expr::Kind::MemberPointerAccess: {
    const auto *MPA = cast<MemberPointerAccessExpr>(E);
    uint16_t Base = objectBase(MPA->base(), MPA->isArrow());
    uint16_t PM = rval(MPA->pointer());
    uint16_t R = target(Dst);
    emit(Op::MemPtrPlace, R, Base, PM);
    return R;
  }
  case Expr::Kind::Subscript: {
    // evalLValue: index first, then base.
    const auto *SE = cast<SubscriptExpr>(E);
    uint16_t Idx = rval(SE->index());
    const Type *BaseTy = SE->base()->type();
    uint16_t R = target(Dst);
    if (BaseTy && BaseTy->isArray()) {
      uint16_t Arr = place(SE->base());
      emit(Op::IdxArr, R, Arr, Idx);
    } else {
      uint16_t P = rval(SE->base());
      emit(Op::IdxPtr, R, P, Idx);
    }
    return R;
  }
  case Expr::Kind::Unary: {
    const auto *UE = cast<UnaryExpr>(E);
    if (UE->op() == UnaryOpKind::Deref) {
      // evalLValue: "dereference of null pointer" when the operand is
      // not a live pointer value.
      uint16_t V = rval(UE->sub());
      uint16_t R = target(Dst);
      emit(Op::DerefP, R, V);
      return R;
    }
    if (UE->op() == UnaryOpKind::PreInc || UE->op() == UnaryOpKind::PreDec) {
      // evalLValue: perform the side effect, then re-evaluate the
      // operand as an lvalue (the interpreter's double evaluation).
      rval(E);
      return place(UE->sub(), Dst);
    }
    return emitFail("expression is not an lvalue", target(Dst));
  }
  case Expr::Kind::Cast:
    return place(cast<CastExpr>(E)->sub(), Dst);
  case Expr::Kind::This: {
    uint16_t R = target(Dst);
    emit(Op::ThisOp, R, 0, 0, 0, 0, msg("'this' used outside a method"));
    return R;
  }
  default:
    return emitFail("expression is not an lvalue", target(Dst));
  }
}

//===----------------------------------------------------------------------===//
// Rvalues
//===----------------------------------------------------------------------===//

bool Compiler::containsWrite(const Expr *E) {
  if (!E)
    return false;
  switch (E->kind()) {
  case Expr::Kind::Assign:
    return true;
  case Expr::Kind::Unary: {
    const auto *UE = cast<UnaryExpr>(E);
    switch (UE->op()) {
    case UnaryOpKind::PreInc:
    case UnaryOpKind::PreDec:
    case UnaryOpKind::PostInc:
    case UnaryOpKind::PostDec:
      return true;
    default:
      return containsWrite(UE->sub());
    }
  }
  case Expr::Kind::Binary: {
    const auto *BE = cast<BinaryExpr>(E);
    return containsWrite(BE->lhs()) || containsWrite(BE->rhs());
  }
  case Expr::Kind::Conditional: {
    const auto *CE = cast<ConditionalExpr>(E);
    return containsWrite(CE->cond()) || containsWrite(CE->thenExpr()) ||
           containsWrite(CE->elseExpr());
  }
  case Expr::Kind::Comma: {
    const auto *CE = cast<CommaExpr>(E);
    return containsWrite(CE->lhs()) || containsWrite(CE->rhs());
  }
  case Expr::Kind::Member:
    return containsWrite(cast<MemberExpr>(E)->base());
  case Expr::Kind::MemberPointerAccess: {
    const auto *MPA = cast<MemberPointerAccessExpr>(E);
    return containsWrite(MPA->base()) || containsWrite(MPA->pointer());
  }
  case Expr::Kind::Subscript: {
    const auto *SE = cast<SubscriptExpr>(E);
    return containsWrite(SE->base()) || containsWrite(SE->index());
  }
  case Expr::Kind::Cast:
    return containsWrite(cast<CastExpr>(E)->sub());
  case Expr::Kind::Call: {
    // The callee body cannot touch this frame's registers (register
    // residency implies the local never escapes), but argument and
    // callee expressions evaluate in this frame.
    const auto *CE = cast<CallExpr>(E);
    if (containsWrite(CE->callee()))
      return true;
    for (const Expr *Arg : CE->args())
      if (containsWrite(Arg))
        return true;
    return false;
  }
  case Expr::Kind::New: {
    const auto *NE = cast<NewExpr>(E);
    if (NE->arraySize() && containsWrite(NE->arraySize()))
      return true;
    for (const Expr *Arg : NE->ctorArgs())
      if (containsWrite(Arg))
        return true;
    return false;
  }
  case Expr::Kind::Delete:
    return containsWrite(cast<DeleteExpr>(E)->sub());
  case Expr::Kind::Sizeof:
    return false; // The operand is never evaluated.
  default:
    return false; // Literals, DeclRef, This, MemberPointerConstant.
  }
}

bool Compiler::fastIntOperand(const Expr *E) {
  if (!isIntType(E->type()))
    return false;
  switch (E->kind()) {
  case Expr::Kind::IntLiteral:
  case Expr::Kind::Sizeof: // Compiles to a LoadK of ofInt.
    return true;
  case Expr::Kind::DeclRef: {
    const auto *DRE = cast<DeclRefExpr>(E);
    const auto *V = dyn_cast_or_null<VarDecl>(DRE->referent());
    if (!V || DeadLocals.count(V))
      return false;
    auto It = Bind.find(V);
    // Register residency guarantees Value::VK::Int: every write goes
    // through Conv::Int and the register can never be type-punned.
    return It != Bind.end() && It->second.InReg && isIntType(V->type());
  }
  case Expr::Kind::Cast:
    // An int cast compiles to ConvOp(Conv::Int), which yields VK::Int
    // no matter what runtime kind the operand carries.
    return cast<CastExpr>(E)->targetType()->isArithmetic();
  case Expr::Kind::Binary: {
    // Int-typed arithmetic over fast operands stays on ofInt paths in
    // both the specialized handlers and the generic binaryOp (the two
    // operand kinds are statically Int). Calls are the one form that
    // can smuggle a non-Int kind into an int-typed slot (neither
    // engine converts return values), and they are excluded here by
    // construction.
    const auto *BE = cast<BinaryExpr>(E);
    switch (BE->op()) {
    case BinaryOpKind::Add:
    case BinaryOpKind::Sub:
    case BinaryOpKind::Mul:
    case BinaryOpKind::Div:
    case BinaryOpKind::Rem:
    case BinaryOpKind::Shl:
    case BinaryOpKind::Shr:
    case BinaryOpKind::BitAnd:
    case BinaryOpKind::BitOr:
    case BinaryOpKind::BitXor:
      return fastIntOperand(BE->lhs()) && fastIntOperand(BE->rhs());
    default:
      return false; // Comparisons/logical ops are bool-typed anyway.
    }
  }
  case Expr::Kind::Conditional: {
    const auto *CE = cast<ConditionalExpr>(E);
    return fastIntOperand(CE->thenExpr()) &&
           fastIntOperand(CE->elseExpr());
  }
  case Expr::Kind::Comma:
    return fastIntOperand(cast<CommaExpr>(E)->rhs());
  case Expr::Kind::Assign:
    // A plain int assignment yields the Conv::Int-converted stored
    // value (both the register ConvOp/Move path and the StoreAt+RawV
    // path). Compound assignment yields the *unconverted* new value —
    // not guaranteed Int — so only the plain form qualifies.
    return cast<AssignExpr>(E)->op() == AssignOpKind::Assign;
  default:
    return false;
  }
}

bool Compiler::isPureOperand(const Expr *E) {
  switch (E->kind()) {
  case Expr::Kind::IntLiteral:
  case Expr::Kind::DoubleLiteral:
  case Expr::Kind::BoolLiteral:
  case Expr::Kind::CharLiteral:
  case Expr::Kind::NullptrLiteral:
  case Expr::Kind::MemberPointerConstant:
  case Expr::Kind::Sizeof: // The operand is never evaluated.
    return true;
  case Expr::Kind::DeclRef: {
    const auto *DRE = cast<DeclRefExpr>(E);
    if (dyn_cast_or_null<FunctionDecl>(DRE->referent()))
      return true; // Compiles to a constant load.
    const auto *V = dyn_cast_or_null<VarDecl>(DRE->referent());
    if (!V || DeadLocals.count(V))
      return false; // Dead locals fail observably.
    auto It = Bind.find(V);
    // Register reads are unattributed; storage loads record a read.
    return It != Bind.end() && It->second.InReg;
  }
  default:
    return false;
  }
}

uint16_t Compiler::rvalA(const Expr *E) {
  if (const auto *DRE = dyn_cast<DeclRefExpr>(E))
    if (const auto *V = dyn_cast_or_null<VarDecl>(DRE->referent()))
      if (!DeadLocals.count(V)) {
        auto It = Bind.find(V);
        if (It != Bind.end() && It->second.InReg)
          return It->second.Idx;
      }
  return rval(E);
}

void Compiler::rvalVoid(const Expr *E) {
  switch (E->kind()) {
  case Expr::Kind::Assign:
    compileAssign(cast<AssignExpr>(E), Any, /*NeedResult=*/false);
    return;
  case Expr::Kind::Comma: {
    const auto *CE = cast<CommaExpr>(E);
    rvalVoid(CE->lhs());
    rvalVoid(CE->rhs());
    return;
  }
  default:
    rval(E);
  }
}

uint16_t Compiler::rval(const Expr *E, uint16_t Dst) {
  switch (E->kind()) {
  case Expr::Kind::IntLiteral:
    return loadConst(Value::ofInt(cast<IntLiteralExpr>(E)->value()), Dst);
  case Expr::Kind::DoubleLiteral:
    return loadConst(Value::ofDouble(cast<DoubleLiteralExpr>(E)->value()),
                     Dst);
  case Expr::Kind::BoolLiteral:
    return loadConst(Value::ofBool(cast<BoolLiteralExpr>(E)->value()), Dst);
  case Expr::Kind::CharLiteral:
    return loadConst(Value::ofChar(cast<CharLiteralExpr>(E)->value()), Dst);
  case Expr::Kind::NullptrLiteral:
    return loadConst(Value::nullPtr(), Dst);
  case Expr::Kind::StringLiteral: {
    const auto *SE = cast<StringLiteralExpr>(E);
    auto [It, Fresh] = StrSiteIdx.try_emplace(SE, 0);
    if (Fresh) {
      It->second = static_cast<uint32_t>(M.StringSites.size());
      M.StringSites.push_back(SE);
    }
    uint16_t R = target(Dst);
    emit(Op::Str, R, 0, 0, 0, 0, It->second);
    return R;
  }
  case Expr::Kind::This: {
    uint16_t R = target(Dst);
    emit(Op::ThisOp, R, 0, 0, 0, 0, msg("'this' used outside a method"));
    return R;
  }
  case Expr::Kind::DeclRef: {
    const auto *DRE = cast<DeclRefExpr>(E);
    if (auto *Fn = dyn_cast_or_null<FunctionDecl>(DRE->referent()))
      return loadConst(Value::ofFn(Fn), Dst);
    if (const auto *V = dyn_cast_or_null<VarDecl>(DRE->referent()))
      if (!DeadLocals.count(V)) {
        auto It = Bind.find(V);
        if (It != Bind.end()) {
          uint16_t R = target(Dst);
          if (It->second.InReg)
            emit(Op::Move, R, It->second.Idx);
          else
            emit(Op::LdLoc, R, It->second.Idx);
          return R;
        }
      }
    // Implicit-this members fuse the slot lookup and the load (LdFld
    // preserves FieldPlace's check-then-fail order exactly).
    if (const auto *Field = dyn_cast_or_null<FieldDecl>(DRE->referent())) {
      uint16_t R = target(Dst);
      emit(Op::ThisOp, R, 0, 0, 0, 0,
           msg("member '" + Field->name() + "' used outside a method"));
      emit(Op::LdFld, R, R, fieldSlot(Field), fieldIdx(Field), 0,
           msg("object has no storage for member '" + Field->name() +
               "'"));
      return R;
    }
    // Globals, dead locals: the place path emits the storage lookup
    // (or the exact failure); then loadOrDecay.
    uint16_t P = place(E);
    uint16_t R = target(Dst);
    emit(Op::Decay, R, P);
    return R;
  }
  case Expr::Kind::Member: {
    const auto *ME = cast<MemberExpr>(E);
    if (const auto *Field = dyn_cast_or_null<FieldDecl>(ME->member())) {
      uint16_t Base = objectBase(ME->base(), ME->isArrow());
      uint16_t R = target(Dst);
      emit(Op::LdFld, R, Base, fieldSlot(Field), fieldIdx(Field), 0,
           msg("object has no storage for member '" + Field->name() +
               "'"));
      return R;
    }
    uint16_t P = place(E);
    uint16_t R = target(Dst);
    emit(Op::Decay, R, P);
    return R;
  }
  case Expr::Kind::MemberPointerAccess:
  case Expr::Kind::Subscript: {
    uint16_t P = place(E);
    uint16_t R = target(Dst);
    emit(Op::Decay, R, P);
    return R;
  }
  case Expr::Kind::MemberPointerConstant:
    return loadConst(
        Value::ofMemberPtr(cast<MemberPointerConstantExpr>(E)->member()),
        Dst);
  case Expr::Kind::Unary:
    return compileUnary(cast<UnaryExpr>(E), Dst);
  case Expr::Kind::Binary:
    return compileBinary(cast<BinaryExpr>(E), Dst);
  case Expr::Kind::Assign:
    return compileAssign(cast<AssignExpr>(E), Dst, /*NeedResult=*/true);
  case Expr::Kind::Conditional: {
    const auto *CE = cast<ConditionalExpr>(E);
    uint16_t R = target(Dst);
    size_t Else = emitCondBranch(CE->cond(), /*JumpOnTrue=*/false);
    rvalInto(CE->thenExpr(), R);
    size_t End = emit(Op::Jmp, 0, 0, 0, 0, 0, NoTarget);
    patch(Else);
    rvalInto(CE->elseExpr(), R);
    patch(End);
    return R;
  }
  case Expr::Kind::Comma:
    rvalVoid(cast<CommaExpr>(E)->lhs());
    return rval(cast<CommaExpr>(E)->rhs(), Dst);
  case Expr::Kind::Call:
    return compileCall(cast<CallExpr>(E), Dst);
  case Expr::Kind::New:
    return compileNew(cast<NewExpr>(E), Dst);
  case Expr::Kind::Delete: {
    const auto *DE = cast<DeleteExpr>(E);
    uint16_t V = deallocArg(DE->sub());
    emit(Op::DeleteOp, V, DE->isArrayDelete() ? 1 : 0);
    return loadConst(Value::unit(), Dst);
  }
  case Expr::Kind::Cast: {
    const auto *CE = cast<CastExpr>(E);
    const Type *Ty = CE->targetType();
    if (Ty->isArithmetic()) {
      uint16_t V = rvalA(CE->sub());
      uint16_t R = target(Dst);
      emit(Op::ConvOp, R, V,
           static_cast<uint16_t>(convFor(Ty)));
      return R;
    }
    if (Ty->isPointer()) {
      uint16_t V = rvalA(CE->sub());
      uint16_t R = target(Dst);
      emit(Op::CastPtr, R, V);
      return R;
    }
    return rval(CE->sub(), Dst); // Value-preserving cast.
  }
  case Expr::Kind::Sizeof: {
    const auto *SE = cast<SizeofExpr>(E);
    const Type *Ty =
        SE->typeOperand() ? SE->typeOperand() : SE->exprOperand()->type();
    return loadConst(
        Value::ofInt(static_cast<long long>(Layout.sizeOf(Ty))), Dst);
  }
  }
  return emitFail("unhandled expression kind in evaluator", target(Dst));
}

uint16_t Compiler::compileUnary(const UnaryExpr *E, uint16_t Dst) {
  switch (E->op()) {
  case UnaryOpKind::Minus: {
    uint16_t V = rvalA(E->sub());
    uint16_t R = target(Dst);
    emit(Op::Neg, R, V);
    return R;
  }
  case UnaryOpKind::Not: {
    uint16_t V = rvalA(E->sub());
    uint16_t R = target(Dst);
    emit(Op::NotOp, R, V);
    return R;
  }
  case UnaryOpKind::BitNot: {
    uint16_t V = rvalA(E->sub());
    uint16_t R = target(Dst);
    emit(Op::BitNot, R, V);
    return R;
  }
  case UnaryOpKind::Deref: {
    uint16_t P = place(E); // rval(sub) + DerefP
    uint16_t R = target(Dst);
    emit(Op::Decay, R, P);
    return R;
  }
  case UnaryOpKind::AddrOf: {
    const Expr *Sub = E->sub();
    if (const auto *DRE = dyn_cast<DeclRefExpr>(Sub))
      if (auto *Fn = dyn_cast_or_null<FunctionDecl>(DRE->referent()))
        return loadConst(Value::ofFn(Fn), Dst);
    // evalUnary keeps array provenance for `&arr[i]`: base first, then
    // index (the reverse of the plain-subscript lvalue order).
    if (const auto *SE = dyn_cast<SubscriptExpr>(Sub)) {
      const Type *BaseTy = SE->base()->type();
      if (BaseTy && BaseTy->isArray()) {
        uint16_t Arr = place(SE->base());
        uint16_t Idx = rvalA(SE->index());
        uint16_t R = target(Dst);
        emit(Op::AddrIdxA, R, Arr, Idx);
        return R;
      }
      uint16_t Base = rval(SE->base());
      emit(Op::ChkSub, Base); // Non-pointer check precedes the index.
      uint16_t Idx = rvalA(SE->index());
      uint16_t R = target(Dst);
      emit(Op::AddrIdxP, R, Base, Idx);
      return R;
    }
    uint16_t P = place(Sub);
    emit(Op::AddrTake, P);
    if (Dst != Any && Dst != P) {
      emit(Op::Move, Dst, P);
      return Dst;
    }
    return P;
  }
  case UnaryOpKind::PreInc:
  case UnaryOpKind::PreDec:
  case UnaryOpKind::PostInc:
  case UnaryOpKind::PostDec:
    return compileIncDec(E, Dst);
  }
  return emitFail("unhandled unary operator", target(Dst));
}

uint16_t Compiler::compileIncDec(const UnaryExpr *E, uint16_t Dst) {
  bool Inc =
      E->op() == UnaryOpKind::PreInc || E->op() == UnaryOpKind::PostInc;
  bool Pre =
      E->op() == UnaryOpKind::PreInc || E->op() == UnaryOpKind::PreDec;
  uint16_t Bits = static_cast<uint16_t>((Inc ? 1 : 0) | (Pre ? 2 : 0));
  uint16_t CK = static_cast<uint16_t>(convFor(E->sub()->type()));
  if (const auto *DRE = dyn_cast<DeclRefExpr>(stripCasts(E->sub())))
    if (const auto *V = dyn_cast_or_null<VarDecl>(DRE->referent()))
      if (!DeadLocals.count(V)) {
        auto It = Bind.find(V);
        if (It != Bind.end() && It->second.InReg) {
          uint16_t R = target(Dst);
          emit(Op::IncDecR, R, It->second.Idx, Bits, CK);
          return R;
        }
      }
  uint16_t P = place(E->sub());
  uint16_t R = target(Dst);
  emit(Op::IncDec, R, P, Bits, CK);
  return R;
}

uint16_t Compiler::compileBinary(const BinaryExpr *E, uint16_t Dst) {
  BinaryOpKind OpK = E->op();
  if (OpK == BinaryOpKind::LAnd || OpK == BinaryOpKind::LOr) {
    uint16_t R = target(Dst);
    size_t Short = emitCondBranch(E->lhs(), OpK == BinaryOpKind::LOr);
    uint16_t V = rvalA(E->rhs());
    emit(Op::BoolOp, R, V);
    size_t End = emit(Op::Jmp, 0, 0, 0, 0, 0, NoTarget);
    patch(Short);
    loadConst(Value::ofBool(OpK == BinaryOpKind::LOr), R);
    patch(End);
    return R;
  }

  // Fast path: both operands are statically VK::Int, so the generic
  // kind dispatch (pointers, doubles, member pointers) is excluded and
  // a literal rhs can fold into the instruction's constant operand.
  if (fastIntOperand(E->lhs()) && fastIntOperand(E->rhs())) {
    switch (OpK) {
    case BinaryOpKind::Add:
    case BinaryOpKind::Sub:
    case BinaryOpKind::Mul:
    case BinaryOpKind::Div:
    case BinaryOpKind::Rem: {
      // The lhs result may share a home register only when the rhs
      // cannot write one (`x + (x = 2)` must see the old x).
      uint16_t L =
          containsWrite(E->rhs()) ? rval(E->lhs()) : rvalA(E->lhs());
      uint16_t Rr = 0, ConstF = 0;
      uint32_t X = 0;
      if (const auto *IL = dyn_cast<IntLiteralExpr>(E->rhs())) {
        ConstF = 1;
        X = internConst(Value::ofInt(IL->value()));
      } else {
        Rr = rvalA(E->rhs());
      }
      uint16_t R = target(Dst);
      if (OpK == BinaryOpKind::Add)
        emit(Op::AddII, R, L, ConstF, Rr,
             Config.FaultAddOffByOne ? 1 : 0, X);
      else if (OpK == BinaryOpKind::Sub)
        emit(Op::SubII, R, L, ConstF, Rr, 0, X);
      else if (OpK == BinaryOpKind::Mul)
        emit(Op::MulII, R, L, ConstF, Rr, 0, X);
      else if (OpK == BinaryOpKind::Div)
        emit(Op::DivII, R, L, ConstF, Rr, 0, X);
      else
        emit(Op::RemII, R, L, ConstF, Rr, 0, X);
      return R;
    }
    default:
      if (int Code = cmpCode(OpK); Code >= 0) {
        uint16_t L =
            containsWrite(E->rhs()) ? rval(E->lhs()) : rvalA(E->lhs());
        uint16_t Rr = 0, ConstF = 0;
        uint32_t X = 0;
        if (const auto *IL = dyn_cast<IntLiteralExpr>(E->rhs())) {
          ConstF = 1;
          X = internConst(Value::ofInt(IL->value()));
        } else {
          Rr = rvalA(E->rhs());
        }
        uint16_t R = target(Dst);
        emit(Op::CmpII, R, L, static_cast<uint16_t>(Code), Rr, ConstF, X);
        return R;
      }
      break; // Shifts/bitwise: generic path.
    }
  }

  // The lhs may only alias a home register when evaluating the rhs
  // cannot write one (`x + (x = 2)` must see the old x).
  uint16_t L = containsWrite(E->rhs()) ? rval(E->lhs()) : rvalA(E->lhs());
  uint16_t Rr = rvalA(E->rhs());
  uint16_t R = target(Dst);
  emit(Op::Bin, R, L, static_cast<uint16_t>(OpK), Rr);
  return R;
}

size_t Compiler::emitCondBranch(const Expr *Cond, bool JumpOnTrue) {
  // Look through arithmetic casts: a comparison yields only 0/1, and
  // every arithmetic conversion preserves 0/1 truthiness, so branching
  // on the raw comparison matches asBool of the casted value. (Pointer
  // casts stay: they can fail at run time.)
  const Expr *Stripped = Cond;
  while (const auto *CE = dyn_cast<CastExpr>(Stripped)) {
    if (!CE->targetType()->isArithmetic())
      break;
    Stripped = CE->sub();
  }
  if (const auto *BE = dyn_cast<BinaryExpr>(Stripped)) {
    int Code = cmpCode(BE->op());
    if (Code >= 0 && fastIntOperand(BE->lhs()) &&
        fastIntOperand(BE->rhs())) {
      uint16_t L = containsWrite(BE->rhs()) ? rval(BE->lhs())
                                            : rvalA(BE->lhs());
      uint16_t Flags = JumpOnTrue ? 1 : 0;
      uint16_t Rhs = 0;
      const auto *IL = dyn_cast<IntLiteralExpr>(BE->rhs());
      uint32_t CIdx = IL ? internConst(Value::ofInt(IL->value())) : 0;
      // The X operand holds the branch target, so a folded constant
      // must fit the 16-bit D operand as a pool index.
      if (IL && CIdx <= 0xFFFF) {
        Rhs = static_cast<uint16_t>(CIdx);
        Flags |= 2;
      } else {
        Rhs = rvalA(BE->rhs());
      }
      return emit(Op::JmpCmpII, L, 0, static_cast<uint16_t>(Code), Rhs,
                  Flags, NoTarget);
    }
  }
  uint16_t C = rvalA(Cond);
  return emit(JumpOnTrue ? Op::JmpT : Op::JmpF, C, 0, 0, 0, 0, NoTarget);
}

uint16_t Compiler::compileAssign(const AssignExpr *E, uint16_t Dst,
                                 bool NeedResult) {
  const Type *LHSTy = E->lhs()->type();

  // evalAssign: class assignment is a memberwise copy returning Src.
  if (LHSTy && LHSTy->asClassDecl()) {
    uint16_t P = place(E->lhs());
    uint16_t Src = rval(E->rhs());
    emit(Op::CopyAsgn, Src, P, Src); // R[A]=R[C] is a self-move here.
    if (NeedResult && Dst != Any && Dst != Src) {
      emit(Op::Move, Dst, Src);
      return Dst;
    }
    return Src;
  }

  const VarDecl *RegVar = nullptr;
  uint16_t Home = 0;
  if (const auto *DRE = dyn_cast<DeclRefExpr>(stripCasts(E->lhs())))
    if (const auto *V = dyn_cast_or_null<VarDecl>(DRE->referent()))
      if (!DeadLocals.count(V)) {
        auto It = Bind.find(V);
        if (It != Bind.end() && It->second.InReg) {
          RegVar = V;
          Home = It->second.Idx;
        }
      }
  uint16_t CK = static_cast<uint16_t>(convFor(LHSTy));

  if (E->op() == AssignOpKind::Assign) {
    if (RegVar) {
      if (static_cast<Conv>(CK) == Conv::Int && fastIntOperand(E->rhs())) {
        // The rhs lands as exactly VK::Int, for which Conv::Int is the
        // identity: compile straight into the home register. Safe
        // against self-reference (`x = x + 1`): every instruction
        // reads its operands before writing its destination, and only
        // the final instruction of each control path targets Home.
        rvalInto(E->rhs(), Home);
      } else {
        uint16_t V = rvalA(E->rhs());
        emit(Op::ConvOp, Home, V, CK);
      }
      if (!NeedResult)
        return Home;
      // The result is the converted stored value (tree: Dst->V).
      uint16_t R = target(Dst);
      emit(Op::Move, R, Home);
      return R;
    }
    // Member stores whose rhs cannot produce an observable effect fuse
    // FieldPlace+StoreAt into StFld (the storage check moves after the
    // rhs evaluates, which such an rhs cannot tell apart).
    if (!NeedResult && isPureOperand(E->rhs())) {
      const Expr *L = stripCasts(E->lhs());
      const FieldDecl *Field = nullptr;
      uint16_t Base = 0;
      bool Fuse = false;
      if (const auto *ME = dyn_cast<MemberExpr>(L)) {
        if ((Field = dyn_cast_or_null<FieldDecl>(ME->member()))) {
          Base = objectBase(ME->base(), ME->isArrow());
          Fuse = true;
        }
      } else if (const auto *DRE = dyn_cast<DeclRefExpr>(L)) {
        if ((Field = dyn_cast_or_null<FieldDecl>(DRE->referent()))) {
          Base = allocTmp();
          emit(Op::ThisOp, Base, 0, 0, 0, 0,
               msg("member '" + Field->name() + "' used outside a method"));
          Fuse = true;
        }
      }
      if (Fuse) {
        uint16_t V = rvalA(E->rhs());
        emit(Op::StFld, V, Base, fieldSlot(Field), fieldIdx(Field), CK,
             msg("object has no storage for member '" + Field->name() +
                 "'"));
        return V;
      }
    }
    uint16_t P = place(E->lhs());
    uint16_t V = rvalA(E->rhs());
    emit(Op::StoreAt, P, V, CK);
    if (!NeedResult)
      return P;
    uint16_t R = target(Dst);
    emit(Op::RawV, R, P); // Using the result is not a read (evalAssign).
    return R;
  }

  // Compound assignment: load old (attributed), evaluate rhs, compute,
  // store converted, yield the unconverted new value.
  if (RegVar) {
    uint16_t Old = Home;
    if (containsWrite(E->rhs())) {
      Old = allocTmp(); // `x += (x = 3)` must combine with the old x.
      emit(Op::Move, Old, Home);
    }
    uint16_t V = rvalA(E->rhs());
    uint16_t R = target(Dst);
    emit(Op::CompoundR, R, Home, Old, V,
         static_cast<uint16_t>(E->op()), CK);
    return R;
  }
  uint16_t P = place(E->lhs());
  uint16_t Old = allocTmp();
  emit(Op::LoadSc, Old, P);
  uint16_t V = rvalA(E->rhs());
  uint16_t R = target(Dst);
  emit(Op::Compound, R, P, Old, V, static_cast<uint16_t>(E->op()), CK);
  return R;
}

uint16_t Compiler::compileCall(const CallExpr *Call, uint16_t Dst) {
  const FunctionDecl *Callee = Call->directCallee();

  if (Callee) {
    uint16_t ThisReg = 0;
    bool HasThis = false;
    if (const auto *Method = dyn_cast<MethodDecl>(Callee)) {
      // evalCall: receiver from the member expression, or the current
      // frame's `this` for unqualified method calls.
      if (const auto *ME = dyn_cast<MemberExpr>(Call->callee())) {
        ThisReg = objectBase(ME->base(), ME->isArrow());
      } else {
        ThisReg = allocTmp();
        emit(Op::ThisOp, ThisReg, 0, 0, 0, 0,
             msg("method call without receiver object"));
      }
      HasThis = true;
      if (Call->isVirtualCall()) {
        // Dispatch resolves before the arguments evaluate.
        VCallSite Site;
        Site.Method = Method;
        Site.FailMsg =
            "virtual dispatch failed for '" + Method->qualifiedName() + "'";
        M.VSites.push_back(Site);
        uint16_t FnIdxReg = allocTmp();
        emit(Op::VDisp, FnIdxReg, ThisReg, 0, 0, 0,
             static_cast<uint32_t>(M.VSites.size() - 1));
        uint16_t Argc = static_cast<uint16_t>(Call->args().size());
        uint16_t ArgBase = compileArgs(Call->args(), [&](size_t I) {
          return callParamIsRef(Callee, nullptr, I);
        });
        uint16_t R = target(Dst);
        emit(Op::CallV, R, ArgBase, Argc, ThisReg, FnIdxReg, 0);
        return R;
      }
    }
    bool IsFree = Callee->builtinKind() == BuiltinKind::Free;
    uint16_t Argc = static_cast<uint16_t>(Call->args().size());
    uint16_t ArgBase = compileArgs(
        Call->args(),
        [&](size_t I) { return callParamIsRef(Callee, nullptr, I); },
        IsFree);
    uint16_t R = target(Dst);
    if (HasThis)
      emit(Op::CallM, R, ArgBase, Argc, ThisReg, 0, funcIdx(Callee));
    else
      emit(Op::Call, R, ArgBase, Argc, 0, 0, funcIdx(Callee));
    return R;
  }

  // Indirect call: callee value and null check precede the arguments.
  uint16_t FnReg = rval(Call->callee());
  emit(Op::ChkFn, FnReg);
  const FunctionType *FT = calleeFnType(Call);
  uint16_t Argc = static_cast<uint16_t>(Call->args().size());
  uint16_t ArgBase = compileArgs(Call->args(), [&](size_t I) {
    return callParamIsRef(nullptr, FT, I);
  });
  uint16_t R = target(Dst);
  emit(Op::CallI, R, ArgBase, Argc, FnReg, 0, 0);
  return R;
}

uint16_t Compiler::compileNew(const NewExpr *N, uint16_t Dst) {
  const Type *Ty = N->allocType();

  if (N->isArrayNew()) {
    uint16_t Cnt = rvalA(N->arraySize());
    uint16_t R = target(Dst);
    emit(Op::ArrNew, R, Cnt, 0, 0, 0,
         arrayDesc(Ty, 0, N->location()));
    return R;
  }

  if (const ClassDecl *CD = Ty->asClassDecl()) {
    uint16_t R = target(Dst);
    emit(Op::AllocObj, R, site16(N->location()), 0, 0, 0, classIdx(CD));
    const ConstructorDecl *Ctor = N->constructor();
    uint16_t Argc = static_cast<uint16_t>(N->ctorArgs().size());
    uint16_t ArgBase = compileArgs(N->ctorArgs(), [&](size_t I) {
      return ctorParamIsRef(Ctor, I);
    });
    emit(Op::CtorCall, R, ArgBase, Argc, /*MostDerived=*/1,
         Ctor ? fn16(funcIdx(Ctor)) : NoFunc16, classIdx(CD));
    return R;
  }

  // Scalar new: fresh storage, zero or converted initializer; no
  // ObjectID, no hooks (evalNew).
  if (N->ctorArgs().empty()) {
    uint16_t R = target(Dst);
    emit(Op::NewScal0, R, 0, 0, 0, 0, internConst(zeroValue(Ty)));
    return R;
  }
  uint16_t V = rvalA(N->ctorArgs()[0]);
  uint16_t R = target(Dst);
  emit(Op::NewScalI, R, V, static_cast<uint16_t>(convFor(Ty)));
  return R;
}

uint16_t Compiler::deallocArg(const Expr *E) {
  // evalDeallocArg: member loads feeding deallocation skip read
  // attribution (paper footnote 3) unless CountDeallocationReads.
  if (Config.CountDeallocationReads)
    return rval(E);
  const Expr *Stripped = stripCasts(E);
  bool IsMember = false;
  if (const auto *ME = dyn_cast<MemberExpr>(Stripped))
    IsMember = dyn_cast_or_null<FieldDecl>(ME->member()) != nullptr;
  else if (const auto *DRE = dyn_cast<DeclRefExpr>(Stripped))
    IsMember = dyn_cast_or_null<FieldDecl>(DRE->referent()) != nullptr;
  if (!IsMember)
    return rval(E);
  uint16_t P = place(Stripped);
  uint16_t R = allocTmp();
  emit(Op::LoadNA, R, P);
  return R;
}

} // namespace

namespace dmm {
namespace vm {

Module compileModule(const ASTContext &Ctx, const ClassHierarchy &CH,
                     const LayoutEngine &Layout, const SlotLayout &Slots,
                     const CompilerConfig &Config) {
  return Compiler(Ctx, CH, Layout, Slots, Config).compile();
}

} // namespace vm
} // namespace dmm
