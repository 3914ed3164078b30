//===-- vm/VM.h - Bytecode virtual machine ----------------------*- C++ -*-==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bytecode execution engine: compiles the program once (vm/
/// BytecodeCompiler.h) and runs it with a direct-threaded dispatch loop
/// (computed goto under GCC/Clang, a switch otherwise). The VM is a
/// drop-in replacement for the tree-walking Interpreter: it takes the
/// same InterpOptions, runs on the same storage model (interp/Memory.h:
/// slot-addressed Storage nodes, attributed scalar access, memberwise
/// copy), fires the same allocation-trace / read-write / profiler hooks
/// at the same points in the same order, produces the same output, exit
/// code, and runtime-error messages, and emits the same "interp" span
/// and telemetry counters. Only ExecResult::Steps differs (bytecode
/// instructions, not AST visits) — the differential `engine` fuzz
/// oracle compares everything else byte for byte.
///
//===----------------------------------------------------------------------===//

#ifndef DMM_VM_VM_H
#define DMM_VM_VM_H

#include "interp/Interpreter.h"
#include "interp/Memory.h"
#include "vm/BytecodeCompiler.h"

#include <unordered_map>
#include <vector>

namespace dmm {
namespace vm {

class VM : private MemoryModel {
public:
  /// Compiles the program; compilation cost is charged to a
  /// "vm.compile" span, execution to "interp" (as the tree-walker).
  VM(const ASTContext &Ctx, const ClassHierarchy &CH,
     InterpOptions Options = {}, CompilerConfig Config = {});
  ~VM();

  /// Executes the program starting at \p Main. Single-shot, like
  /// Interpreter::run.
  ExecResult run(const FunctionDecl *Main);

  /// The compiled module (tests inspect constant interning, jump
  /// targets, and member-slot resolution).
  const Module &module() const { return Mod; }

private:
  /// Per-VSites inline cache: last receiver class -> function index.
  struct VCache {
    const ClassDecl *Class = nullptr;
    uint32_t Fn = 0;
  };

  void step();

  uint64_t traceAlloc(uint32_t ClassI, uint64_t Count);
  void traceFree(Storage *Obj);
  void destroyCompleteObject(Storage *Obj);
  void destroyObj(Storage *Obj, uint32_t ClassI, bool MostDerived);
  void constructVia(Storage *Obj, uint32_t ClassI, uint32_t CtorIdx,
                    size_t ArgAbs, uint16_t Argc, bool MostDerived);
  void defaultConstructMembers(Storage *Obj, uint32_t ClassI,
                               bool MostDerived);

  Value loadOrDecay(Storage *S);
  static Value convert(const Value &V, Conv C);
  /// The member storage that slot \p Slot of place \p S must hold for
  /// field \p F; fails with \p Missing when it does not.
  Storage *fieldAt(Storage *S, const FieldDecl *F, uint32_t Slot,
                   const std::string &Missing) {
    Storage *FS = S ? member(S, F, Slot) : nullptr;
    if (!FS)
      fail(Missing);
    return FS;
  }

  Value doCall(uint32_t FnIdx, Storage *This, size_t ArgAbs, uint16_t Argc);
  Value callBuiltin(const FuncEntry &FE, size_t ArgAbs);
  Value execFunction(const FuncEntry &FE, Storage *This,
                     const ClassDecl *DispatchClass, bool MostDerived,
                     size_t ArgAbs, uint16_t Argc);
  Value execCode(const FuncEntry &FE, size_t RBase, size_t LBase,
                 Storage *This, const ClassDecl *DispatchClass,
                 bool MostDerived);

  Value binaryOp(const Value &L, unsigned OpK, const Value &R);
  Value compoundCompute(const Value &Old, unsigned OpK, const Value &R);
  Storage *stringStorage(uint32_t SiteIdx);

  const ClassHierarchy &CH;
  Module Mod;

  /// Shared register/local stacks (frames take [base, base+N) windows).
  std::vector<Value> Regs;
  std::vector<Storage *> Locals;

  std::vector<Storage *> GS; ///< Globals bound mid-declaration.
  std::vector<Storage *> GP; ///< Globals published after declaration.
  std::vector<Storage *> GlobalObjects; ///< Teardown list.
  std::vector<Storage *> Strings;       ///< Parallel to StringSites.
  std::vector<VCache> VCaches;          ///< Parallel to VSites.

  std::string Output;
  uint64_t Steps = 0;
  uint64_t NumCalls = 0;
  uint64_t NextObjectID = 1;
  size_t Depth = 0; ///< Guest frame count (the tree-walker's Stack.size()).

  std::unordered_map<Storage *, uint64_t> TraceIDs;
};

} // namespace vm
} // namespace dmm

#endif // DMM_VM_VM_H
