//===-- vm/BytecodeCompiler.h - AST to bytecode lowering --------*- C++ -*-==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lowers a resolved MiniC++ AST to the register bytecode of
/// vm/Bytecode.h. The compiler mirrors the tree-walking interpreter's
/// evaluation order exactly — every observable event (member
/// read/write attribution, allocation-trace records, profiler events,
/// ObjectID assignment, runtime-error messages) happens at the same
/// point in the same order, which is what lets the `engine` fuzz
/// oracle demand byte-identical behaviour from both executors.
///
/// Key lowering decisions (docs/VM.md):
///  - member accesses index Storage::Slots by the shared module-wide
///    slot numbering (SlotLayout, interp/Memory.h), valid for any
///    receiver class;
///  - scalar locals whose address is never taken (no AddrOf, never
///    bound to a reference) live in registers; everything else is
///    storage-backed so use-after-free and attribution semantics match
///    the interpreter;
///  - constructors compile to bytecode functions carrying the
///    initializer prologue (virtual bases behind a most-derived guard,
///    then non-virtual bases, then members); destructor bodies compile
///    to plain functions invoked by the runtime destruction walk;
///  - global initialization compiles to one synthetic function using
///    a two-stage binding (bound vs. published) that reproduces the
///    interpreter's global-frame visibility rules.
///
//===----------------------------------------------------------------------===//

#ifndef DMM_VM_BYTECODECOMPILER_H
#define DMM_VM_BYTECODECOMPILER_H

#include "vm/Bytecode.h"

namespace dmm {

class ASTContext;
class ClassHierarchy;
class LayoutEngine;
class SlotLayout;

namespace vm {

struct CompilerConfig {
  /// Mirror of InterpOptions::CountDeallocationReads: when set,
  /// delete/free arguments are loaded with normal read attribution.
  bool CountDeallocationReads = false;
  /// Deliberate miscompile for harness self-validation: integer `+`
  /// lowers to an off-by-one add (docs/TESTING.md fault injection).
  bool FaultAddOffByOne = false;
};

/// Compiles the whole program into a Module whose member accesses use
/// \p Slots. Total: any construct the interpreter would reject at run
/// time lowers to code failing with the identical message at the
/// identical point.
Module compileModule(const ASTContext &Ctx, const ClassHierarchy &CH,
                     const LayoutEngine &Layout, const SlotLayout &Slots,
                     const CompilerConfig &Config = {});

} // namespace vm
} // namespace dmm

#endif // DMM_VM_BYTECODECOMPILER_H
