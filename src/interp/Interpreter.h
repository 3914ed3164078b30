//===-- interp/Interpreter.h - MiniC++ interpreter --------------*- C++ -*-==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A tree-walking interpreter for MiniC++. It plays the role of the
/// paper's instrumented execution (§4.3): while running a program it can
/// record an allocation trace (for the dynamic measurements of Table 2 /
/// Figure 4) and the set of data members whose values are dynamically
/// read or written (the ground truth for the analysis-soundness property
/// tests).
///
/// Semantics notes:
///  - objects are modeled as graphs of slot-addressed storage nodes
///    (interp/Memory.h, shared with the bytecode VM), not flat bytes;
///    union members therefore do not alias each other (reads of a member
///    other than the last one written return that member's own last
///    value);
///  - virtual dispatch during construction/destruction uses the class of
///    the constructor/destructor being run, as in C++;
///  - scalars are zero-initialized for determinism;
///  - execution is bounded by a step budget so runaway guest programs
///    terminate with an error instead of hanging the host.
///
//===----------------------------------------------------------------------===//

#ifndef DMM_INTERP_INTERPRETER_H
#define DMM_INTERP_INTERPRETER_H

#include "ast/ASTContext.h"
#include "ast/Expr.h"
#include "hierarchy/ClassHierarchy.h"
#include "hierarchy/ObjectLayout.h"
#include "interp/Memory.h"
#include "interp/Value.h"
#include "trace/AllocationTrace.h"

#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

namespace dmm {

/// The outcome of an execution.
struct ExecResult {
  bool Completed = false; ///< main returned (vs. runtime error).
  std::string Error;      ///< Error message when !Completed.
  long long ExitCode = 0; ///< main's return value.
  std::string Output;     ///< Everything written by print_* builtins.
  uint64_t Steps = 0;
};

/// Executes a resolved MiniC++ program.
class Interpreter : private MemoryModel {
public:
  Interpreter(const ASTContext &Ctx, const ClassHierarchy &CH,
              InterpOptions Options = {});
  ~Interpreter(); // Out of line: Frame is incomplete here.

  /// Runs the program: global initialization, \p Main, global teardown.
  ExecResult run(const FunctionDecl *Main);

private:
  struct Frame;
  struct Flow;

  /// \name Object lifecycle
  /// @{
  uint64_t traceAlloc(const ClassDecl *CD, uint64_t Count);
  void traceFree(Storage *Obj);
  void construct(Storage *Obj, const ClassDecl *CD,
                 const ConstructorDecl *Ctor, std::vector<Value> Args,
                 bool MostDerived);
  void defaultConstructBasesAndMembers(Storage *Obj, const ClassDecl *CD,
                                       bool MostDerived);
  void destroy(Storage *Obj, const ClassDecl *CD, bool MostDerived);
  /// Runs the full destruction (dynamic dispatch from Obj->Class) and
  /// records the trace event.
  void destroyCompleteObject(Storage *Obj);
  /// @}

  /// \name Execution
  /// @{
  Value callFunction(const FunctionDecl *FD, Storage *This,
                     std::vector<Value> Args,
                     const ClassDecl *DispatchClass);
  Flow execStmt(const Stmt *S);
  Flow execCompound(const CompoundStmt *CS);
  void execVarDecl(const VarDecl *V, std::vector<Storage *> &BlockObjects);
  /// @}

  /// \name Expression evaluation
  /// @{
  Value evalRValue(const Expr *E);
  Storage *evalLValue(const Expr *E);
  /// Evaluates the object of a member access (handles `.` vs `->`).
  Storage *evalObjectBase(const Expr *Base, bool IsArrow);
  Value callBuiltin(const FunctionDecl *FD, std::vector<Value> &Args);
  Value evalCall(const CallExpr *Call);
  Value evalNew(const NewExpr *N);
  void evalDelete(const DeleteExpr *D);
  /// Evaluates a delete/free argument: a (cast-stripped) direct member
  /// access is loaded without read attribution.
  Value evalDeallocArg(const Expr *E);
  Value evalUnary(const UnaryExpr *E);
  Value evalBinary(const BinaryExpr *E);
  Value evalAssign(const AssignExpr *E);
  /// Loads a scalar, or decays an object/array storage to a pointer.
  Value loadOrDecay(Storage *S);
  Value convertForStore(const Value &V, const Type *Ty) const;
  /// @}

  void step();

  Storage *stringStorage(const StringLiteralExpr *S);
  Storage *globalStorage(const VarDecl *GV);

  const ASTContext &Ctx;
  const ClassHierarchy &CH;

  /// A deque so references to a frame stay valid while nested calls
  /// push and pop deeper frames (vector reallocation would dangle).
  std::deque<Frame> Stack;
  std::unordered_map<const VarDecl *, Storage *> Globals;
  std::unordered_map<const Expr *, Storage *> StringLiterals;

  std::string Output;
  uint64_t Steps = 0;
  /// Telemetry tallies (plain members so the per-event cost is an
  /// increment; flushed to the active Telemetry when run() finishes).
  uint64_t NumCalls = 0;
  uint64_t NextObjectID = 1;
  /// Maps traced complete objects to their trace IDs.
  std::unordered_map<const Storage *, uint64_t> TraceIDs;
};

} // namespace dmm

#endif // DMM_INTERP_INTERPRETER_H
