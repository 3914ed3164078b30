//===-- benchgen/Synthesizer.cpp ------------------------------------------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//

#include "benchgen/Synthesizer.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>

using namespace dmm;

namespace {

/// xorshift64* deterministic RNG.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed ? Seed : 0x9E3779B97F4A7C15ULL) {}

  uint64_t next() {
    State ^= State >> 12;
    State ^= State << 25;
    State ^= State >> 27;
    return State * 0x2545F4914F6CDD1DULL;
  }
  /// Uniform in [0, Bound).
  uint64_t below(uint64_t Bound) { return Bound ? next() % Bound : 0; }
  /// Uniform in [0, 1).
  double unit() { return (next() >> 11) * (1.0 / 9007199254740992.0); }
  bool chance(double P) { return unit() < P; }

private:
  uint64_t State;
};

enum class FieldTy { Int, Double, Char, Ptr };

enum class FieldRole {
  Live,             ///< Read in work()/process().
  LiveAddr,         ///< Address passed to a reading helper.
  DeadWriteOnly,    ///< Initialized in the constructor, never read.
  DeadNever,        ///< Never accessed at all.
  DeadUnreachRead,  ///< Read only in a never-called method.
  DeadPtrDeleted,   ///< Pointer passed only to delete in the destructor.
};

struct FieldPlan {
  std::string Name;
  FieldTy Ty = FieldTy::Int;
  int PtrClass = -1; ///< Target class index for Ptr fields.
  FieldRole Role = FieldRole::Live;

  bool isDead() const {
    return Role != FieldRole::Live && Role != FieldRole::LiveAddr;
  }
  unsigned size() const {
    switch (Ty) {
    case FieldTy::Int: return 4;
    case FieldTy::Double: return 8;
    case FieldTy::Char: return 4; // Padded estimate.
    case FieldTy::Ptr: return 8;
    }
    return 4;
  }
};

struct ClassPlan {
  std::string Name;
  bool IsStruct = false;
  bool Used = false;
  int Base = -1; ///< Index of the base class, or -1.
  bool HasDtor = false;
  std::vector<FieldPlan> Fields;
  uint64_t Count = 0;    ///< Objects allocated by main().
  uint64_t Retained = 0; ///< Kept until program end.

  unsigned ownSize() const {
    unsigned S = 0;
    for (const FieldPlan &F : Fields)
      S += F.size();
    return S;
  }
  unsigned ownDead() const {
    unsigned S = 0;
    for (const FieldPlan &F : Fields)
      if (F.isDead())
        S += F.size();
    return S;
  }
};

/// Whole-object size/dead estimates including base chains and vptr.
struct SizeModel {
  const std::vector<ClassPlan> &Classes;

  unsigned size(int I) const {
    const ClassPlan &C = Classes[static_cast<size_t>(I)];
    unsigned S = C.IsStruct ? 0 : 8; // vptr estimate.
    for (int Cur = I; Cur >= 0;
         Cur = Classes[static_cast<size_t>(Cur)].Base)
      S += Classes[static_cast<size_t>(Cur)].ownSize();
    return std::max(S, 1u);
  }
  unsigned dead(int I) const {
    unsigned S = 0;
    for (int Cur = I; Cur >= 0;
         Cur = Classes[static_cast<size_t>(Cur)].Base)
      S += Classes[static_cast<size_t>(Cur)].ownDead();
    return S;
  }
};

/// Emits the program text.
class Emitter {
public:
  Emitter(const BenchmarkSpec &Spec, std::vector<ClassPlan> Classes)
      : Spec(Spec), Classes(std::move(Classes)) {}

  std::string emit();

private:
  void line(const std::string &S) {
    Out += S;
    Out += '\n';
    ++Lines;
  }
  void blank() { line(""); }

  std::string fieldType(const FieldPlan &F) const {
    switch (F.Ty) {
    case FieldTy::Int: return "int";
    case FieldTy::Double: return "double";
    case FieldTy::Char: return "char";
    case FieldTy::Ptr:
      return Classes[static_cast<size_t>(F.PtrClass)].Name + " *";
    }
    return "int";
  }

  void emitClassDef(size_t I);
  void emitClassImpl(size_t I);
  void emitStructHelpers(size_t I);
  void emitExercise(size_t I);
  void emitMain();
  void emitFiller();

  const BenchmarkSpec &Spec;
  std::vector<ClassPlan> Classes;
  std::string Out;
  unsigned Lines = 0;
};

void Emitter::emitClassDef(size_t I) {
  ClassPlan &C = Classes[I];
  std::string Head =
      std::string(C.IsStruct ? "struct " : "class ") + C.Name;
  if (C.Base >= 0)
    Head += " : public " + Classes[static_cast<size_t>(C.Base)].Name;
  line(Head + " {");
  if (!C.IsStruct)
    line("public:");
  for (const FieldPlan &F : C.Fields)
    line("  " + fieldType(F) + " " + F.Name + ";");
  if (!C.IsStruct) {
    line("  " + C.Name + "(int s);");
    if (C.HasDtor)
      line("  ~" + C.Name + "();");
    line("  virtual int work();");
    bool HasUnreach = false;
    for (const FieldPlan &F : C.Fields)
      if (F.Role == FieldRole::DeadUnreachRead)
        HasUnreach = true;
    if (HasUnreach)
      line("  int unused_feature();");
  }
  line("};");
  blank();
}

void Emitter::emitClassImpl(size_t I) {
  ClassPlan &C = Classes[I];
  if (C.IsStruct) {
    emitStructHelpers(I);
    return;
  }

  // Constructor: writes every field (the paper's canonical write-only
  // pattern for dead members).
  std::string CtorHead = C.Name + "::" + C.Name + "(int s)";
  if (C.Base >= 0)
    CtorHead += " : " + Classes[static_cast<size_t>(C.Base)].Name + "(s)";
  line(CtorHead + " {");
  unsigned K = 0;
  for (const FieldPlan &F : C.Fields) {
    ++K;
    if (F.Role == FieldRole::DeadNever)
      continue; // Not even initialized.
    switch (F.Ty) {
    case FieldTy::Int:
      line("  " + F.Name + " = s + " + std::to_string(K) + ";");
      break;
    case FieldTy::Double:
      line("  " + F.Name + " = 0.5 + " + std::to_string(K) + ";");
      break;
    case FieldTy::Char:
      line("  " + F.Name + " = 'a';");
      break;
    case FieldTy::Ptr:
      line("  " + F.Name + " = nullptr;");
      break;
    }
  }
  line("}");
  blank();

  if (C.HasDtor) {
    line(C.Name + "::~" + C.Name + "() {");
    for (const FieldPlan &F : C.Fields)
      if (F.Role == FieldRole::DeadPtrDeleted)
        line("  delete " + F.Name + ";");
    line("}");
    blank();
  }

  // work(): reads every live field.
  line("int " + C.Name + "::work() {");
  line("  int acc = 0;");
  for (const FieldPlan &F : C.Fields) {
    if (F.Role == FieldRole::LiveAddr) {
      line("  acc = acc + absorb(&" + F.Name + ");");
      continue;
    }
    if (F.Role != FieldRole::Live)
      continue;
    switch (F.Ty) {
    case FieldTy::Int:
      line("  acc = acc + " + F.Name + ";");
      break;
    case FieldTy::Double:
      line("  acc = acc + (int)" + F.Name + ";");
      break;
    case FieldTy::Char:
      line("  acc = acc + (int)" + F.Name + ";");
      break;
    case FieldTy::Ptr:
      line("  if (" + F.Name + " != nullptr) { acc = acc + 1; }");
      break;
    }
  }
  if (C.Base >= 0)
    line("  acc = acc + this->" +
         Classes[static_cast<size_t>(C.Base)].Name + "::work();");
  line("  return acc;");
  line("}");
  blank();

  bool HasUnreach = false;
  for (const FieldPlan &F : C.Fields)
    if (F.Role == FieldRole::DeadUnreachRead)
      HasUnreach = true;
  if (HasUnreach) {
    line("int " + C.Name + "::unused_feature() {");
    line("  int t = 0;");
    for (const FieldPlan &F : C.Fields) {
      if (F.Role != FieldRole::DeadUnreachRead)
        continue;
      if (F.Ty == FieldTy::Ptr)
        line("  if (" + F.Name + " != nullptr) { t = t + 1; }");
      else
        line("  t = t + (int)" + F.Name + ";");
    }
    line("  return t;");
    line("}");
    blank();
  }
}

void Emitter::emitStructHelpers(size_t I) {
  ClassPlan &C = Classes[I];
  line("void init_" + C.Name + "(" + C.Name + " *s, int seed) {");
  unsigned K = 0;
  for (const FieldPlan &F : C.Fields) {
    ++K;
    if (F.Role == FieldRole::DeadNever)
      continue;
    switch (F.Ty) {
    case FieldTy::Int:
      line("  s->" + F.Name + " = seed + " + std::to_string(K) + ";");
      break;
    case FieldTy::Double:
      line("  s->" + F.Name + " = 0.25 + " + std::to_string(K) + ";");
      break;
    case FieldTy::Char:
      line("  s->" + F.Name + " = 'z';");
      break;
    case FieldTy::Ptr:
      line("  s->" + F.Name + " = nullptr;");
      break;
    }
  }
  line("}");
  blank();
  line("int process_" + C.Name + "(" + C.Name + " *s) {");
  line("  int acc = 0;");
  for (const FieldPlan &F : C.Fields) {
    if (F.Role == FieldRole::LiveAddr) {
      line("  acc = acc + absorb(&s->" + F.Name + ");");
      continue;
    }
    if (F.Role != FieldRole::Live)
      continue;
    if (F.Ty == FieldTy::Ptr)
      line("  if (s->" + F.Name + " != nullptr) { acc = acc + 1; }");
    else
      line("  acc = acc + (int)s->" + F.Name + ";");
  }
  line("  return acc;");
  line("}");
  blank();

  bool HasUnreach = false;
  for (const FieldPlan &F : C.Fields)
    if (F.Role == FieldRole::DeadUnreachRead)
      HasUnreach = true;
  if (HasUnreach) {
    line("int unused_" + C.Name + "(" + C.Name + " *s) {");
    line("  int t = 0;");
    for (const FieldPlan &F : C.Fields) {
      if (F.Role != FieldRole::DeadUnreachRead)
        continue;
      if (F.Ty == FieldTy::Ptr)
        line("  if (s->" + F.Name + " != nullptr) { t = t + 1; }");
      else
        line("  t = t + (int)s->" + F.Name + ";");
    }
    line("  return t;");
    line("}");
    blank();
  }
}

void Emitter::emitExercise(size_t I) {
  ClassPlan &C = Classes[I];
  if (!C.Used || C.Count == 0)
    return;
  const std::string N = std::to_string(C.Count);
  const std::string R = std::to_string(C.Retained);

  line(C.Name + " **g_keep_" + C.Name + ";");
  line("int g_kept_" + C.Name + ";");
  line("int exercise_" + C.Name + "() {");
  line("  int acc = 0;");
  line("  g_keep_" + C.Name + " = new " + C.Name + "*[" + R + " + 1];");
  line("  g_kept_" + C.Name + " = 0;");
  line("  int i;");
  line("  for (i = 0; i < " + N + "; i = i + 1) {");
  if (C.IsStruct) {
    line("    " + C.Name + " *o = new " + C.Name + ";");
    line("    init_" + C.Name + "(o, i);");
    line("    acc = acc + process_" + C.Name + "(o);");
  } else {
    line("    " + C.Name + " *o = new " + C.Name + "(i);");
    line("    acc = acc + o->work();");
  }
  line("    if (g_kept_" + C.Name + " < " + R + ") {");
  line("      g_keep_" + C.Name + "[g_kept_" + C.Name + "] = o;");
  line("      g_kept_" + C.Name + " = g_kept_" + C.Name + " + 1;");
  line("    } else {");
  line("      delete o;");
  line("    }");
  line("  }");
  line("  return acc;");
  line("}");
  line("void release_" + C.Name + "() {");
  line("  int i;");
  line("  for (i = 0; i < g_kept_" + C.Name + "; i = i + 1) {");
  line("    delete g_keep_" + C.Name + "[i];");
  line("  }");
  line("  delete[] g_keep_" + C.Name + ";");
  line("}");
  blank();
}

void Emitter::emitMain() {
  line("int main() {");
  line("  int checksum = 0;");
  for (const ClassPlan &C : Classes)
    if (C.Used && C.Count > 0)
      line("  checksum = checksum + exercise_" + C.Name + "();");
  for (const ClassPlan &C : Classes)
    if (C.Used && C.Count > 0)
      line("  release_" + C.Name + "();");
  line("  print_int(checksum);");
  line("  return 0;");
  line("}");
}

void Emitter::emitFiller() {
  // Pad to the spec's lines-of-code target with self-contained helper
  // functions (local arithmetic only: no effect on member liveness and
  // no interpretation cost, since they are never called).
  unsigned FillerIndex = 0;
  while (Lines + 12 <= Spec.TargetLoC) {
    ++FillerIndex;
    std::string N = std::to_string(FillerIndex);
    line("int filler_" + N + "(int x) {");
    line("  int a = x + " + N + ";");
    line("  int b = a * 3;");
    line("  int c = b - a;");
    line("  a = a + b * c;");
    line("  b = a % 17 + c;");
    line("  c = c + a - b * 2;");
    line("  a = a ^ (b & c);");
    line("  b = b | (a >> 2);");
    line("  c = c + (a << 1);");
    line("  return a + b + c;");
    line("}");
    blank();
  }
}

std::string Emitter::emit() {
  line("// " + Spec.Name + ": " + Spec.Description);
  line("// Synthesized benchmark (deterministic, seed " +
       std::to_string(Spec.Seed) + "); see DESIGN.md for the profile.");
  blank();
  line("int absorb(int *p) { return (*p); }");
  blank();
  for (size_t I = 0; I != Classes.size(); ++I)
    emitClassDef(I);
  for (size_t I = 0; I != Classes.size(); ++I)
    emitClassImpl(I);
  for (size_t I = 0; I != Classes.size(); ++I)
    emitExercise(I);
  emitMain();
  emitFiller();
  return std::move(Out);
}

/// Splits \p Text into ~\p Parts source files, cutting only at blank
/// lines between top-level declarations (brace depth 0, outside string
/// and character literals and comments). The concatenation of the parts
/// is the original text verbatim, and files parse in order sharing one
/// name table, so a split program is semantically identical to the
/// single-file form. Multi-file inputs exercise the parser's cross-file
/// class-name table and file-ordered diagnostics.
std::vector<SourceFile> splitTopLevel(const std::string &BaseName,
                                      std::string Text, size_t Parts = 8) {
  std::vector<size_t> Boundaries;
  int Depth = 0;
  bool InString = false, InChar = false, InLine = false, InBlock = false;
  for (size_t I = 0; I + 1 < Text.size(); ++I) {
    char C = Text[I];
    if (InLine) {
      if (C == '\n')
        InLine = false;
    } else if (InBlock) {
      if (C == '*' && Text[I + 1] == '/') {
        InBlock = false;
        ++I;
      }
    } else if (InString || InChar) {
      if (C == '\\')
        ++I;
      else if (C == (InString ? '"' : '\''))
        InString = InChar = false;
    } else {
      switch (C) {
      case '"': InString = true; break;
      case '\'': InChar = true; break;
      case '{': ++Depth; break;
      case '}': --Depth; break;
      case '/':
        if (Text[I + 1] == '/') InLine = true;
        else if (Text[I + 1] == '*') InBlock = true;
        break;
      case '\n':
        if (Text[I + 1] == '\n' && Depth == 0)
          Boundaries.push_back(I + 2); // Cut after the blank line.
        break;
      default: break;
      }
    }
  }

  // Pick the boundary nearest each equal-size target offset; dedup to
  // keep cuts strictly increasing.
  std::vector<size_t> Cuts;
  for (size_t P = 1; P < Parts; ++P) {
    size_t Target = Text.size() * P / Parts;
    const size_t *Best = nullptr;
    for (const size_t &B : Boundaries) {
      size_t Dist = B > Target ? B - Target : Target - B;
      if (!Best || Dist < (*Best > Target ? *Best - Target : Target - *Best))
        Best = &B;
    }
    if (Best && (Cuts.empty() || *Best > Cuts.back()) && *Best < Text.size())
      Cuts.push_back(*Best);
  }

  std::vector<SourceFile> Files;
  size_t Start = 0;
  for (size_t Index = 0; Index <= Cuts.size(); ++Index) {
    size_t End = Index < Cuts.size() ? Cuts[Index] : Text.size();
    std::string Name =
        Cuts.empty() ? BaseName + ".mcc"
                     : BaseName + ".part" + std::to_string(Index) + ".mcc";
    Files.push_back({std::move(Name), Text.substr(Start, End - Start),
                     /*IsLibrary=*/false});
    Start = End;
  }
  return Files;
}

} // namespace

//===----------------------------------------------------------------------===//
// Planning
//===----------------------------------------------------------------------===//

GeneratedBenchmark dmm::synthesizeBenchmark(const BenchmarkSpec &Spec,
                                            double Scale) {
  assert(!Spec.HandWritten && "use richardsSource()/deltablueSource()");
  Rng R(Spec.Seed);

  std::vector<ClassPlan> Classes;
  Classes.reserve(Spec.NumClasses);

  // Used classes first, then unused ones.
  for (unsigned I = 0; I != Spec.NumClasses; ++I) {
    ClassPlan C;
    C.Used = I < Spec.NumUsedClasses;
    C.Name = (C.Used ? "C" : "U") + std::to_string(I);
    C.IsStruct = C.Used && R.chance(Spec.StructFraction);
    Classes.push_back(std::move(C));
  }

  // Inheritance among used non-struct classes (chains of depth <= 3).
  std::vector<unsigned> Depth(Spec.NumClasses, 0);
  for (unsigned I = 1; I < Spec.NumUsedClasses; ++I) {
    if (Classes[I].IsStruct || !R.chance(Spec.InheritanceFraction))
      continue;
    // Pick an earlier non-struct used class with remaining depth budget.
    unsigned Tries = 8;
    while (Tries--) {
      unsigned B = static_cast<unsigned>(R.below(I));
      if (!Classes[B].IsStruct && Depth[B] < 3) {
        Classes[I].Base = static_cast<int>(B);
        Depth[I] = Depth[B] + 1;
        break;
      }
    }
  }

  // Distribute NumMembers over used classes (each gets at least one).
  {
    std::vector<double> W(Spec.NumUsedClasses);
    double Total = 0;
    for (double &X : W)
      Total += (X = 0.5 + R.unit());
    unsigned Assigned = 0;
    for (unsigned I = 0; I != Spec.NumUsedClasses; ++I) {
      unsigned N = std::max(
          1u, static_cast<unsigned>(Spec.NumMembers * W[I] / Total));
      if (Assigned + N > Spec.NumMembers)
        N = Spec.NumMembers - Assigned;
      if (I + 1 == Spec.NumUsedClasses)
        N = Spec.NumMembers - Assigned; // Remainder.
      Assigned += N;
      for (unsigned K = 0; K != N; ++K) {
        FieldPlan F;
        F.Name = "f" + std::to_string(K);
        double T = R.unit();
        if (T < 0.60) {
          F.Ty = FieldTy::Int;
        } else if (T < 0.75) {
          F.Ty = FieldTy::Double;
        } else if (T < 0.85) {
          F.Ty = FieldTy::Char;
        } else if (I > 0) {
          F.Ty = FieldTy::Ptr;
          F.PtrClass = static_cast<int>(R.below(I));
        } else {
          F.Ty = FieldTy::Int;
        }
        Classes[I].Fields.push_back(std::move(F));
      }
    }
  }
  // A few members for unused classes (not counted in the Table 1 column).
  for (unsigned I = Spec.NumUsedClasses; I != Spec.NumClasses; ++I)
    for (unsigned K = 0; K != 3; ++K) {
      FieldPlan F;
      F.Name = "f" + std::to_string(K);
      F.Role = FieldRole::DeadNever;
      Classes[I].Fields.push_back(std::move(F));
    }

  // Zipf-ish instantiation counts over used classes.
  {
    std::vector<unsigned> Order(Spec.NumUsedClasses);
    for (unsigned I = 0; I != Spec.NumUsedClasses; ++I)
      Order[I] = I;
    // Deterministic shuffle.
    for (unsigned I = Spec.NumUsedClasses; I > 1; --I)
      std::swap(Order[I - 1], Order[R.below(I)]);
    double Total = 0;
    std::vector<double> W(Spec.NumUsedClasses);
    for (unsigned Rank = 0; Rank != Spec.NumUsedClasses; ++Rank)
      Total += (W[Order[Rank]] = 1.0 / std::pow(Rank + 1.0, 0.8));
    uint64_t Objects = std::max<uint64_t>(
        static_cast<uint64_t>(Spec.TargetObjects * Scale),
        Spec.NumUsedClasses);
    for (unsigned I = 0; I != Spec.NumUsedClasses; ++I)
      Classes[I].Count = std::max<uint64_t>(
          1, static_cast<uint64_t>(Objects * W[I] / Total));
  }

  // Place the dead members: hot classes are the most-instantiated half.
  {
    unsigned D = static_cast<unsigned>(
        std::lround(Spec.TargetStaticDeadPct / 100.0 * Spec.NumMembers));
    std::vector<unsigned> ByCount;
    for (unsigned I = 0; I != Spec.NumUsedClasses; ++I)
      ByCount.push_back(I);
    std::sort(ByCount.begin(), ByCount.end(), [&](unsigned A, unsigned B) {
      return Classes[A].Count > Classes[B].Count;
    });
    std::vector<FieldPlan *> HotPool, ColdPool;
    for (unsigned Rank = 0; Rank != ByCount.size(); ++Rank) {
      ClassPlan &C = Classes[ByCount[Rank]];
      bool Hot = Rank < ByCount.size() / 2;
      for (FieldPlan &F : C.Fields)
        (Hot ? HotPool : ColdPool).push_back(&F);
    }
    unsigned WantHot = static_cast<unsigned>(
        std::lround(D * Spec.DeadInHotFraction));
    unsigned Marked = 0;
    unsigned RoleCycle = 0;
    auto MarkFrom = [&](std::vector<FieldPlan *> &Pool, unsigned Want) {
      // Prefer 8-byte fields: removing them saves their full size after
      // re-layout, while a lone 4-byte hole often survives as padding.
      std::stable_sort(Pool.begin(), Pool.end(),
                       [](const FieldPlan *A, const FieldPlan *B) {
                         return A->size() > B->size();
                       });
      for (FieldPlan *F : Pool) {
        if (Want == 0 || Marked == D)
          return;
        if (F->isDead())
          continue;
        switch (RoleCycle++ % 4) {
        case 0:
          F->Role = FieldRole::DeadWriteOnly;
          break;
        case 1:
          F->Role = FieldRole::DeadNever;
          break;
        case 2:
          F->Role = FieldRole::DeadUnreachRead;
          break;
        case 3:
          if (F->Ty == FieldTy::Ptr)
            F->Role = FieldRole::DeadPtrDeleted;
          else
            F->Role = FieldRole::DeadWriteOnly;
          break;
        }
        ++Marked;
        --Want;
      }
    };
    MarkFrom(HotPool, WantHot);
    MarkFrom(ColdPool, D - Marked);
    MarkFrom(HotPool, D - Marked); // Spill if the cold pool ran out.

    // Sprinkle address-taken liveness over a few surviving live fields.
    for (unsigned I = 0; I != Spec.NumUsedClasses; ++I)
      for (FieldPlan &F : Classes[I].Fields)
        if (F.Role == FieldRole::Live && F.Ty == FieldTy::Int &&
            R.chance(0.08))
          F.Role = FieldRole::LiveAddr;
  }

  // Destructors: needed wherever a DeadPtrDeleted field lives; plus a
  // random sprinkling for realism.
  for (unsigned I = 0; I != Spec.NumUsedClasses; ++I) {
    ClassPlan &C = Classes[I];
    if (C.IsStruct)
      continue;
    for (const FieldPlan &F : C.Fields)
      if (F.Role == FieldRole::DeadPtrDeleted)
        C.HasDtor = true;
    if (!C.HasDtor && R.chance(0.25))
      C.HasDtor = true;
  }

  // Calibrate counts so the modeled dynamic dead-space percentage
  // approaches the Table 2 target: scale the counts of classes whose
  // dead ratio exceeds the target by a bisected multiplier.
  {
    double Target = Spec.targetDynamicDeadPct() / 100.0;
    SizeModel Model{Classes};
    double HiS = 0, HiD = 0, LoS = 0, LoD = 0;
    std::vector<bool> IsHigh(Spec.NumUsedClasses, false);
    for (unsigned I = 0; I != Spec.NumUsedClasses; ++I) {
      double S = static_cast<double>(Classes[I].Count) *
                 Model.size(static_cast<int>(I));
      double Dd = static_cast<double>(Classes[I].Count) *
                  Model.dead(static_cast<int>(I));
      double Ratio = S > 0 ? Dd / S : 0;
      if (Ratio > Target) {
        IsHigh[I] = true;
        HiS += S;
        HiD += Dd;
      } else {
        LoS += S;
        LoD += Dd;
      }
    }
    if (Target > 0 && HiS > 0 && LoS > 0) {
      auto RatioAt = [&](double X) {
        return (X * HiD + LoD) / (X * HiS + LoS);
      };
      double Lo = 1e-4, Hi = 1e4;
      for (int Iter = 0; Iter != 60; ++Iter) {
        double Mid = std::sqrt(Lo * Hi);
        if (RatioAt(Mid) < Target)
          Lo = Mid;
        else
          Hi = Mid;
      }
      double X = std::sqrt(Lo * Hi);
      for (unsigned I = 0; I != Spec.NumUsedClasses; ++I)
        if (IsHigh[I])
          Classes[I].Count = std::max<uint64_t>(
              1, static_cast<uint64_t>(Classes[I].Count * X));
    }
  }

  // Rescale to the requested total object count (calibration may have
  // inflated the high-dead classes), then apply retention to shape the
  // high-water mark.
  {
    uint64_t Total = 0;
    for (unsigned I = 0; I != Spec.NumUsedClasses; ++I)
      Total += Classes[I].Count;
    uint64_t Want = std::max<uint64_t>(
        static_cast<uint64_t>(Spec.TargetObjects * Scale),
        Spec.NumUsedClasses);
    if (Total > 0) {
      double Factor = static_cast<double>(Want) / static_cast<double>(Total);
      for (unsigned I = 0; I != Spec.NumUsedClasses; ++I)
        Classes[I].Count = std::max<uint64_t>(
            1, static_cast<uint64_t>(Classes[I].Count * Factor));
    }
  }
  for (unsigned I = 0; I != Spec.NumUsedClasses; ++I)
    Classes[I].Retained = static_cast<uint64_t>(
        std::lround(Classes[I].Count * Spec.HeapRetention));

  Emitter E(Spec, std::move(Classes));
  GeneratedBenchmark Result;
  Result.Spec = Spec;
  Result.Files.push_back({Spec.Name + ".mcc", E.emit(), false});
  return Result;
}

std::vector<GeneratedBenchmark>
dmm::paperBenchmarkPrograms(double Scale) {
  std::vector<GeneratedBenchmark> Result;
  for (const BenchmarkSpec &Spec : paperBenchmarks()) {
    GeneratedBenchmark G;
    if (Spec.HandWritten) {
      G.Spec = Spec;
      const char *Text =
          Spec.Name == "richards" ? richardsSource() : deltablueSource();
      G.Files.push_back({Spec.Name + ".mcc", Text, false});
    } else {
      G = synthesizeBenchmark(Spec, Scale);
    }
    // Split each program at top-level boundaries so the suite runs
    // multi-file inputs through the cross-file class-name table and
    // file-ordered diagnostics (semantically identical: the parts
    // concatenate back to the original text and parse in order into
    // one name table).
    G.Files = splitTopLevel(G.Spec.Name, std::move(G.Files[0].Text));
    Result.push_back(std::move(G));
  }
  return Result;
}
