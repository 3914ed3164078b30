//===-- perfbench/probe.cpp - In-process half of the perf benchmark -------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `perfbench_probe`: input synthesis and the traced per-layer run of the
/// end-to-end benchmark (perfbench/run.py). The timed runs of the
/// benchmark execute the real `deadmember` and `dmm-fuzz` binaries; this
/// program only prepares their inputs and, in a separate traced run,
/// calls each layer's public entry points in the order
/// src/driver/Main.cpp and src/driver/Frontend.cpp call them, timing each
/// call with a steady clock.
///
///   perfbench_probe gen <seed> <outdir>
///       Writes the eleven paper-suite programs for <seed> under <outdir>
///       plus manifest.json carrying each program's BenchmarkSpec targets
///       (the reference the static checks compare against). Seed 1 is
///       the default: it must reproduce paperBenchmarkPrograms(1.0) byte
///       for byte, which is asserted. Any other seed offsets every
///       synthesized spec's Seed by (seed - 1); richards and deltablue
///       are hand-written and never change.
///   perfbench_probe fuzzgen <first-seed> <count> <outfile>
///       Generates the fuzz campaign's programs, prints their total size
///       and writes the first one to <outfile>.
///   perfbench_probe suite <static|dynamic|unprofiled> <count> <file>...
///       One traced invocation over one program's files; prints its layer
///       times (ms) and, when <count> is 1, its work counts as JSON.
///   perfbench_probe fuzz <first-seed> <count> <count-work>
///       One traced chunk of the fuzz campaign; prints layer-time totals.
///
//===----------------------------------------------------------------------===//

#include "analysis/ProgramStats.h"
#include "analysis/Report.h"
#include "benchgen/Synthesizer.h"
#include "driver/Frontend.h"
#include "fuzz/Oracles.h"
#include "fuzz/ProgramGenerator.h"
#include "hierarchy/ObjectLayout.h"
#include "interp/Interpreter.h"
#include "lexer/Lexer.h"
#include "parser/Parser.h"
#include "profiler/ShadowProfiler.h"
#include "support/ThreadPool.h"
#include "telemetry/Telemetry.h"
#include "trace/DynamicMetrics.h"
#include "transform/DeadMemberEliminator.h"
#include "vm/VM.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

using namespace dmm;
namespace fs = std::filesystem;

namespace {

constexpr uint64_t kDefaultSeed = 1;

using Clock = std::chrono::steady_clock;

template <typename Fn> double timeMs(Fn &&Body) {
  Clock::time_point Start = Clock::now();
  Body();
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
      .count();
}

/// Layer times (ms) and work counts of one traced pipeline run.
struct Sample {
  std::map<std::string, double> Ms;
  std::map<std::string, double> Counts;
};

void printMap(std::ostream &OS, const std::map<std::string, double> &M) {
  OS << std::setprecision(15) << "{";
  const char *Sep = "";
  for (const auto &[K, V] : M) {
    OS << Sep << "\"" << K << "\": " << V;
    Sep = ", ";
  }
  OS << "}";
}

//===----------------------------------------------------------------------===//
// Input synthesis
//===----------------------------------------------------------------------===//

/// Port of the top-level splitter paperBenchmarkPrograms applies
/// (benchgen/Synthesizer.cpp): cuts \p Text into ~\p Parts files at
/// blank lines between top-level declarations. The default-seed check
/// in gen proves this port matches the library byte for byte.
std::vector<SourceFile> splitTopLevel(const std::string &BaseName,
                                      const std::string &Text,
                                      size_t Parts = 8) {
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
          Boundaries.push_back(I + 2);
        break;
      default: break;
      }
    }
  }

  std::vector<size_t> Cuts;
  auto Dist = [](size_t A, size_t B) { return A > B ? A - B : B - A; };
  for (size_t P = 1; P < Parts; ++P) {
    size_t Target = Text.size() * P / Parts;
    const size_t *Best = nullptr;
    for (const size_t &B : Boundaries)
      if (!Best || Dist(B, Target) < Dist(*Best, Target))
        Best = &B;
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

/// The suite for \p Seed: synthesized specs get their Seed offset by
/// (Seed - kDefaultSeed), modulo 2^32; hand-written ports are fixed.
std::vector<GeneratedBenchmark> suiteForSeed(uint64_t Seed) {
  std::vector<GeneratedBenchmark> Suite;
  for (BenchmarkSpec Spec : paperBenchmarks()) {
    GeneratedBenchmark G;
    std::string Text;
    if (Spec.HandWritten) {
      G.Spec = Spec;
      Text = Spec.Name == "richards" ? richardsSource() : deltablueSource();
    } else {
      Spec.Seed = static_cast<unsigned>(Spec.Seed + (Seed - kDefaultSeed));
      G = synthesizeBenchmark(Spec, 1.0);
      Text = std::move(G.Files[0].Text);
    }
    G.Files = splitTopLevel(G.Spec.Name, Text);
    Suite.push_back(std::move(G));
  }
  return Suite;
}

bool sameSuite(const std::vector<GeneratedBenchmark> &A,
               const std::vector<GeneratedBenchmark> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I != A.size(); ++I) {
    if (A[I].Spec.Name != B[I].Spec.Name ||
        A[I].Files.size() != B[I].Files.size())
      return false;
    for (size_t J = 0; J != A[I].Files.size(); ++J)
      if (A[I].Files[J].Name != B[I].Files[J].Name ||
          A[I].Files[J].Text != B[I].Files[J].Text ||
          A[I].Files[J].IsLibrary != B[I].Files[J].IsLibrary)
        return false;
  }
  return true;
}

int cmdGen(uint64_t Seed, const fs::path &Out) {
  std::vector<GeneratedBenchmark> Suite = suiteForSeed(Seed);
  bool Checked = Seed == kDefaultSeed;
  if (Checked && !sameSuite(Suite, paperBenchmarkPrograms(1.0))) {
    std::cerr << "perfbench_probe: default seed does not reproduce "
                 "paperBenchmarkPrograms(1.0)\n";
    return 1;
  }
  std::ostringstream Manifest;
  Manifest << "{\"seed\": " << Seed << ", \"default_seed\": " << kDefaultSeed
           << ", \"default_checked\": " << (Checked ? "true" : "false")
           << ", \"programs\": [";
  const char *Sep = "";
  for (const GeneratedBenchmark &G : Suite) {
    fs::create_directories(Out / G.Spec.Name);
    Manifest << Sep << "{\"name\": \"" << G.Spec.Name
             << "\", \"hand_written\": "
             << (G.Spec.HandWritten ? "true" : "false")
             << ", \"num_members\": " << G.Spec.NumMembers
             << ", \"target_static_dead_pct\": " << G.Spec.TargetStaticDeadPct
             << ", \"files\": [";
    const char *FileSep = "";
    for (const SourceFile &F : G.Files) {
      std::ofstream(Out / G.Spec.Name / F.Name, std::ios::binary) << F.Text;
      Manifest << FileSep << "\"" << G.Spec.Name << "/" << F.Name << "\"";
      FileSep = ", ";
    }
    Manifest << "]}";
    Sep = ", ";
  }
  Manifest << "]}\n";
  std::ofstream(Out / "manifest.json") << Manifest.str();
  return 0;
}

int cmdFuzzGen(uint64_t First, uint64_t Count, const fs::path &Out) {
  uint64_t Bytes = 0, Lines = 0;
  for (uint64_t Seed = First; Seed != First + Count; ++Seed) {
    std::string Source = fuzz::ProgramGenerator(Seed).generate();
    if (Seed == First)
      std::ofstream(Out, std::ios::binary) << Source;
    Bytes += Source.size();
    Lines += std::count(Source.begin(), Source.end(), '\n');
  }
  std::cout << "{\"ok\": true, \"programs\": " << Count
            << ", \"bytes\": " << Bytes
            << ", \"lines\": " << Lines << "}\n";
  return 0;
}

//===----------------------------------------------------------------------===//
// Traced pipeline
//===----------------------------------------------------------------------===//

/// One traced run of the driver pipeline. Each step calls the same
/// public entry points as the driver, in the driver's order, and records
/// its wall time in Sample::Ms under the layer's metric name.
struct Pipeline {
  Pipeline(Sample &S, bool Count) : S(S), Count(Count) {}

  Sample &S;
  /// Also record work counts. The extra untimed analysis run this needs
  /// perturbs later steps, so counting runs' times are not reported.
  bool Count;

  std::unique_ptr<Compilation> C;
  std::optional<CallGraph> Graph;
  std::optional<DeadMemberAnalysis> Analysis;
  DeadMemberResult Result;

  /// compileProgram (driver/Frontend.cpp), one layer at a time.
  bool frontend(std::vector<SourceFile> Files) {
    C = std::make_unique<Compilation>(&std::cerr);
    struct Lexed {
      std::vector<Token> Tokens;
      std::vector<Diagnostic> Diags;
    };
    std::vector<std::pair<uint32_t, bool>> Buffers;
    std::vector<Lexed> Out;
    S.Ms["lexer.ms"] = timeMs([&] {
      for (SourceFile &F : Files) {
        uint32_t ID = C->SM.addBuffer(std::move(F.Name), std::move(F.Text));
        C->FileIDs.push_back(ID);
        if (!F.IsLibrary)
          C->UserFileIDs.push_back(ID);
        Buffers.emplace_back(ID, F.IsLibrary);
      }
      Out = globalThreadPool().parallelMap<Lexed>(
          Buffers.size(), [&](size_t I) {
            Lexed L;
            DiagnosticsEngine WorkerDiags(C->SM, nullptr);
            Lexer Lex(C->SM, Buffers[I].first, WorkerDiags);
            L.Tokens = Lex.lexAll();
            L.Diags = WorkerDiags.diagnostics();
            return L;
          });
      for (const Lexed &L : Out)
        for (const Diagnostic &D : L.Diags) {
          switch (D.Kind) {
          case DiagKind::Error: C->Diags.error(D.Loc, D.Message); break;
          case DiagKind::Warning: C->Diags.warning(D.Loc, D.Message); break;
          case DiagKind::Note: C->Diags.note(D.Loc, D.Message); break;
          }
        }
    });
    if (Count) {
      double Tokens = 0;
      for (const Lexed &L : Out)
        Tokens += static_cast<double>(L.Tokens.size());
      S.Counts["lexer.tokens"] = Tokens;
    }
    bool ParseOK = !C->Diags.hasErrors();
    S.Ms["parser.ms"] = timeMs([&] {
      Parser P(*C->Ctx, C->SM, C->Diags);
      for (size_t I = 0; I != Buffers.size(); ++I) {
        size_t ClassesBefore = C->Ctx->classes().size();
        if (!P.parseTokens(std::move(Out[I].Tokens)))
          ParseOK = false;
        if (Buffers[I].second)
          for (size_t J = ClassesBefore; J != C->Ctx->classes().size(); ++J)
            C->Ctx->classes()[J]->setLibrary();
      }
    });
    bool SemaOK = false;
    S.Ms["sema.ms"] = timeMs([&] {
      C->TheSema = std::make_unique<Sema>(*C->Ctx, C->Diags);
      SemaOK = C->TheSema->run();
    });
    if (Count)
      S.Counts["sema.functions"] =
          static_cast<double>(C->Ctx->functions().size());
    C->Success = ParseOK && SemaOK;
    return C->Success;
  }

  /// The driver's Analysis.run(main), with the call graph built first
  /// and injected so the two layers are timed apart.
  void analyze() {
    AnalysisOptions Opts;
    S.Ms["callgraph.ms"] = timeMs([&] {
      Graph.emplace(buildCallGraph(C->context(), C->hierarchy(),
                                   C->mainFunction(), Opts.CallGraph));
    });
    S.Ms["analysis.ms"] = timeMs([&] {
      Analysis.emplace(C->context(), C->hierarchy(), Opts);
      Analysis->setCallGraph(&*Graph);
      Result = Analysis->run(C->mainFunction());
    });
    if (!Count)
      return;
    S.Counts["callgraph.reachable"] =
        static_cast<double>(Graph->reachableFunctions().size());
    S.Counts["callgraph.edges"] = static_cast<double>(Graph->numEdges());
    // The expression tally is only published through telemetry; count it
    // on an extra, untimed analysis run.
    Telemetry Tel;
    TelemetryScope Scope(Tel);
    DeadMemberAnalysis Again(C->context(), C->hierarchy(), Opts);
    Again.setCallGraph(&*Graph);
    Again.run(C->mainFunction());
    S.Counts["analysis.exprs"] =
        static_cast<double>(Tel.counter("analysis.exprs_visited"));
  }

  void report(bool WithStats) {
    std::ostringstream OS;
    S.Ms["report.ms"] = timeMs([&] {
      printMemberReport(OS, C->context(), Result, &C->SM, ReportOptions{});
      if (WithStats) {
        ProgramStats Stats = computeProgramStats(C->context(), Result, &C->SM,
                                                 C->UserFileIDs);
        OS << "\n";
        printStatsReport(OS, Stats);
      }
    });
  }

  /// The driver's shared execution for --check --measure [--profile] on
  /// the VM, then the trace replay and profiler finalization.
  bool execute(bool Profile) {
    std::set<const FieldDecl *> Reads;
    AllocationTrace Trace;
    FieldHeat Heat;
    std::optional<ShadowProfiler> Prof;
    InterpOptions IO;
    IO.ReadSet = &Reads;
    IO.Trace = &Trace;
    IO.Heat = &Heat;
    if (Profile) {
      Prof.emplace(C->hierarchy(), Result.deadSet());
      IO.Profiler = &*Prof;
    }
    ExecResult Exec;
    {
      std::optional<vm::VM> Machine;
      S.Ms["vm.compile_ms"] = timeMs(
          [&] { Machine.emplace(C->context(), C->hierarchy(), IO); });
      if (Count)
        S.Counts["vm.functions_compiled"] =
            static_cast<double>(Machine->module().Functions.size());
      S.Ms["vm.exec_ms"] =
          timeMs([&] { Exec = Machine->run(C->mainFunction()); });
      S.Ms["vm.teardown_ms"] = timeMs([&] { Machine.reset(); });
    }
    if (!Exec.Completed) {
      std::cerr << "perfbench_probe: runtime error: " << Exec.Error << "\n";
      return false;
    }
    if (Count)
      S.Counts["interp.steps"] = static_cast<double>(Exec.Steps);
    S.Ms["trace.metrics_ms"] = timeMs([&] {
      LayoutEngine Layout(C->hierarchy());
      computeDynamicMetrics(Trace, Layout, Result.deadSet());
    });
    if (!Prof)
      return true;
    const ProfileSummary *Summary = nullptr;
    S.Ms["profiler.finalize_ms"] = timeMs([&] {
      Summary = &Prof->finalize(&C->SM);
      Prof->emitCounters();
    });
    if (Count)
      S.Counts["profiler.allocs"] = static_cast<double>(Summary->AllocEvents);
    return true;
  }

  /// Destroys the analysis state, then the Compilation, in the driver's
  /// (reverse declaration) order.
  void teardown() {
    Result = DeadMemberResult();
    Analysis.reset();
    Graph.reset();
    S.Ms["frontend.teardown_ms"] = timeMs([&] { C.reset(); });
  }
};

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// One traced invocation over one program at --jobs=1, in a fresh
/// process like the tool's (so heap growth and page faults land where
/// the tool pays them). Mode is "static" (--stats), "dynamic" (--check
/// --measure --profile) or "unprofiled" (--check --measure).
int cmdSuite(const std::string &Mode, bool Count,
             const std::vector<std::string> &Paths) {
  setGlobalJobs(1);
  std::vector<SourceFile> Files;
  for (const std::string &Path : Paths)
    Files.push_back({Path, readFile(Path), /*IsLibrary=*/false});
  Sample S;
  bool OK;
  {
    Pipeline P(S, Count);
    OK = P.frontend(std::move(Files));
    if (OK) {
      P.analyze();
      P.report(Mode == "static");
      if (Mode != "static")
        OK = P.execute(Mode == "dynamic");
    }
    P.teardown();
  }
  std::cout << "{\"ok\": " << (OK ? "true" : "false")
            << ", \"token_bytes\": " << sizeof(Token) << ", \"ms\": ";
  printMap(std::cout, S.Ms);
  std::cout << ", \"counts\": ";
  printMap(std::cout, S.Counts);
  std::cout << "}\n";
  return OK ? 0 : 1;
}

/// One traced chunk of the fuzz campaign: per seed, the generator and
/// the oracles as dmm-fuzz runs them, each oracle family on its own,
/// and the layers underneath on the same program. Prints totals.
int cmdFuzz(uint64_t First, uint64_t Count, bool CountWork) {
  setGlobalJobs(1);
  const char *Families[] = {"semantics", "soundness", "invariance",
                            "cache",     "profiler",  "engine"};
  const fuzz::OracleConfig AllOracles;
  Sample Total;
  unsigned Failed = 0;
  for (uint64_t Seed = First; Seed != First + Count; ++Seed) {
    Sample S;
    std::string Source;
    S.Ms["fuzz.generate_ms"] =
        timeMs([&] { Source = fuzz::ProgramGenerator(Seed).generate(); });
    bool OK = true;
    S.Ms["fuzz.oracles_ms"] =
        timeMs([&] { OK = fuzz::runOracles(Source, AllOracles).Passed; });
    for (const char *Family : Families) {
      std::string F = Family;
      fuzz::OracleConfig Config;
      Config.Semantics = F == "semantics";
      Config.Soundness = F == "soundness";
      Config.Invariance = F == "invariance";
      Config.Cache = F == "cache";
      Config.Profiler = F == "profiler";
      Config.Engine = F == "engine";
      S.Ms["fuzz.oracle." + F + "_ms"] =
          timeMs([&] { OK &= fuzz::runOracles(Source, Config).Passed; });
    }
    S.Ms["fuzz.frontend_ms"] = timeMs([&] { compileString(Source); });

    std::vector<SourceFile> Files;
    Files.push_back({"<input>", Source, /*IsLibrary=*/false});
    Pipeline P(S, CountWork);
    if (P.frontend(std::move(Files))) {
      P.analyze();
      OK &= P.execute(/*Profile=*/true);
      S.Ms["interp.exec_ms"] = timeMs([&] {
        std::set<const FieldDecl *> Reads;
        AllocationTrace Trace;
        FieldHeat Heat;
        InterpOptions IO;
        IO.ReadSet = &Reads;
        IO.Trace = &Trace;
        IO.Heat = &Heat;
        Interpreter Interp(P.C->context(), P.C->hierarchy(), IO);
        OK &= Interp.run(P.C->mainFunction()).Completed;
      });
      S.Ms["transform.eliminate_ms"] = timeMs([&] {
        eliminateDeadMembers(P.C->context(), P.Result, *P.Graph);
      });
    } else {
      OK = false;
    }
    P.teardown();
    Failed += !OK;
    for (const auto &[K, V] : S.Ms)
      Total.Ms[K] += V;
    for (const auto &[K, V] : S.Counts)
      Total.Counts[K] += V;
  }
  std::cout << "{\"ok\": " << (Failed ? "false" : "true")
            << ", \"token_bytes\": " << sizeof(Token) << ", \"ms\": ";
  printMap(std::cout, Total.Ms);
  std::cout << ", \"counts\": ";
  printMap(std::cout, Total.Counts);
  std::cout << "}\n";
  return Failed ? 1 : 0;
}

int usage() {
  std::cerr << "usage: perfbench_probe gen <seed> <outdir>\n"
               "       perfbench_probe fuzzgen <first-seed> <count> <outfile>\n"
               "       perfbench_probe suite <static|dynamic|unprofiled> "
               "<count:0|1> <file>...\n"
               "       perfbench_probe fuzz <first-seed> <count> "
               "<count-work:0|1>\n";
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  std::vector<std::string> Args(Argv + 1, Argv + Argc);
  auto Num = [&](size_t I) {
    return std::strtoull(Args[I].c_str(), nullptr, 10);
  };
  if (Args.size() == 3 && Args[0] == "gen")
    return cmdGen(Num(1), Args[2]);
  if (Args.size() == 4 && Args[0] == "fuzzgen")
    return cmdFuzzGen(Num(1), Num(2), Args[3]);
  if (Args.size() >= 4 && Args[0] == "suite" &&
      (Args[1] == "static" || Args[1] == "dynamic" ||
       Args[1] == "unprofiled"))
    return cmdSuite(Args[1], Num(2) != 0,
                    std::vector<std::string>(Args.begin() + 3, Args.end()));
  if (Args.size() == 4 && Args[0] == "fuzz")
    return cmdFuzz(Num(1), Num(2), Num(3) != 0);
  return usage();
}
