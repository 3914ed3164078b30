//===-- bench/perf_pipeline.cpp - Pipeline throughput ---------------------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark timings for each pipeline stage over representative
/// suite programs: frontend (lex+parse+sema), call-graph construction
/// per algorithm, the dead-member analysis itself, and instrumented
/// execution. Demonstrates the paper's "simple and efficient" claim: the
/// analysis is a small fraction of frontend time.
///
//===----------------------------------------------------------------------===//

#include "BenchStats.h"
#include "BenchUtil.h"
#include "profiler/ShadowProfiler.h"
#include "telemetry/Telemetry.h"
#include "vm/VM.h"

#include "benchmark/benchmark.h"

using namespace dmm;
using namespace dmm::bench;

namespace {

/// Export accumulated phase times as per-iteration counters so the
/// benchmark output decomposes by stage (e.g. lex_ms, parse_ms).
void exportPhaseCounters(benchmark::State &State, const Telemetry &Tel) {
  for (const auto &[Name, P] : Tel.phases())
    State.counters[Name + "_ms"] =
        benchmark::Counter(P.Nanos / 1e6 / State.iterations());
}

void exportCounter(benchmark::State &State, const Telemetry &Tel,
                   const char *Name, const char *Label) {
  State.counters[Label] =
      benchmark::Counter(double(Tel.counter(Name)) / State.iterations());
}

GeneratedBenchmark &programFor(const std::string &Name) {
  static std::vector<GeneratedBenchmark> Cache =
      paperBenchmarkPrograms(/*Scale=*/0.3);
  for (GeneratedBenchmark &G : Cache)
    if (G.Spec.Name == Name)
      return G;
  std::fprintf(stderr, "error: unknown benchmark program '%s'; known:",
               Name.c_str());
  for (const GeneratedBenchmark &G : Cache)
    std::fprintf(stderr, " %s", G.Spec.Name.c_str());
  std::fprintf(stderr, "\n");
  std::abort();
}

/// Compute-bound kernel: tight integer loops over a handful of members,
/// no allocation inside the hot region. The interpret/kernel vs
/// interpret_vm/kernel ratio isolates dispatch cost, which the
/// allocation-heavy suite programs dilute behind the (shared,
/// semantics-mandated) object-lifecycle and attribution hooks.
constexpr const char *KernelSource = R"(
class Acc {
 public:
  int lo;
  int hi;
  int fold(int x) {
    lo = lo + x;
    if (lo > 1000000) { hi = hi + 1; lo = lo - 1000000; }
    return lo;
  }
};
int main() {
  Acc a;
  a.lo = 0;
  a.hi = 0;
  int checksum = 0;
  for (int outer = 0; outer < 200; outer = outer + 1) {
    int x = outer;
    for (int i = 0; i < 2000; i = i + 1) {
      x = x * 1103515245 + 12345;
      int v = x;
      if (v < 0) { v = 0 - v; }
      checksum = checksum + a.fold(v % 9973);
    }
  }
  print_int(checksum % 100000);
  print_int(a.hi);
  return 0;
}
)";

std::unique_ptr<Compilation> &compiledKernel() {
  static std::unique_ptr<Compilation> C = [] {
    std::vector<SourceFile> Files;
    Files.push_back({"kernel.mcc", KernelSource, /*IsLibrary=*/false});
    auto R = compileProgram(std::move(Files), nullptr);
    if (!R->Success)
      std::abort();
    return R;
  }();
  return C;
}

std::unique_ptr<Compilation> &compiledFor(const std::string &Name) {
  static std::map<std::string, std::unique_ptr<Compilation>> Cache;
  auto It = Cache.find(Name);
  if (It == Cache.end()) {
    auto C = compileProgram(programFor(Name).Files, nullptr);
    if (!C->Success)
      std::abort();
    It = Cache.emplace(Name, std::move(C)).first;
  }
  return It->second;
}

void BM_Frontend(benchmark::State &State, const std::string &Name) {
  GeneratedBenchmark &G = programFor(Name);
  size_t Bytes = 0;
  for (const SourceFile &F : G.Files)
    Bytes += F.Text.size();
  Telemetry Tel;
  for (auto _ : State) {
    TelemetryScope Scope(Tel);
    auto C = compileProgram(G.Files, nullptr);
    benchmark::DoNotOptimize(C->Success);
  }
  State.SetBytesProcessed(State.iterations() * Bytes);
  exportPhaseCounters(State, Tel);
  exportCounter(State, Tel, "lex.tokens", "tokens");
  foldBenchStats(Tel);
}

void BM_CallGraph(benchmark::State &State, const std::string &Name,
                  CallGraphKind Kind) {
  auto &C = compiledFor(Name);
  Telemetry Tel;
  for (auto _ : State) {
    TelemetryScope Scope(Tel);
    CallGraph G = buildCallGraph(C->context(), C->hierarchy(),
                                 C->mainFunction(), Kind);
    benchmark::DoNotOptimize(G.numEdges());
  }
  exportPhaseCounters(State, Tel);
  std::string Prefix = std::string("callgraph.") + callGraphKindName(Kind);
  exportCounter(State, Tel, (Prefix + ".edges").c_str(), "edges");
  exportCounter(State, Tel, (Prefix + ".reachable").c_str(), "reachable");
  foldBenchStats(Tel);
}

void BM_Analysis(benchmark::State &State, const std::string &Name) {
  auto &C = compiledFor(Name);
  // Share one call graph: measure the Fig. 2 walk itself.
  CallGraph G = buildCallGraph(C->context(), C->hierarchy(),
                               C->mainFunction(), CallGraphKind::RTA);
  Telemetry Tel;
  for (auto _ : State) {
    TelemetryScope Scope(Tel);
    DeadMemberAnalysis A(C->context(), C->hierarchy(), {});
    A.setCallGraph(&G);
    DeadMemberResult R = A.run(C->mainFunction());
    benchmark::DoNotOptimize(R.classifiableMembers().size());
  }
  exportPhaseCounters(State, Tel);
  exportCounter(State, Tel, "analysis.exprs_visited", "exprs");
  foldBenchStats(Tel);
}

void BM_Interpret(benchmark::State &State, Compilation &C) {
  Telemetry Tel;
  for (auto _ : State) {
    TelemetryScope Scope(Tel);
    Interpreter I(C.context(), C.hierarchy(), {});
    ExecResult E = I.run(C.mainFunction());
    if (!E.Completed)
      std::abort();
    benchmark::DoNotOptimize(E.ExitCode);
  }
  exportPhaseCounters(State, Tel);
  exportCounter(State, Tel, "interp.steps", "steps");
  foldBenchStats(Tel);
}

/// The same programs through the bytecode VM (vm/VM.h): the
/// interpret/ vs interpret_vm/ ratio is the engine speedup the VM PR
/// claims (>=10x). Bytecode compilation happens inside the timed
/// region, as every driver --run pays it too.
void BM_InterpretVm(benchmark::State &State, Compilation &C) {
  Telemetry Tel;
  for (auto _ : State) {
    TelemetryScope Scope(Tel);
    vm::VM M(C.context(), C.hierarchy(), {});
    ExecResult E = M.run(C.mainFunction());
    if (!E.Completed)
      std::abort();
    benchmark::DoNotOptimize(E.ExitCode);
  }
  exportPhaseCounters(State, Tel);
  exportCounter(State, Tel, "interp.steps", "steps");
  foldBenchStats(Tel);
}

/// The same execution as BM_Interpret with the shadow profiler
/// attached: the interpret/ vs interp_profile/ delta is the profiler's
/// allocation-proportional overhead (finalize included — site folding
/// is part of the cost a --profile user pays).
void BM_InterpretProfiled(benchmark::State &State, const std::string &Name) {
  auto &C = compiledFor(Name);
  CallGraph G = buildCallGraph(C->context(), C->hierarchy(),
                               C->mainFunction(), CallGraphKind::RTA);
  DeadMemberAnalysis A(C->context(), C->hierarchy(), {});
  A.setCallGraph(&G);
  DeadMemberResult R = A.run(C->mainFunction());
  Telemetry Tel;
  for (auto _ : State) {
    TelemetryScope Scope(Tel);
    ShadowProfiler Prof(C->hierarchy(), R.deadSet());
    InterpOptions IO;
    IO.Profiler = &Prof;
    Interpreter I(C->context(), C->hierarchy(), IO);
    ExecResult E = I.run(C->mainFunction());
    if (!E.Completed)
      std::abort();
    const ProfileSummary &P = Prof.finalize(nullptr);
    Prof.emitCounters(); // profiler.* counters land in the stats doc.
    benchmark::DoNotOptimize(P.Metrics.HighWaterMark);
  }
  exportPhaseCounters(State, Tel);
  exportCounter(State, Tel, "interp.steps", "steps");
  exportCounter(State, Tel, "profiler.allocs", "allocs");
  exportCounter(State, Tel, "profiler.never_read_bytes", "never_read_bytes");
  foldBenchStats(Tel);
}

void registerAll() {
  for (const char *Name : {"richards", "deltablue", "sched", "lcom",
                           "jikes"}) {
    std::string N = Name;
    benchmark::RegisterBenchmark(("frontend/" + N).c_str(),
                                 [N](benchmark::State &S) {
                                   BM_Frontend(S, N);
                                 });
    benchmark::RegisterBenchmark(("callgraph_rta/" + N).c_str(),
                                 [N](benchmark::State &S) {
                                   BM_CallGraph(S, N, CallGraphKind::RTA);
                                 });
    benchmark::RegisterBenchmark(("callgraph_cha/" + N).c_str(),
                                 [N](benchmark::State &S) {
                                   BM_CallGraph(S, N, CallGraphKind::CHA);
                                 });
    benchmark::RegisterBenchmark(("callgraph_pta/" + N).c_str(),
                                 [N](benchmark::State &S) {
                                   BM_CallGraph(S, N, CallGraphKind::PTA);
                                 });
    benchmark::RegisterBenchmark(("analysis/" + N).c_str(),
                                 [N](benchmark::State &S) {
                                   BM_Analysis(S, N);
                                 });
    benchmark::RegisterBenchmark(("interpret/" + N).c_str(),
                                 [N](benchmark::State &S) {
                                   BM_Interpret(S, *compiledFor(N));
                                 });
    benchmark::RegisterBenchmark(("interpret_vm/" + N).c_str(),
                                 [N](benchmark::State &S) {
                                   BM_InterpretVm(S, *compiledFor(N));
                                 });
    benchmark::RegisterBenchmark(("interp_profile/" + N).c_str(),
                                 [N](benchmark::State &S) {
                                   BM_InterpretProfiled(S, N);
                                 });
  }
  benchmark::RegisterBenchmark("interpret/kernel",
                               [](benchmark::State &S) {
                                 BM_Interpret(S, *compiledKernel());
                               });
  benchmark::RegisterBenchmark("interpret_vm/kernel",
                               [](benchmark::State &S) {
                                 BM_InterpretVm(S, *compiledKernel());
                               });
}

} // namespace

int main(int argc, char **argv) {
  std::string StatsFile = stripStatsJsonArg(argc, argv);
  registerAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return writeBenchStats(StatsFile, "perf_pipeline") ? 0 : 1;
}
