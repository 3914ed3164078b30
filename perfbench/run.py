#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of `deadmember` and `dmm-fuzz`.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run it from the repository root. It builds the tools from source into
.bench_build/perfbench (perfbench/CMakeLists.txt), makes the workload's
inputs from --seed, then runs the workload as a closed loop: one tool
invocation at a time, each waited for before the next starts, until
--seconds have passed. Each pass invokes the tool REPEATS times back to
back per input and the fastest invocation stands for the input. Every
output is checked (perfbench/checks.py).

Workloads (perfbench/README.md says why each exists):
  static-suite   deadmember --jobs=1 --stats on each of the eleven
                 paper-suite programs
  dynamic-suite  deadmember --jobs=1 --measure --profile --check on the
                 same programs
  fuzz-campaign  dmm-fuzz --jobs=1 over 200 seeds starting at --seed, all
                 oracles, as 8 invocations of 25 seeds

With --trace 0 it prints the end-to-end metrics (medians over passes);
with --trace 1 it alternates timed passes with traced repetitions of
perfbench_probe and prints the per-layer metrics. Either way the last
stdout line is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"

DEFAULT_SEED = 1      # reproduces paperBenchmarkPrograms(1.0)
FUZZ_PROGRAMS = 200   # seeds per fuzz-campaign pass
FUZZ_CHUNK = 25       # seeds per dmm-fuzz invocation
MIN_PASSES = 3
# Back-to-back invocations per input and pass; the fastest counts. On a
# shared host, hypervisor steal comes in bursts of a fraction of a
# second, and best-of-3 halved the pass-to-pass spread of wall time.
REPEATS = 3
INVOCATION_LIMIT_S = 60
ACCOUNTING_TOLERANCE = 0.10

# Set-ups per timed run: one before the first pass, then one after each
# pass until the count is reached, so that set-up samples the same host
# conditions as the passes.
SETUP_REPEATS = {"static-suite": 21, "dynamic-suite": 3, "fuzz-campaign": 21}

END_TO_END = [
    ("wall_s", "s"),
    ("geomean_ms", "ms"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]

SUITE_PROGRAMS = ["jikes", "idl", "npic", "lcom", "taldict", "ixx",
                  "simulate", "sched", "hotwire", "deltablue", "richards"]
ORACLES = ["semantics", "soundness", "invariance", "cache", "profiler",
           "engine"]

PER_LAYER = (
    [("lexer.ms", "ms"), ("lexer.tokens", "count"),
     ("lexer.mtok_per_s", "Mtok/s"), ("lexer.token_mb", "MB"),
     ("parser.ms", "ms"), ("sema.ms", "ms"), ("sema.functions", "count"),
     ("frontend.teardown_ms", "ms"), ("process.unattributed_ms", "ms"),
     ("callgraph.ms", "ms"), ("callgraph.reachable", "count"),
     ("callgraph.edges", "count"), ("analysis.ms", "ms"),
     ("analysis.exprs", "count"), ("report.ms", "ms"),
     ("vm.compile_ms", "ms"), ("vm.exec_ms", "ms"), ("vm.teardown_ms", "ms"),
     ("vm.functions_compiled", "count"),
     ("vm.compiled_per_reachable", "ratio"), ("interp.steps", "count"),
     ("profiler.overhead_ms", "ms"), ("profiler.finalize_ms", "ms"),
     ("profiler.allocs", "count"), ("trace.metrics_ms", "ms"),
     ("interp.exec_ms", "ms"), ("transform.eliminate_ms", "ms"),
     ("fuzz.generate_ms", "ms"), ("fuzz.frontend_ms", "ms"),
     ("fuzz.oracles_ms", "ms")]
    + [("fuzz.oracle.%s_ms" % o, "ms") for o in ORACLES]
    + [("prog.%s.ms" % p, "ms") for p in SUITE_PROGRAMS])

# Layer times the traced suite pipeline sums to account for one
# invocation (profiler.overhead_ms is part of vm.exec_ms, not extra).
SUITE_LAYERS = ["lexer.ms", "parser.ms", "sema.ms", "callgraph.ms",
                "analysis.ms", "report.ms", "vm.compile_ms", "vm.exec_ms",
                "vm.teardown_ms", "trace.metrics_ms", "profiler.finalize_ms",
                "frontend.teardown_ms"]
FUZZ_LAYERS = ["fuzz.generate_ms", "fuzz.oracles_ms"]

# Tool phases in --stats-json against the traced layer they time.
STATS_PHASES = [("lex", "lexer.ms"), ("parse", "parser.ms"),
                ("sema", "sema.ms"), ("vm.compile", "vm.compile_ms"),
                ("interp", "vm.exec_ms")]


class BenchError(Exception):
    """Set-up could not produce the workload's inputs."""


def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                  "deadmember", "dmm-fuzz", "perfbench_probe"])
    # Keep the compiler's temporary files inside the checkout too.
    (BUILD / "tmp").mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(BUILD / "tmp"))
    with open(BUILD / "build.log", "w") as log:
        for cmd in steps:
            try:
                code = subprocess.run(cmd, stdout=log,
                                      stderr=subprocess.STDOUT, cwd=ROOT,
                                      env=env).returncode
            except OSError as err:
                code = str(err)
            if code != 0:
                log.flush()
                tail = (BUILD / "build.log").read_text(errors="replace")
                sys.stderr.write(tail[-4000:])
                raise BenchError("build failed: %s (%s)" % (" ".join(cmd),
                                                            code))


class Tools:
    def __init__(self, work):
        self.deadmember = str(BUILD / "dmm" / "driver" / "deadmember")
        self.fuzz = str(BUILD / "dmm" / "fuzz" / "dmm-fuzz")
        self.probe = str(BUILD / "perfbench_probe")
        self.work = work
        (work / "tmp").mkdir(parents=True, exist_ok=True)
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("DMM_")}
        self.env["TMPDIR"] = str(work / "tmp")
        self.env["DMM_CRASH_DIR"] = str(work)
        self.probe_runs = 0
        self.probe_failures = []

    def invoke(self, argv):
        """Runs argv to completion; returns (wall_s, cpu_s, rss_mb,
        returncode, stdout) with the child's own rusage."""
        out_path = self.work / "stdout.txt"
        with open(out_path, "wb") as out, \
                open(self.work / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                    cwd=self.work, env=self.env)
            watchdog = threading.Timer(INVOCATION_LIMIT_S, proc.kill)
            watchdog.start()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_text(errors="replace")
        return (wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0, proc.returncode, stdout)

    def probe_json(self, args):
        """Runs perfbench_probe; returns its JSON line, or None (and
        records the failure) when it failed or printed none."""
        self.probe_runs += 1
        code, stdout = self.invoke([self.probe] + args)[3:]
        try:
            got = json.loads(stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            got = None
        if code != 0 or not got or not got.get("ok", False):
            self.probe_failures.append("perfbench_probe %s failed" %
                                       " ".join(args[:3]))
            return None
        return got


class Suite:
    """static-suite and dynamic-suite: one deadmember invocation per
    paper-suite program."""

    def __init__(self, tools, seed, dynamic):
        self.tools = tools
        self.seed = seed
        self.dynamic = dynamic
        # --jobs=1 on both suites: with more jobs, wall time depends on
        # whether a shared host runs all of the fan-out's threads at once,
        # which made static passes flip between two speeds run to run.
        self.flags = ["--jobs=1"] + (["--measure", "--profile", "--check"]
                                     if dynamic else ["--stats"])
        self.mode = "dynamic" if dynamic else "static"

    def setup(self, out):
        """Synthesizes the suite for the seed into the empty directory out
        (asserting the default seed reproduces paperBenchmarkPrograms(1.0))
        and, for the dynamic suite, computes the tree-walker reference."""
        code = self.tools.invoke([self.tools.probe, "gen", str(self.seed),
                                  str(out)])[3]
        if code != 0:
            raise BenchError("perfbench_probe gen %d failed" % self.seed)
        manifest = json.loads((out / "manifest.json").read_text())
        if self.seed == DEFAULT_SEED and not manifest["default_checked"]:
            raise BenchError("default seed was not checked")
        self.programs = manifest["programs"]
        for program in self.programs:
            program["paths"] = [str(out / f) for f in program["files"]]
        paths = [p for program in self.programs for p in program["paths"]]
        self.inputs = "%d programs, %d files, %d bytes" % (
            len(self.programs), len(paths),
            sum(os.path.getsize(p) for p in paths))
        if [p["name"] for p in self.programs] != SUITE_PROGRAMS:
            raise BenchError("unexpected suite: %s" %
                             [p["name"] for p in self.programs])
        self.reference = {}
        if self.dynamic:
            for program in self.programs:
                _, _, _, code, stdout = self.tools.invoke(
                    [self.tools.deadmember, "--jobs=1", "--measure",
                     "--engine=tree"] + program["paths"])
                self.reference[program["name"]] = (
                    checks.dynamic_measurements(stdout) if code == 0
                    else None)

    def invocations(self):
        for program in self.programs:
            argv = [self.tools.deadmember] + self.flags + program["paths"]
            if self.dynamic:
                ref = self.reference[program["name"]]
                check = (lambda code, out, ref=ref:
                         checks.check_dynamic(code, out, ref))
            else:
                check = (lambda code, out, program=program:
                         checks.check_static(code, out, program))
            yield program["name"], argv, check

    def trace_counts(self):
        """One counting probe per program; also resets the traced reps."""
        self.counts, self.reps, self.unprofiled = {}, {}, {}
        self.token_bytes = 0
        for program in self.programs:
            got = self.tools.probe_json(
                ["suite", self.mode, "1"] + program["paths"])
            if got:
                add_counts(self.counts, got["counts"])
                self.token_bytes = got["token_bytes"]

    def trace_rep(self):
        """One timed probe per program (plus an unprofiled one on the
        dynamic suite, which prices the profiler)."""
        modes = [self.mode] + (["unprofiled"] if self.dynamic else [])
        for program in self.programs:
            for mode in modes:
                got = self.tools.probe_json(
                    ["suite", mode, "0"] + program["paths"])
                target = self.reps if mode == self.mode else self.unprofiled
                for key, value in (got["ms"] if got else {}).items():
                    target.setdefault((program["name"], key), []).append(value)

    def trace_metrics(self, walls):
        def layer(name, key, source=self.reps):
            return statistics.median(source.get((name, key), [0.0]))

        names = [p["name"] for p in self.programs]
        metrics = dict(self.counts)
        for key in SUITE_LAYERS:
            metrics[key] = sum(layer(name, key) for name in names)
        add_derived(metrics, self.token_bytes)
        if self.dynamic:
            metrics["profiler.overhead_ms"] = sum(
                layer(name, "vm.exec_ms")
                - layer(name, "vm.exec_ms", self.unprofiled)
                for name in names)
        for name in names:
            metrics["prog.%s.ms" % name] = (
                statistics.median(walls[name]) * 1000.0)
        e2e_ms = sum(metrics["prog.%s.ms" % name] for name in names)
        traced_ms = sum(metrics[k] for k in SUITE_LAYERS)
        metrics["process.unattributed_ms"] = e2e_ms - traced_ms
        report_accounting(e2e_ms, traced_ms)

        first = self.programs[0]
        cross_check(self.tools, self.flags, first["paths"], first["name"],
                    {key: layer(first["name"], key)
                     for _, key in STATS_PHASES})
        return metrics


class Fuzz:
    """fuzz-campaign: dmm-fuzz over FUZZ_PROGRAMS seeds from --seed."""

    def __init__(self, tools, seed):
        self.tools = tools
        self.seed = seed
        self.chunks = [(a, min(a + FUZZ_CHUNK, seed + FUZZ_PROGRAMS) - a)
                       for a in range(seed, seed + FUZZ_PROGRAMS, FUZZ_CHUNK)]

    def setup(self, out):
        """Generates the campaign's programs to size the input (dmm-fuzz
        regenerates them itself) and writes the first, which the traced
        run's cross-check needs, into the empty directory out."""
        out.mkdir(parents=True)
        self.first_program = str(out / ("seed%d.mcc" % self.seed))
        got = self.tools.probe_json(["fuzzgen", str(self.seed),
                                     str(FUZZ_PROGRAMS), self.first_program])
        if not got:
            raise BenchError("perfbench_probe fuzzgen failed")
        self.inputs = "%d programs, %d lines, %d bytes" % (
            got["programs"], got["lines"], got["bytes"])

    def invocations(self):
        for first, count in self.chunks:
            argv = [self.tools.fuzz, "--jobs=1", "--seeds",
                    "%d..%d" % (first, first + count - 1), "--artifacts",
                    str(self.tools.work / "fuzz-artifacts")]
            yield ("seeds%d" % first, argv,
                   lambda code, out, count=count:
                   checks.check_fuzz(code, out, count))

    def trace_counts(self):
        self.counts, self.reps = {}, []
        self.token_bytes = 0
        for first, count in self.chunks:
            got = self.tools.probe_json(["fuzz", str(first), str(count), "1"])
            if got:
                add_counts(self.counts, got["counts"])
                self.token_bytes = got["token_bytes"]

    def trace_rep(self):
        total = {}
        for first, count in self.chunks:
            got = self.tools.probe_json(["fuzz", str(first), str(count), "0"])
            add_counts(total, got["ms"] if got else {})
        self.reps.append(total)

    def trace_metrics(self, walls):
        metrics = {key: statistics.median([r.get(key, 0.0)
                                           for r in self.reps])
                   for key in set().union(*self.reps)}
        metrics.update(self.counts)
        add_derived(metrics, self.token_bytes)
        e2e_ms = sum(statistics.median(w) * 1000.0
                     for w in walls.values())
        traced_ms = sum(metrics.get(k, 0.0) for k in FUZZ_LAYERS)
        metrics["process.unattributed_ms"] = e2e_ms - traced_ms
        report_accounting(e2e_ms, traced_ms)

        single = {}
        for _ in range(MIN_PASSES):
            got = self.tools.probe_json(
                ["suite", "dynamic", "0", self.first_program])
            for key, value in (got["ms"] if got else {}).items():
                single.setdefault(key, []).append(value)
        cross_check(self.tools,
                    ["--jobs=1", "--measure", "--profile", "--check"],
                    [self.first_program], "seed%d" % self.seed,
                    {key: statistics.median(single.get(key, [0.0]))
                     for _, key in STATS_PHASES})
        return metrics


def add_counts(into, counts):
    for key, value in counts.items():
        into[key] = into.get(key, 0) + value


def add_derived(metrics, token_bytes):
    """Rates and ratios over the summed layer times and counts."""
    tokens = metrics.get("lexer.tokens", 0)
    lex_s = metrics.get("lexer.ms", 0.0) / 1000.0
    metrics["lexer.mtok_per_s"] = tokens / lex_s / 1e6 if lex_s else 0.0
    metrics["lexer.token_mb"] = tokens * token_bytes / 1e6
    reachable = metrics.get("callgraph.reachable", 0)
    metrics["vm.compiled_per_reachable"] = (
        metrics.get("vm.functions_compiled", 0) / reachable
        if reachable else 0.0)


def report_accounting(e2e_ms, traced_ms):
    unattributed = e2e_ms - traced_ms
    share = unattributed / e2e_ms if e2e_ms else 0.0
    verdict = "OK" if share >= -ACCOUNTING_TOLERANCE else "OUT OF TOLERANCE"
    print("accounting: e2e %.2f ms = traced layers %.2f ms + unattributed "
        "%.2f ms (%.1f%%); tolerance: layers <= %d%% of e2e: %s" % (
            e2e_ms, traced_ms, unattributed, 100 * share,
            100 * (1 + ACCOUNTING_TOLERANCE), verdict))


def cross_check(tools, flags, paths, label, traced):
    """Compares the traced layer times of one input with the phases the
    tool reports in its own --stats-json (which runs with telemetry on,
    so its phases read somewhat higher)."""
    stats_path = tools.work / "stats.json"
    code = tools.invoke([tools.deadmember] + flags +
                        ["--stats-json=%s" % stats_path] + paths)[3]
    if code != 0:
        print("stats-json cross-check (%s): tool run failed" % label)
        return
    phases = {p["name"]: p["wall_ns"] / 1e6
              for p in json.loads(stats_path.read_text())["phases"]}
    for phase, key in STATS_PHASES:
        if phase not in phases:
            continue
        tool_ms, probe_ms = phases[phase], traced.get(key, 0.0)
        agree = (abs(tool_ms - probe_ms) <= 1.0
                 or 0.5 <= tool_ms / max(probe_ms, 1e-9) <= 2.0)
        print("stats-json cross-check (%s): %-10s tool %9.3f ms  traced "
            "%9.3f ms  %s" % (label, phase, tool_ms, probe_ms,
                              "agree" if agree else "DIFFER"))


def measure(workload, tools, seconds, between=None):
    """The closed loop: passes over the workload's invocations until
    seconds have passed (at least MIN_PASSES), calling between() after
    each pass. Returns the passes as lists of (label, wall_s, cpu_s,
    rss_mb, walls): the input's fastest invocation and the wall times of
    all of them; then the attempt count and the failure descriptions."""
    passes, failures, attempted = [], [], 0
    stop = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < stop:
        runs = []
        for label, argv, check in workload.invocations():
            results = []
            for _ in range(REPEATS):
                wall, cpu, rss, code, stdout = tools.invoke(argv)
                attempted += 1
                problem = check(code, stdout)
                if problem:
                    failures.append("%s: %s" % (label, problem))
                results.append((wall, cpu, rss))
            best = min(results)
            runs.append((label,) + best + ([r[0] for r in results],))
        passes.append(runs)
        if between:
            between()
    return passes, attempted, failures


def make_workload(name, tools, seed):
    if name == "static-suite":
        return Suite(tools, seed, dynamic=False)
    if name == "dynamic-suite":
        return Suite(tools, seed, dynamic=True)
    return Fuzz(tools, seed)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(SETUP_REPEATS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    try:
        build()
    except BenchError as err:
        sys.stderr.write("perfbench: %s\n" % err)
        return 1
    work = ROOT / ".bench_build" / ("work-%d" % os.getpid())
    try:
        tools = Tools(work)
        workload = make_workload(args.workload, tools, args.seed)
        setup = [timed_setup(workload, work)]
        print("workload %s, seed %d: %s" % (args.workload, args.seed,
                                            workload.inputs))
        if args.trace:
            return traced_run(workload, tools, args.seconds)
        return timed_run(workload, tools, args.seconds, setup,
                         SETUP_REPEATS[args.workload])
    except BenchError as err:
        sys.stderr.write("perfbench: %s\n" % err)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def timed_setup(workload, work):
    """One set-up into an emptied inputs directory. Pending writes are
    flushed before and after, untimed, so that neither the set-up nor
    the next pass pays for the other's file-system write-back."""
    shutil.rmtree(work / "inputs", ignore_errors=True)
    os.sync()
    start = time.perf_counter()
    workload.setup(work / "inputs")
    elapsed = time.perf_counter() - start
    os.sync()
    return elapsed


def timed_run(workload, tools, seconds, setup, setups):
    def more_setup():
        if len(setup) < setups:
            setup.append(timed_setup(workload, tools.work))

    passes, attempted, failures = measure(workload, tools, seconds,
                                          between=more_setup)
    samples = {
        "wall_s": [sum(r[1] for r in p) for p in passes],
        "geomean_ms": [checks.geomean([r[1] * 1000.0 for r in p])
                       for p in passes],
        "cpu_s": [sum(r[2] for r in p) for p in passes],
        "peak_rss_mb": [max(r[3] for r in p) for p in passes],
        "setup_s": setup,
    }
    for name, unit in END_TO_END:
        print(checks.summary_line(name, unit, samples[name]))
    per_invocation = [r[1] * 1000.0 for p in passes for r in p]
    print(checks.summary_line("invocation_ms", "ms", per_invocation))
    report_failures(attempted, failures)
    metrics = {name: (statistics.median(samples[name]), unit)
               for name, unit in END_TO_END}
    print(checks.result_line(attempted, len(failures), metrics))
    return 0


def traced_run(workload, tools, seconds):
    """Alternates a timed pass with a traced repetition, so both see the
    same host conditions, then prints the per-layer metrics."""
    workload.trace_counts()
    passes, attempted, failures = measure(workload, tools, seconds,
                                          between=workload.trace_rep)
    walls = {}
    for runs in passes:
        for label, _, _, _, all_walls in runs:
            walls.setdefault(label, []).extend(all_walls)
    metrics = workload.trace_metrics(walls)
    attempted += tools.probe_runs
    failures += tools.probe_failures
    units = dict(PER_LAYER)
    for name, unit in PER_LAYER:
        print("%-28s %16.6f %s" % (name, metrics.get(name, 0.0), unit))
    report_failures(attempted, failures)
    print(checks.result_line(
        attempted, len(failures),
        {name: (float(metrics.get(name, 0.0)), units[name])
         for name, _ in PER_LAYER}))
    return 0


def report_failures(attempted, failures):
    print("error_rate %.6f (%d of %d invocations failed)" % (
        len(failures) / attempted if attempted else 0.0, len(failures),
        attempted))
    for problem in failures[:20]:
        print("  FAILED %s" % problem)


if __name__ == "__main__":
    sys.exit(main())
