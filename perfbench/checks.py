"""Output checks, statistics and the result printer of the perfbench
benchmark (perfbench/run.py).

Every check compares a tool's output with a reference that does not come
from the code under test:

- static-suite: the Table 1 counts that `deadmember --stats` prints must
  equal the BenchmarkSpec targets the synthesizer was asked for;
- dynamic-suite: the soundness and profiler-agreement lines must report
  OK, and the four dynamic-measurement lines must equal what the
  independent tree-walking interpreter (`--engine=tree`) prints;
- fuzz-campaign: dmm-fuzz must exit 0 reporting zero oracle failures.

A check returns None when the output is right and a one-line problem
otherwise; any problem counts the invocation as failed.
"""

import json
import math
import re
import statistics

PERCENTILES = (99.9, 99.0, 90.0, 50.0)


def expected_dead(program):
    """Dead members the spec asks for: lround(pct/100 * members), and 0
    for the hand-written ports (the paper found none in either)."""
    if program["hand_written"]:
        return 0
    return math.floor(
        program["target_static_dead_pct"] / 100.0 * program["num_members"]
        + 0.5)


def exit_problem(returncode):
    if returncode < 0:
        return "killed by signal %d" % -returncode
    if returncode != 0:
        return "exit status %d" % returncode
    return None


def _count(pattern, text):
    match = re.search(pattern, text, re.MULTILINE)
    return int(match.group(1)) if match else None


def check_static(returncode, stdout, program):
    problem = exit_problem(returncode)
    if problem:
        return problem
    members = _count(r"^members in used classes:\s+(\d+)$", stdout)
    dead = _count(r"^dead members:\s+(\d+) ", stdout)
    if members != program["num_members"]:
        return "%s: %s members in used classes, spec says %d" % (
            program["name"], members, program["num_members"])
    if dead != expected_dead(program):
        return "%s: %s dead members, spec says %d" % (
            program["name"], dead, expected_dead(program))
    return None


def dynamic_measurements(stdout):
    """The four lines under "dynamic measurements:", or None."""
    lines = stdout.splitlines()
    try:
        at = lines.index("dynamic measurements:")
    except ValueError:
        return None
    block = lines[at + 1:at + 5]
    return block if len(block) == 4 else None


def check_dynamic(returncode, stdout, reference):
    """reference: the tree-walker's dynamic_measurements() lines."""
    problem = exit_problem(returncode)
    if problem:
        return problem
    if not re.search(r"^soundness check: \d+ members dynamically read, "
                     r"0 violations \(OK\)$", stdout, re.MULTILINE):
        return "soundness check did not report 0 violations (OK)"
    if not re.search(r"^profiler agreement with trace metrics: OK$", stdout,
                     re.MULTILINE):
        return "profiler agreement line is not OK"
    measured = dynamic_measurements(stdout)
    if reference is None:
        return "no tree-walker reference"
    if measured != reference:
        return "dynamic measurements differ from --engine=tree: %s vs %s" % (
            measured, reference)
    return None


def check_fuzz(returncode, stdout, programs):
    problem = exit_problem(returncode)
    if problem:
        return problem
    want = "dmm-fuzz: %d program%s, 0 failures " % (
        programs, "" if programs == 1 else "s")
    if not any(line.startswith(want) for line in stdout.splitlines()):
        return "no '%s' summary line" % want.strip()
    return None


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def tail(values):
    """The highest of PERCENTILES with at least ten samples beyond it:
    (label, value), or None when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    for p in PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10:
            index = min(n - 1, math.ceil(p / 100.0 * n) - 1)
            return "p%g" % p, ordered[index]
    return None


def summary_line(name, unit, samples):
    """One human-readable row: median, tail percentile, sample count."""
    row = "%-28s %14.6g %-7s median" % (name, statistics.median(samples),
                                         unit)
    found = tail(samples)
    if found:
        row += "  %s %.6g" % found
    return row + "  (n=%d)" % len(samples)


def result_line(attempted, failed, metrics, correct=True):
    """The last stdout line: {"correct", "attempted", "failed",
    "metrics": {name: {"value", "unit"}}}. metrics maps a name to
    (value, unit)."""
    return json.dumps({
        "correct": bool(correct) and failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })
