"""Cold-CLI benchmark for aurcase.

    python3 perfbench/run.py --workload {gate,bulk,findings} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout (the package is not installed; the
CLI is launched as `python -m aurcase.cli` with the absolute `src` on
PYTHONPATH).  Inputs are generated from the seed; every output is checked
against a reference the program did not produce.  One client runs cold
`aurcase` processes back to back (a closed loop) for S seconds.

`--trace 0` times untraced processes and prints the end-to-end metrics.
`--trace 1` runs the same commands through `trace_child.py`, which wraps
each layer's functions in-process, and prints per-layer self times and
call counts per command invocation, plus the tracing overhead.

The last stdout line is the result object; the line before it has the
per-command breakdown.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import re
import select
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen
from trace_child import LAYERS

HERE = Path(__file__).resolve().parent
TIMEOUT_S = 30.0
# A run stops starting commands this long after --seconds, even mid-cycle,
# so that a hanging program still ends the run well inside 180 s.
GRACE_S = 60.0
# The CLI reads a rule configuration file named by this variable; the
# benchmark always runs with the default rules.
CONFIG_ENV_VAR = "AURCASE_CONFIG"
GOLDEN_ARTIFACTS = ("report.txt", "report.json", "heatmap.svg", "trace.txt")
_GENERATED_AT = re.compile(r'"generated_at": "[^"]*"')
_DIAGNOSTIC = re.compile(r"^(?:.*: )?(?:error|warning)\[(\w+)\]: ", re.M)


@dataclass
class Result:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str
    timed_out: bool


@dataclass
class Step:
    """One command of a workload's cycle and the check of its output."""

    command: str
    argv: list[str]
    check: Callable[[Result], str | None]
    out_dir: Path | None = None
    cwd: Path | None = None  # the work directory when None


class Runner:
    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.env = dict(os.environ)
        self.env.pop(CONFIG_ENV_VAR, None)
        python_path = [str((root / "src").resolve())]
        if self.env.get("PYTHONPATH"):
            python_path.append(self.env["PYTHONPATH"])
        self.env["PYTHONPATH"] = os.pathsep.join(python_path)
        self.attempted = 0
        self.failures: list[str] = []  # one per failed invocation
        self.broken: list[str] = []  # the benchmark's own checks

    def launch(self, argv: list[str], cwd: Path) -> Result:
        """Run one process to completion; wall time, CPU and peak RSS come
        from the parent's clock and the child's rusage."""
        out, err = self.work / "stdout", self.work / "stderr"
        with open(out, "wb") as fo, open(err, "wb") as fe:
            started = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=cwd, env=self.env, stdin=subprocess.DEVNULL, stdout=fo, stderr=fe
            )
            pidfd = os.pidfd_open(proc.pid)
            try:
                timed_out = not select.select([pidfd], [], [], TIMEOUT_S)[0]
                if timed_out:
                    proc.kill()
                _pid, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - started
            finally:
                os.close(pidfd)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Result(
            code=proc.returncode,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
            stdout=out.read_text(encoding="utf-8", errors="replace"),
            stderr=err.read_text(encoding="utf-8", errors="replace"),
            timed_out=timed_out,
        )

    def run_checked(self, label: str, argv: list[str], cwd: Path, check) -> Result:
        result = self.launch(argv, cwd)
        self.record(label, problem_of(result, check))
        return result

    def reference(self) -> float:
        """Wall time of one run of `reference.py`, in seconds."""
        result = self.launch([sys.executable, str(HERE / "reference.py")], self.work)
        if result.code != 0 or result.timed_out:
            self.broken.append(f"reference.py failed: {result.stderr.strip()[-300:]}")
        return result.wall_s

    def record(self, label: str, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.failures.append(f"{label}: {problem}")


def cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "aurcase.cli", *args]


# -- checks -------------------------------------------------------------------


def problem_of(result: Result, check: Callable[[Result], str | None]) -> str | None:
    """What is wrong with one invocation, or None.  Output a check cannot
    even read (bad JSON, a missing file or key) is wrong output."""
    if result.timed_out:
        return f"no exit within {TIMEOUT_S:g} s"
    try:
        return check(result)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}"


def expect_code(result: Result, code: int) -> str | None:
    if result.code != code:
        return f"exit code {result.code}, expected {code}: {result.stderr.strip()[-300:]}"
    return None


def check_golden(result: Result, out_dir: Path, golden_dir: Path) -> str | None:
    problem = expect_code(result, 0)
    if problem:
        return problem
    for name in GOLDEN_ARTIFACTS:
        produced = out_dir / name
        if not produced.is_file():
            return f"{name} not written"
        got, want = produced.read_text(encoding="utf-8"), (golden_dir / name).read_text(encoding="utf-8")
        if _GENERATED_AT.sub("", got) != _GENERATED_AT.sub("", want):
            return f"{name} differs from tests/fixtures/golden_out"
    return None


def check_review(payload: dict | None, case: gen.GateCase) -> str | None:
    if payload is None:
        return "no review in the output"
    if payload["status"] != ("approved" if case.approved else "blocked"):
        return f"status {payload['status']!r}"
    targets = {t["criterion"]: t for t in payload["targets"]}
    if set(targets) != set(case.expected):
        return f"targets {sorted(targets)} != {sorted(case.expected)}"
    for criterion, (status, bound) in case.expected.items():
        target = targets[criterion]
        if target["status"] != status:
            return f"{criterion}: status {target['status']!r}, oracle says {status!r}"
        if not math.isclose(target["upper_bound"], bound, rel_tol=1e-6):
            return f"{criterion}: bound {target['upper_bound']!r}, oracle {bound!r}"
        if target["events"] != case.count or target["exposure"] != case.exposure:
            return f"{criterion}: ledger sums differ"
    return None


def rule_histogram(result: Result, machine: bool) -> Counter:
    if machine:
        return Counter(d["rule_id"] for d in json.loads(result.stdout)["diagnostics"])
    return Counter(_DIAGNOSTIC.findall(result.stdout))


# -- workloads ----------------------------------------------------------------


def gate_steps(runner: Runner, golden: gen.Golden, rng: random.Random) -> list[Step]:
    oracle = gen.load_oracle(runner.root)
    steps = []
    for case in gen.gate_cases(golden, rng, oracle):
        aur, ledger = f"{case.name}.aur", f"{case.name}.ledger"
        (runner.work / aur).write_text(case.text, encoding="utf-8")
        (runner.work / ledger).write_text(case.ledger, encoding="utf-8")
        code = 0 if case.approved else 1
        out_dir = runner.work / f"{case.name}.out"

        def review(r: Result, case=case, code=code) -> str | None:
            return expect_code(r, code) or check_review(json.loads(r.stdout), case)

        def report(r: Result, case=case, code=code, out_dir=out_dir) -> str | None:
            problem = expect_code(r, code)
            if problem:
                return problem
            document = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
            return check_review(document["review"], case)

        steps.append(
            Step("review", cli("review", aur, "--ledger", ledger, "--format", "machine"), review)
        )
        steps.append(
            Step(
                "report",
                cli("report", aur, "--ledger", ledger, "--out", out_dir.name),
                report,
                out_dir,
            )
        )
    return steps


def bulk_steps(runner: Runner, golden: gen.Golden, rng: random.Random) -> list[Step]:
    case = gen.bulk_case(golden, rng)
    (runner.work / "bulk.aur").write_text(case.text, encoding="utf-8")
    (runner.work / "bulk.ledger").write_text(case.ledger, encoding="utf-8")
    out_dir = runner.work / "bulk.out"

    def check(r: Result) -> str | None:
        problem = expect_code(r, 0)
        if not problem and r.stdout != "0 error(s), 0 warning(s)\n":
            problem = f"expected no findings, got {r.stdout[:200]!r}"
        return problem

    def report(r: Result) -> str | None:
        problem = expect_code(r, 0)
        if not problem and (out_dir / "trace.txt").read_text(encoding="utf-8") != case.trace:
            problem = "trace.txt is not one complete row per hazard"
        return problem

    def fmt(r: Result) -> str | None:
        problem = expect_code(r, 0)
        if not problem and r.stdout != case.canonical:
            problem = "fmt output differs from the canonical text"
        return problem

    return [
        Step("check", cli("check", "bulk.aur"), check),
        Step(
            "report",
            cli("report", "bulk.aur", "--ledger", "bulk.ledger", "--out", out_dir.name),
            report,
            out_dir,
        ),
        Step("fmt", cli("fmt", "bulk.aur"), fmt),
    ]


def findings_steps(runner: Runner, golden: gen.Golden, rng: random.Random) -> list[Step]:
    steps = []
    for index, case in enumerate(gen.findings_cases(golden, rng)):
        aur = f"{case.name}.aur"
        (runner.work / aur).write_text(case.text, encoding="utf-8")
        machine = index % 2 == 1
        code = 1 if case.errors else 0

        def check(r: Result, case=case, machine=machine, code=code) -> str | None:
            problem = expect_code(r, code)
            if problem:
                return problem
            histogram = rule_histogram(r, machine)
            if histogram != case.tally:
                return f"rule histogram {dict(histogram)} != injected {dict(case.tally)}"
            return None

        def trace(r: Result, case=case, code=code) -> str | None:
            problem = expect_code(r, code)
            if problem:
                return problem
            if case.dangling:
                refused = Counter(_DIAGNOSTIC.findall(r.stderr))
                if r.stdout or refused["E008"] != 1 or refused["E009"] != case.tally["E009"]:
                    return "dangling references were not refused with one E008"
            elif r.stdout != case.trace:
                return "trace matrix differs from the generated one"
            return None

        args = ["check", aur] + (["--format", "machine"] if machine else [])
        steps.append(Step("check", cli(*args), check))
        steps.append(Step("trace", cli("trace", aur), trace))
    return steps


WORKLOADS = {"gate": gate_steps, "bulk": bulk_steps, "findings": findings_steps}


# -- statistics ---------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float | None, float | None]:
    """The highest percentile with at least ten samples above it, and that
    percentile; (None, None) below eleven samples."""
    n = len(samples)
    if n < 11:
        return None, None
    return sorted(samples)[n - 11], round(100.0 * (n - 10) / n, 1)


def geomean(values: list[float]) -> float:
    return math.exp(sum(map(math.log, values)) / len(values))


def metric(value, unit: str, **extra) -> dict:
    return {"value": value, "unit": unit, **extra}


# -- runs ---------------------------------------------------------------------


def prepare(runner: Runner, step: Step) -> Path:
    """Clear the step's output directory; the directory to run it in."""
    if step.out_dir is not None:
        shutil.rmtree(step.out_dir, ignore_errors=True)
    return step.cwd or runner.work


def golden_steps(runner: Runner) -> list[Step]:
    """`report` and `fmt` of the golden case, run from the fixture directory
    with relative paths.  The report's four artifacts must match
    `golden_out` byte for byte except `generated_at`; the golden case is
    canonical, so `fmt` must print it unchanged.  Every run checks the
    report once before timing.  The traced run adds both to every cycle,
    so that every wrapped function runs, and every layer is timed, on
    every workload."""
    fixtures = runner.root / "tests" / "fixtures"
    out_dir = runner.work / "golden.out"
    canonical = (fixtures / "golden_cat.aur").read_text(encoding="utf-8")

    def fmt(r: Result) -> str | None:
        problem = expect_code(r, 0)
        if not problem and r.stdout != canonical:
            problem = "golden_cat.aur is canonical, but fmt changed it"
        return problem

    report = cli("report", "golden_cat.aur", "--ledger", "golden.ledger", "--out", str(out_dir))
    return [
        Step("golden_report", report, lambda r: check_golden(r, out_dir, fixtures / "golden_out"), out_dir, fixtures),
        Step("golden_fmt", cli("fmt", "golden_cat.aur"), fmt, cwd=fixtures),
    ]


def version_check(r: Result) -> str | None:
    return expect_code(r, 0) or (None if r.stdout.startswith("aurcase ") else "no version")


def timed_run(runner: Runner, steps: list[Step], seconds: float) -> tuple[dict, dict]:
    """Closed loop over the cycle.  After each command the loop runs the
    reference process and a cold `aurcase --version`.  Each command's wall
    time is also taken relative to the mean of the references just before
    and just after it, and summarised per step of the cycle (one command on
    one input), so that a run ending mid-cycle weighs every input alike."""
    walls: dict[str, list[float]] = defaultdict(list)
    cpus: dict[str, list[float]] = defaultdict(list)
    relative: list[list[float]] = [[] for _ in steps]
    versions: list[float] = []
    rss = 0.0
    before = runner.reference()
    references = [before * 1000.0]
    started = time.perf_counter()
    i = 0
    while i < len(steps) or time.perf_counter() - started < seconds:
        if time.perf_counter() - started > seconds + GRACE_S:
            runner.broken.append("run stopped mid-cycle: commands too slow")
            break
        index = i % len(steps)
        step = steps[index]
        i += 1
        r = runner.run_checked(step.command, step.argv, prepare(runner, step), step.check)
        after = runner.reference()
        version = runner.run_checked("--version", cli("--version"), runner.work, version_check)
        walls[step.command].append(r.wall_s * 1000.0)
        cpus[step.command].append(r.cpu_s * 1000.0)
        relative[index].append(2.0 * r.wall_s / (before + after))
        versions.append(version.wall_s)
        references.append(after * 1000.0)
        rss = max(rss, r.rss_mb, version.rss_mb)
        before = after
    medians = {cmd: statistics.median(v) for cmd, v in walls.items()}
    step_rel = [statistics.median(v) for v in relative]
    setup = statistics.median(versions)
    detail = {
        "setup_s": metric(setup, "s", n=len(versions)),
        "peak_rss_mb": metric(rss, "MB"),
        "cmd_ms": metric(geomean(list(medians.values())), "ms"),
        "reference_ms": metric(statistics.median(references), "ms", n=len(references)),
    }
    for cmd, values in walls.items():
        value, pct = tail(values)
        detail[f"{cmd}_ms"] = metric(medians[cmd], "ms", n=len(values))
        detail[f"{cmd}_ms_tail"] = metric(value, "ms", percentile=pct, n=len(values))
        detail[f"{cmd}_cpu_ms"] = metric(statistics.median(cpus[cmd]), "ms", n=len(values))
        ours = [rel for rel, step in zip(step_rel, steps) if step.command == cmd]
        detail[f"{cmd}_rel"] = metric(geomean(ours), "x", n=len(values))
        detail[f"{cmd}_samples_ms"] = [round(v, 1) for v in values]
    metrics = {
        "setup_s": metric(setup, "s"),
        "cmd_rel": metric(geomean(step_rel), "x"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    return metrics, detail


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover, ms."""
    own = [(s[2] - s[1]) / 1e6 for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= (s[2] - s[1]) / 1e6
    return own


def traced_run(runner: Runner, steps: list[Step], seconds: float) -> tuple[dict, dict]:
    """Whole cycles, each run once traced and once untraced, while another
    cycle fits in the time (at least one); per-invocation averages are over
    whole cycles, so call counts repeat exactly for the same seed."""
    names = [f"{m}.{f}" for m, fs in LAYERS.items() for f in fs]
    self_ms: Counter = Counter()
    calls: Counter = Counter()
    per_command: dict[str, Counter] = defaultdict(Counter)
    first_rate_ms: list[float] = []
    import_ms: list[float] = []
    diagnostics = lines = parse_ns = 0
    overheads: list[float] = []
    spans_path = runner.work / "spans.json"
    invocations = cycles = 0
    started = time.perf_counter()
    elapsed = cycle_s = 0.0
    while cycles == 0 or elapsed + cycle_s <= seconds:
        cycles += 1
        walls: dict[bool, list[float]] = {True: [], False: []}
        for traced in (True, False):
            for step in steps:
                if time.perf_counter() - started > seconds + GRACE_S:
                    runner.broken.append("run stopped mid-cycle: commands too slow")
                    break
                cwd = prepare(runner, step)
                argv = step.argv
                if traced:
                    spans_path.unlink(missing_ok=True)
                    argv = [sys.executable, str(HERE / "trace_child.py"), str(spans_path),
                            str(invocations), "--", *step.argv[3:]]
                r = runner.launch(argv, cwd)
                walls[traced].append(r.wall_s * 1000.0)
                problem = problem_of(r, step.check)
                if traced and not problem:
                    try:
                        record = json.loads(spans_path.read_text(encoding="utf-8"))
                    except (OSError, ValueError) as exc:
                        problem = f"no spans written: {exc!r}"
                    else:
                        if not record["restored"]:
                            problem = "a wrapper was left bound after the run"
                runner.record(step.command, problem)
                if not traced or problem:
                    continue
                invocations += 1
                spans = record["spans"]
                import_ms.append(record["import_ns"] / 1e6)
                first_rate = True
                for span, own in zip(spans, self_times(spans)):
                    name = span[0]
                    self_ms[name] += own
                    calls[name] += 1
                    per_command[step.command][name] += 1
                    if name == "rules.validate":
                        diagnostics += span[5]
                    elif name == "dsl.parse":
                        lines += span[5]
                        parse_ns += span[2] - span[1]
                    elif name == "lifecycle.rate_upper_bound" and first_rate:
                        first_rate_ms.append((span[2] - span[1]) / 1e6)
                        first_rate = False
        overheads += [t - u for t, u in zip(walls[True], walls[False])]
        cycle_s = time.perf_counter() - started - elapsed
        elapsed += cycle_s
    n = max(invocations, 1)
    counts_per_command = Counter(s.command for s in steps)
    per_command = {
        cmd: {name: c / (counts_per_command[cmd] * cycles) for name, c in sorted(counter.items())}
        for cmd, counter in per_command.items()
    }

    def ms(*layer_names: str) -> float:
        return sum(self_ms[name] for name in layer_names) / n

    renders = [name for name in names if name.startswith("report.render_")]
    metrics = {
        "cli.import_ms": metric(statistics.mean(import_ms or [0.0]), "ms"),
        "cli.self_ms": metric(ms("cli.run"), "ms"),
        "dsl.parse_ms": metric(ms("dsl.parse"), "ms"),
        "dsl.parse_calls": metric(calls["dsl.parse"] / n, "count"),
        "dsl.parse_kloc_per_s": metric(lines / 1000.0 / max(parse_ns / 1e9, 1e-9), "kloc/s"),
        "dsl.serialize_ms": metric(ms("dsl.serialize"), "ms"),
        "model.resolve_references_ms": metric(ms("model.resolve_references"), "ms"),
        "model.resolve_references_calls": metric(calls["model.resolve_references"] / n, "count"),
        "rules.validate_ms": metric(ms("rules.validate"), "ms"),
        "rules.validate_calls": metric(calls["rules.validate"] / n, "count"),
        "rules.diagnostics": metric(diagnostics / n, "count"),
        "diagnostics.sort_diagnostics_ms": metric(ms("diagnostics.sort_diagnostics"), "ms"),
        "diagnostics.sort_diagnostics_calls": metric(calls["diagnostics.sort_diagnostics"] / n, "count"),
        "coverage.coverage_map_ms": metric(ms("coverage.coverage_map"), "ms"),
        "coverage.gap_report_ms": metric(ms("coverage.gap_report"), "ms"),
        "coverage.aggregation_balance_ms": metric(ms("coverage.aggregation_balance"), "ms"),
        "report.trace_matrix_ms": metric(ms("report.trace_matrix"), "ms"),
        "report.build_report_ms": metric(ms("report.build_report"), "ms"),
        "report.render_ms": metric(ms(*renders), "ms"),
        "lifecycle.parse_ledger_ms": metric(ms("lifecycle.parse_ledger"), "ms"),
        "lifecycle.readiness_review_ms": metric(ms("lifecycle.readiness_review"), "ms"),
        "lifecycle.rate_upper_bound_ms": metric(ms("lifecycle.rate_upper_bound"), "ms"),
        "lifecycle.rate_upper_bound_calls": metric(calls["lifecycle.rate_upper_bound"] / n, "count"),
        "lifecycle.rate_upper_bound_first_ms": metric(
            statistics.mean(first_rate_ms or [0.0]), "ms"
        ),
        "tracing.overhead_ms": metric(statistics.median(overheads), "ms"),
    }
    detail = {"traced_invocations": n, "calls_per_invocation": per_command}
    return metrics, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    root = Path.cwd()
    needed = [
        root / "src" / "aurcase" / "cli.py",
        root / "tests" / "oracles.py",
        root / "tests" / "fixtures" / "golden_cat.aur",
        root / "tests" / "fixtures" / "golden_out",
    ]
    missing = [str(p.relative_to(root)) for p in needed if not p.exists()]
    if missing:
        print(f"run.py: run from the root of an aurcase checkout; missing {missing}", file=sys.stderr)
        return 2

    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(root, work)
        golden = gen.Golden.load(root / "tests" / "fixtures" / "golden_cat.aur")
        if gen.assemble(golden.header, gen.scaled(golden, 1)) != (
            root / "tests" / "fixtures" / "golden_cat.aur"
        ).read_text(encoding="utf-8"):
            runner.broken.append("generator does not reproduce golden_cat.aur at x1")
        steps = WORKLOADS[args.workload](runner, golden, random.Random(args.seed))
        golden_runs = golden_steps(runner)
        report = golden_runs[0]
        runner.run_checked(report.command, report.argv, prepare(runner, report), report.check)
        if args.trace:
            metrics, detail = traced_run(runner, steps + golden_runs, args.seconds)
        else:
            metrics, detail = timed_run(runner, steps, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is using it

    failed = len(runner.failures)
    for failure in (runner.broken + runner.failures)[:20]:
        print(f"FAIL {failure}", file=sys.stderr)
    detail["fail_ratio"] = metric(failed / runner.attempted, "1")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "detail": detail}))
    print(
        json.dumps(
            {
                "correct": failed == 0 and not runner.broken,
                "attempted": runner.attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
