"""Compare what two source trees make of the same seeded corpus of cases.

    python tests/differential.py --parent DIR [--seed N --edits K]

The trees are this checkout and DIR, the root of another one (each with
`src/aurcase`).  It compares them in two halves, each tree in its own
child interpreter.

- The parse half runs over every fixture, then K line edits and K
  character edits of `golden_cat.aur` and K random texts, all drawn from
  seed N (see `strategies.py`).  For each text the children report the
  parse's diagnostics (the fatal one, or the dangling references), both
  span maps, the `serialize` output and the `validate` findings.
- The CLI half runs `aurcase.cli.run` in-process over every fixture and
  four edits of `golden_cat.aur` (one fatal, one with a dangling
  evidence reference, one with two dangling indicators, one whose E006
  and W102 tie on position), once per command line in `COMMANDS`: with
  and without a config (named by `--config` or by `$AURCASE_CONFIG`),
  `--review-ready` and `--coverage-threshold`, with the golden ledger
  and four bad ones (`INPUTS`: a bad header, an event definition no
  target names, a non-finite and a conflicting exposure), with five bad
  configs and two that read (a key set twice, a byte order mark;
  `CONFIGS`), and in spellings that `run` leaves to argparse
  (`--format=machine`, `--form`, an option before the file, `--`, a bad
  choice, `-h`, `--help`).  For each run the children report the exit
  code, stdout, stderr and every file that `report` writes, with
  `generated_at` masked.

For each half the script prints the first difference and the number of
texts or runs that differ, and it exits 1 if any do.  pytest does not
collect it.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
import threading
from itertools import chain
from pathlib import Path

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from strategies import fuzz_texts, golden_char_edits, golden_line_edits  # noqa: E402

# Run by each child with its tree's `src` first on the path: one JSON
# text per input line, one JSON record per output line.
CHILD = r"""
import json, sys
sys.path.insert(0, sys.argv[1])
import aurcase
from aurcase.dsl import parse, serialize
from aurcase.rules import validate

def span(s):
    return None if s is None else [s.file, s.start_line, s.start_col, s.end_line, s.end_col]

def diagnostics(ds):
    return [[d.rule_id, d.severity.value, d.message, d.subject_id, span(d.span)] for d in ds]

def record(text):
    result = parse(text, "d.aur")
    out = {"diagnostics": diagnostics(result.diagnostics)}
    if result.case is None:
        return out
    out["span_index"] = [[k, span(v)] for k, v in result.span_index.items()]
    out["reference_spans"] = [[list(k), span(v)] for k, v in result.reference_spans.items()]
    try:
        out["serialize"] = serialize(result.case)
    except Exception as exc:
        out["serialize"] = f"{type(exc).__name__}: {exc}"
    out["validate"] = diagnostics(
        validate(result.case, None, result.span_index, result.reference_spans)
    )
    return out

print(json.dumps(aurcase.__file__), flush=True)
for line in sys.stdin:
    print(json.dumps(record(json.loads(line))), flush=True)
"""

GOLDEN_LEDGER = (FIXTURES / "golden.ledger").read_text(encoding="utf-8")

# Five configs with a bad line and two that read, each run by `check`.
CONFIGS = {
    "loud.cfg": "rule.W104.severity = error\nrule.E001.severity = loud\n",
    "some.cfg": "# scope\nrule.E006.scope = some\n",
    "unknown_rule.cfg": "rule.W101.severity = off\nrule.E099.severity = off\n",
    "unknown_key.cfg": "rule.E006.enabled = false\n",
    "maybe.cfg": "facets.required = Fidelity\nreview_ready = maybe\n",
    "twice.cfg": (
        "rule.W104.severity = error\nreview_ready = true\nfacets.required = Fidelity\n"
        "rule.W104.severity = off\nreview_ready = false\nfacets.required = Coverage\n"
    ),
    "bom.cfg": "\ufeffrule.W104.severity = error\nrule.E012.severity = off\n",
}

# The files beside each case in a CLI child's directory.
INPUTS = {
    "golden.ledger": GOLDEN_LEDGER,
    # Re-grades a rule, turns one off, requires a facet and narrows E006.
    "strict.cfg": (
        "rule.W104.severity = error\n"
        "rule.E012.severity = off\n"
        "facets.required = Fidelity, Coverage\n"
        "rule.E006.scope = skip_reasonableness\n"
    ),
    "bad_header.ledger": GOLDEN_LEDGER.replace("exposure_unit", "unit", 1),
    "unnamed.ledger": GOLDEN_LEDGER + "2024.3.1,predicted,1000000,mi,near miss,4\n",
    # Rows the reader refuses: an exposure that is not finite, and a
    # release whose rows disagree on its exposure.
    "nonfinite.ledger": GOLDEN_LEDGER.replace(",1000000,", ",inf,", 1),
    "conflict.ledger": GOLDEN_LEDGER + "2024.3.1,predicted,2000000,mi,near miss,4\n",
    **CONFIGS,
}

# The command lines of the CLI half, `CASE` standing for the case's file.
# Leading NAME=value words (NAME in capitals) set the environment of that
# run alone.
_GATED = (
    ("check", "CASE"),
    ("review", "CASE", "--ledger", "golden.ledger"),
    ("report", "CASE", "--ledger", "golden.ledger", "--out", "out"),
)
COMMANDS = (
    *_GATED,
    ("check", "CASE", "--format", "machine"),
    ("coverage", "CASE"),
    ("trace", "CASE"),
    ("fmt", "CASE"),
    *((*argv, "--config", "strict.cfg") for argv in _GATED),
    *(("AURCASE_CONFIG=strict.cfg", *argv) for argv in _GATED),
    *((*argv, "--review-ready") for argv in _GATED),
    *((*argv, "--coverage-threshold", "0.9") for argv in _GATED),
    ("review", "CASE", "--ledger", "bad_header.ledger"),
    ("report", "CASE", "--ledger", "bad_header.ledger", "--out", "out"),
    ("review", "CASE", "--ledger", "unnamed.ledger"),
    ("review", "CASE", "--ledger", "nonfinite.ledger"),
    ("review", "CASE", "--ledger", "conflict.ledger"),
    ("report", "CASE", "--ledger", "unnamed.ledger", "--out", "out"),
    *(("check", "CASE", "--config", name) for name in CONFIGS),
    ("AURCASE_CONFIG=some.cfg", "check", "CASE"),
    # `run` reads the lines above itself; these go through argparse.
    ("check", "CASE", "--format=machine"),
    ("check", "CASE", "--form", "machine"),
    ("check", "--review-ready", "CASE"),
    ("check", "--", "CASE"),
    ("check", "CASE", "--format", "bogus"),
    ("review", "CASE", "-h"),
    ("--help",),
    ("--version",),
)

# Run by each child, in a directory of its own that holds `INPUTS`, with
# its tree's `src` first on the path: one JSON [file name, text, argument
# lists] case per input line, one JSON record per argument list.  Every
# path is relative, so both trees print the same ones.
CLI_CHILD = r"""
import contextlib, io, json, os, re, shutil, sys
sys.path.insert(0, sys.argv[1])
import aurcase
from aurcase.cli import run

def record(words):
    env = dict(word.split("=", 1) for word in words if re.match(r"[A-Z_]+=", word))
    argv = words[len(env):]
    os.environ.update(env)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        out = {"exit": run(argv), "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
    for name in env:
        del os.environ[name]
    if os.path.isdir("out"):
        for name in sorted(os.listdir("out")):
            with open(os.path.join("out", name), encoding="utf-8") as handle:
                text = handle.read()
            out[name] = re.sub(r'"generated_at": "[^"]*"', '"generated_at": ""', text)
        shutil.rmtree("out")
    return out

print(json.dumps(aurcase.__file__), flush=True)
for line in sys.stdin:
    name, text, argvs = json.loads(line)
    with open(name, "w", encoding="utf-8") as handle:
        handle.write(text)
    for argv in argvs:
        print(json.dumps(record(argv)), flush=True)
"""


def fixtures() -> list[tuple[str, str]]:
    paths = sorted(FIXTURES.glob("*.aur"))
    return [(path.name, path.read_text(encoding="utf-8")) for path in paths]


def corpus(seed: int, edits: int):
    """(label, text) pairs, the same for every run with these arguments."""
    yield from fixtures()
    for kind, texts in (
        ("line edit", golden_line_edits(seed, edits)),
        ("character edit", golden_char_edits(seed, edits)),
        ("random text", fuzz_texts(seed, edits)),
    ):
        yield from ((f"{kind} {i} (seed {seed})", text) for i, text in enumerate(texts))


def cli_cases() -> list[tuple[str, str]]:
    """(file name, text) of each case of the CLI half."""
    golden = (FIXTURES / "golden_cat.aur").read_text(encoding="utf-8")
    return [
        *fixtures(),
        ("fatal.aur", golden + "}\n"),
        ("dangling.aur", golden.replace("evidence = E1, E2", "evidence = E1, E9")),
        # Two dangling indicators in one list, so E008 counts two.
        ("indicators.aur", golden.replace("indicator = I1, I2", "indicator = I1, I2, I9, I8")),
        # The first argument row without evidence and limitations: its E006
        # and W102 share one position, so only severity orders them.
        ("tied.aur", re.sub(r" *evidence = E1\n *limitations = .*\n", "", golden, count=1)),
    ]


def label(words: list[str]) -> str:
    """A command line as a shell would spell it: NAME=value words first."""
    env = [word for word in words if re.match(r"[A-Z_]+=", word)]
    return " ".join([*env, "aurcase", *words[len(env):]])


def start(root: Path, script: str = CHILD, cwd: Path | None = None) -> subprocess.Popen:
    child = subprocess.Popen(
        [sys.executable, "-c", script, str((root / "src").resolve())],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        encoding="utf-8",
        cwd=cwd,
        env={name: value for name, value in os.environ.items() if name != "AURCASE_CONFIG"},
    )
    first = child.stdout.readline()
    if not first or not Path(json.loads(first)).resolve().is_relative_to(root.resolve()):
        child.kill()
        raise SystemExit(f"differential.py: cannot load aurcase from {root / 'src'}")
    return child


def feed(child: subprocess.Popen, inputs: list) -> None:
    try:
        with child.stdin:
            for item in inputs:
                child.stdin.write(json.dumps(item) + "\n")
    except BrokenPipeError:  # the child was stopped (see `compare`)
        pass


def first_difference(ours: dict, theirs: dict) -> str:
    for key in dict.fromkeys(chain(ours, theirs)):
        if ours.get(key) != theirs.get(key):
            return (
                f"  {key}:\n    this tree:   {json.dumps(ours.get(key))[:2000]}\n"
                f"    parent tree: {json.dumps(theirs.get(key))[:2000]}"
            )
    return ""


def compare(labels: list[str], inputs: list, children: list[subprocess.Popen], what: str) -> int:
    """Feed `inputs` to both children and compare their records line by
    line, one per label; print the first difference and the count.  Returns
    the number of differences, or -1 if a child failed."""
    feeders = [threading.Thread(target=feed, args=(c, inputs)) for c in children]
    for feeder in feeders:
        feeder.start()
    differences = compared = 0
    for label, ours, theirs in zip(labels, children[0].stdout, children[1].stdout):
        compared += 1
        if ours != theirs:
            differences += 1
            if differences == 1:
                print(f"first difference: {label}")
                print(first_difference(json.loads(ours), json.loads(theirs)))
    if compared != len(labels):
        # A child ended early: stop the other, which would block on output
        # that no one reads.
        for child in children:
            child.kill()
    for feeder in feeders:
        feeder.join()
    codes = [child.wait() for child in children]
    if any(codes) or compared != len(labels):
        print(f"differential.py: children exited with {codes}", file=sys.stderr)
        return -1
    print(f"{differences} differences in {len(labels)} {what}")
    return differences


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="root of the other checkout")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--edits", type=int, default=1000, help="texts of each kind (K)")
    args = parser.parse_args(argv)
    if not (args.parent / "src" / "aurcase" / "dsl.py").is_file():
        parser.error(f"{args.parent} has no src/aurcase/dsl.py")
    roots = [HERE.parent, args.parent]

    labels, texts = zip(*corpus(args.seed, args.edits))
    parsed = compare(labels, texts, [start(root) for root in roots], "texts")

    runs = [
        (name, text, [[name if word == "CASE" else word for word in c] for c in COMMANDS])
        for name, text in cli_cases()
    ]
    labels = [label(argv) for _, _, argvs in runs for argv in argvs]
    with tempfile.TemporaryDirectory() as tmp:
        children = []
        for side, root in enumerate(roots):
            work = Path(tmp, str(side))
            work.mkdir()
            for name, text in INPUTS.items():
                (work / name).write_text(text, encoding="utf-8")
            children.append(start(root, CLI_CHILD, cwd=work))
        ran = compare(labels, runs, children, "command runs")
    if parsed < 0 or ran < 0:
        return 2
    return 1 if parsed or ran else 0


if __name__ == "__main__":
    sys.exit(main())
