"""Compare what two source trees make of the same seeded corpus of cases.

    python tests/differential.py --parent DIR [--seed N --edits K]

The trees are this checkout and DIR, the root of another one (each with
`src/aurcase`).  Each runs in its own child interpreter over the same
texts: every fixture, then K line edits and K character edits of
`golden_cat.aur` and K random texts, all drawn from seed N (see
`strategies.py`).  For each text the children report the parse's
diagnostics (the fatal one, or the dangling references), both span maps,
the `serialize` output and the `validate` findings; the script prints the
first difference and the number of texts that differ, and exits 1 if any
do.  It tests no command line.  pytest does not collect it.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import threading
from itertools import chain
from pathlib import Path

HERE = Path(__file__).resolve().parent
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


def corpus(seed: int, edits: int):
    """(label, text) pairs, the same for every run with these arguments."""
    fixtures = sorted((HERE / "fixtures").glob("*.aur"))
    yield from ((path.name, path.read_text(encoding="utf-8")) for path in fixtures)
    for kind, texts in (
        ("line edit", golden_line_edits(seed, edits)),
        ("character edit", golden_char_edits(seed, edits)),
        ("random text", fuzz_texts(seed, edits)),
    ):
        yield from ((f"{kind} {i} (seed {seed})", text) for i, text in enumerate(texts))


def start(root: Path) -> subprocess.Popen:
    child = subprocess.Popen(
        [sys.executable, "-c", CHILD, str(root / "src")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        encoding="utf-8",
    )
    first = child.stdout.readline()
    if not first or not Path(json.loads(first)).resolve().is_relative_to(root.resolve()):
        child.kill()
        raise SystemExit(f"differential.py: cannot load aurcase from {root / 'src'}")
    return child


def feed(child: subprocess.Popen, texts: list[str]) -> None:
    with child.stdin:
        for text in texts:
            child.stdin.write(json.dumps(text) + "\n")


def first_difference(ours: dict, theirs: dict) -> str:
    for key in dict.fromkeys(chain(ours, theirs)):
        if ours.get(key) != theirs.get(key):
            return (
                f"  {key}:\n    this tree:   {json.dumps(ours.get(key))[:2000]}\n"
                f"    parent tree: {json.dumps(theirs.get(key))[:2000]}"
            )
    return ""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="root of the other checkout")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--edits", type=int, default=1000, help="texts of each kind (K)")
    args = parser.parse_args(argv)
    if not (args.parent / "src" / "aurcase" / "dsl.py").is_file():
        parser.error(f"{args.parent} has no src/aurcase/dsl.py")

    labels, texts = zip(*corpus(args.seed, args.edits))
    children = [start(HERE.parent), start(args.parent)]
    feeders = [threading.Thread(target=feed, args=(c, texts)) for c in children]
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
    for feeder in feeders:
        feeder.join()
    codes = [child.wait() for child in children]
    if any(codes) or compared != len(texts):
        print(f"differential.py: children exited with {codes}", file=sys.stderr)
        return 2
    print(f"{differences} differences in {len(texts)} texts")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
