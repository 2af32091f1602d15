"""Checks of the benchmark itself, run from the root of a checkout:

    python3 perfbench/selfcheck.py

1. At x1 the generator reproduces `golden_cat.aur` byte for byte.
2. Every generated clean case (the gate cases and the x300 bulk case,
   with their seeded `max` rates and block orders) checks clean.
3. On one `report` of the golden case, the wrappers count the calls
   below.  These are the call counts of the program as the benchmark was
   written; a change to the program's call structure changes them, and
   then this table is updated with it.
4. The wrappers bind at every module that holds a wrapped function, and
   `restore` puts every original back.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import gen
from trace_child import LAYERS, Tracer

EXPECTED_CALLS = {
    "check": {"model.resolve_references": 2, "rules.validate": 1},
    "review": {"model.resolve_references": 4, "rules.validate": 1},
    "report": {
        "model.resolve_references": 8,
        "rules.validate": 2,
        "diagnostics.sort_diagnostics": 4,
    },
}


def main() -> int:
    root = Path.cwd()
    fixtures = root / "tests" / "fixtures"
    src = str((root / "src").resolve())
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("AURCASE_CONFIG", None)
    problems: list[str] = []
    golden = gen.Golden.load(fixtures / "golden_cat.aur")

    if gen.assemble(golden.header, gen.scaled(golden, 1)) != (fixtures / "golden_cat.aur").read_text(
        encoding="utf-8"
    ):
        problems.append("x1 is not golden_cat.aur byte for byte")

    rng = random.Random(0)
    cases = {c.name: c.text for c in gen.gate_cases(golden, rng, gen.load_oracle(root))}
    cases["bulk"] = gen.bulk_case(golden, rng).text
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        for name, text in cases.items():
            path = Path(tmp) / f"{name}.aur"
            path.write_text(text, encoding="utf-8")
            done = subprocess.run(
                [sys.executable, "-m", "aurcase.cli", "check", str(path)],
                env=env, capture_output=True, text=True, timeout=120,
            )
            if done.returncode or done.stdout != "0 error(s), 0 warning(s)\n":
                problems.append(f"generated case {name} does not check clean: {done.stdout[:200]}")

        spans_path = Path(tmp) / "spans.json"
        commands = {
            "check": ["check", "golden_cat.aur"],
            "review": ["review", "golden_cat.aur", "--ledger", "golden.ledger"],
            "report": ["report", "golden_cat.aur", "--ledger", "golden.ledger", "--out", tmp],
        }
        for command, argv in commands.items():
            subprocess.run(
                [sys.executable, str(Path(__file__).with_name("trace_child.py")), str(spans_path), "0", "--", *argv],
                cwd=fixtures, env=env, capture_output=True, timeout=120, check=True,
            )
            record = json.loads(spans_path.read_text(encoding="utf-8"))
            counts: dict[str, int] = {}
            for span in record["spans"]:
                counts[span[0]] = counts.get(span[0], 0) + 1
            for name, expected in EXPECTED_CALLS[command].items():
                if counts.get(name, 0) != expected:
                    problems.append(f"{command}: {name} called {counts.get(name, 0)}x, expected {expected}")
            if not record["restored"]:
                problems.append(f"{command}: a wrapper was left bound")

    sys.path.insert(0, src)
    import aurcase.cli

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "aurcase"]
    originals = {
        (m.__name__, attr): value
        for m in modules
        for attr, value in vars(m).items()
        if callable(value)
    }
    tracer = Tracer()
    tracer.install()
    for module_name, names in LAYERS.items():
        for func_name in names:
            wrapper = tracer.wrappers[f"{module_name}.{func_name}"]
            original = wrapper.__wrapped__
            for m in modules:
                for attr, value in vars(m).items():
                    if value is original:
                        problems.append(f"{m.__name__}.{attr} was not wrapped")
    if aurcase.cli.parse is not tracer.wrappers["dsl.parse"]:
        problems.append("aurcase.cli.parse was not wrapped")
    if not tracer.restore():
        problems.append("restore reported a wrapper left bound")
    for (module_name, attr), value in originals.items():
        if getattr(sys.modules[module_name], attr) is not value:
            problems.append(f"{module_name}.{attr} was not restored")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
