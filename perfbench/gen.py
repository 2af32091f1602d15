"""Seeded input generator for the benchmark.

Every case is assembled from the blocks of `tests/fixtures/golden_cat.aur`.
Clone 0 keeps the golden ids; clone k >= 1 suffixes every declared id
with `x<k>` (`H1` -> `H1x7`, claim and subclaim ids included), so a x1
case is the golden file byte for byte.  Alongside each input the
generator computes what a correct program must answer, from the blocks
it assembled and from the independent bisection in `tests/oracles.py`,
never from the program under test.
"""

from __future__ import annotations

import importlib.util
import random
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

KIND_ORDER = ("context", "hazard", "methodology", "indicator", "criterion", "evidence", "claim")
CONFIDENCE = 0.95
EVENT = "injury-causing collision"

_HEADER = re.compile(r"^  (\w+)(?: (\S+))?")
_SUBCLAIM_ID = re.compile(
    r'^\s*(?:reasonableness|satisfaction|coverage_assessment|confidence_assessment|facet "[^"]*")'
    r" (\w+) \{$"
)
_STRING = re.compile(r'("(?:[^"\\]|\\.)*")')
_MAX = re.compile(r"max = [0-9.e+-]+")
_EVIDENCE = re.compile(r"^(\s*)evidence = (.+)$")


@dataclass(frozen=True)
class Block:
    kind: str
    id: str
    lines: tuple[str, ...]


@dataclass
class Golden:
    header: str
    blocks: list[Block]
    ids: frozenset[str]
    id_pattern: re.Pattern

    @classmethod
    def load(cls, path: Path) -> "Golden":
        lines = path.read_text(encoding="utf-8").split("\n")
        if lines[-1] != "" or lines[-2] != "}":
            raise ValueError(f"{path}: expected a closing brace and a final newline")
        chunks: list[list[str]] = [[]]
        for line in lines[1:-2]:
            if line:
                chunks[-1].append(line)
            else:
                chunks.append([])
        blocks, ids = [], set()
        for chunk in chunks:
            match = _HEADER.match(chunk[0])
            kind = match.group(1)
            if kind not in KIND_ORDER:
                raise ValueError(f"{path}: unexpected top-level block {chunk[0]!r}")
            block_id = "" if kind == "context" else match.group(2)
            if block_id:
                ids.add(block_id)
            ids.update(m.group(1) for m in map(_SUBCLAIM_ID.match, chunk) if m)
            blocks.append(Block(kind, block_id, tuple(chunk)))
        alternatives = "|".join(sorted(map(re.escape, ids), key=len, reverse=True))
        pattern = re.compile(rf"(?<![\w.])(?:{alternatives})(?![\w.])")
        return cls(lines[0], blocks, frozenset(ids), pattern)

    def clone(self, block: Block, suffix: str) -> Block:
        """The block with every declared id outside string literals suffixed."""
        if not suffix:
            return block
        rename = lambda m: m.group(0) + suffix  # noqa: E731

        def fix(line: str) -> str:
            parts = _STRING.split(line)
            parts[::2] = [self.id_pattern.sub(rename, part) for part in parts[::2]]
            return "".join(parts)

        return Block(block.kind, block.id + suffix, tuple(fix(line) for line in block.lines))


def suffix(k: int) -> str:
    return f"x{k}" if k else ""


def assemble(header: str, blocks: list[Block]) -> str:
    out = [header]
    for index, block in enumerate(blocks):
        if index:
            out.append("")
        out.extend(block.lines)
    out.append("}")
    return "\n".join(out) + "\n"


def canonical_order(blocks: list[Block]) -> list[Block]:
    return sorted(blocks, key=lambda b: (KIND_ORDER.index(b.kind), b.id))


def scaled(golden: Golden, copies: int) -> list[Block]:
    """The context block once, every other block once per clone."""
    out = [b for b in golden.blocks if b.kind == "context"]
    for k in range(copies):
        out += [golden.clone(b, suffix(k)) for b in golden.blocks if b.kind != "context"]
    return out


def load_oracle(repo: Path):
    spec = importlib.util.spec_from_file_location("_oracles", repo / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.upper_bound_bisect


# -- gate ---------------------------------------------------------------------


@dataclass
class GateCase:
    name: str
    text: str
    ledger: str
    expected: dict[str, tuple[str, float]]  # criterion id -> (status, oracle bound)
    exposure: float
    count: int

    @property
    def approved(self) -> bool:
        return all(status == "met" for status, _ in self.expected.values())


def gate_cases(golden: Golden, rng: random.Random, oracle) -> list[GateCase]:
    """Four small cases, x1 to x4 in seeded order, with per-clone `max`
    rates and a ledger whose predicted-phase count is nonzero in all but
    one case.  Every seed gets the same sizes and one zero count, so seeds
    differ in values, not in the amount of work."""
    sizes = [1, 2, 3, 4]
    rng.shuffle(sizes)
    zero_at = rng.randrange(len(sizes))
    cases = []
    for i, copies in enumerate(sizes):
        exposure = float(rng.randrange(200_000, 3_000_000, 1000))
        count = 0 if i == zero_at else rng.randint(1, 12)
        bound = oracle(count, exposure, CONFIDENCE)
        blocks, expected = [], {}
        for b in scaled(golden, copies):
            if b.kind == "criterion" and any("rate_bound(" in line for line in b.lines):
                while True:
                    limit = float(f"{bound * 2 ** rng.uniform(-1, 1):.3g}")
                    if abs(bound - limit) > 0.01 * limit:
                        break
                b = Block(b.kind, b.id, tuple(_MAX.sub(f"max = {limit!r}", x) for x in b.lines))
                expected[b.id] = ("met" if bound <= limit else "unmet", bound)
            blocks.append(b)
        rng.shuffle(blocks)
        observed = rng.randint(0, 5)
        ledger = (
            "release,phase,exposure,exposure_unit,event_definition,count\n"
            f"2024.3.1,predicted,{exposure:.0f},mi,{EVENT},{count}\n"
            f"2024.2.0,observed,{exposure / 4:.0f},mi,{EVENT},{observed}\n"
        )
        cases.append(
            GateCase(f"gate{i}", assemble(golden.header, blocks), ledger, expected, exposure, count)
        )
    return cases


# -- bulk ---------------------------------------------------------------------


@dataclass
class BulkCase:
    text: str
    canonical: str
    trace: str
    ledger: str


def trace_row(hazard: str, criteria, claims, evidence) -> str:
    cells = [", ".join(sorted(x)) or "-" for x in (criteria, claims, evidence)]
    complete = "yes" if all((criteria, claims, evidence)) else "no"
    return " | ".join([hazard, *cells, complete])


def trace_text(rows: list[str]) -> str:
    # A row starts with its hazard id and " | ", and " " sorts below every
    # identifier character, so sorting rows sorts them by hazard id.
    lines = ["hazard | criteria | claims | evidence | complete", *sorted(rows)]
    return "\n".join(lines) + "\n"


def golden_trace_sets(golden: Golden) -> tuple[str, list[str], list[str], list[str]]:
    """Hazard, criteria, claims and cited evidence of the golden case, as
    they appear in its canonical trace row (one hazard in the golden case)."""
    hazards = [b.id for b in golden.blocks if b.kind == "hazard"]
    if len(hazards) != 1:
        raise ValueError("the golden case is expected to declare exactly one hazard")
    criteria = [b.id for b in golden.blocks if b.kind == "criterion"]
    claims = [b.id for b in golden.blocks if b.kind == "claim"]
    evidence = sorted(
        {
            ident.strip()
            for b in golden.blocks
            if b.kind == "claim"
            for line in b.lines
            if (m := _EVIDENCE.match(line))
            for ident in m.group(2).split(",")
        }
    )
    return hazards[0], criteria, claims, evidence


def bulk_case(golden: Golden, rng: random.Random, copies: int = 300) -> BulkCase:
    blocks = scaled(golden, copies)
    canonical = assemble(golden.header, canonical_order(blocks))
    rng.shuffle(blocks)
    hazard, criteria, claims, evidence = golden_trace_sets(golden)
    rows = []
    for k in range(copies):
        s = suffix(k)
        rows.append(
            trace_row(hazard + s, [c + s for c in criteria], [c + s for c in claims], [e + s for e in evidence])
        )
    ledger = (
        "release,phase,exposure,exposure_unit,event_definition,count\n"
        f"2024.3.1,predicted,{rng.randrange(1_000_000, 3_000_000, 1000)},mi,{EVENT},0\n"
    )
    return BulkCase(assemble(golden.header, blocks), canonical, trace_text(rows), ledger)


# -- findings -----------------------------------------------------------------


@dataclass
class FindingsCase:
    name: str
    text: str
    tally: Counter
    dangling: bool
    trace: str  # what `trace` prints when no reference dangles

    @property
    def errors(self) -> int:
        return sum(n for rule, n in self.tally.items() if rule.startswith("E"))


def findings_case(
    golden: Golden,
    rng: random.Random,
    name: str,
    dangling: bool,
    copies: int = 100,
    drop: float = 0.25,
    dangle: float = 0.05,
) -> FindingsCase:
    """A xN case with argument-row lines dropped at rate `drop` and, when
    `dangling`, a share `dangle` of evidence lines given an undeclared id.

    Each dropped line maps to one rule (counter -> W101, limitations ->
    W102, evidence -> E006); each dangling reference is one E009, and each
    declared evidence id that no remaining row cites is one W103.
    """
    drop_rules = {"counter": "W101", "limitations": "W102", "evidence": "E006"}
    hazard, criteria, claims, _evidence = golden_trace_sets(golden)
    tally: Counter = Counter()
    blocks, rows = [], []
    missing = 0
    for k in range(copies):
        s = suffix(k)
        declared: list[str] = []
        cited: set[str] = set()
        for block in golden.blocks:
            if block.kind == "context" and k:
                continue
            b = golden.clone(block, s)
            if b.kind == "evidence":
                declared.append(b.id)
            if b.kind == "claim":
                lines = []
                for line in b.lines:
                    field_name = line.split(" = ", 1)[0].strip()
                    if field_name in drop_rules and rng.random() < drop:
                        tally[drop_rules[field_name]] += 1
                        continue
                    m = _EVIDENCE.match(line)
                    if m:
                        ids = [x.strip() for x in m.group(2).split(",")]
                        if dangling and rng.random() < dangle:
                            missing += 1
                            ids[rng.randrange(len(ids))] = f"Q{missing}"
                            tally["E009"] += 1
                            line = f"{m.group(1)}evidence = {', '.join(sorted(ids))}"
                        cited.update(ids)
                    lines.append(line)
                b = Block(b.kind, b.id, tuple(lines))
            blocks.append(b)
        tally["W103"] += sum(1 for e in declared if e not in cited)
        rows.append(
            trace_row(hazard + s, [c + s for c in criteria], [c + s for c in claims], cited & set(declared))
        )
    rng.shuffle(blocks)
    tally = Counter({rule: n for rule, n in tally.items() if n})
    return FindingsCase(name, assemble(golden.header, blocks), tally, dangling, trace_text(rows))


def findings_cases(golden: Golden, rng: random.Random) -> list[FindingsCase]:
    """Two inputs with dangling evidence references, two without."""
    return [
        findings_case(golden, rng, f"findings{i}", dangling=i < 2) for i in range(4)
    ]
