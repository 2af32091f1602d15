"""Hypothesis strategies for building valid, serializable safety cases,
and seeded corpora of edited and random texts for the parser."""

from __future__ import annotations

import random
from pathlib import Path

from hypothesis import strategies as st

from aurcase.lifecycle import LEDGER_COLUMNS
from aurcase.model import (
    AcceptanceCriterion,
    AcSpaceRegion,
    AggregationLevel,
    ArgumentRow,
    BehavioralCapability,
    ClaimKind,
    ClaimNode,
    ConflictRole,
    ContextBlock,
    Evidence,
    EvidenceStrength,
    FunctionalityStatus,
    Hazard,
    HazardCategory,
    Indicator,
    CausalStage,
    ELEMENTS,
    Methodology,
    SafetyCase,
    SeverityLevel,
    TargetKind,
    ValidationTarget,
    iter_claim_nodes,
    iter_rows,
)

# Free text: printable unicode plus the characters the string escaping has
# to round-trip (quotes, backslashes, newlines, tabs).
text_values = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
    max_size=30,
)
nonempty_text = text_values.filter(lambda s: bool(s))

GOLDEN = Path(__file__).parent / "fixtures" / "golden_cat.aur"

# The grammar's characters plus letters and digits outside ASCII: `٣` is a
# decimal digit, `²` and `①` are digits but not decimal, `½` and `Ⅻ` are
# numeric only.
FUZZ_ALPHABET = '"\\#{}()=,.+-eE_0123456789abcxyzHSACM \t\r\néß٣²½Ⅻ①'
FUZZ_PREFIXES = ("", 'safety_case "f" {\n', 'safety_case "f" {\n  context { use_case = ')

row_labels = st.from_regex(r"[A-Z]\.[1-9]", fullmatch=True)


def _nonempty_subset(values):
    values = list(values)
    return st.sets(st.sampled_from(values), min_size=1, max_size=len(values)).map(
        frozenset
    )


@st.composite
def regions(draw) -> AcSpaceRegion:
    low = draw(st.sampled_from(list(SeverityLevel)))
    high = draw(st.sampled_from([s for s in SeverityLevel if s >= low]))
    severities = frozenset(s for s in SeverityLevel if low <= s <= high)
    roles = draw(_nonempty_subset(ConflictRole))
    capabilities = draw(_nonempty_subset(BehavioralCapability))
    statuses = draw(_nonempty_subset(FunctionalityStatus))
    aggregations = draw(_nonempty_subset(AggregationLevel))
    weak_severities = draw(
        st.sets(st.sampled_from(sorted(severities)), max_size=len(severities))
    )
    return AcSpaceRegion(
        severities=severities,
        roles=roles,
        capabilities=capabilities,
        statuses=statuses,
        aggregations=aggregations,
        weak_severities=weak_severities,
    )


@st.composite
def targets(draw) -> ValidationTarget:
    if draw(st.booleans()):
        return ValidationTarget(
            kind=TargetKind.QUALITATIVE, description=draw(text_values)
        )
    return ValidationTarget(
        kind=TargetKind.RATE_BOUND,
        event_definition=draw(nonempty_text),
        max_rate=draw(
            st.floats(min_value=1e-9, max_value=1.0, allow_nan=False, allow_infinity=False)
        ),
        exposure_unit=draw(nonempty_text),
        confidence=draw(st.floats(min_value=0.01, max_value=0.99)),
    )


@st.composite
def argument_rows(draw, evidence_ids: list[str]) -> ArgumentRow:
    cited = (
        draw(st.sets(st.sampled_from(evidence_ids), max_size=len(evidence_ids)))
        if evidence_ids
        else set()
    )
    return ArgumentRow(
        label=draw(row_labels),
        argument=draw(nonempty_text),
        evidence_ids=frozenset(cited),
        limitations=draw(text_values),
        counter_argument=draw(text_values),
    )


@st.composite
def claim_trees(draw, claim_id: str, criterion_id: str, evidence_ids: list[str]) -> ClaimNode:
    rows = lambda: draw(st.lists(argument_rows(evidence_ids), max_size=2))  # noqa: E731

    def maybe_id(suffix: str) -> str:
        return f"{claim_id}{suffix}" if draw(st.booleans()) else ""

    children = []
    if draw(st.booleans()):
        children.append(
            ClaimNode(
                kind=ClaimKind.REASONABLENESS, id=maybe_id("R"), rows=tuple(rows())
            )
        )
    if draw(st.booleans()):
        grandchildren = []
        if draw(st.booleans()):
            grandchildren.append(
                ClaimNode(
                    kind=ClaimKind.COVERAGE_ASSESSMENT,
                    id=maybe_id("V"),
                    rows=tuple(rows()),
                )
            )
        if draw(st.booleans()):
            facets = []
            for index in range(draw(st.integers(min_value=0, max_value=2))):
                nested = (
                    (
                        ClaimNode(
                            kind=ClaimKind.FACET,
                            facet_label=draw(nonempty_text),
                            rows=tuple(rows()),
                        ),
                    )
                    if draw(st.booleans())
                    else ()
                )
                facets.append(
                    ClaimNode(
                        kind=ClaimKind.FACET,
                        id=maybe_id(f"F{index}"),
                        facet_label=draw(nonempty_text),
                        children=nested,
                        rows=tuple(rows()),
                    )
                )
            grandchildren.append(
                ClaimNode(
                    kind=ClaimKind.CONFIDENCE_ASSESSMENT,
                    id=maybe_id("C"),
                    children=tuple(facets),
                    rows=tuple(rows()),
                )
            )
        children.append(
            ClaimNode(
                kind=ClaimKind.SATISFACTION,
                id=maybe_id("S"),
                children=tuple(grandchildren),
                rows=tuple(rows()),
            )
        )
    return ClaimNode(
        kind=ClaimKind.TOP_CLAIM,
        id=claim_id,
        criterion_id=criterion_id,
        children=tuple(children),
        rows=tuple(rows()),
    )


@st.composite
def safety_cases(draw) -> SafetyCase:
    context = ContextBlock(
        **{name: draw(text_values) for name in ContextBlock.FIELDS}
    )
    hazards = []
    for index in range(draw(st.integers(min_value=1, max_value=3))):
        primary = draw(st.sampled_from(list(HazardCategory)))
        secondary = draw(
            st.sets(
                st.sampled_from([c for c in HazardCategory if c is not primary]),
                max_size=2,
            )
        )
        hazards.append(
            Hazard(
                id=f"H{index + 1}",
                description=draw(text_values),
                primary_category=primary,
                secondary_categories=frozenset(secondary),
            )
        )
    indicators = [
        Indicator(
            id=f"I{index + 1}",
            description=draw(text_values),
            causal_stage=draw(st.sampled_from(list(CausalStage))),
        )
        for index in range(draw(st.integers(min_value=0, max_value=2)))
    ]
    methodologies = []
    for index in range(draw(st.integers(min_value=1, max_value=3))):
        region = draw(st.none() | regions())
        categories = draw(
            st.sets(st.sampled_from(list(HazardCategory)), max_size=3)
        )
        if region is not None:
            categories = set(categories) | {HazardCategory.BEHAVIORAL}
        methodologies.append(
            Methodology(
                id=f"M{index + 1}",
                name=draw(nonempty_text),
                hazard_categories=frozenset(categories),
                region=region,
            )
        )
    criteria = []
    for index in range(draw(st.integers(min_value=0, max_value=3))):
        region = draw(st.none() | regions())
        if region is not None:
            aggregation = draw(st.sampled_from(sorted(region.aggregations, key=lambda a: a.value)))
        else:
            aggregation = draw(st.sampled_from(list(AggregationLevel)))
        criteria.append(
            AcceptanceCriterion(
                id=f"AC{index + 1}",
                statement=draw(nonempty_text),
                hazard_ids=draw(_nonempty_subset([h.id for h in hazards])),
                methodology_id=draw(st.sampled_from([m.id for m in methodologies])),
                aggregation=aggregation,
                indicator_ids=frozenset(
                    draw(
                        st.sets(
                            st.sampled_from([i.id for i in indicators]),
                            max_size=len(indicators),
                        )
                    )
                    if indicators
                    else set()
                ),
                region=region,
                target=draw(st.none() | targets()),
            )
        )
    evidence = [
        Evidence(
            id=f"E{index + 1}",
            methodology_id=draw(st.sampled_from([m.id for m in methodologies])),
            kind=draw(text_values),
            uri=draw(text_values),
            strength=draw(st.sampled_from(list(EvidenceStrength))),
        )
        for index in range(draw(st.integers(min_value=0, max_value=3)))
    ]
    evidence_ids = [e.id for e in evidence]
    claims = []
    if criteria:
        for index in range(draw(st.integers(min_value=0, max_value=len(criteria)))):
            claims.append(
                draw(
                    claim_trees(
                        claim_id=f"C{index + 1}",
                        criterion_id=draw(st.sampled_from([c.id for c in criteria])),
                        evidence_ids=evidence_ids,
                    )
                )
            )
    return SafetyCase(
        id=draw(text_values),
        context=context,
        hazards=tuple(hazards),
        methodologies=tuple(methodologies),
        indicators=tuple(indicators),
        criteria=tuple(criteria),
        evidence=tuple(evidence),
        claims=tuple(claims),
    )


# -- claim trees against the one namespace and the depth limit -------------


def facet_chain(length: int) -> ClaimNode:
    """`length` facets, each the one child of the one above it; the last
    holds one argument row."""
    node = ClaimNode(
        kind=ClaimKind.FACET,
        facet_label="Depth",
        rows=(ArgumentRow(label="F.1", argument="deepest"),),
    )
    for _ in range(length - 1):
        node = ClaimNode(kind=ClaimKind.FACET, facet_label="Depth", children=(node,))
    return node


REPEATED_LABELS = ("A.1", "A.2", "D.1")  # row labels that meet each other


@st.composite
def varied_claims(draw, case: SafetyCase) -> tuple[ClaimNode, ...]:
    """`case`'s claims, one tree of them changed in ways `ClaimNode` allows
    and a `SafetyCase` may refuse: a subclaim takes an element id, a claim
    key, a row key or a fresh id as its own; row labels are drawn from a
    few that repeat; and a chain of 60 to 70 facets joins the tree's
    confidence assessment.  Each identifier drawn is one the format can write."""
    index = draw(st.integers(0, len(case.claims) - 1))
    root = case.claims[index]
    names = [element.id for _, name in ELEMENTS for element in getattr(case, name)]
    names += [key for _, key in iter_claim_nodes(root)]
    names += [key for _, key, _, _ in iter_rows(root)]
    names.append("X1")
    renamed = draw(st.none() | st.sampled_from([node for node, _ in iter_claim_nodes(root)][1:]))
    new_id = draw(st.sampled_from(names))
    relabel = draw(st.booleans())
    chain = draw(st.none() | st.integers(60, 70))

    def vary(node: ClaimNode) -> ClaimNode:
        rows = node.rows
        if relabel:
            rows = tuple(row.replace(label=draw(st.sampled_from(REPEATED_LABELS))) for row in rows)
        children = tuple(vary(child) for child in node.children)
        if chain is not None and node.kind is ClaimKind.CONFIDENCE_ASSESSMENT:
            children += (facet_chain(chain),)
        node_id = new_id if node is renamed else node.id
        return node.replace(id=node_id, children=children, rows=rows)

    claims = list(case.claims)
    claims[index] = vary(root)
    return tuple(claims)


# -- exposure ledgers for the golden case ------------------------------------

GOLDEN_EVENT = "injury-causing collision"  # what its one rate-bound target counts
LEDGER_RELEASES = ("2024.1.0", "2024.2.0", "2024.3.1", "2025.1.0")
UNNAMED_EVENTS = ("near miss", "hard brake")  # named by no target of the golden case


@st.composite
def ledger_rows(draw) -> list[tuple[str, ...]]:
    """The rows of a well-formed exposure ledger for the golden case, in
    `LEDGER_COLUMNS` order, header aside.  One to four releases, each in one
    or both phases; each (release, phase) has one exposure and unit, usually
    the target's "mi", and a count for one or more definitions, usually
    including the target's own."""
    rows = []
    releases = st.lists(st.sampled_from(LEDGER_RELEASES), min_size=1, max_size=4, unique=True)
    phases = st.lists(st.sampled_from(("predicted", "observed")), min_size=1, unique=True)
    for release in draw(releases):
        for phase in draw(phases):
            exposure = repr(draw(st.floats(1e3, 1e8)))
            unit = draw(st.sampled_from(("mi", "mi", "mi", "km")))
            named = draw(st.sampled_from((True, True, True, False)))
            others = draw(st.lists(st.sampled_from(UNNAMED_EVENTS), max_size=2, unique=True))
            definitions = [GOLDEN_EVENT] * named + others or [UNNAMED_EVENTS[0]]
            for definition in definitions:
                count = str(draw(st.integers(0, 20)))
                rows.append((release, phase, exposure, unit, definition, count))
    return rows


def ledger_text(rows) -> str:
    lines = [",".join(LEDGER_COLUMNS), *(",".join(row) for row in rows)]
    return "\n".join(lines) + "\n"


# -- seeded corpora of texts -------------------------------------------------


def fuzz_texts(seed: int, count: int):
    """Short random texts over `FUZZ_ALPHABET`, some after the start of a case."""
    rng = random.Random(seed)
    for _ in range(count):
        body = "".join(rng.choice(FUZZ_ALPHABET) for _ in range(rng.randrange(0, 40)))
        yield rng.choice(FUZZ_PREFIXES) + body


def golden_char_edits(seed: int, count: int) -> list[str]:
    """`golden_cat.aur` with one to three edits each: a few characters
    deleted, or one from `FUZZ_ALPHABET` inserted."""
    golden = GOLDEN.read_text(encoding="utf-8")
    rng = random.Random(seed)
    texts = []
    for _ in range(count):
        text = golden
        for _ in range(rng.randrange(1, 4)):
            at = rng.randrange(len(text) + 1)
            if rng.random() < 0.5:
                text = text[:at] + text[at + rng.randrange(1, 8) :]
            else:
                text = text[:at] + rng.choice(FUZZ_ALPHABET) + text[at:]
        texts.append(text)
    return texts


def golden_line_edits(seed: int, count: int) -> list[str]:
    """`golden_cat.aur` with one to three whole-line edits each: a line
    dropped, doubled, reindented, split at a blank, or followed by a
    comment.  Many edits keep the case parseable and move its tokens."""
    golden = GOLDEN.read_text(encoding="utf-8")
    rng = random.Random(seed)
    texts = []
    for _ in range(count):
        lines = golden.splitlines(keepends=True)
        for _ in range(rng.randrange(1, 4)):
            at = rng.randrange(len(lines))
            line = lines[at]
            edit = rng.randrange(5)
            if edit == 0:
                del lines[at]
            elif edit == 1:
                lines.insert(at, line)
            elif edit == 2:
                indent = "".join(rng.choice(" \t") for _ in range(rng.randrange(0, 9)))
                lines[at] = indent + line.lstrip(" ")
            elif edit == 3 and " " in line.strip():
                blanks = [i for i, ch in enumerate(line) if ch == " " and line[:i].strip()]
                cut = rng.choice(blanks)
                lines[at] = line[:cut] + "\n" + " " * rng.randrange(0, 7) + line[cut + 1 :]
            else:
                lines[at] = line.rstrip("\n") + " # edited\n"
        texts.append("".join(lines))
    return texts
