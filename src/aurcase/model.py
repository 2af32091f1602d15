"""Core domain model for ADS safety cases.

Pure, immutable data types: hazards, methodologies, indicators, acceptance
criteria with validation targets, claim trees with argument rows, and
evidence.  Construction enforces local invariants (identifier uniqueness,
enum membership, claim-tree shape); cross-reference resolution is a separate
check (`resolve_references`) so that a draft case with dangling references
can still be represented and reported on.

No parsing or I/O lives here.
"""

from __future__ import annotations

import enum
import functools
import sys
from itertools import chain, repeat
from math import isfinite
from operator import attrgetter
from types import MappingProxyType
from typing import Iterator, Mapping


class IdentityEnum(enum.Enum):
    """The base of every plain (not integer) enum of the package.  Members
    compare by identity, so they hash by identity too: `enum.Enum` hashes
    by name in Python code, once per set, dict or `Cell` lookup."""

    __hash__ = object.__hash__


class HazardCategory(IdentityEnum):
    """The three hazard categories a safety case decomposes risk into."""

    ARCHITECTURAL = "architectural"
    BEHAVIORAL = "behavioral"
    IN_SERVICE_OPERATIONAL = "in_service_operational"


class CausalStage(enum.IntEnum):
    """Ordered stages on the causal chain, from scenario triggering
    conditions through to the manifestation of harm."""

    TRIGGERING_CONDITION = 0
    HAZARDOUS_BEHAVIOR = 1
    HAZARD = 2
    HAZARDOUS_EVENT = 3
    HARM = 4


class IndicatorKind(IdentityEnum):
    LEADING = "leading"
    LAGGING = "lagging"


class SeverityLevel(enum.IntEnum):
    """Discretized severity potential, S0 (lowest) through S3 (highest)."""

    S0 = 0
    S1 = 1
    S2 = 2
    S3 = 3


class ConflictRole(IdentityEnum):
    INITIATOR = "initiator"
    RESPONDER = "responder"


class BehavioralCapability(IdentityEnum):
    REGULATORY_COMPLIANCE = "regulatory_compliance"
    CONFLICT_AVOIDANCE = "conflict_avoidance"
    COLLISION_AVOIDANCE = "collision_avoidance"


class FunctionalityStatus(IdentityEnum):
    NOMINAL = "nominal"
    DEGRADED = "degraded"


class AggregationLevel(IdentityEnum):
    EVENT_LEVEL = "event_level"
    AGGREGATE_LEVEL = "aggregate_level"


class EvidenceStrength(IdentityEnum):
    STRONG = "strong"
    WEAK = "weak"


class TargetKind(IdentityEnum):
    QUALITATIVE = "qualitative"
    RATE_BOUND = "rate_bound"


class ClaimKind(IdentityEnum):
    TOP_CLAIM = "top_claim"
    REASONABLENESS = "reasonableness"
    SATISFACTION = "satisfaction"
    COVERAGE_ASSESSMENT = "coverage_assessment"
    CONFIDENCE_ASSESSMENT = "confidence_assessment"
    FACET = "facet"


# Which claim kinds may appear as direct children of which parent kind.
# Depth below facets is unconstrained, so a facet may nest facets.
_ALLOWED_CHILDREN: dict[ClaimKind, frozenset[ClaimKind]] = {
    ClaimKind.TOP_CLAIM: frozenset({ClaimKind.REASONABLENESS, ClaimKind.SATISFACTION}),
    ClaimKind.REASONABLENESS: frozenset(),
    ClaimKind.SATISFACTION: frozenset(
        {ClaimKind.COVERAGE_ASSESSMENT, ClaimKind.CONFIDENCE_ASSESSMENT}
    ),
    ClaimKind.COVERAGE_ASSESSMENT: frozenset(),
    ClaimKind.CONFIDENCE_ASSESSMENT: frozenset({ClaimKind.FACET}),
    ClaimKind.FACET: frozenset({ClaimKind.FACET}),
}

ELEMENTS: tuple[tuple[str, str], ...] = (
    ("hazard", "hazards"),
    ("methodology", "methodologies"),
    ("indicator", "indicators"),
    ("criterion", "criteria"),
    ("evidence", "evidence"),
    ("claim", "claims"),
)
"""The elements a case is built from, in document order, each as its
keyword in the `.aur` format and the `SafetyCase` field that holds them;
claims come last.
The parser, the identifier and reference checks and the report's counts
read the collections from here; `dsl.serialize` writes them in this order."""

# DSL / ledger spellings for each enum, in canonical order.
STAGE_NAMES = {s.name.lower(): s for s in CausalStage}
CATEGORY_NAMES = {c.value: c for c in HazardCategory}

# The behavioral acceptance-criteria space, in canonical order: each
# dimension's name (a `Cell` field), its `AcSpaceRegion` field and its enum.
SPACE_DIMENSIONS: tuple[tuple[str, str, type[enum.Enum]], ...] = (
    ("severity", "severities", SeverityLevel),
    ("role", "roles", ConflictRole),
    ("capability", "capabilities", BehavioralCapability),
    ("status", "statuses", FunctionalityStatus),
    ("aggregation", "aggregations", AggregationLevel),
)


def value_name(member: enum.Enum) -> str:
    """A dimension value's spelling: a severity's name, any other's value."""
    return member.name if isinstance(member, SeverityLevel) else member.value


# Spelling -> member, per dimension, both in canonical order.
DIMENSION_NAMES: dict[str, dict[str, enum.Enum]] = {
    dim: {value_name(member): member for member in members}
    for dim, _, members in SPACE_DIMENSIONS
}


class ModelError(ValueError):
    """A constructed value violates a model invariant; `field_name` names
    the field at fault, where a check blames one.  Each check tests before
    it formats its message, since a parse builds every element."""

    def __init__(self, message: str, field_name: str = ""):
        super().__init__(message)
        self.field_name = field_name


EMPTY_MAPPING: Mapping = MappingProxyType({})  # the default of every mapping field


def _stored(name: str, annotation: object) -> str:
    """The expression the generated `__init__` stores for field `name`."""
    collection = str(annotation).partition("[")[0]
    return f"{collection}({name})" if collection in ("tuple", "frozenset", "dict") else name


class Record:
    """An immutable value, compared, hashed and printed by its `FIELDS`, the
    names a subclass annotates (defaults, shared so immutable, last); its
    `__init__` sets them and calls any `__post_init__`, as `replace` does.
    A field annotated `tuple[...]` or `frozenset[...]` is stored as one,
    whatever iterable it is given; a tuple or frozenset is kept as is.  A
    field annotated `dict[...]` is stored as a new dict, a copy of the
    mapping given."""

    FIELDS: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        own = cls.__dict__
        annotations = own.get("__annotations__", {})
        names = tuple(annotations)
        defaults = tuple(own[name] for name in names if name in own)
        last = names[len(names) - len(defaults) :]
        if any(name not in own or isinstance(own[name], (list, dict, set)) for name in last):
            raise TypeError(f"{cls.__name__}: defaults must be immutable and come last")
        # One generated `__init__` per class, as `collections.namedtuple` does.
        body = "".join(
            f"\n _setattr(self, {name!r}, {_stored(name, annotations[name])})" for name in names
        )
        post = "\n self.__post_init__()" if hasattr(cls, "__post_init__") else ""
        namespace = {"_setattr": object.__setattr__}
        exec(f"def __init__(self, {', '.join(names)}):{body}{post}", namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__defaults__ = defaults or None
        cls.FIELDS = names
        cls._values = attrgetter(*names)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        values = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.FIELDS)
        return f"{self.__class__.__qualname__}({values})"

    def __setattr__(self, name: str, *_value: object) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def replace(self, **changes):
        return self.__class__(**{name: getattr(self, name) for name in self.FIELDS} | changes)


class Cell(Record):
    """One point of the discretized behavioral acceptance-criteria space."""

    severity: SeverityLevel
    role: ConflictRole
    capability: BehavioralCapability
    status: FunctionalityStatus
    aggregation: AggregationLevel

    def __str__(self) -> str:
        names = (value_name(getattr(self, dim)) for dim, _, _ in SPACE_DIMENSIONS)
        return f"({', '.join(names)})"


class AcSpaceRegion(Record):
    """A rectangular subset of the 5D acceptance-criteria space.

    As the format writes one, a region has at least one value in each
    dimension and one contiguous severity range (`S1..S3`); any other
    raises `ModelError`.  As the format's `weak(...)` does,
    `weak_severities` marks the severity slices of the region where only
    weak signal is available; each must be one of its `severities`.
    """

    severities: frozenset[SeverityLevel]
    roles: frozenset[ConflictRole]
    capabilities: frozenset[BehavioralCapability]
    statuses: frozenset[FunctionalityStatus]
    aggregations: frozenset[AggregationLevel]
    weak_severities: frozenset[SeverityLevel] = frozenset()

    def __post_init__(self) -> None:
        for dim, attribute, _ in SPACE_DIMENSIONS:
            if not getattr(self, attribute):
                raise ModelError(f"region has no {dim} value", attribute)
        levels = self.severities
        if len(levels) != max(levels) - min(levels) + 1:
            raise ModelError("region severities are not one contiguous range", "severities")
        if not self.weak_severities <= levels:
            raise ModelError(
                "weak_severities must be a subset of the region's severities", "weak_severities"
            )

    @property
    def dimension_sets(self) -> dict[str, frozenset]:
        return {dim: getattr(self, attribute) for dim, attribute, _ in SPACE_DIMENSIONS}


class ContextBlock(Record):
    """Operational context the whole case is scoped to.

    The four lifecycle fields (vehicle configuration, operational
    configuration, ODD selection, deployment scale) must be non-empty once
    a case is reviewed as release-ready; drafts may leave them blank.
    """

    use_case: str = ""
    vehicle_configuration: str = ""
    operational_configuration: str = ""
    odd_selection: str = ""
    deployment_scale: str = ""
    platform: str = ""
    release: str = ""

    # The fields a review-ready case may not leave blank.
    LIFECYCLE_FIELDS = (
        "vehicle_configuration",
        "operational_configuration",
        "odd_selection",
        "deployment_scale",
    )


class Hazard(Record):
    """An identified hazard and the categories it counts under."""

    id: str
    description: str
    primary_category: HazardCategory
    secondary_categories: frozenset[HazardCategory] = frozenset()

    def __post_init__(self) -> None:
        if self.primary_category in self.secondary_categories:
            raise ModelError(
                f"hazard {self.id}: primary category repeated in secondary categories"
            )

    @property
    def categories(self) -> frozenset[HazardCategory]:
        """All categories the hazard carries; it counts under each of them."""
        return self.secondary_categories | {self.primary_category}


class Indicator(Record):
    """A safety indicator, placed on the causal chain."""

    id: str
    description: str
    causal_stage: CausalStage


class Methodology(Record):
    """A validation methodology, its hazard categories and, for
    behavioral ones, the region of the criteria space it addresses."""

    id: str
    name: str
    hazard_categories: frozenset[HazardCategory] = frozenset()
    region: AcSpaceRegion | None = None

    def __post_init__(self) -> None:
        if self.region is not None and HazardCategory.BEHAVIORAL not in self.hazard_categories:
            raise ModelError(
                f"methodology {self.id}: an acceptance-criteria region is only "
                "defined for the behavioral hazard category"
            )


class ValidationTarget(Record):
    """The value against which satisfaction of a criterion is judged.

    A rate bound caps the event rate (events per `exposure_unit`) that may
    be claimed at the stated one-sided confidence level.
    """

    kind: TargetKind
    description: str = ""
    event_definition: str = ""
    max_rate: float = 0.0
    exposure_unit: str = ""
    confidence: float = 0.0

    def __post_init__(self) -> None:
        if self.kind is not TargetKind.RATE_BOUND:
            return
        for met, field_name, rule in (
            (self.max_rate > 0, "max_rate", "be > 0"),
            (isfinite(self.max_rate), "max_rate", "be finite"),
            (0.0 < self.confidence < 1.0, "confidence", "lie in (0, 1)"),
            (bool(self.event_definition), "event_definition", "be non-empty"),
            (bool(self.exposure_unit), "exposure_unit", "be non-empty"),
        ):
            if not met:
                raise ModelError(f"rate_bound target: {field_name} must {rule}", field_name)


class AcceptanceCriterion(Record):
    """An acceptance criterion: the hazards it covers, the methodology
    that validates it, and its region and target."""

    id: str
    statement: str
    hazard_ids: frozenset[str]
    methodology_id: str
    aggregation: AggregationLevel
    indicator_ids: frozenset[str] = frozenset()
    region: AcSpaceRegion | None = None
    target: ValidationTarget | None = None

    def __post_init__(self) -> None:
        if not self.hazard_ids:
            raise ModelError(f"criterion {self.id}: must cover at least one identified hazard")
        if self.region is not None and self.aggregation not in self.region.aggregations:
            raise ModelError(
                f"criterion {self.id}: aggregation level {self.aggregation.value} "
                "is outside the criterion's own region"
            )


class ArgumentRow(Record):
    """One row of the tabular argument: the argument text, the evidence it
    cites, and the self-critical columns (limitations, counter-argument)."""

    label: str
    argument: str
    evidence_ids: frozenset[str] = frozenset()
    limitations: str = ""
    counter_argument: str = ""

    def __post_init__(self) -> None:
        if not self.argument:
            raise ModelError(f"argument row {self.label}: text must be non-empty")


class ClaimNode(Record):
    """A node of the claim tree.

    Roots are `top_claim` nodes bound to exactly one acceptance criterion.
    Coverage/confidence assessments sit directly beneath a satisfaction
    subclaim, facets directly beneath a confidence assessment (or another
    facet); each node carries its argument rows.
    """

    kind: ClaimKind
    id: str = ""
    criterion_id: str = ""
    facet_label: str = ""
    children: tuple[ClaimNode, ...] = ()
    rows: tuple[ArgumentRow, ...] = ()

    def __post_init__(self) -> None:
        kind = self.kind
        if kind is ClaimKind.TOP_CLAIM:
            if not self.id:
                raise ModelError("a top claim must carry an identifier")
            if not self.criterion_id:
                raise ModelError(
                    f"top claim {self.id}: must reference exactly one acceptance criterion"
                )
        elif self.criterion_id:
            raise ModelError(
                f"claim node {self._where}: only a top claim references a criterion"
            )
        if kind is ClaimKind.FACET:
            if not self.facet_label:
                raise ModelError(f"facet {self._where}: label must be non-empty")
        elif self.facet_label:
            raise ModelError(f"claim node {self._where}: only facets carry a facet label")
        allowed = _ALLOWED_CHILDREN[kind]
        for child in self.children:
            if child.kind not in allowed:
                raise ModelError(
                    f"claim node {self._where}: a {child.kind.value} node cannot sit "
                    f"beneath a {kind.value} node"
                )

    @property
    def _where(self) -> str:
        return self.id or self.kind.value

    def child_of_kind(self, kind: ClaimKind) -> ClaimNode | None:
        for child in self.children:
            if child.kind is kind:
                return child
        return None

    @functools.cached_property
    def _walk(self) -> tuple[str, list[str], list, list]:
        # The tree walked once, with this node as its root, and kept in the
        # instance __dict__ (not a field), as `SafetyCase._reference_findings`
        # is: the root's key, its own row keys, then the `iter_claim_nodes`
        # and `iter_rows` entries below it.  No entry holds the root, so the
        # tree stays acyclic and reference counting alone frees it.
        key = self.id or self.kind.value
        seen: dict[str, int] = {}
        own_row_keys = [row_key(key, row.label, seen) for row in self.rows]
        nodes: list[tuple[ClaimNode, str]] = []
        rows: list[tuple[ArgumentRow, str, ClaimNode, str]] = []
        _walk_below(self, key, nodes, rows)
        return key, own_row_keys, nodes, rows


class Evidence(Record):
    """An evidence item produced by a methodology."""

    id: str
    methodology_id: str
    kind: str
    uri: str
    strength: EvidenceStrength


class SafetyCase(Record):
    """The root document.

    Top-level collections are stored sorted by identifier so that two cases
    with the same content compare equal regardless of declaration order.
    Identifier uniqueness (including claim-node ids) is enforced here;
    cross-reference resolution is checked by `resolve_references`.
    """

    id: str
    context: ContextBlock = ContextBlock()
    hazards: tuple[Hazard, ...] = ()
    methodologies: tuple[Methodology, ...] = ()
    indicators: tuple[Indicator, ...] = ()
    criteria: tuple[AcceptanceCriterion, ...] = ()
    evidence: tuple[Evidence, ...] = ()
    claims: tuple[ClaimNode, ...] = ()

    def __post_init__(self) -> None:
        by_id = attrgetter("id")
        for _, name in ELEMENTS:
            object.__setattr__(self, name, tuple(sorted(getattr(self, name), key=by_id)))
        for root in self.claims:
            if root.kind is not ClaimKind.TOP_CLAIM:
                raise ModelError(f"claim {root._where}: only top claims may be roots")
        seen: set[str] = set()
        for element_id in self._all_ids():
            if element_id in seen:
                raise ModelError(f"duplicate identifier {element_id}")
            seen.add(element_id)

    def _all_ids(self) -> Iterator[str]:
        for _, name in ELEMENTS[:-1]:
            yield from (element.id for element in getattr(self, name))
        for root in self.claims:
            yield from (node.id for node, _key in iter_claim_nodes(root) if node.id)

    @functools.cached_property
    def _reference_findings(self) -> tuple[ReferenceFinding, ...]:
        # In the instance __dict__, past `__setattr__`; the fields never change.
        ids = {
            keyword: {e.id for e in getattr(self, name)}
            for keyword, name in ELEMENTS
            if keyword in REFERENCE_NOUNS.values()
        }
        findings: list[ReferenceFinding] = []

        def check(referrer: str, field_name: str, refs) -> None:
            missing = refs - ids[REFERENCE_NOUNS[field_name]]
            if missing:
                findings.extend(ReferenceFinding(referrer, field_name, r) for r in sorted(missing))

        for criterion in self.criteria:
            check(criterion.id, "hazard_ids", criterion.hazard_ids)
            check(criterion.id, "methodology_id", {criterion.methodology_id})
            check(criterion.id, "indicator_ids", criterion.indicator_ids)
        for item in self.evidence:
            check(item.id, "methodology_id", {item.methodology_id})
        for root in self.claims:
            check(root.id, "criterion_id", {root.criterion_id})
            for row, row_key, _node, _node_key in iter_rows(root):
                check(row_key, "evidence_ids", row.evidence_ids)
        return tuple(findings)

    def hazard_map(self) -> dict[str, Hazard]:
        return {h.id: h for h in self.hazards}


class ReferenceFinding(Record):
    """A cross-reference that does not resolve: who referred, through which
    field, to which missing identifier."""

    referrer: str
    field: str
    missing: str


# The element keyword (see `ELEMENTS`) each reference field points at.
REFERENCE_NOUNS = {
    "hazard_ids": "hazard",
    "methodology_id": "methodology",
    "indicator_ids": "indicator",
    "criterion_id": "criterion",
    "evidence_ids": "evidence",
}


def classify_indicator(stage: CausalStage) -> IndicatorKind:
    """Classify an indicator by its position on the causal chain.

    Only indicators at the harm-manifestation end of the chain (collision
    counts and the like) are lagging; everything earlier leads the risk.
    """
    return IndicatorKind.LAGGING if stage is CausalStage.HARM else IndicatorKind.LEADING


# Span-index keys of the case header, the context block and (`:context.<field>`)
# its fields: no identifier, claim key or row key starts with a colon.
CASE_SPAN = ":safety_case"
CONTEXT_SPAN = ":context"


def node_key(parent_key: str, ordinal: int, node_id: str) -> str:
    """The key of a claim node: its explicit id when it has one, otherwise
    `<parent key>.<ordinal>`, by its 1-based position among its siblings.

    The parser and the rule engine both spell keys here, so diagnostics
    and source spans line up.  A derived key is interned, so the parser's
    span index and the walk kept on the root share one string per key.
    """
    return node_id or sys.intern(f"{parent_key}.{ordinal}")


def row_key(node_key: str, label: str, seen: dict[str, int]) -> str:
    """The key of the next argument row labelled `label` under the node
    keyed `node_key`: `<node key>.<label>`, with `@n` added for the n-th
    row of a label that repeats.  `seen` counts the labels met so far
    under that node, and this row is added to it.  The key is interned,
    as `node_key` interns a derived key.
    """
    count = seen.get(label, 0) + 1
    seen[label] = count
    return sys.intern(f"{node_key}.{label}@{count}" if count > 1 else f"{node_key}.{label}")


def _walk_below(
    parent: ClaimNode,
    parent_key: str,
    nodes: list[tuple[ClaimNode, str]],
    rows: list[tuple[ArgumentRow, str, ClaimNode, str]],
) -> None:
    """Append the descendants of `parent` depth-first to `nodes`, each
    node's rows to `rows` ahead of its own descendants'."""
    for ordinal, node in enumerate(parent.children, start=1):
        key = node_key(parent_key, ordinal, node.id)
        nodes.append((node, key))
        if node.rows:
            seen: dict[str, int] = {}
            rows += [(row, row_key(key, row.label, seen), node, key) for row in node.rows]
        _walk_below(node, key, nodes, rows)


def iter_claim_nodes(root: ClaimNode) -> Iterator[tuple[ClaimNode, str]]:
    """(node, key) over a claim tree, depth-first from `root`, whose key is
    its id or else its kind; see `node_key`.  Every call reads the one walk
    kept on `root`."""
    key, _row_keys, nodes, _rows = root._walk
    return chain(((root, key),), nodes)


def iter_rows(root: ClaimNode) -> Iterator[tuple[ArgumentRow, str, ClaimNode, str]]:
    """(row, row key, owning node, node key) over a claim tree, node by
    node in `iter_claim_nodes` order; see `row_key`."""
    key, row_keys, _nodes, rows = root._walk
    return chain(zip(root.rows, row_keys, repeat(root), repeat(key)), rows)


def resolve_references(case: SafetyCase) -> list[ReferenceFinding]:
    """Check every cross-reference in the case; return findings for those
    that name no existing element.

    An empty result is the precondition for every downstream analysis:
    analyses given an unresolved case refuse rather than guess.  The case
    is immutable, so the findings are computed once per case; each call
    returns a fresh list of them.
    """
    return list(case._reference_findings)


class UnresolvedCaseError(ValueError):
    """Raised when an analysis requiring a resolved case is handed one with
    dangling references."""

    def __init__(self, findings: list[ReferenceFinding]):
        self.findings = findings
        preview = ", ".join(
            f"{f.referrer}.{f.field} -> {f.missing}" for f in findings[:3]
        )
        more = "" if len(findings) <= 3 else f" (+{len(findings) - 3} more)"
        super().__init__(f"case has {len(findings)} unresolved reference(s): {preview}{more}")


def require_resolved(case: SafetyCase) -> None:
    """Refuse (raise `UnresolvedCaseError`) unless every reference resolves."""
    findings = resolve_references(case)
    if findings:
        raise UnresolvedCaseError(findings)
