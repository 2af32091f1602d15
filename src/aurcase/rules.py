"""Structural credibility rules over a parsed safety case.

Every rule has a stable identifier, whose letter gives its default
severity: an `E` rule is an error, a `W` rule a warning.  A `RuleConfig`
can re-grade or disable individual rules without affecting any other
rule's findings.  It checks every value it is given, so `parse_config`
names the line of each bad value.  Two identifiers are owned by the
parser and listed here for the catalog only: E010 (duplicate identifier)
and E013 (syntax error) abort parsing, so `validate` never sees a case
that could trigger them.

`validate` is a pure function of its inputs: the same case and config
always produce the same diagnostics in the same order.
"""

from __future__ import annotations

from typing import Mapping

from . import coverage as coverage_mod
from .diagnostics import (
    Diagnostic,
    Severity,
    SourceSpan,
    dangling_references,
    sort_diagnostics,
)
from .model import (
    CASE_SPAN,
    CONTEXT_SPAN,
    EMPTY_MAPPING,
    ClaimKind,
    ContextBlock,
    Record,
    SafetyCase,
    iter_claim_nodes,
    iter_rows,
    resolve_references,
)

E006_SCOPE_ALL = "all"
E006_SCOPE_SKIP_REASONABLENESS = "skip_reasonableness"
_E006_SCOPES = (E006_SCOPE_ALL, E006_SCOPE_SKIP_REASONABLENESS)
_SEVERITY_OVERRIDES = (*(severity.value for severity in Severity), "off")


class RuleInfo(Record):
    """Catalog entry: stable id, title, and the rationale the rule is
    grounded in.  The id's letter gives the default severity."""

    rule_id: str
    title: str
    rationale: str

    @property
    def default_severity(self) -> Severity:
        return Severity.ERROR if self.rule_id.startswith("E") else Severity.WARNING


_CATALOG: tuple[RuleInfo, ...] = (
    RuleInfo(
        "E001",
        "case declares no acceptance criteria",
        "a safety determination needs explicit acceptance criteria; with none "
        "declared, no argumentation is possible at all",
    ),
    RuleInfo(
        "E002",
        "top claim lacks a reasonableness subclaim",
        "each top claim must justify that its stated acceptance criterion is a "
        "reasonable one, starting from the indicators it is predicated upon",
    ),
    RuleInfo(
        "E003",
        "top claim lacks a satisfaction subclaim",
        "each top claim must argue that credible evidence shows the stated "
        "acceptance criterion is met",
    ),
    RuleInfo(
        "E004",
        "satisfaction subclaim lacks a coverage assessment",
        "evidence credibility rests on a coverage assessment of analysis "
        "breadth alongside the confidence assessment",
    ),
    RuleInfo(
        "E005",
        "satisfaction subclaim lacks a confidence assessment",
        "evidence credibility rests on a confidence assessment of evidence "
        "rigor alongside the coverage assessment",
    ),
    RuleInfo(
        "E006",
        "argument row cites no evidence",
        "an argument is only as credible as the evidence it links to",
    ),
    RuleInfo(
        "E007",
        "hazard traces to no acceptance criterion",
        "traceability must link every identified hazard to at least one "
        "acceptance criterion defined for the system",
    ),
    RuleInfo(
        "E008",
        "analysis refused: unresolved references",
        "analyses assume a reference-resolved case; refusing is safer than "
        "computing over missing elements",
    ),
    RuleInfo(
        "E009",
        "dangling reference",
        "a cross-reference to a missing element breaks the traceability the "
        "case is meant to demonstrate",
    ),
    RuleInfo(
        "E010",
        "duplicate identifier",
        "ambiguous identifiers make a case unauditable; declarations must be "
        "unique",
    ),
    RuleInfo(
        "E011",
        "review-ready case has incomplete context",
        "a readiness determination is grounded in the vehicle configuration, "
        "operational configuration, ODD selection, and sought deployment scale",
    ),
    RuleInfo(
        "E012",
        "acceptance criterion has no top claim",
        "a criterion nobody claims anything about contributes nothing to the "
        "argument",
    ),
    RuleInfo(
        "E013",
        "syntax error",
        "the document must parse before its structure can be assessed",
    ),
    RuleInfo(
        "W101",
        "argument row states no counter-argument",
        "counter-arguments name the rejected alternatives and pressure-test "
        "the argument against confirmation bias",
    ),
    RuleInfo(
        "W102",
        "argument row states no limitations",
        "a statement of limitations and scope keeps a consistent, formal "
        "argument from overselling actual performance",
    ),
    RuleInfo(
        "W103",
        "orphan evidence",
        "evidence that no argument cites suggests an incomplete or stale "
        "argument",
    ),
    RuleInfo(
        "W104",
        "behavioral criteria are aggregate-level only",
        "aggregate rates considered in isolation can miss risk posed in "
        "individual scenarios",
    ),
    RuleInfo(
        "W105",
        "behavioral criteria are event-level only",
        "event-level instances alone preclude a holistic assessment of "
        "residual risk",
    ),
    RuleInfo(
        "W106",
        "coverage below configured threshold",
        "the behavioral criteria space must reach appropriate coverage before "
        "its gaps can be accepted knowingly",
    ),
    RuleInfo(
        "W107",
        "confidence assessment missing required facet",
        "confidence assessments decompose into named facets (scoring "
        "confidence, tool qualification, benchmark validity, ...); projects "
        "may require specific ones",
    ),
)

_CATALOG_BY_ID = {info.rule_id: info for info in _CATALOG}


def rule_catalog() -> tuple[RuleInfo, ...]:
    """The complete rule registry, in stable order."""
    return _CATALOG


class RuleConfig(Record):
    """Per-run rule configuration.

    `severity_overrides` maps rule ids to "error", "warning", or "off";
    an override never adds or removes findings (except "off", which drops
    that rule's findings entirely and nothing else).
    """

    severity_overrides: dict[str, str] = EMPTY_MAPPING
    required_facets: frozenset[str] = frozenset()
    review_ready: bool = False
    require_resolved: bool = False
    coverage_threshold: float | None = None
    e006_scope: str = E006_SCOPE_ALL

    def __post_init__(self) -> None:
        for rule_id, value in self.severity_overrides.items():
            if rule_id not in _CATALOG_BY_ID:
                raise ValueError(f"severity override for unregistered rule {rule_id!r}")
            if value not in _SEVERITY_OVERRIDES:
                raise ValueError(
                    f"severity for {rule_id} must be error, warning, or off; got {value!r}"
                )
        if self.e006_scope not in _E006_SCOPES:
            raise ValueError(
                f"rule.E006.scope must be {E006_SCOPE_ALL!r} or "
                f"{E006_SCOPE_SKIP_REASONABLENESS!r}; got {self.e006_scope!r}"
            )
        if self.coverage_threshold is not None and not (
            0.0 <= self.coverage_threshold <= 1.0
        ):
            raise ValueError("coverage threshold must lie in [0, 1]")

    def severity_of(self, rule_id: str) -> Severity | None:
        """Effective severity for a rule, or None when disabled."""
        override = self.severity_overrides.get(rule_id)
        if override == "off":
            return None
        return Severity(override) if override else _CATALOG_BY_ID[rule_id].default_severity


def parse_config(text: str, source: str = "<config>") -> RuleConfig:
    """Read the key=value rule configuration format.

    Recognized keys: `rule.<ID>.severity` (error|warning|off),
    `rule.E006.scope` (all|skip_reasonableness), `facets.required`
    (comma-separated labels), and `review_ready` (true|false).  A key set
    twice takes its later value; `facets.required` lines add up.  Every
    error names its line: each line's value is checked by `RuleConfig` as
    it is read.  One leading byte order mark is dropped.
    """
    config = RuleConfig()
    lines = text.removeprefix("\ufeff").splitlines()
    for line_no, raw_line in enumerate(lines, start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if "=" not in line:
                raise ValueError("expected key = value")
            key, _, value = (part.strip() for part in line.partition("="))
            if key == "facets.required":
                labels = filter(None, (label.strip() for label in value.split(",")))
                config = config.replace(required_facets=config.required_facets.union(labels))
            elif key == "review_ready":
                if value not in ("true", "false"):
                    raise ValueError(f"review_ready must be true or false; got {value!r}")
                config = config.replace(review_ready=value == "true")
            elif key == "rule.E006.scope":
                config = config.replace(e006_scope=value)
            elif key.startswith("rule.") and key.endswith(".severity"):
                rule_id = key[len("rule.") : -len(".severity")]
                if rule_id not in _CATALOG_BY_ID:
                    raise ValueError(f"unknown rule {rule_id!r}")
                overrides = {**config.severity_overrides, rule_id: value}
                config = config.replace(severity_overrides=overrides)
            else:
                raise ValueError(f"unknown configuration key {key!r}")
        except ValueError as exc:
            raise ValueError(f"{source}:{line_no}: {exc}") from exc
    return config


class _Context:
    """One `validate` run: its inputs and the findings so far."""

    def __init__(self, case: SafetyCase, config: RuleConfig, span_index, reference_spans) -> None:
        self.case, self.config = case, config
        self.span_index, self.reference_spans = span_index, reference_spans
        self.found: list[Diagnostic] = []

    def emit(
        self, rule_id: str, message: str, subject_id: str, span_key: str | None = None
    ) -> None:
        """Record a finding, spanned at `span_key`, by default its subject."""
        severity = self.config.severity_of(rule_id)
        if severity is None:
            return
        span = self.span_index.get(subject_id if span_key is None else span_key)
        self.found.append(
            Diagnostic(rule_id, severity, message, subject_id=subject_id, span=span)
        )

    def emit_for_case(self, rule_id: str, message: str) -> None:
        """Record a finding about the whole case, spanned at its header."""
        self.emit(rule_id, message, self.case.id, CASE_SPAN)


def validate(
    case: SafetyCase,
    config: RuleConfig | None = None,
    span_index: Mapping[str, SourceSpan] | None = None,
    reference_spans: Mapping[tuple[str, str, str], SourceSpan] | None = None,
) -> list[Diagnostic]:
    """Run every enabled rule; return diagnostics ordered by source
    position, severity, then rule id.

    With `config.require_resolved`, a case with dangling references gets a
    single E008 refusal instead of an analysis over missing elements.
    """
    config = config or RuleConfig()
    ctx = _Context(case, config, span_index or {}, reference_spans or {})
    findings = resolve_references(case)

    if findings and config.require_resolved:
        ctx.emit_for_case(
            "E008",
            f"analysis refused: case has {len(findings)} unresolved reference(s); "
            "resolve them and re-run",
        )
        return sort_diagnostics(ctx.found)

    dangling_severity = config.severity_of("E009")
    if dangling_severity is not None:
        ctx.found += dangling_references(
            findings, dangling_severity, ctx.reference_spans, ctx.span_index
        )

    _check_criteria_exist(ctx)
    _check_claim_structure(ctx)
    _check_rows(ctx)
    _check_hazard_traceability(ctx)
    _check_context(ctx)
    _check_claimless_criteria(ctx)
    _check_orphan_evidence(ctx)
    _check_aggregation_balance(ctx)
    if not findings:
        _check_coverage_threshold(ctx)
    return sort_diagnostics(ctx.found)


def _check_criteria_exist(ctx: _Context) -> None:
    if not ctx.case.criteria:
        ctx.emit_for_case(
            "E001",
            "no acceptance criteria declared: absence of unreasonable risk "
            "cannot be argued without at least one explicit criterion",
        )


def _check_claim_structure(ctx: _Context) -> None:
    for root in ctx.case.claims:
        if root.child_of_kind(ClaimKind.REASONABLENESS) is None:
            ctx.emit(
                "E002",
                f"top claim {root.id} lacks a reasonableness subclaim justifying "
                "its acceptance criterion",
                subject_id=root.id,
            )
        if root.child_of_kind(ClaimKind.SATISFACTION) is None:
            ctx.emit(
                "E003",
                f"top claim {root.id} lacks a satisfaction subclaim arguing the "
                "criterion is met by credible evidence",
                subject_id=root.id,
            )
        for node, key in iter_claim_nodes(root):
            if node.kind is ClaimKind.SATISFACTION:
                if node.child_of_kind(ClaimKind.COVERAGE_ASSESSMENT) is None:
                    ctx.emit(
                        "E004",
                        f"satisfaction subclaim {key} lacks a coverage assessment",
                        subject_id=key,
                    )
                if node.child_of_kind(ClaimKind.CONFIDENCE_ASSESSMENT) is None:
                    ctx.emit(
                        "E005",
                        f"satisfaction subclaim {key} lacks a confidence assessment",
                        subject_id=key,
                    )
            if node.kind is ClaimKind.CONFIDENCE_ASSESSMENT and ctx.config.required_facets:
                present = {
                    child.facet_label
                    for child in node.children
                    if child.kind is ClaimKind.FACET
                }
                for label in sorted(ctx.config.required_facets - present):
                    ctx.emit(
                        "W107",
                        f"confidence assessment {key} is missing required facet "
                        f"{label!r}",
                        subject_id=key,
                    )


def _check_rows(ctx: _Context) -> None:
    skip_reasonableness = ctx.config.e006_scope == E006_SCOPE_SKIP_REASONABLENESS
    for root in ctx.case.claims:
        # Reasonableness nodes have no children, so a row is under one
        # exactly when its owning node is one.
        for row, row_key, node, _node_key in iter_rows(root):
            exempt = skip_reasonableness and node.kind is ClaimKind.REASONABLENESS
            if not row.evidence_ids and not exempt:
                ctx.emit(
                    "E006",
                    f"argument row {row_key} cites no evidence",
                    subject_id=row_key,
                )
            if not row.counter_argument:
                ctx.emit(
                    "W101",
                    f"argument row {row_key} states no counter-argument (no "
                    "rejected alternatives recorded)",
                    subject_id=row_key,
                )
            if not row.limitations:
                ctx.emit(
                    "W102",
                    f"argument row {row_key} states no limitations or scope",
                    subject_id=row_key,
                )


def _check_hazard_traceability(ctx: _Context) -> None:
    covered: set[str] = set()
    for criterion in ctx.case.criteria:
        covered |= criterion.hazard_ids
    for hazard in ctx.case.hazards:
        if hazard.id not in covered:
            ctx.emit(
                "E007",
                f"hazard {hazard.id} is not covered by any acceptance criterion",
                subject_id=hazard.id,
            )


def _check_context(ctx: _Context) -> None:
    if not ctx.config.review_ready:
        return
    for field_name in ContextBlock.LIFECYCLE_FIELDS:
        if not getattr(ctx.case.context, field_name):
            field_key = f"{CONTEXT_SPAN}.{field_name}"
            ctx.emit(
                "E011",
                f"review-ready case is missing required context field "
                f"'{field_name}'",
                subject_id=f"context.{field_name}",
                span_key=field_key if field_key in ctx.span_index else CONTEXT_SPAN,
            )


def _check_claimless_criteria(ctx: _Context) -> None:
    claimed = {root.criterion_id for root in ctx.case.claims}
    for criterion in ctx.case.criteria:
        if criterion.id not in claimed:
            ctx.emit(
                "E012",
                f"acceptance criterion {criterion.id} has no top claim",
                subject_id=criterion.id,
            )


def _check_orphan_evidence(ctx: _Context) -> None:
    cited: set[str] = set()
    for root in ctx.case.claims:
        for row, _row_key, _node, _node_key in iter_rows(root):
            cited |= row.evidence_ids
    for item in ctx.case.evidence:
        if item.id not in cited:
            ctx.emit(
                "W103",
                f"evidence {item.id} is declared but never cited by any argument",
                subject_id=item.id,
            )


def _check_aggregation_balance(ctx: _Context) -> None:
    # Missing hazard references are already reported as E009.
    balance = coverage_mod.behavioral_balance(ctx.case)
    if balance is coverage_mod.BalanceClass.AGGREGATE_ONLY:
        ctx.emit_for_case("W104", balance.advisory)
    elif balance is coverage_mod.BalanceClass.EVENT_ONLY:
        ctx.emit_for_case("W105", balance.advisory)


def _check_coverage_threshold(ctx: _Context) -> None:
    threshold = ctx.config.coverage_threshold
    if threshold is None:
        return
    report = coverage_mod.gap_report(coverage_mod.coverage_map(ctx.case))
    if report.covered.value < threshold:
        ctx.emit_for_case(
            "W106",
            f"coverage {report.covered} of the behavioral criteria space is "
            f"below the configured threshold {threshold:g}",
        )
