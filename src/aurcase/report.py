"""Report rendering: the machine-readable report, the coverage heatmap, and
the hazard traceability matrix.  The diagnostics text is built in
`diagnostics` and imported here, where the report's text uses it.

Renderers are pure functions of their inputs; the machine report embeds
the tool version and input digests so a review can be reproduced and
checked byte-for-byte (only `generated_at` varies between runs).

Each concept has one JSON builder (`diagnostic_dict`, `coverage_dict`,
`trace_dict`, `review_dict`); `report_dict` is assembled from them and the
CLI's `--format machine` output reuses them, so both share one schema.
`render_json` writes strict JSON: a non-finite number raises `ValueError`
instead of printing `NaN` or `Infinity`.
"""

from __future__ import annotations

import time
from itertools import product
from typing import TYPE_CHECKING, Mapping

from ._version import __version__
from .coverage import (
    DIMENSIONS,
    BalanceClass,
    CoverageMap,
    GapReport,
    Signal,
    aggregation_balance,
    coverage_map,
    criteria_by_category,
    gap_report,
)
from .diagnostics import Diagnostic, render_diagnostics, sort_diagnostics
from .model import (
    ELEMENTS,
    EMPTY_MAPPING,
    Cell,
    HazardCategory,
    Record,
    SafetyCase,
    iter_rows,
    require_resolved,
    value_name,
)

if TYPE_CHECKING:
    from .lifecycle import ReadinessDecision

NO_SPACE_NOTE = (
    "no framework space defined for architectural and in-service operational "
    "criteria; they are reported by count and traceability only"
)


class TraceRow(Record):
    """One hazard chained to its criteria, top claims and cited evidence."""

    hazard_id: str
    criterion_ids: tuple[str, ...]
    claim_ids: tuple[str, ...]
    evidence_ids: tuple[str, ...]

    @property
    def complete(self) -> bool:
        return bool(self.criterion_ids and self.claim_ids and self.evidence_ids)


class TraceMatrix(Record):
    """The traceability matrix, one row per hazard."""

    rows: tuple[TraceRow, ...]


def trace_matrix(case: SafetyCase) -> TraceMatrix:
    """Chain each hazard through its criteria and top claims to the
    evidence those claim trees cite, one row per hazard."""
    require_resolved(case)
    criteria_by_hazard: dict[str, list[str]] = {}
    for criterion in case.criteria:
        for hazard_id in criterion.hazard_ids:
            criteria_by_hazard.setdefault(hazard_id, []).append(criterion.id)
    claims_by_criterion: dict[str, list[str]] = {}
    cited: dict[str, frozenset[str]] = {}
    for root in case.claims:
        claims_by_criterion.setdefault(root.criterion_id, []).append(root.id)
        cited[root.id] = frozenset().union(
            *(row.evidence_ids for row, _key, _node, _node_key in iter_rows(root))
        )
    rows = []
    for hazard in case.hazards:
        criteria = criteria_by_hazard.get(hazard.id, [])
        claims = [claim for c in criteria for claim in claims_by_criterion.get(c, [])]
        rows.append(
            TraceRow(
                hazard_id=hazard.id,
                criterion_ids=sorted(criteria),
                claim_ids=sorted(claims),
                evidence_ids=sorted(frozenset().union(*(cited[c] for c in claims))),
            )
        )
    return TraceMatrix(rows=rows)


class CoverageBundle(Record):
    """The coverage analyses of one case, as `coverage_bundle` builds them."""

    map: CoverageMap
    gaps: GapReport
    balance: BalanceClass
    by_category: Mapping[HazardCategory, int]


def coverage_bundle(case: SafetyCase) -> CoverageBundle:
    cov = coverage_map(case)
    return CoverageBundle(
        map=cov,
        gaps=gap_report(cov),
        balance=aggregation_balance(case),
        by_category=criteria_by_category(case),
    )


class ReportDocument(Record):
    """Everything one run knows, ready for rendering."""

    case: SafetyCase
    file_name: str
    diagnostics: tuple[Diagnostic, ...]
    coverage: CoverageBundle
    trace: TraceMatrix
    review: ReadinessDecision | None = None
    input_digests: Mapping[str, Mapping[str, str]] = EMPTY_MAPPING
    tool_version: str = __version__
    generated_at: str = ""


def build_report(
    case: SafetyCase,
    file_name: str,
    diagnostics: list[Diagnostic],
    review: ReadinessDecision | None = None,
    input_digests: Mapping[str, Mapping[str, str]] | None = None,
) -> ReportDocument:
    return ReportDocument(
        case=case,
        file_name=file_name,
        diagnostics=sort_diagnostics(list(diagnostics)),
        coverage=coverage_bundle(case),
        trace=trace_matrix(case),
        review=review,
        input_digests=dict(input_digests or {}),
        generated_at=time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime()),
    )


def digest_of(path: str, data: bytes) -> dict[str, str]:
    """The path and SHA-256 of an input, hashed by the interpreter's own
    SHA-256 module, the one `hashlib` falls back to.  `hashlib` would load
    OpenSSL for one digest: 3.6 MB more peak RSS (CPython 3.11, Linux)."""
    for module in ("_sha2", "_sha256"):  # Python 3.12+, then 3.11
        try:
            sha256 = __import__(module).sha256
            break
        except ImportError:
            continue
    else:
        from hashlib import sha256
    return {"path": path, "sha256": sha256(data).hexdigest()}


# -- text rendering -----------------------------------------------------------


def _marginal_lines(gaps: GapReport) -> list[str]:
    lines = []
    width = max(len(dim) for dim in DIMENSIONS)
    for dimension, per_value in gaps.marginals.items():
        cells = "   ".join(f"{name} {frac}" for name, frac in per_value.items())
        lines.append(f"  {dimension.ljust(width)}  {cells}")
    return lines


def render_coverage_text(bundle: CoverageBundle) -> str:
    gaps = bundle.gaps
    lines = [
        f"coverage: {gaps.covered} cells covered ({gaps.strong} strong)",
        f"balance: {bundle.balance.value} - {bundle.balance.advisory}",
        "marginal coverage by dimension value:",
        *_marginal_lines(gaps),
        f"uncovered: {len(gaps.uncovered)} cell(s)",
    ]
    by_category = bundle.by_category
    lines.append(
        "criteria by hazard category: "
        + ", ".join(
            f"{category.value} {by_category[category]}" for category in HazardCategory
        )
    )
    lines.append(f"note: {NO_SPACE_NOTE}")
    return "\n".join(lines) + "\n"


def render_trace_text(trace: TraceMatrix) -> str:
    lines = ["hazard | criteria | claims | evidence | complete"]
    for row in trace.rows:
        lines.append(
            " | ".join(
                (
                    row.hazard_id,
                    ", ".join(row.criterion_ids) or "-",
                    ", ".join(row.claim_ids) or "-",
                    ", ".join(row.evidence_ids) or "-",
                    "yes" if row.complete else "no",
                )
            )
        )
    if not trace.rows:
        lines.append("(no hazards declared)")
    return "\n".join(lines) + "\n"


def render_review_text(review: ReadinessDecision) -> str:
    lines = [f"readiness: {review.status}"]
    for check in review.target_checks:
        bound, target = check.figures()
        lines.append(
            f"  target {check.criterion_id}: {check.status.value} "
            f"(upper bound {bound}, target {target}, "
            f"exposure {check.exposure:g}, events {check.count})"
        )
    for blocker in review.blockers:
        lines.append(f"  blocker {blocker.subject_id}: {blocker.reason}")
    return "\n".join(lines) + "\n"


def render_text(report: ReportDocument) -> str:
    """Human-readable rendering of the full report."""
    case = report.case
    parts = [
        f"aurcase report: {report.file_name}",
        f"case {case.id!r}"
        + (f" release {case.context.release}" if case.context.release else "")
        + (f" platform {case.context.platform}" if case.context.platform else ""),
        "",
        "== diagnostics ==",
        render_diagnostics(report.diagnostics).rstrip("\n"),
        "",
        "== coverage ==",
        render_coverage_text(report.coverage).rstrip("\n"),
        "",
        "== trace ==",
        render_trace_text(report.trace).rstrip("\n"),
    ]
    if report.review is not None:
        parts += ["", "== review ==", render_review_text(report.review).rstrip("\n")]
    return "\n".join(parts) + "\n"


# -- machine rendering --------------------------------------------------------


def _fraction_dict(fraction) -> dict:
    return {"numerator": fraction.numerator, "denominator": fraction.denominator}


def diagnostic_dict(diagnostic: Diagnostic) -> dict:
    out: dict = {
        "rule_id": diagnostic.rule_id,
        "severity": diagnostic.severity.value,
        "message": diagnostic.message,
        "subject": diagnostic.subject_id,
    }
    if diagnostic.span is not None:
        out["file"] = diagnostic.span.file
        out["line"] = diagnostic.span.start_line
        out["col"] = diagnostic.span.start_col
    return out


def coverage_dict(bundle: CoverageBundle) -> dict:
    gaps = bundle.gaps
    return {
        "overall": _fraction_dict(gaps.covered),
        "strong": _fraction_dict(gaps.strong),
        "balance": {
            "class": bundle.balance.value,
            "advisory": bundle.balance.advisory,
        },
        "marginals": {
            dimension: {
                name: _fraction_dict(fraction) for name, fraction in per_value.items()
            }
            for dimension, per_value in gaps.marginals.items()
        },
        "uncovered_count": len(gaps.uncovered),
        "uncovered_by_dimension": {
            dimension: {name: len(cells) for name, cells in groups.items()}
            for dimension, groups in gaps.uncovered_by_dimension().items()
        },
        "criteria_by_category": {
            category.value: count for category, count in bundle.by_category.items()
        },
        "category_note": NO_SPACE_NOTE,
    }


def trace_dict(trace: TraceMatrix) -> dict:
    return {
        "rows": [
            {
                "hazard": row.hazard_id,
                "criteria": list(row.criterion_ids),
                "claims": list(row.claim_ids),
                "evidence": list(row.evidence_ids),
                "complete": row.complete,
            }
            for row in trace.rows
        ]
    }


def review_dict(review: ReadinessDecision) -> dict:
    return {
        "status": review.status,
        "blockers": [
            {"subject": b.subject_id, "reason": b.reason} for b in review.blockers
        ],
        "targets": [
            {
                "criterion": c.criterion_id,
                "status": c.status.value,
                "upper_bound": c.upper_bound,
                "max_rate": c.target,
                "exposure": c.exposure,
                "events": c.count,
            }
            for c in review.target_checks
        ],
    }


def report_dict(report: ReportDocument) -> dict:
    case = report.case
    return {
        "tool": {"name": "aurcase", "version": report.tool_version},
        "generated_at": report.generated_at,
        "inputs": dict(report.input_digests),
        "case": {
            "id": case.id,
            "release": case.context.release,
            "platform": case.context.platform,
            "use_case": case.context.use_case,
            "counts": {name: len(getattr(case, name)) for _, name in ELEMENTS},
        },
        "diagnostics": [diagnostic_dict(d) for d in report.diagnostics],
        "coverage": coverage_dict(report.coverage),
        "trace": trace_dict(report.trace),
        "review": None if report.review is None else review_dict(report.review),
    }


def render_json(payload) -> str:
    """Stable, strict JSON: sorted keys, two-space indent, plain decimal
    numbers, and a ValueError rather than `NaN` or `Infinity`."""
    import json  # here, so that a command printing no JSON never loads it

    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def render_machine(report: ReportDocument) -> str:
    """The whole report as `render_json` text."""
    return render_json(report_dict(report))


# -- heatmap ------------------------------------------------------------------

_FILL = {Signal.NONE: "#d9d9d9", Signal.WEAK: "#9ecae1", Signal.STRONG: "#08519c"}

_CELL = 34
_LEFT = 170
_GRID_W = _CELL * len(DIMENSIONS["severity"])
_SLICE_W = _LEFT + _GRID_W + 24
_SLICE_H = 40 + len(DIMENSIONS["capability"]) * _CELL + 24
_LEGEND_H = 46


def _xml_escape(text: str) -> str:
    # xml.sax.saxutils.escape would do, but importing it loads urllib and http.
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_heatmap(coverage: CoverageMap) -> str:
    """Static SVG: one severity x capability grid per (role, status,
    aggregation) slice, three distinct fills for none/weak/strong.

    Every cell rect carries data attributes naming its five coordinates
    and its signal, so the drawing can be checked against the map.
    """
    slices = list(product(DIMENSIONS["role"], DIMENSIONS["status"], DIMENSIONS["aggregation"]))
    columns = 2
    rows = (len(slices) + columns - 1) // columns
    width = columns * _SLICE_W + 16
    height = _LEGEND_H + rows * _SLICE_H + 16
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="11">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
        '<text x="16" y="20" font-size="13">acceptance-criteria space coverage</text>',
    ]
    legend_x = 16
    for signal in (Signal.NONE, Signal.WEAK, Signal.STRONG):
        out.append(
            f'<rect x="{legend_x}" y="28" width="14" height="14" '
            f'fill="{_FILL[signal]}" stroke="#555555"/>'
        )
        out.append(
            f'<text x="{legend_x + 18}" y="39">{signal.name.lower()}</text>'
        )
        legend_x += 90
    for index, (role, status, aggregation) in enumerate(slices):
        ox = 16 + (index % columns) * _SLICE_W
        oy = _LEGEND_H + (index // columns) * _SLICE_H
        title = f"{role.value} / {status.value} / {aggregation.value}"
        out.append(f'<text x="{ox}" y="{oy + 14}">{_xml_escape(title)}</text>')
        for row_index, capability in enumerate(DIMENSIONS["capability"]):
            label_y = oy + 40 + row_index * _CELL + _CELL // 2 + 4
            out.append(
                f'<text x="{ox}" y="{label_y}" font-size="10">'
                f"{_xml_escape(capability.value)}</text>"
            )
            for col_index, severity in enumerate(DIMENSIONS["severity"]):
                cell_x = ox + _LEFT + col_index * _CELL
                cell_y = oy + 40 + row_index * _CELL
                cell = Cell(severity, role, capability, status, aggregation)
                signal = coverage.signal(cell)
                coordinates = " ".join(
                    f'data-{dim}="{value_name(getattr(cell, dim))}"' for dim in DIMENSIONS
                )
                out.append(
                    f'<rect x="{cell_x}" y="{cell_y}" width="{_CELL}" height="{_CELL}" '
                    f'fill="{_FILL[signal]}" stroke="#555555" '
                    f'{coordinates} data-signal="{signal.name.lower()}"/>'
                )
        for col_index, severity in enumerate(DIMENSIONS["severity"]):
            label_x = ox + _LEFT + col_index * _CELL + _CELL // 2 - 6
            label_y = oy + 36
            out.append(f'<text x="{label_x}" y="{label_y}">{severity.name}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
