"""aurcase: represent, parse, validate, and analyze ADS safety cases.

The library is organized the way a case is read: `model` holds the domain
types, `dsl` the textual format, `rules` the structural credibility
checks, `coverage` the acceptance-criteria space algebra, `lifecycle` the
exposure ledger and readiness gate, and `report`/`cli` the renderers and
command-line front end.

Names load on first use (PEP 562): `import aurcase` imports only the
version, and `aurcase.parse` or `from aurcase import parse` then imports
`aurcase.dsl`. Each name is the object its module defines.
"""

from importlib import import_module

from ._version import __version__

# Each submodule and the public names it defines.
_EXPORTS = {
    "coverage": "BalanceClass CoverageMap GapReport Signal"
    " aggregation_balance coverage_map gap_report region_cells",
    "diagnostics": "Diagnostic Severity SourceSpan",
    "dsl": "ParseResult parse serialize",
    "lifecycle": "DriftCheck DriftStatus ExposureLedger LedgerEntry Phase ReadinessDecision"
    " TargetCheck TargetStatus check_target drift_check parse_ledger rate_upper_bound"
    " readiness_review",
    "model": "AcceptanceCriterion AcSpaceRegion AggregationLevel ArgumentRow"
    " BehavioralCapability CausalStage Cell ClaimKind ClaimNode ConflictRole ContextBlock"
    " Evidence EvidenceStrength FunctionalityStatus Hazard HazardCategory Indicator"
    " IndicatorKind Methodology ModelError SafetyCase SeverityLevel TargetKind"
    " UnresolvedCaseError ValidationTarget classify_indicator resolve_references",
    "report": "ReportDocument TraceMatrix build_report render_heatmap render_machine"
    " render_text trace_matrix",
    "rules": "RuleConfig RuleInfo parse_config rule_catalog validate",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
