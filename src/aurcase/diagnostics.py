"""Source spans and diagnostics shared by the parser and the rule engine,
and the one text form of a diagnostic list."""

from __future__ import annotations

from typing import Iterable, Mapping

from .model import REFERENCE_NOUNS, IdentityEnum, Record, ReferenceFinding


class Severity(IdentityEnum):
    ERROR = "error"
    WARNING = "warning"


class SourceSpan(Record):
    """A half-open region of a source document, 1-based lines and columns."""

    file: str
    start_line: int
    start_col: int
    end_line: int
    end_col: int

    def __post_init__(self) -> None:
        if self.start_line < 1 or self.start_col < 1:
            raise ValueError("source positions are 1-based")
        if (self.end_line, self.end_col) < (self.start_line, self.start_col):
            raise ValueError("span must not end before it starts")

    def __str__(self) -> str:
        return f"{self.file}:{self.start_line}:{self.start_col}"


class Diagnostic(Record):
    """A single finding with a stable rule id.

    `subject_id` names the element the finding is about (a hazard id, a
    claim-node key, a row key, ...); `span` is present whenever the finding
    can be pinned to source text.
    """

    rule_id: str
    severity: Severity
    message: str
    subject_id: str = ""
    span: SourceSpan | None = None

    def __post_init__(self) -> None:
        if not self.message:
            raise ValueError("diagnostic message must be non-empty")

    def sort_key(self) -> tuple:
        # File, then position, then errors ahead of warnings, then rule id.
        # Diagnostics without a span sort behind positioned ones in the
        # same file group (empty file name first).
        if self.span is None:
            file_name, line, col = "", 1 << 30, 1 << 30
        else:
            file_name, line, col = self.span.file, self.span.start_line, self.span.start_col
        severity_rank = 0 if self.severity is Severity.ERROR else 1
        return (file_name, line, col, severity_rank, self.rule_id, self.subject_id)


def sort_diagnostics(diagnostics: list[Diagnostic]) -> list[Diagnostic]:
    return sorted(diagnostics, key=Diagnostic.sort_key)


def diagnostic_line(diagnostic: Diagnostic) -> str:
    body = f"{diagnostic.severity.value}[{diagnostic.rule_id}]: {diagnostic.message}"
    return body if diagnostic.span is None else f"{diagnostic.span}: {body}"


def summary_line(diagnostics: tuple[Diagnostic, ...] | list[Diagnostic]) -> str:
    errors = sum(1 for d in diagnostics if d.severity is Severity.ERROR)
    warnings = len(diagnostics) - errors
    return f"{errors} error(s), {warnings} warning(s)"


def render_diagnostics(diagnostics: list[Diagnostic] | tuple[Diagnostic, ...]) -> str:
    """One line per diagnostic (errors ahead of warnings at equal spans),
    then the count summary; the summary alone when there is nothing to say."""
    ordered = sort_diagnostics(list(diagnostics))
    lines = [diagnostic_line(d) for d in ordered]
    lines.append(summary_line(ordered))
    return "\n".join(lines) + "\n"


def dangling_references(
    findings: Iterable[ReferenceFinding],
    severity: Severity,
    reference_spans: Mapping[tuple[str, str, str], SourceSpan],
    span_index: Mapping[str, SourceSpan],
) -> list[Diagnostic]:
    """One E009 per unresolved reference, spanned at the reference token,
    or at the referring element when the reference has no recorded span."""
    return [
        Diagnostic(
            "E009",
            severity,
            f"reference to undeclared {REFERENCE_NOUNS.get(f.field, 'element')} "
            f"{f.missing!r}",
            subject_id=f.referrer,
            span=reference_spans.get((f.referrer, f.field, f.missing))
            or span_index.get(f.referrer),
        )
        for f in findings
    ]
