"""Command-line front end.

Subcommands: `check` (parse + validate), `coverage`, `trace`, `review`
(readiness gate against an exposure ledger), `report` (everything, written
to a directory), and `fmt` (canonical form).

`--format machine` prints the same JSON as the matching section of
`report.json` (`diagnostics`, `coverage`, `trace`, `review`), built by the
same `report` builders; it is strict JSON, never `NaN` or `Infinity`.

Exit codes: 0 when nothing error-severity was found (and, for `review`,
the gate approved); 1 for error diagnostics or a blocked review; 2 for
usage errors and documents that do not parse.

A command runs with the cyclic garbage collector paused (see `run`): the
parsed case is an acyclic tree, so collections during a command scan a
growing heap and free nothing, and reference counting frees it anyway.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path

from ._version import __version__
from .diagnostics import Diagnostic, Severity, sort_diagnostics
from .dsl import ParseResult, parse, serialize
from .lifecycle import ExposureLedger, parse_ledger, readiness_review
from .model import resolve_references
from .report import (
    build_report,
    coverage_bundle,
    coverage_dict,
    diagnostic_dict,
    digest_of,
    render_coverage_text,
    render_diagnostics,
    render_heatmap,
    render_json,
    render_machine,
    render_review_text,
    render_text,
    render_trace_text,
    review_dict,
    trace_dict,
    trace_matrix,
)
from .rules import RuleConfig, parse_config, validate

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2

CONFIG_ENV_VAR = "AURCASE_CONFIG"


class _CliError(Exception):
    """A usage-level failure: bad paths, unreadable inputs, bad config."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aurcase",
        description="Parse, validate, and analyze ADS safety-case documents.",
    )
    parser.add_argument("--version", action="version", version=f"aurcase {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("file", help="safety-case document (.aur)")
        p.add_argument(
            "--config",
            help=f"rule configuration file (default: ${CONFIG_ENV_VAR} if set)",
        )
        p.add_argument(
            "--review-ready",
            action="store_true",
            help="require the full operational context (rule E011)",
        )
        p.add_argument(
            "--coverage-threshold",
            type=float,
            metavar="0..1",
            help="warn (W106) when covered fraction of the space falls below this",
        )
        p.add_argument(
            "--format",
            choices=("text", "machine"),
            default="text",
            help="output format (default: text)",
        )

    add_common(sub.add_parser("check", help="parse and validate a document"))
    add_common(sub.add_parser("coverage", help="coverage map, gaps, and balance"))
    add_common(sub.add_parser("trace", help="hazard traceability matrix"))

    review = sub.add_parser("review", help="readiness gate against an exposure ledger")
    add_common(review)
    review.add_argument("--ledger", required=True, help="exposure ledger (.csv)")

    report = sub.add_parser("report", help="full report written to a directory")
    add_common(report)
    report.add_argument("--ledger", help="exposure ledger (.csv)")
    report.add_argument("--out", required=True, help="output directory")

    fmt = sub.add_parser("fmt", help="print the document in canonical form")
    fmt.add_argument("file", help="safety-case document (.aur)")
    return parser


def _read_bytes(path: str, digests: dict | None = None, role: str = "") -> bytes:
    """Read an input once; with `digests`, also record its digest under
    `role`, so the digest always describes the bytes that were used."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc.strerror or exc}") from exc
    if digests is not None:
        digests[role] = digest_of(path, data)
    return data


def _read_text(path: str, digests: dict | None = None, role: str = "") -> str:
    """`_read_bytes` decoded as UTF-8; a decoding error names the file."""
    try:
        return _read_bytes(path, digests, role).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _CliError(f"{path}: {exc}") from exc


def _load_config(args: argparse.Namespace, digests: dict | None = None) -> RuleConfig:
    path = getattr(args, "config", None) or os.environ.get(CONFIG_ENV_VAR)
    if path:
        try:
            config = parse_config(_read_text(path, digests, "config"), source=path)
        except ValueError as exc:
            raise _CliError(str(exc)) from exc
    else:
        config = RuleConfig()
    if getattr(args, "review_ready", False):
        config = config.replace(review_ready=True)
    threshold = getattr(args, "coverage_threshold", None)
    if threshold is not None:
        try:
            config = config.replace(coverage_threshold=threshold)
        except ValueError as exc:
            raise _CliError(str(exc)) from exc
    return config


def _parse_document(path: str, digests: dict | None = None) -> ParseResult:
    return parse(_read_bytes(path, digests, "case"), file_name=path)


def _emit_parse_failure(result: ParseResult, fmt: str, out) -> int:
    if fmt == "machine":
        payload = {"diagnostics": [diagnostic_dict(d) for d in result.diagnostics]}
        print(render_json(payload), end="", file=out)
    else:
        print(render_diagnostics(list(result.diagnostics)), end="", file=out)
    return EXIT_USAGE


def _validated(result: ParseResult, config: RuleConfig) -> list[Diagnostic]:
    assert result.case is not None
    return validate(
        result.case,
        config,
        span_index=result.span_index,
        reference_spans=result.reference_spans,
    )


def _refusal(result: ParseResult, config: RuleConfig) -> list[Diagnostic] | None:
    """For analysis commands: E009 details plus the E008 refusal when the
    case has dangling references, else None."""
    assert result.case is not None
    if not resolve_references(result.case):
        return None
    diagnostics = _validated(result, config)
    diagnostics += _validated(result, config.replace(require_resolved=True))
    return sort_diagnostics(diagnostics)


def _has_errors(diagnostics: list[Diagnostic]) -> bool:
    return any(d.severity is Severity.ERROR for d in diagnostics)


def _cmd_check(args: argparse.Namespace) -> int:
    config = _load_config(args)
    result = _parse_document(args.file)
    if result.fatal:
        return _emit_parse_failure(result, args.format, sys.stdout)
    diagnostics = _validated(result, config)
    if args.format == "machine":
        payload = {
            "diagnostics": [diagnostic_dict(d) for d in diagnostics],
            "summary": {
                "errors": sum(1 for d in diagnostics if d.severity is Severity.ERROR),
                "warnings": sum(
                    1 for d in diagnostics if d.severity is Severity.WARNING
                ),
            },
        }
        print(render_json(payload), end="")
    else:
        print(render_diagnostics(diagnostics), end="")
    return EXIT_FINDINGS if _has_errors(diagnostics) else EXIT_OK


def _analysis_preamble(
    args: argparse.Namespace, digests: dict | None = None
) -> tuple[ParseResult, RuleConfig, int | None]:
    config = _load_config(args, digests)
    result = _parse_document(args.file, digests)
    if result.fatal:
        return result, config, _emit_parse_failure(result, args.format, sys.stdout)
    refusal = _refusal(result, config)
    if refusal is not None:
        print(render_diagnostics(refusal), end="", file=sys.stderr)
        return result, config, EXIT_FINDINGS
    return result, config, None


def _cmd_coverage(args: argparse.Namespace) -> int:
    result, config, early = _analysis_preamble(args)
    if early is not None:
        return early
    diagnostics = _validated(result, config)
    bundle = coverage_bundle(result.case)
    if args.format == "machine":
        print(render_json(coverage_dict(bundle)), end="")
    else:
        print(render_coverage_text(bundle), end="")
    return EXIT_FINDINGS if _has_errors(diagnostics) else EXIT_OK


def _cmd_trace(args: argparse.Namespace) -> int:
    result, config, early = _analysis_preamble(args)
    if early is not None:
        return early
    matrix = trace_matrix(result.case)
    diagnostics = _validated(result, config)
    if args.format == "machine":
        print(render_json(trace_dict(matrix)), end="")
    else:
        print(render_trace_text(matrix), end="")
    return EXIT_FINDINGS if _has_errors(diagnostics) else EXIT_OK


def _load_ledger(path: str, digests: dict | None = None) -> ExposureLedger:
    text = _read_text(path, digests, "ledger")
    try:
        return parse_ledger(text)
    except ValueError as exc:
        raise _CliError(f"{path}: {exc}") from exc


def _cmd_review(args: argparse.Namespace) -> int:
    result, config, early = _analysis_preamble(args)
    if early is not None:
        return early
    decision = readiness_review(result.case, _load_ledger(args.ledger), config)
    if args.format == "machine":
        print(render_json(review_dict(decision)), end="")
    else:
        print(render_review_text(decision), end="")
    return EXIT_OK if decision.approved else EXIT_FINDINGS


def _cmd_report(args: argparse.Namespace) -> int:
    digests: dict[str, dict[str, str]] = {}
    result, config, early = _analysis_preamble(args, digests)
    if early is not None:
        return early
    diagnostics = _validated(result, config)
    review = None
    if args.ledger:
        review = readiness_review(result.case, _load_ledger(args.ledger, digests), config)
    document = build_report(
        result.case,
        args.file,
        diagnostics,
        review=review,
        input_digests=digests,
    )
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _CliError(f"cannot create {args.out}: {exc.strerror or exc}") from exc
    artifacts = {
        "report.txt": render_text(document.diagnostics, document),
        "report.json": render_machine(document),
        "heatmap.svg": render_heatmap(document.coverage.map),
        "trace.txt": render_trace_text(document.trace),
    }
    for name, text in artifacts.items():
        (out_dir / name).write_text(text, encoding="utf-8")
    print(f"report written to {out_dir}: {' '.join(artifacts)}")
    blocked = review is not None and not review.approved
    return EXIT_FINDINGS if (_has_errors(diagnostics) or blocked) else EXIT_OK


def _cmd_fmt(args: argparse.Namespace) -> int:
    result = _parse_document(args.file)
    if result.fatal:
        return _emit_parse_failure(result, "text", sys.stderr)
    if resolve_references(result.case):
        print(render_diagnostics(list(result.diagnostics)), end="", file=sys.stderr)
        print(
            "error[E008]: cannot format a case with unresolved references",
            file=sys.stderr,
        )
        return EXIT_FINDINGS
    print(serialize(result.case), end="")
    return EXIT_OK


_COMMANDS = {
    "check": _cmd_check,
    "coverage": _cmd_coverage,
    "trace": _cmd_trace,
    "review": _cmd_review,
    "report": _cmd_report,
    "fmt": _cmd_fmt,
}


def run(argv: list[str] | None = None) -> int:
    # Cyclic GC is paused for the command. The case is an acyclic graph,
    # so the collector only rescans it: one x300 parse (53,711 lines) ran
    # 262 gen-0, 23 gen-1 and 1 gen-2 collections, and after a whole
    # command on the golden case, a dirty x100 case or the x300 case,
    # `gc.collect()` finds the same 318-351 unreachable objects, which
    # are argparse's own cycles. Cold, over 8 alternating rounds, the
    # pause took `check` to 0.92x, `report` to 0.88x and `fmt` to 0.92x
    # of the time with GC on, at the same peak RSS. GC is re-enabled
    # only if it was enabled on entry.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        parser = _build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            # argparse exits 2 on usage errors and 0 for --help/--version.
            return int(exc.code or 0)
        try:
            return _COMMANDS[args.command](args)
        except _CliError as exc:
            print(f"aurcase: error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    finally:
        if gc_was_enabled:
            gc.enable()


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
