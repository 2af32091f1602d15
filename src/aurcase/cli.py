"""Command-line front end.

Subcommands: `check` (parse + validate), `coverage`, `trace`, `review`
(readiness gate against an exposure ledger), `report` (everything, written
to a directory), and `fmt` (canonical form).

`--format machine` prints the same JSON as the matching section of
`report.json` (`diagnostics`, `coverage`, `trace`, `review`), built by the
same `report` builders; it is strict JSON, never `NaN` or `Infinity`.

Exit codes: 0 when nothing error-severity was found (and, for `review`,
the gate approved); 1 for error diagnostics or a blocked review; 2 for
usage errors and documents that do not parse. Every early end is an
`_Exit` that `run` turns into the exit code: a fatal parse prints its
diagnostic (on stdout; on stderr for `fmt`) and exits 2; a refused case
(dangling references) prints its findings and E008 to stderr and exits
1; an unreadable input or an unwritable `--out` is a usage error, exit 2.

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
    diagnostic_line,
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


class _Exit(Exception):
    """Ends a command early with exit `code`. A `usage` message (a bad
    path, an unreadable input, a bad config) is printed by `run`."""

    def __init__(self, code: int, usage: str = ""):
        super().__init__(usage)
        self.code = code
        self.usage = usage


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
        raise _Exit(EXIT_USAGE, f"cannot read {path}: {exc.strerror or exc}") from exc
    if digests is not None:
        digests[role] = digest_of(path, data)
    return data


def _read_text(path: str, digests: dict | None = None, role: str = "") -> str:
    """`_read_bytes` decoded as UTF-8; a decoding error names the file."""
    try:
        return _read_bytes(path, digests, role).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _Exit(EXIT_USAGE, f"{path}: {exc}") from exc


def _load_config(args: argparse.Namespace, digests: dict | None = None) -> RuleConfig:
    path = args.config or os.environ.get(CONFIG_ENV_VAR)
    try:
        config = RuleConfig()
        if path:
            config = parse_config(_read_text(path, digests, "config"), source=path)
        if args.review_ready:
            config = config.replace(review_ready=True)
        if args.coverage_threshold is not None:
            config = config.replace(coverage_threshold=args.coverage_threshold)
    except ValueError as exc:
        raise _Exit(EXIT_USAGE, str(exc)) from exc
    return config


def _parsed(
    args: argparse.Namespace, digests: dict | None = None, to_stderr: bool = False
) -> ParseResult:
    """Parse `args.file`. A fatal parse prints its diagnostics and exits 2:
    on stdout in `args.format`, or, with `to_stderr` (for `fmt`, whose
    stdout is the document), as text on stderr."""
    result = parse(_read_bytes(args.file, digests, "case"), file_name=args.file)
    if result.fatal:
        if to_stderr or args.format == "text":
            text = render_diagnostics(result.diagnostics)
        else:
            payload = {"diagnostics": [diagnostic_dict(d) for d in result.diagnostics]}
            text = render_json(payload)
        print(text, end="", file=sys.stderr if to_stderr else sys.stdout)
        raise _Exit(EXIT_USAGE)
    return result


def _validated(result: ParseResult, config: RuleConfig) -> list[Diagnostic]:
    return validate(result.case, config, result.span_index, result.reference_spans)


def _resolved(
    args: argparse.Namespace, digests: dict | None = None
) -> tuple[ParseResult, RuleConfig]:
    """Config and parse for an analysis command. A case with dangling
    references is refused: its findings (E009) and E008 go to stderr and
    the command exits 1."""
    config = _load_config(args, digests)
    result = _parsed(args, digests)
    if resolve_references(result.case):
        diagnostics = _validated(result, config)
        diagnostics += _validated(result, config.replace(require_resolved=True))
        print(render_diagnostics(sort_diagnostics(diagnostics)), end="", file=sys.stderr)
        raise _Exit(EXIT_FINDINGS)
    return result, config


def _exit_code(diagnostics: list[Diagnostic], blocked: bool = False) -> int:
    failed = blocked or any(d.severity is Severity.ERROR for d in diagnostics)
    return EXIT_FINDINGS if failed else EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    config = _load_config(args)
    diagnostics = _validated(_parsed(args), config)
    if args.format == "machine":
        errors = sum(d.severity is Severity.ERROR for d in diagnostics)
        payload = {
            "diagnostics": [diagnostic_dict(d) for d in diagnostics],
            "summary": {"errors": errors, "warnings": len(diagnostics) - errors},
        }
        print(render_json(payload), end="")
    else:
        print(render_diagnostics(diagnostics), end="")
    return _exit_code(diagnostics)


def _cmd_analysis(args: argparse.Namespace) -> int:
    """`coverage` and `trace`: one analysis of the case, in `args.format`."""
    # Built per call from the module names, so a rebinding of them (as
    # perfbench's layer tracer does) is what runs.
    analyse, to_dict, to_text = {
        "coverage": (coverage_bundle, coverage_dict, render_coverage_text),
        "trace": (trace_matrix, trace_dict, render_trace_text),
    }[args.command]
    result, config = _resolved(args)
    diagnostics = _validated(result, config)
    analysis = analyse(result.case)
    text = render_json(to_dict(analysis)) if args.format == "machine" else to_text(analysis)
    print(text, end="")
    return _exit_code(diagnostics)


def _load_ledger(path: str, digests: dict | None = None) -> ExposureLedger:
    text = _read_text(path, digests, "ledger")
    try:
        return parse_ledger(text)
    except ValueError as exc:
        raise _Exit(EXIT_USAGE, f"{path}: {exc}") from exc


def _cmd_review(args: argparse.Namespace) -> int:
    result, config = _resolved(args)
    decision = readiness_review(result.case, _load_ledger(args.ledger), config)
    if args.format == "machine":
        print(render_json(review_dict(decision)), end="")
    else:
        print(render_review_text(decision), end="")
    return EXIT_OK if decision.approved else EXIT_FINDINGS


def _cmd_report(args: argparse.Namespace) -> int:
    digests: dict[str, dict[str, str]] = {}
    result, config = _resolved(args, digests)
    diagnostics = _validated(result, config)
    review = None
    if args.ledger:
        review = readiness_review(result.case, _load_ledger(args.ledger, digests), config)
    document = build_report(
        result.case, args.file, diagnostics, review=review, input_digests=digests
    )
    artifacts = {
        "report.txt": render_text(document.diagnostics, document),
        "report.json": render_machine(document),
        "heatmap.svg": render_heatmap(document.coverage.map),
        "trace.txt": render_trace_text(document.trace),
    }
    out_dir = Path(args.out)
    step = f"create {args.out}"
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in artifacts.items():
            step = f"write {out_dir / name}"
            (out_dir / name).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _Exit(EXIT_USAGE, f"cannot {step}: {exc.strerror or exc}") from exc
    print(f"report written to {out_dir}: {' '.join(artifacts)}")
    return _exit_code(diagnostics, blocked=review is not None and not review.approved)


def _cmd_fmt(args: argparse.Namespace) -> int:
    result = _parsed(args, to_stderr=True)
    if resolve_references(result.case):
        refusal = "cannot format a case with unresolved references"
        print(render_diagnostics(result.diagnostics), end="", file=sys.stderr)
        print(diagnostic_line(Diagnostic("E008", Severity.ERROR, refusal)), file=sys.stderr)
        raise _Exit(EXIT_FINDINGS)
    print(serialize(result.case), end="")
    return EXIT_OK


_COMMANDS = {
    "check": _cmd_check,
    "coverage": _cmd_analysis,
    "trace": _cmd_analysis,
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
        except _Exit as exc:
            if exc.usage:
                print(f"aurcase: error: {exc.usage}", file=sys.stderr)
            return exc.code
    finally:
        if gc_was_enabled:
            gc.enable()


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
