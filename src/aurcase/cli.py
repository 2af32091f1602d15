"""Command-line front end.

Subcommands: `check` (parse + validate), `coverage`, `trace`, `review`
(readiness gate against an exposure ledger), `report` (everything, written
to a directory), and `fmt` (canonical form).

`--format machine` prints the same JSON as the matching section of
`report.json` (`diagnostics`, `coverage`, `trace`, `review`), built by the
same `report` builders; it is strict JSON, never `NaN` or `Infinity`.

Exit codes: 0 when nothing error-severity was found (and, for `review`,
the gate approved); 1 for error diagnostics or a blocked review; 2 for
usage errors and documents that do not parse. `coverage` and `trace`
print their analysis whatever the findings; when error findings make
them exit 1, one stderr line counts those findings by rule (`check`
lists them). `review` and `report` print one stderr line for each ledger
event definition that no rate-bound target names, whose events the gate
does not check. Every early end is an `_Exit` that `run` turns into the
exit code: a fatal parse prints its diagnostic (on stdout; on stderr for
`fmt`) and exits 2; a refused case (dangling references) prints its
findings and E008 to stderr and exits 1; an unreadable input or an
unwritable `--out` is a usage error, exit 2.

The command line: `run` itself reads `--version` alone and, from
`_COMMANDS`, a command, its case file, then that command's own options
spelt whole, each value as the next word. That skips importing argparse
(with `gettext` and `locale`) and building seven parsers: about 4 ms of
a 90 ms cold `review` on a 2-vCPU host. Any other argv (`-h`, `--form`,
`--out=DIR`, `--`, a value that starts with `-`, a bad or missing value)
goes to argparse, built from the same table, which prints the help,
usage and errors.

A command runs with the cyclic garbage collector paused (see `run`): the
parsed case is an acyclic tree, so collections during a command scan a
growing heap and free nothing, and reference counting frees it anyway.

How the process ends: `main`, the entry point of `python -m aurcase.cli`
and of the `aurcase` script, flushes stdout and stderr once `run` returns
and ends with `os._exit`, skipping the interpreter's teardown (freeing
every module and object, and a last collection). No `atexit` hook runs,
so a tool that needs one calls `run`. A closed pipe on stdout or stderr
(`aurcase fmt big.aur | head`) ends the process with exit 1 and nothing
on stderr. Any other failed write to stdout (`> /dev/full`), in the
command, its help or at the flush, is a usage error like an unwritable
`--out`: one `aurcase: error: cannot write stdout: ...` line, exit 2.
"""

from __future__ import annotations

import gc
import os
import sys
from itertools import islice
from pathlib import Path
from types import SimpleNamespace

from ._version import __version__
from .diagnostics import Diagnostic, Severity, render_diagnostics
from .dsl import ParseResult, _canonical_lines, parse
from .lifecycle import ExposureLedger, parse_ledger, readiness_review, unnamed_definitions
from .model import CASE_SPAN, SafetyCase, resolve_references
from .report import (
    build_report,
    coverage_bundle,
    coverage_dict,
    diagnostic_dict,
    digest_of,
    render_coverage_text,
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

_WRITE_SLICE = 1 << 10  # lines of `fmt` output joined and written at a time

_VERSION = f"aurcase {__version__}"

# Every option that follows a command's case file, with argparse's keywords
# for it: `_build_parser` hands them to argparse and `_canonical_args` reads
# them. The only `action` is `store_true`.
_OPTIONS = {
    "--config": {"help": f"rule configuration file (default: ${CONFIG_ENV_VAR} if set)"},
    "--review-ready": {
        "action": "store_true",
        "help": "require the full operational context (rule E011)",
    },
    "--coverage-threshold": {
        "type": float,
        "metavar": "0..1",
        "help": "warn (W106) when covered fraction of the space falls below this",
    },
    "--format": {
        "choices": ("text", "machine"),
        "default": "text",
        "help": "output format (default: text)",
    },
    "--ledger": {"help": "exposure ledger (.csv)"},
    "--out": {"help": "output directory"},
}
_ANALYSIS = ("--config", "--review-ready", "--coverage-threshold", "--format")
_REVIEW, _REPORT = (*_ANALYSIS, "--ledger"), (*_ANALYSIS, "--ledger", "--out")


class _Exit(Exception):
    """Ends a command early with exit `code`. A `usage` message (a bad
    path, an unreadable input, a bad config) is printed by `run`."""

    def __init__(self, code: int, usage: str = ""):
        super().__init__(usage)
        self.code = code
        self.usage = usage


def _build_parser():
    """argparse's reading of `_COMMANDS`, for the argv that `_canonical_args`
    leaves: it prints the help, the usage line and every usage error."""
    import argparse

    class Parser(argparse.ArgumentParser):
        # argparse swallows a failed write; let `main` end it as any other.
        def _print_message(self, message, file=None):
            file = file or sys.stderr
            if message and file is not None:
                file.write(message)

    parser = Parser(
        prog="aurcase",
        description="Parse, validate, and analyze ADS safety-case documents.",
    )
    parser.add_argument("--version", action="version", version=_VERSION)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary, names, required) in _COMMANDS.items():
        command_parser = sub.add_parser(command, help=summary)
        command_parser.add_argument("file", help="safety-case document (.aur)")
        for name in names:
            command_parser.add_argument(name, **_OPTIONS[name], required=name in required)
    return parser


def _canonical_args(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse builds from `argv` when it is a command, its
    file and then only that command's own options spelt whole, each value
    (not starting with `-`) as the next word; None for any other argv."""
    if len(argv) < 2 or argv[0] not in _COMMANDS or argv[1].startswith("-"):
        return None
    command, file, *words = argv
    _, _, names, required = _COMMANDS[command]
    given = {}
    words = iter(words)
    for word in words:
        if word not in names:
            return None
        keywords = _OPTIONS[word]
        if "action" in keywords:
            given[word] = True
            continue
        value = next(words, "-")  # a missing value reads as an option
        if value.startswith("-") or value not in keywords.get("choices", (value,)):
            return None
        try:
            given[word] = keywords.get("type", str)(value)
        except ValueError:
            return None
    if not given.keys() >= set(required):
        return None
    args = SimpleNamespace(command=command, file=file)
    for name in names:
        default = _OPTIONS[name].get("default", False if "action" in _OPTIONS[name] else None)
        setattr(args, name[2:].replace("-", "_"), given.get(name, default))
    return args


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


def _load_config(args: SimpleNamespace, digests: dict | None = None) -> RuleConfig:
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
    args: SimpleNamespace, digests: dict | None = None, to_stderr: bool = False
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
    args: SimpleNamespace, digests: dict | None = None
) -> tuple[ParseResult, RuleConfig]:
    """Config and parse for an analysis command. A case with dangling
    references is refused: its findings (E009) and E008 go to stderr and
    the command exits 1."""
    config = _load_config(args, digests)
    result = _parsed(args, digests)
    if resolve_references(result.case):
        diagnostics = _validated(result, config)
        diagnostics += _validated(result, config.replace(require_resolved=True))
        print(render_diagnostics(diagnostics), end="", file=sys.stderr)
        raise _Exit(EXIT_FINDINGS)
    return result, config


def _exit_code(diagnostics: list[Diagnostic], blocked: bool = False) -> int:
    failed = blocked or any(d.severity is Severity.ERROR for d in diagnostics)
    return EXIT_FINDINGS if failed else EXIT_OK


def _cmd_check(args: SimpleNamespace) -> int:
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


def _cmd_analysis(args: SimpleNamespace) -> int:
    """`coverage` and `trace`: one analysis of the case, in `args.format`."""
    # Built per call from the module names, so a rebinding of them (as
    # perfbench's layer tracer does) is what runs.
    analyse, to_dict, to_text = {
        "coverage": (coverage_bundle, coverage_dict, render_coverage_text),
        "trace": (trace_matrix, trace_dict, render_trace_text),
    }[args.command]
    result, config = _resolved(args)
    # Only the findings' count by rule is printed, so they need no spans.
    diagnostics = validate(result.case, config)
    analysis = analyse(result.case)
    text = render_json(to_dict(analysis)) if args.format == "machine" else to_text(analysis)
    print(text, end="")
    code = _exit_code(diagnostics)
    if code:
        print(_error_tally(diagnostics), file=sys.stderr)
    return code


def _error_tally(diagnostics: list[Diagnostic]) -> str:
    """Why an analysis command exits 1: its error findings counted by rule.
    Not in the `error[RULE]:` shape of a diagnostic line, which readers of
    stderr count as findings."""
    counts: dict[str, int] = {}
    for diagnostic in diagnostics:
        if diagnostic.severity is Severity.ERROR:
            counts[diagnostic.rule_id] = counts.get(diagnostic.rule_id, 0) + 1
    by_rule = ", ".join(f"{rule_id} x{count}" for rule_id, count in sorted(counts.items()))
    return (
        f"aurcase: {sum(counts.values())} error finding(s): {by_rule} "
        "(listed by 'aurcase check')"
    )


def _load_ledger(path: str, case: SafetyCase, digests: dict | None = None) -> ExposureLedger:
    """The ledger at `path`. Each event definition in it that no rate-bound
    target of `case` names gets one stderr line: the gate checks none of
    its events."""
    text = _read_text(path, digests, "ledger")
    try:
        ledger = parse_ledger(text)
    except ValueError as exc:
        raise _Exit(EXIT_USAGE, f"{path}: {exc}") from exc
    for definition, entries in unnamed_definitions(case, ledger).items():
        releases = ", ".join(f"{entry.release} {entry.phase.value}" for entry in entries)
        count = sum(entry.event_counts[definition] for entry in entries)
        print(
            f"aurcase: ledger event definition {definition!r} ({releases}) is named by "
            f"no rate-bound target; its {count} event(s) are not checked",
            file=sys.stderr,
        )
    return ledger


def _cmd_review(args: SimpleNamespace) -> int:
    result, config = _resolved(args)
    decision = readiness_review(result.case, _load_ledger(args.ledger, result.case), config)
    if args.format == "machine":
        print(render_json(review_dict(decision)), end="")
    else:
        print(render_review_text(decision), end="")
    return EXIT_OK if decision.approved else EXIT_FINDINGS


def _cmd_report(args: SimpleNamespace) -> int:
    digests: dict[str, dict[str, str]] = {}
    result, config = _resolved(args, digests)
    diagnostics = _validated(result, config)
    review = None
    if args.ledger:
        ledger = _load_ledger(args.ledger, result.case, digests)
        review = readiness_review(result.case, ledger, config)
    document = build_report(
        result.case, args.file, diagnostics, review=review, input_digests=digests
    )
    artifacts = {
        "report.txt": render_text(document),
        "report.json": render_machine(document),
        "heatmap.svg": render_heatmap(document.coverage.map),
        "trace.txt": render_trace_text(document.trace),
    }
    # Written to temporary names, then renamed: the set is replaced whole.
    out_dir = Path(args.out)
    step = f"create {args.out}"
    temporaries: dict[Path, Path] = {}
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in artifacts.items():
            target = out_dir / name
            step = f"write {target}"
            if target.is_dir():
                raise _Exit(EXIT_USAGE, f"cannot {step}: Is a directory")
            temporaries[target] = out_dir / f".{name}.{os.getpid()}.tmp"
            temporaries[target].write_text(text, encoding="utf-8")
        for target, temporary in temporaries.items():
            step = f"write {target}"
            os.replace(temporary, target)
    except OSError as exc:
        raise _Exit(EXIT_USAGE, f"cannot {step}: {exc.strerror or exc}") from exc
    finally:
        for temporary in temporaries.values():
            temporary.unlink(missing_ok=True)
    print(f"report written to {out_dir}: {' '.join(artifacts)}")
    return _exit_code(diagnostics, blocked=review is not None and not review.approved)


def _cmd_fmt(args: SimpleNamespace) -> int:
    result = _parsed(args, to_stderr=True)
    if resolve_references(result.case):
        refusal = Diagnostic(
            "E008",
            Severity.ERROR,
            "cannot format a case with unresolved references",
            subject_id=result.case.id,
            span=result.span_index.get(CASE_SPAN),
        )
        print(render_diagnostics([*result.diagnostics, refusal]), end="", file=sys.stderr)
        raise _Exit(EXIT_FINDINGS)
    # Only the case is written: the text and span maps go first, so they
    # are not held while the output is built.  The output's lines are
    # built, joined and written a slice at a time, so no list of them all,
    # no whole text and no encoded copy of it is ever held.
    case = result.case
    del result
    lines, separator = _canonical_lines(case), ""
    while chunk := list(islice(lines, _WRITE_SLICE)):
        print(separator, "\n".join(chunk), sep="", end="")
        separator = "\n"
    return EXIT_OK


# Each command's handler, help line, options and the options it requires.
_COMMANDS = {
    "check": (_cmd_check, "parse and validate a document", _ANALYSIS, ()),
    "coverage": (_cmd_analysis, "coverage map, gaps, and balance", _ANALYSIS, ()),
    "trace": (_cmd_analysis, "hazard traceability matrix", _ANALYSIS, ()),
    "review": (_cmd_review, "readiness gate against an exposure ledger", _REVIEW, ("--ledger",)),
    "report": (_cmd_report, "full report written to a directory", _REPORT, ("--out",)),
    "fmt": (_cmd_fmt, "print the document in canonical form", (), ()),
}


def run(argv: list[str] | None = None) -> int:
    # Cyclic GC is paused for the command. The case is an acyclic graph,
    # so the collector only rescans it: one x300 parse (53,711 lines) ran
    # 262 gen-0, 23 gen-1 and 1 gen-2 collections, and after a whole
    # command on the golden case, a dirty x100 case or the x300 case,
    # `gc.collect()` found the same 318-351 unreachable objects, which
    # are argparse's own cycles. Cold, over 8 alternating rounds, the
    # pause took `check` to 0.92x, `report` to 0.88x and `fmt` to 0.92x
    # of the time with GC on, at the same peak RSS. GC is re-enabled
    # only if it was enabled on entry.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        argv = sys.argv[1:] if argv is None else argv
        if argv == ["--version"]:
            # Where argparse prints it: on stderr when stdout is closed.
            print(_VERSION, file=sys.stdout or sys.stderr)
            return EXIT_OK
        args = _canonical_args(argv)
        if args is None:
            try:
                args = SimpleNamespace(**vars(_build_parser().parse_args(argv)))
            except SystemExit as exc:
                # argparse exits 2 on usage errors and 0 for --help/--version.
                return int(exc.code or 0)
        try:
            return _COMMANDS[args.command][0](args)
        except _Exit as exc:
            if exc.usage:
                print(f"aurcase: error: {exc.usage}", file=sys.stderr)
            return exc.code
    finally:
        if gc_was_enabled:
            gc.enable()


def main() -> None:
    try:
        code = run()
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when the descriptor was closed
                stream.flush()
    except BrokenPipeError:
        # The reader went away: nothing more can be told.
        code = EXIT_FINDINGS
    except OSError as exc:
        if exc.filename is not None:  # a file the command used, not a stream
            raise
        # Writing stdout failed (a full disk) in the command or at the flush: a
        # usage error. `os._exit` drops the unwritten rest, so nothing raises again.
        code = EXIT_USAGE
        try:
            message = f"aurcase: error: cannot write stdout: {exc.strerror or exc}"
            print(message, file=sys.stderr, flush=True)
        except OSError:  # stderr cannot be written either
            pass
    os._exit(code)


if __name__ == "__main__":
    main()
