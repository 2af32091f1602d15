"""Acceptance suite.

One test per acceptance criterion, each printing a pass/fail line and
enforcing its stated tolerance and runtime budget.  Oracles (direct CDF
summation, separately written bisection, nested-loop cell enumeration)
live in `oracles.py` and never call the code paths they check.
"""

from __future__ import annotations

import functools
import importlib.util
import json
import math
import os
import random
import re
import subprocess
import sys
import time
import warnings

import pytest
from hypothesis import HealthCheck, given, settings

import aurcase
from aurcase.coverage import (
    FULL_REGION,
    BalanceClass,
    Signal,
    aggregation_balance,
    coverage_map,
    gap_report,
    region_cells,
)
from aurcase.diagnostics import Severity
from aurcase.dsl import parse, serialize
from aurcase.lifecycle import (
    ExposureLedger,
    LedgerEntry,
    Phase,
    TargetStatus,
    rate_upper_bound,
    readiness_review,
)
from aurcase.model import (
    AggregationLevel,
    BehavioralCapability,
    ConflictRole,
    FunctionalityStatus,
    SeverityLevel,
)
from aurcase.rules import RuleConfig, rule_catalog, validate

from conftest import FIXTURES, fixture_text, pipeline
from mutations import MUTATIONS
from oracles import enumerate_cells, upper_bound_bisect
from strategies import safety_cases


def criterion(label: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] {label}: FAIL", flush=True)
                raise
            print(f"[acceptance] {label}: PASS", flush=True)
            return result

        return wrapper

    return decorate


@criterion("1. AC-space cardinality (96 cells vs enumeration oracle, <1s)")
def test_criterion_1_space_cardinality():
    started = time.perf_counter()
    cells = region_cells(FULL_REGION)
    oracle = enumerate_cells(
        SeverityLevel,
        ConflictRole,
        BehavioralCapability,
        FunctionalityStatus,
        AggregationLevel,
    )
    elapsed = time.perf_counter() - started
    assert len(cells) == 96
    assert len(oracle) == 96
    assert {
        (c.severity, c.role, c.capability, c.status, c.aggregation) for c in cells
    } == oracle
    assert elapsed < 1.0, f"took {elapsed:.3f}s"


@criterion("2. worked-example coverage map (3 strong + 1 weak, exact)")
def test_criterion_2_worked_example_reproduction(golden_cat_text):
    case = parse(golden_cat_text, "golden_cat.aur").case
    coverage = coverage_map(case)
    strong = coverage.cells_with(Signal.STRONG)
    weak = coverage.cells_with(Signal.WEAK)
    assert len(strong) == 3 and len(weak) == 1
    for cell in strong | weak:
        assert cell.role is ConflictRole.RESPONDER
        assert cell.capability is BehavioralCapability.COLLISION_AVOIDANCE
        assert cell.status is FunctionalityStatus.NOMINAL
        assert cell.aggregation is AggregationLevel.AGGREGATE_LEVEL
    assert {c.severity for c in strong} == {
        SeverityLevel.S0,
        SeverityLevel.S1,
        SeverityLevel.S2,
    }
    assert {c.severity for c in weak} == {SeverityLevel.S3}
    gaps = gap_report(coverage)
    assert (gaps.marginals["role"]["initiator"].numerator,
            gaps.marginals["role"]["initiator"].denominator) == (0, 48)
    assert (gaps.covered.numerator, gaps.covered.denominator) == (4, 96)


@criterion("3. rule-mutation suite (20 registered rules, paired, <1s each)")
def test_criterion_3_rule_mutations():
    registered = [info.rule_id for info in rule_catalog()]
    covered = {mutation.rule_id for mutation in MUTATIONS}
    assert covered == set(registered)
    assert len(MUTATIONS) >= 17
    for mutation in MUTATIONS:
        started = time.perf_counter()
        base = fixture_text(mutation.base_fixture)
        assert pipeline(base, mutation.config) == [], mutation.rule_id
        mutated = pipeline(mutation.apply(base), mutation.config)
        elapsed = time.perf_counter() - started
        assert [d.rule_id for d in mutated] == [mutation.rule_id], (
            f"{mutation.rule_id}: {mutation.description} -> "
            f"{[d.rule_id for d in mutated]}"
        )
        assert elapsed < 1.0, f"{mutation.rule_id} took {elapsed:.3f}s"


@criterion("4. aggregation-balance quadrants (4 classes; none => E001)")
def test_criterion_4_balance_quadrants():
    expectations = {
        "golden_min.aur": BalanceClass.BALANCED,
        "balance_aggregate_only.aur": BalanceClass.AGGREGATE_ONLY,
        "balance_event_only.aur": BalanceClass.EVENT_ONLY,
        "balance_none.aur": BalanceClass.NONE,
    }
    seen = set()
    for fixture, expected in expectations.items():
        case = parse(fixture_text(fixture), fixture).case
        assert aggregation_balance(case) is expected, fixture
        seen.add(expected)
        if expected is BalanceClass.NONE:
            codes = [d.rule_id for d in pipeline(fixture_text(fixture))]
            assert codes == ["E001"]
    assert seen == set(BalanceClass)


@criterion("5. rate-bound oracle equivalence (counts 0-20, 1e-6 rel, <5s)")
def test_criterion_5_rate_bound_oracle_equivalence():
    closed_form = -math.log(0.05) / 1e6
    value = rate_upper_bound(0, 1e6, 0.95)
    assert abs(value - closed_form) / closed_form < 1e-9
    assert abs(closed_form - 2.99573e-6) / 2.99573e-6 < 1e-5

    started = time.perf_counter()
    worst = 0.0
    for count in range(0, 21):
        for exposure in (1e3, 1e4, 1e5, 1e6, 1e7):
            for confidence in (0.9, 0.95, 0.99):
                bound = rate_upper_bound(count, exposure, confidence)
                reference = upper_bound_bisect(count, exposure, confidence)
                worst = max(worst, abs(bound - reference) / reference)
    elapsed = time.perf_counter() - started
    assert worst < 1e-6, f"worst relative error {worst:.2e}"
    assert elapsed < 5.0, f"sweep took {elapsed:.3f}s"


@criterion("6. confidence growth (bound strictly decreasing, 1000 cases)")
def test_criterion_6_confidence_growth():
    rng = random.Random(6021023)
    for _ in range(1000):
        low = rng.uniform(1.0, 1e8)
        high = low * rng.uniform(1.0 + 1e-6, 1e4)
        confidence = rng.uniform(0.5, 0.999)
        assert rate_upper_bound(0, high, confidence) < rate_upper_bound(
            0, low, confidence
        )


@settings(
    max_examples=1000,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(case=safety_cases())
def _round_trip_property(case):
    rendered = serialize(case)
    result = parse(rendered, "round.aur")
    assert not result.fatal, result.diagnostics
    assert result.diagnostics == ()
    assert result.case == case


@criterion("7. round-trip x1000 and 10000-input fuzz (no crashes)")
def test_criterion_7_round_trip_and_fuzz():
    _round_trip_property()
    rng = random.Random(7001)
    for _ in range(10_000):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 120)))
        result = parse(blob, "fuzz.aur")
        assert result.case is not None or len(result.diagnostics) >= 1


@criterion("8. gate implication (approved => no errors and targets met)")
def test_criterion_8_gate_implication(golden_cat_text, golden_min_text):
    corpus = [
        parse(golden_cat_text, "golden_cat.aur").case,
        parse(golden_min_text, "golden_min.aur").case,
    ]
    for mutation in MUTATIONS:
        if mutation.rule_id in ("E010", "E013"):
            continue  # parse-fatal: no case to review
        result = parse(mutation.apply(fixture_text(mutation.base_fixture)), "m.aur")
        if result.case is not None:
            corpus.append(result.case)

    rng = random.Random(8001)
    approvals = 0
    for case in corpus:
        for _ in range(8):
            entries = []
            for index in range(rng.randrange(0, 3)):
                entries.append(
                    LedgerEntry(
                        release=f"r{index}",
                        phase=rng.choice(list(Phase)),
                        exposure=10 ** rng.uniform(3, 7),
                        exposure_unit="mi",
                        event_counts={"injury-causing collision": rng.randrange(0, 3)},
                    )
                )
            ledger = ExposureLedger(entries=tuple(entries))
            decision = readiness_review(case, ledger)
            if not decision.approved:
                continue
            approvals += 1
            errors = [
                d
                for d in validate(case, RuleConfig(review_ready=True))
                if d.severity is Severity.ERROR
            ]
            assert errors == [], case.id
            assert all(
                check.status is TargetStatus.MET for check in decision.target_checks
            )
    assert approvals > 0, "property would be vacuous: no approved decision in corpus"


def _run_cli_in_fixtures(command: list[str]):
    """Run a cold CLI process from tests/fixtures; return it and its wall time.

    A relative PYTHONPATH no longer resolves there, so the absolute src
    directory goes first.  The golden artifacts were made under the
    default rule config, so an ambient AURCASE_CONFIG is dropped.
    """
    env = dict(os.environ)
    env.pop("AURCASE_CONFIG", None)
    python_path = [str(FIXTURES.resolve().parents[1] / "src")]
    if env.get("PYTHONPATH"):
        python_path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(python_path)
    started = time.perf_counter()
    completed = subprocess.run(
        command, cwd=FIXTURES, env=env, capture_output=True, text=True, timeout=30
    )
    return completed, time.perf_counter() - started


@criterion("9. end-to-end report run (golden byte-match, exit 0, <2s)")
def test_criterion_9_end_to_end(tmp_path):
    out_dir = tmp_path / "out"
    command = [
        sys.executable,
        "-m",
        "aurcase.cli",
        "report",
        "golden_cat.aur",
        "--ledger",
        "golden.ledger",
        "--out",
        str(out_dir),
    ]
    completed, elapsed = _run_cli_in_fixtures(command)
    assert completed.returncode == 0, completed.stderr
    assert elapsed < 2.0, f"took {elapsed:.3f}s"

    golden_dir = FIXTURES / "golden_out"
    for name in ("report.txt", "heatmap.svg", "trace.txt"):
        assert (out_dir / name).read_bytes() == (golden_dir / name).read_bytes(), name
    strip = lambda s: re.sub(r'"generated_at": "[^"]*"', "", s)  # noqa: E731
    assert strip((out_dir / "report.json").read_text()) == strip(
        (golden_dir / "report.json").read_text()
    )


_NONZERO_LEDGER = (
    "release,phase,exposure,exposure_unit,event_definition,count\n"
    "2024.3.1,predicted,10000000,mi,injury-causing collision,3\n"
)


def _cold_imports(*args: str, code: int = 0):
    """Run `python *args` in a cold process with `-X importtime` and without
    the site module, so that no site-packages hook imports anything; expect
    exit `code` and return the process, its wall time and the dotted names
    of every module imported."""
    command = [sys.executable, "-S", "-X", "importtime", *args]
    completed, elapsed = _run_cli_in_fixtures(command)
    assert completed.returncode == code, completed.stderr
    imported = {
        line.rpartition("|")[2].strip()
        for line in completed.stderr.splitlines()
        if line.startswith("import time:")
    }
    return completed, elapsed, imported - {"imported package"}


def _cold_cli_imports(argv: list[str], code: int = 0):
    return _cold_imports("-m", "aurcase.cli", *argv, code=code)


def _foreign(imported: set[str]) -> set[str]:
    """The top-level packages in `imported` that are neither the standard
    library nor aurcase. importtime also lists failed attempts, such as
    `copy` probing for Jython's `org`; a module that cannot be found was
    not imported."""
    top_level = {name.partition(".")[0] for name in imported}
    foreign = top_level - set(sys.stdlib_module_names) - {"aurcase"}
    return {name for name in foreign if importlib.util.find_spec(name)}


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "golden_cat.aur"],
        ["review", "golden_cat.aur", "--ledger", "{ledger}"],
        ["report", "golden_cat.aur", "--ledger", "{ledger}", "--out", "{out}"],
        ["fmt", "golden_cat.aur"],
    ],
    ids=lambda argv: argv[0],
)
def test_commands_import_nothing_outside_the_standard_library(tmp_path, argv):
    ledger = tmp_path / "nonzero.ledger"
    ledger.write_text(_NONZERO_LEDGER)
    argv = [arg.format(ledger=ledger, out=tmp_path / "out") for arg in argv]
    _, _, imported = _cold_cli_imports(argv)
    assert "aurcase" in imported
    assert not _foreign(imported)


@pytest.mark.parametrize(
    "argv",
    [
        ["--version"],
        ["check", "golden_cat.aur"],
        ["review", "golden_cat.aur", "--ledger", "{ledger}"],
        ["report", "golden_cat.aur", "--ledger", "{ledger}", "--out", "{out}"],
        ["fmt", "golden_cat.aur"],
    ],
    ids=lambda argv: argv[0],
)
def test_commands_start_without_generating_classes(tmp_path, argv):
    """The value classes are `Record`s, built without `dataclasses`, so a
    cold command imports neither it nor the `inspect` it pulls in."""
    ledger = tmp_path / "nonzero.ledger"
    ledger.write_text(_NONZERO_LEDGER)
    argv = [arg.format(ledger=ledger, out=tmp_path / "out") for arg in argv]
    _, _, imported = _cold_cli_imports(argv)
    assert "aurcase.model" in imported
    assert not imported & {"dataclasses", "inspect"}


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "golden_cat.aur"],
        ["review", "golden_cat.aur", "--ledger", "{ledger}"],
        ["report", "golden_cat.aur", "--ledger", "{ledger}", "--out", "{out}"],
        ["fmt", "golden_cat.aur"],
    ],
    ids=lambda argv: argv[0],
)
def test_commands_hash_without_openssl(tmp_path, argv):
    """`report` digests its inputs with the interpreter's own SHA-256, so
    no command loads OpenSSL through `hashlib`."""
    ledger = tmp_path / "nonzero.ledger"
    ledger.write_text(_NONZERO_LEDGER)
    argv = [arg.format(ledger=ledger, out=tmp_path / "out") for arg in argv]
    _, _, imported = _cold_cli_imports(argv)
    assert "aurcase.report" in imported
    assert not imported & {"hashlib", "_hashlib"}


@pytest.mark.parametrize(
    "argv, code, loaded",
    [
        pytest.param(["--version"], 0, False, id="version"),
        pytest.param(["check", "golden_cat.aur"], 0, False, id="check"),
        pytest.param(["coverage", "golden_cat.aur"], 0, False, id="coverage"),
        pytest.param(["trace", "golden_cat.aur"], 0, False, id="trace"),
        pytest.param(
            ["review", "golden_cat.aur", "--ledger", "{ledger}", "--format", "machine"],
            0,
            False,
            id="review-machine",
        ),
        pytest.param(
            ["report", "golden_cat.aur", "--ledger", "{ledger}", "--out", "{out}"],
            0,
            False,
            id="report",
        ),
        pytest.param(["fmt", "golden_cat.aur"], 0, False, id="fmt"),
        pytest.param(["--help"], 0, True, id="help"),
        pytest.param(["check", "golden_cat.aur", "--no-such-flag"], 2, True, id="usage-error"),
    ],
)
def test_only_help_and_usage_errors_load_argparse(tmp_path, argv, code, loaded):
    """`run` reads a canonical command line itself; argparse, and the
    `gettext` it pulls in, load only for the argv it must print about."""
    ledger = tmp_path / "nonzero.ledger"
    ledger.write_text(_NONZERO_LEDGER)
    argv = [arg.format(ledger=ledger, out=tmp_path / "out") for arg in argv]
    _, _, imported = _cold_cli_imports(argv, code=code)
    assert "aurcase" in imported
    assert imported & {"argparse", "gettext"} == ({"argparse", "gettext"} if loaded else set())


@pytest.mark.parametrize(
    "argv, loaded",
    [
        pytest.param(["--version"], set(), id="version"),
        pytest.param(["check", "golden_cat.aur"], set(), id="check"),
        pytest.param(["coverage", "golden_cat.aur"], set(), id="coverage"),
        pytest.param(["trace", "golden_cat.aur"], set(), id="trace"),
        pytest.param(["fmt", "golden_cat.aur"], set(), id="fmt"),
        pytest.param(
            ["check", "golden_cat.aur", "--format", "machine"], {"json"}, id="check-machine"
        ),
        pytest.param(["review", "golden_cat.aur", "--ledger", "{ledger}"], {"csv"}, id="review"),
        pytest.param(
            ["report", "golden_cat.aur", "--ledger", "{ledger}", "--out", "{out}"],
            {"json", "csv"},
            id="report",
        ),
    ],
)
def test_commands_load_json_and_csv_only_when_they_use_them(tmp_path, argv, loaded):
    """`json` is imported by `report.render_json` and `csv` by
    `lifecycle.parse_ledger`, each when first called, so a command that
    prints no JSON and reads no ledger loads neither."""
    ledger = tmp_path / "nonzero.ledger"
    ledger.write_text(_NONZERO_LEDGER)
    argv = [arg.format(ledger=ledger, out=tmp_path / "out") for arg in argv]
    _, _, imported = _cold_cli_imports(argv)
    assert "aurcase.report" in imported
    assert imported & {"json", "csv"} == loaded


def test_cold_review_with_a_nonzero_count_stays_light(tmp_path):
    """The golden ledger's zero counts take the closed form; a nonzero
    count exercises the full Poisson solver in a cold process."""
    ledger = tmp_path / "nonzero.ledger"
    ledger.write_text(_NONZERO_LEDGER)
    completed, elapsed, imported = _cold_cli_imports(
        ["review", "golden_cat.aur", "--ledger", str(ledger), "--format", "machine"]
    )
    assert elapsed < 2.0, f"took {elapsed:.3f}s"
    assert "aurcase.lifecycle" in imported
    assert not [name for name in imported if "scipy" in name]
    (target,) = json.loads(completed.stdout)["targets"]
    assert (target["events"], target["status"]) == (3, "met")
    reference = upper_bound_bisect(3, 1e7, 0.95)
    assert abs(target["upper_bound"] - reference) / reference < 1e-6


# -- the package's exports ----------------------------------------------------

PUBLIC_NAMES = frozenset(
    """
    __version__ AcceptanceCriterion AcSpaceRegion AggregationLevel ArgumentRow
    BalanceClass BehavioralCapability CausalStage Cell ClaimKind ClaimNode
    ConflictRole ContextBlock CoverageMap Diagnostic DriftCheck DriftStatus Evidence
    EvidenceStrength ExposureLedger FunctionalityStatus GapReport Hazard
    HazardCategory Indicator IndicatorKind LedgerEntry
    Methodology ModelError ParseResult Phase ReadinessDecision ReportDocument
    RuleConfig RuleInfo SafetyCase Severity SeverityLevel Signal SourceSpan
    TargetCheck TargetKind TargetStatus TraceMatrix UnresolvedCaseError
    ValidationTarget aggregation_balance build_report check_target
    classify_indicator coverage_map drift_check gap_report parse parse_config
    parse_ledger rate_upper_bound readiness_review region_cells render_heatmap
    render_machine render_text resolve_references rule_catalog serialize
    trace_matrix validate
    """.split()
)
SUBMODULES = ("coverage", "diagnostics", "dsl", "lifecycle", "model", "report", "rules")


def test_bare_package_import_loads_only_the_version():
    _, _, imported = _cold_imports("-c", "import aurcase")
    assert {name for name in imported if name.startswith("aurcase")} == {
        "aurcase",
        "aurcase._version",
    }
    assert not _foreign(imported)


def test_a_name_loads_its_module_on_first_use():
    completed, _, imported = _cold_imports(
        "-c", "import aurcase; print(aurcase.serialize.__module__, aurcase.lifecycle.__name__)"
    )
    assert completed.stdout.split() == ["aurcase.dsl", "aurcase.lifecycle"]
    assert "aurcase.report" not in imported


def test_report_imports_neither_the_gate_nor_the_parser():
    _, _, imported = _cold_imports("-c", "import aurcase.report")
    assert "aurcase.report" in imported
    assert not imported & {"aurcase.lifecycle", "aurcase.rules", "aurcase.dsl"}


def test_the_package_version_is_read_from_the_version_module():
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # older setuptools call `[tool.setuptools]` beta
        pyproject = FIXTURES.parents[1] / "pyproject.toml"
        config = pyprojecttoml.read_configuration(pyproject, expand=True)
    assert config["project"]["version"] == aurcase.__version__


def test_every_public_name_is_its_defining_modules_object():
    assert set(aurcase.__all__) == PUBLIC_NAMES
    assert len(aurcase.__all__) == len(PUBLIC_NAMES)
    assert aurcase.__version__ is sys.modules["aurcase._version"].__version__
    for name in PUBLIC_NAMES - {"__version__"}:
        value = getattr(aurcase, name)
        assert value.__module__.removeprefix("aurcase.") in SUBMODULES, name
        assert value is getattr(sys.modules[value.__module__], name), name
        assert aurcase.__getattr__(name) is value, name
    for module in SUBMODULES:
        assert aurcase.__getattr__(module) is sys.modules[f"aurcase.{module}"]


def test_star_import_and_dir_list_every_public_name():
    namespace: dict = {}
    exec("from aurcase import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC_NAMES
    assert set(dir(aurcase)) >= PUBLIC_NAMES | set(SUBMODULES)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'aurcase' has no attribute 'x'$"):
        aurcase.x
    with pytest.raises(ImportError, match="cannot import name 'x'"):
        exec("from aurcase import x", {})
