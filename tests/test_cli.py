from __future__ import annotations

import gc
import hashlib
import importlib.util
import json
import random
import re
import sys
from pathlib import Path

import pytest

from aurcase import cli
from aurcase.cli import run
from aurcase.lifecycle import rate_upper_bound

from conftest import FIXTURES, fixture_text
from mutations import MUTATIONS

GOLDEN = str(FIXTURES / "golden_cat.aur")
LEDGER = str(FIXTURES / "golden.ledger")
PERFBENCH_GEN = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"


def write(tmp_path: Path, name: str, text: str) -> str:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def with_and_without_bom(tmp_path: Path, name: str, text: str) -> tuple[str, str]:
    """`text` written as `plain/<name>` and, after a UTF-8 byte order mark,
    as `bom/<name>`; returns both paths."""
    paths = []
    for folder, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        path = tmp_path / folder / name
        path.parent.mkdir()
        path.write_bytes(prefix + text.encode("utf-8"))
        paths.append(str(path))
    return paths[0], paths[1]


def mutate(rule_id: str) -> str:
    mutation = [m for m in MUTATIONS if m.rule_id == rule_id][0]
    return mutation.apply(fixture_text(mutation.base_fixture))


def perfbench_gen():
    spec = importlib.util.spec_from_file_location("_perfbench_gen", PERFBENCH_GEN)
    gen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gen  # dataclasses look their module up
    spec.loader.exec_module(gen)
    return gen


def scaled_golden(copies: int) -> str:
    """The golden case cloned `copies` times by perfbench's generator."""
    gen = perfbench_gen()
    model = gen.Golden.load(FIXTURES / "golden_cat.aur")
    return gen.assemble(model.header, gen.scaled(model, copies))


def scaled_findings(copies: int) -> str:
    """Like `scaled_golden`, with every counter, limitations and evidence
    row dropped and half the evidence references dangling, so each clone
    adds W101, W102, E006, E009 and W103 findings."""
    gen = perfbench_gen()
    model = gen.Golden.load(FIXTURES / "golden_cat.aur")
    case = gen.findings_case(
        model, random.Random(9), "dirty", dangling=True, copies=copies, drop=1.0, dangle=0.5
    )
    return case.text


class TestCheck:
    def test_golden_exits_zero_with_no_error_lines(self, capsys):
        assert run(["check", GOLDEN]) == 0
        out = capsys.readouterr().out
        assert "error[" not in out
        assert "0 error(s), 0 warning(s)" in out

    def test_missing_subclaim_exits_one_with_located_e002(self, tmp_path, capsys):
        path = write(tmp_path, "missing_sc1.aur", mutate("E002"))
        assert run(["check", path]) == 1
        out = capsys.readouterr().out
        assert re.search(
            rf"{re.escape(path)}:\d+:\d+: error\[E002\]: ", out
        ), out

    def test_syntax_error_exits_two(self, tmp_path, capsys):
        path = write(tmp_path, "broken.aur", 'safety_case "x" {')
        assert run(["check", path]) == 2
        assert "error[E013]" in capsys.readouterr().out

    def test_machine_format_is_json(self, capsys):
        assert run(["check", GOLDEN, "--format", "machine"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"] == {"errors": 0, "warnings": 0}

    def test_warnings_do_not_fail_the_exit_code(self, tmp_path, capsys):
        path = write(tmp_path, "warned.aur", mutate("W103"))
        assert run(["check", path]) == 0
        assert "warning[W103]" in capsys.readouterr().out

    def test_review_ready_flag_enables_e011(self, tmp_path, capsys):
        text = fixture_text("golden_cat.aur").replace(
            'deployment_scale = "Up to 400 vehicles, about one million miles per quarter"',
            'deployment_scale = ""',
        )
        path = write(tmp_path, "draft.aur", text)
        assert run(["check", path]) == 0
        assert run(["check", path, "--review-ready"]) == 1
        assert "error[E011]" in capsys.readouterr().out

    def test_config_file_flag(self, tmp_path, capsys):
        path = write(tmp_path, "warned.aur", mutate("W103"))
        config = write(tmp_path, "rules.cfg", "rule.W103.severity = error\n")
        assert run(["check", path, "--config", config]) == 1
        assert "error[W103]" in capsys.readouterr().out

    def test_config_env_var(self, tmp_path, capsys, monkeypatch):
        path = write(tmp_path, "warned.aur", mutate("W103"))
        config = write(tmp_path, "rules.cfg", "rule.W103.severity = off\n")
        monkeypatch.setenv("AURCASE_CONFIG", config)
        assert run(["check", path]) == 0
        assert "W103" not in capsys.readouterr().out

    def test_coverage_threshold_flag_fires_w106(self, capsys):
        assert run(["check", GOLDEN, "--coverage-threshold", "0.5"]) == 0
        assert "warning[W106]" in capsys.readouterr().out

    def test_missing_file_is_a_usage_error(self, capsys):
        assert run(["check", "/nonexistent/case.aur"]) == 2
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("rule_id", ["E009", "W103"])
    def test_a_case_with_a_byte_order_mark_checks_like_the_plain_one(
        self, tmp_path, capsys, rule_id
    ):
        """Findings, their positions and the exit code are those of the
        plain file: positions count from after the mark."""
        plain, bom = with_and_without_bom(tmp_path, "case.aur", mutate(rule_id))
        for extra in ([], ["--format", "machine"]):
            code = run(["check", plain, *extra])
            expected = capsys.readouterr()
            assert rule_id in expected.out
            assert run(["check", bom, *extra]) == code
            got = capsys.readouterr()
            assert got.out.replace(bom, plain) == expected.out
            assert got.err == expected.err

    def test_a_config_with_a_byte_order_mark_acts_like_the_plain_one(self, tmp_path, capsys):
        path = write(tmp_path, "warned.aur", mutate("W103"))
        plain, bom = with_and_without_bom(tmp_path, "rules.cfg", "rule.W103.severity = error\n")
        assert run(["check", path, "--config", plain]) == 1
        expected = capsys.readouterr()
        assert "error[W103]" in expected.out
        assert run(["check", path, "--config", bom]) == 1
        assert capsys.readouterr() == expected

    def test_a_config_that_is_not_utf8_names_its_file(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_bytes(b"rule.W103.severity = off\n# \xff\n")
        assert run(["check", "--config", str(config), GOLDEN]) == 2
        assert capsys.readouterr().err.startswith(
            f"aurcase: error: {config}: 'utf-8' codec can't decode byte 0xff"
        )


class TestCoverage:
    def test_golden_table(self, capsys):
        assert run(["coverage", GOLDEN]) == 0
        out = capsys.readouterr().out
        assert "coverage: 4/96 cells covered (3/96 strong)" in out
        assert "responder 4/48" in out
        assert "initiator 0/48" in out

    def test_machine_format(self, capsys):
        assert run(["coverage", GOLDEN, "--format", "machine"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["overall"] == {"numerator": 4, "denominator": 96}

    def test_unresolved_case_refuses_with_e008(self, tmp_path, capsys):
        path = write(tmp_path, "dangling.aur", mutate("E009"))
        assert run(["coverage", path]) == 1
        err = capsys.readouterr().err
        assert "error[E009]" in err
        assert "error[E008]" in err


class TestTrace:
    def test_golden_row(self, capsys):
        assert run(["trace", GOLDEN]) == 0
        assert "H1 | AC1, AC2 | C1, C2 | E1, E2, E3 | yes" in capsys.readouterr().out

    def test_machine_format(self, capsys):
        assert run(["trace", GOLDEN, "--format", "machine"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"][0]["hazard"] == "H1"
        assert payload["rows"][0]["complete"] is True


class TestReview:
    def test_approved(self, capsys):
        assert run(["review", GOLDEN, "--ledger", LEDGER]) == 0
        out = capsys.readouterr().out
        assert "readiness: approved" in out
        assert "met" in out

    def test_blocked_on_thin_exposure(self, tmp_path, capsys):
        ledger = write(
            tmp_path,
            "thin.ledger",
            "release,phase,exposure,exposure_unit,event_definition,count\n"
            "2024.3.1,predicted,100000,mi,injury-causing collision,0\n",
        )
        assert run(["review", GOLDEN, "--ledger", ledger]) == 1
        out = capsys.readouterr().out
        assert "readiness: blocked" in out
        assert "target unmet" in out

    def test_machine_format(self, capsys):
        assert run(["review", GOLDEN, "--ledger", LEDGER, "--format", "machine"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "approved"
        assert payload["targets"][0]["status"] == "met"

    def test_bad_ledger_is_a_usage_error(self, tmp_path, capsys):
        ledger = write(tmp_path, "bad.ledger", "not,a,ledger\n")
        assert run(["review", GOLDEN, "--ledger", ledger]) == 2
        assert "header" in capsys.readouterr().err

    def test_a_ledger_with_a_byte_order_mark_reads_like_the_plain_one(
        self, tmp_path, capsys
    ):
        bom = tmp_path / "bom.ledger"
        bom.write_bytes(b"\xef\xbb\xbf" + Path(LEDGER).read_bytes())
        assert run(["review", GOLDEN, "--ledger", LEDGER]) == 0
        plain = capsys.readouterr()
        assert run(["review", GOLDEN, "--ledger", str(bom)]) == 0
        assert capsys.readouterr() == plain
        out_dir = tmp_path / "out"
        assert run(["report", GOLDEN, "--ledger", str(bom), "--out", str(out_dir)]) == 0
        payload = json.loads((out_dir / "report.json").read_text())
        assert payload["inputs"]["ledger"]["sha256"] == hashlib.sha256(
            bom.read_bytes()
        ).hexdigest()


class TestReport:
    def test_writes_all_four_outputs(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert run(["report", GOLDEN, "--ledger", LEDGER, "--out", str(out_dir)]) == 0
        for name in ("report.txt", "report.json", "heatmap.svg", "trace.txt"):
            assert (out_dir / name).exists(), name
        payload = json.loads((out_dir / "report.json").read_text())
        assert payload["review"]["status"] == "approved"
        assert payload["inputs"]["case"]["sha256"]
        assert payload["inputs"]["ledger"]["sha256"]

    def test_regeneration_is_identical_modulo_timestamp(self, tmp_path):
        first_dir, second_dir = tmp_path / "a", tmp_path / "b"
        assert run(["report", GOLDEN, "--ledger", LEDGER, "--out", str(first_dir)]) == 0
        assert run(["report", GOLDEN, "--ledger", LEDGER, "--out", str(second_dir)]) == 0
        for name in ("report.txt", "heatmap.svg", "trace.txt"):
            assert (first_dir / name).read_bytes() == (second_dir / name).read_bytes()
        strip = lambda s: re.sub(r'"generated_at": "[^"]*"', "", s)  # noqa: E731
        assert strip((first_dir / "report.json").read_text()) == strip(
            (second_dir / "report.json").read_text()
        )

    def test_a_case_with_a_byte_order_mark_reports_like_the_plain_one(
        self, tmp_path, golden_cat_text
    ):
        """The artifacts are the plain file's, but the case digest is over
        the bytes as read, mark included."""
        plain, bom = with_and_without_bom(tmp_path, "case.aur", golden_cat_text)
        outputs = {}
        for path in (plain, bom):
            out_dir = tmp_path / "out" / Path(path).parent.name
            assert run(["report", path, "--ledger", LEDGER, "--out", str(out_dir)]) == 0
            outputs[path] = {
                name: (out_dir / name).read_text(encoding="utf-8")
                for name in ("report.txt", "report.json", "heatmap.svg", "trace.txt")
            }
        digests = {
            path: json.loads(outputs[path]["report.json"])["inputs"]["case"]["sha256"]
            for path in (plain, bom)
        }
        assert digests[bom] == hashlib.sha256(Path(bom).read_bytes()).hexdigest()
        assert digests[bom] != digests[plain]
        for name, expected in outputs[plain].items():
            got = outputs[bom][name].replace(bom, plain).replace(digests[bom], digests[plain])
            if name == "report.json":
                strip = lambda s: re.sub(r'"generated_at": "[^"]*"', "", s)  # noqa: E731
                got, expected = strip(got), strip(expected)
            assert got == expected, name

    def test_blocked_review_exits_one_but_still_writes(self, tmp_path):
        ledger = write(
            tmp_path,
            "thin.ledger",
            "release,phase,exposure,exposure_unit,event_definition,count\n"
            "2024.3.1,predicted,1000,mi,injury-causing collision,0\n",
        )
        out_dir = tmp_path / "out"
        assert run(["report", GOLDEN, "--ledger", ledger, "--out", str(out_dir)]) == 1
        payload = json.loads((out_dir / "report.json").read_text())
        assert payload["review"]["status"] == "blocked"

    def test_without_ledger_review_is_null(self, tmp_path):
        out_dir = tmp_path / "out"
        assert run(["report", GOLDEN, "--out", str(out_dir)]) == 0
        payload = json.loads((out_dir / "report.json").read_text())
        assert payload["review"] is None

    def test_an_artifact_it_cannot_write_is_a_usage_error(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        (out_dir / "report.json").mkdir(parents=True)
        assert run(["report", GOLDEN, "--out", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"aurcase: error: cannot write {out_dir / 'report.json'}: Is a directory\n"
        )


class TestFmt:
    def test_golden_is_already_canonical(self, capsys, golden_cat_text):
        assert run(["fmt", GOLDEN]) == 0
        assert capsys.readouterr().out == golden_cat_text

    def test_normalizes_ordering_and_layout(self, tmp_path, capsys):
        messy = (
            'safety_case "m" {\n'
            '  hazard H2 category = behavioral { description = "b" }\n'
            '  context { use_case = "pilot" }\n'
            '  hazard H1 category = behavioral { description = "a" }\n'
            "}\n"
        )
        path = write(tmp_path, "messy.aur", messy)
        assert run(["fmt", path]) == 0
        out = capsys.readouterr().out
        assert out.index("context {") < out.index("hazard H1") < out.index("hazard H2")

    def test_a_case_with_a_byte_order_mark_formats_like_the_plain_one(
        self, tmp_path, capsys, golden_cat_text
    ):
        plain, bom = with_and_without_bom(tmp_path, "case.aur", golden_cat_text)
        assert run(["fmt", plain]) == 0
        expected = capsys.readouterr()
        assert expected.out == golden_cat_text
        assert run(["fmt", bom]) == 0
        assert capsys.readouterr() == expected

    def test_unresolved_case_refuses(self, tmp_path, capsys):
        path = write(tmp_path, "dangling.aur", mutate("E009"))
        assert run(["fmt", path]) == 1
        assert "E008" in capsys.readouterr().err


class TestUsage:
    def test_unknown_subcommand_exits_two(self, capsys):
        assert run(["frobnicate", GOLDEN]) == 2

    def test_unknown_flag_exits_two(self, capsys):
        assert run(["check", GOLDEN, "--frobnicate"]) == 2

    def test_no_arguments_exits_two(self, capsys):
        assert run([]) == 2


def _reject_constant(name: str):
    raise ValueError(f"not strict JSON: {name}")


class TestEarlyExits:
    """The analysis commands end early the same way: a fatal parse prints
    its diagnostic to stdout and exits 2; a case with dangling references
    prints its E009 findings and one E008 to stderr and exits 1."""

    COMMANDS = ["coverage", "trace", "review", "report"]

    @staticmethod
    def argv(command: str, path: str, tmp_path: Path) -> list[str]:
        extra = {
            "review": ["--ledger", LEDGER],
            "report": ["--ledger", LEDGER, "--out", str(tmp_path / "out")],
        }
        return [command, path, *extra.get(command, [])]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_a_fatal_parse_prints_e013_and_exits_two(self, tmp_path, capsys, command):
        path = write(tmp_path, "broken.aur", 'safety_case "x" {')
        assert run(self.argv(command, path, tmp_path)) == 2
        captured = capsys.readouterr()
        assert re.match(rf"{re.escape(path)}:\d+:\d+: error\[E013\]: ", captured.out)
        assert captured.out.endswith("\n1 error(s), 0 warning(s)\n")
        assert captured.err == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_a_fatal_parse_in_machine_format_is_strict_json(self, tmp_path, capsys, command):
        path = write(tmp_path, "broken.aur", 'safety_case "x" {')
        assert run([*self.argv(command, path, tmp_path), "--format", "machine"]) == 2
        captured = capsys.readouterr()
        payload = json.loads(captured.out, parse_constant=_reject_constant)
        assert list(payload) == ["diagnostics"]
        assert [d["rule_id"] for d in payload["diagnostics"]] == ["E013"]
        assert payload["diagnostics"][0]["file"] == path
        assert captured.err == ""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_a_dangling_reference_refuses_on_stderr_and_exits_one(
        self, tmp_path, capsys, command
    ):
        path = write(tmp_path, "dangling.aur", mutate("E009"))
        assert run(self.argv(command, path, tmp_path)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.search(rf"^{re.escape(path)}:\d+:\d+: error\[E009\]: ", captured.err, re.M)
        assert captured.err.count("error[E008]") == 1
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "fixture",
    ["golden_cat.aur", "golden_min.aur", "balance_none.aur", "balance_aggregate_only.aur"],
)
def test_exit_code_contract_matches_error_diagnostics(fixture, capsys):
    from aurcase.diagnostics import Severity
    from conftest import pipeline

    diagnostics = pipeline(fixture_text(fixture))
    has_errors = any(d.severity is Severity.ERROR for d in diagnostics)
    code = run(["check", str(FIXTURES / fixture)])
    capsys.readouterr()
    assert (code == 0) == (not has_errors)


@pytest.mark.parametrize("command", ["check", "fmt"])
def test_backslash_before_a_line_break_is_a_positioned_e013(tmp_path, capsys, command):
    path = write(tmp_path, "split.aur", 'safety_case "a\\\nb" {}\n')
    assert run([command, path]) == 2
    captured = capsys.readouterr()
    output = captured.out + captured.err  # fmt keeps stdout for the document
    assert f"{path}:1:13: error[E013]: string literal must not span lines" in output
    assert "Traceback" not in output


class TestMachineOutputSharesTheReportSchema:
    """`--format machine` prints exactly the matching `report.json` section."""

    @pytest.mark.parametrize("source", ["golden", "E007", "W103"])
    def test_sections_match_key_for_key(self, source, tmp_path, capsys):
        text = fixture_text("golden_cat.aur") if source == "golden" else mutate(source)
        path = write(tmp_path, "case.aur", text)
        out = tmp_path / "out"
        run(["report", path, "--ledger", LEDGER, "--out", str(out)])
        capsys.readouterr()
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        sections = {
            "diagnostics": (["check", path], "diagnostics"),
            "coverage": (["coverage", path], None),
            "trace": (["trace", path], None),
            "review": (["review", path, "--ledger", LEDGER], None),
        }
        for section, (argv, key) in sections.items():
            run([*argv, "--format", "machine"])
            payload = json.loads(capsys.readouterr().out)
            assert (payload[key] if key else payload) == report[section], section
        assert bool(report["diagnostics"]) == (source != "golden")


class TestNonFiniteLedgers:
    def test_infinite_exposure_is_a_usage_error_not_an_approval(self, tmp_path, capsys):
        ledger = write(
            tmp_path,
            "inf.ledger",
            "release,phase,exposure,exposure_unit,event_definition,count\n"
            "r1,predicted,inf,mi,injury-causing collision,50\n",
        )
        assert run(["review", GOLDEN, "--ledger", ledger, "--format", "machine"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "ledger line 2: exposure must be finite" in captured.err

    def test_overflowing_exposure_blocks_with_strict_json(self, tmp_path, capsys):
        ledger = write(
            tmp_path,
            "big.ledger",
            "release,phase,exposure,exposure_unit,event_definition,count\n"
            "r1,predicted,1e308,mi,injury-causing collision,0\n"
            "r2,predicted,1e308,mi,injury-causing collision,0\n",
        )
        assert run(["review", GOLDEN, "--ledger", ledger, "--format", "machine"]) == 1
        out = capsys.readouterr().out
        assert "Infinity" not in out and "NaN" not in out
        assert json.loads(out)["status"] == "blocked"

    def test_a_bound_the_solver_cannot_reach_blocks(self, tmp_path, capsys):
        case = write(
            tmp_path,
            "even.aur",
            fixture_text("golden_cat.aur").replace("confidence = 0.95", "confidence = 0.5"),
        )
        ledger = write(
            tmp_path,
            "huge.ledger",
            "release,phase,exposure,exposure_unit,event_definition,count\n"
            "r1,predicted,1,mi,injury-causing collision,1000000000000000000\n",
        )
        assert run(["review", case, "--ledger", ledger]) == 1
        captured = capsys.readouterr()
        assert "readiness: blocked" in captured.out
        assert "rate upper bound" in captured.out
        assert "Traceback" not in captured.out + captured.err

    def test_a_bound_below_the_observed_rate_blocks(self, tmp_path, capsys):
        case = write(
            tmp_path,
            "loose.aur",
            fixture_text("golden_cat.aur").replace("max = 5e-06", "max = 0.99999995"),
        )
        ledger = write(
            tmp_path,
            "dense.ledger",
            "release,phase,exposure,exposure_unit,event_definition,count\n"
            "r1,predicted,1e16,mi,injury-causing collision,10000000000000000\n",
        )
        assert run(["review", case, "--ledger", ledger]) == 1
        captured = capsys.readouterr()
        assert "readiness: blocked" in captured.out
        assert "cannot be certified" in captured.out
        assert "Traceback" not in captured.out + captured.err

    def test_a_count_above_the_ceiling_blocks(self, tmp_path, capsys):
        # The solver's margin over the count falls 88 % short at 1e15, and
        # the short bound, 1e15 + 6e6, met a target of 1e15 + 2e7.
        case = write(
            tmp_path,
            "tight.aur",
            fixture_text("golden_cat.aur").replace("max = 5e-06", "max = 1000000020000000.0"),
        )
        ledger = write(
            tmp_path,
            "dense.ledger",
            "release,phase,exposure,exposure_unit,event_definition,count\n"
            "r1,predicted,1,mi,injury-causing collision,1000000000000000\n",
        )
        assert run(["review", case, "--ledger", ledger]) == 1
        captured = capsys.readouterr()
        assert "readiness: blocked" in captured.out
        assert "at or below 1000000000" in captured.out
        assert "Traceback" not in captured.out + captured.err

    def test_a_bound_a_hair_off_its_target_prints_both_in_full(self, tmp_path, capsys):
        bound = rate_upper_bound(3, 1e6, 0.95)
        target = bound * (1.0 - 1e-9)
        assert f"{bound:.6g}" == f"{target:.6g}" and bound > target
        case = write(
            tmp_path,
            "hair.aur",
            fixture_text("golden_cat.aur").replace("max = 5e-06", f"max = {target!r}"),
        )
        ledger = write(
            tmp_path,
            "three.ledger",
            "release,phase,exposure,exposure_unit,event_definition,count\n"
            "r1,predicted,1000000,mi,injury-causing collision,3\n",
        )
        assert run(["review", case, "--ledger", ledger]) == 1
        out = capsys.readouterr().out
        assert f"target AC1: unmet (upper bound {bound!r}, target {target!r}," in out
        assert f"target unmet: upper bound {bound!r} per mi exceeds {target!r} " in out


class TestGarbageCollectorPause:
    """`run` pauses cyclic GC for one command; the case graph is acyclic,
    so nothing it builds waits for the collector."""

    @pytest.fixture()
    def gc_during_parse(self, monkeypatch) -> list[bool]:
        seen: list[bool] = []
        parse = cli.parse

        def recording(*args, **kwargs):
            seen.append(gc.isenabled())
            return parse(*args, **kwargs)

        monkeypatch.setattr(cli, "parse", recording)
        return seen

    @pytest.mark.parametrize(
        "command, make_case, code",
        [
            ("check", scaled_golden, 0),
            ("report", scaled_golden, 0),
            ("fmt", scaled_golden, 0),
            ("check", scaled_findings, 1),
            ("report", scaled_findings, 1),
        ],
        ids=["check", "report", "fmt", "check-findings", "report-findings"],
    )
    def test_a_command_leaves_no_cycles_that_grow_with_the_case(
        self, tmp_path, capsys, command, make_case, code
    ):
        small = write(tmp_path, "x1.aur", make_case(1))
        large = write(tmp_path, "x20.aur", make_case(20))
        extra = ["--out", str(tmp_path / "out")] if command == "report" else []

        def unreachable_after(path: str) -> int:
            gc.collect()
            gc.disable()
            try:
                assert run([command, path, *extra]) == code
            finally:
                found = gc.collect()
                gc.enable()
            return found

        unreachable_after(small)  # first-use imports leave cycles of their own
        assert abs(unreachable_after(large) - unreachable_after(small)) <= 20

    @pytest.mark.parametrize(
        "text, code",
        [
            (fixture_text("golden_cat.aur"), 0),
            (mutate("E002"), 1),
            ('safety_case "x" {', 2),
        ],
        ids=["ok", "findings", "fatal"],
    )
    def test_gc_is_paused_for_the_command_and_resumed_after(
        self, tmp_path, capsys, gc_during_parse, text, code
    ):
        assert gc.isenabled()
        assert run(["check", write(tmp_path, "case.aur", text)]) == code
        assert gc_during_parse == [False]
        assert gc.isenabled()

    def test_gc_is_resumed_after_a_usage_error(self, capsys):
        assert run(["check", "--no-such-flag", GOLDEN]) == 2
        assert gc.isenabled()

    def test_gc_is_resumed_when_the_command_raises(self, monkeypatch):
        seen: list[bool] = []

        def failing(*args, **kwargs):
            seen.append(gc.isenabled())
            raise RuntimeError("parser crashed")

        monkeypatch.setattr(cli, "parse", failing)
        with pytest.raises(RuntimeError, match="parser crashed"):
            run(["check", GOLDEN])
        assert seen == [False]
        assert gc.isenabled()

    def test_gc_stays_disabled_when_it_was_disabled_on_entry(self, capsys):
        gc.disable()
        try:
            assert run(["check", GOLDEN]) == 0
            assert not gc.isenabled()
        finally:
            gc.enable()
