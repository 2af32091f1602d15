from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import importlib.util
import json
import os
import random
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aurcase import cli, dsl, parse, serialize, validate
from aurcase.cli import run
from aurcase.lifecycle import parse_ledger, rate_upper_bound, readiness_review
from aurcase.report import build_report

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

    @pytest.mark.parametrize("through", ["flag", "env"])
    def test_a_config_naming_an_unknown_rule_is_a_usage_error(
        self, tmp_path, capsys, monkeypatch, through
    ):
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "c.cfg", "rule.E999.severity = off\n")
        monkeypatch.delenv("AURCASE_CONFIG", raising=False)
        args = ["check", GOLDEN]
        if through == "flag":
            args += ["--config", "c.cfg"]
        else:
            monkeypatch.setenv("AURCASE_CONFIG", "c.cfg")
        assert run(args) == 2
        assert capsys.readouterr() == ("", "aurcase: error: c.cfg:1: unknown rule 'E999'\n")

    @pytest.mark.parametrize("threshold", ["1.5", "nan"])
    def test_a_coverage_threshold_outside_0_1_is_a_usage_error(self, capsys, threshold):
        assert run(["check", GOLDEN, "--coverage-threshold", threshold]) == 2
        assert capsys.readouterr() == (
            "",
            "aurcase: error: coverage threshold must lie in [0, 1]\n",
        )

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


    def test_a_case_without_hazards_prints_the_header_and_a_note(self, capsys):
        assert run(["trace", str(FIXTURES / "balance_none.aur")]) == 1
        assert capsys.readouterr().out == (
            "hazard | criteria | claims | evidence | complete\n(no hazards declared)\n"
        )


@pytest.mark.parametrize("command", ["coverage", "trace"])
@pytest.mark.parametrize("output", ["text", "machine"])
class TestAnalysisExitReason:
    """`coverage` and `trace` say on stderr which error findings make them
    exit 1, counted by rule, and leave stdout to the analysis."""

    def test_error_findings_are_counted_by_rule_on_stderr(
        self, tmp_path, capsys, monkeypatch, command, output
    ):
        scale = 'deployment_scale = "Up to 400 vehicles, about one million miles per quarter"'
        text = fixture_text("golden_cat.aur").replace("evidence = E3\n", "\n").replace(scale, "")
        path = write(tmp_path, "uncited.aur", text)

        def no_lookup(self, token):
            raise AssertionError(f"offset of token {token} looked up")

        # Only counts are printed, so no finding's span is looked up.
        monkeypatch.setattr(dsl._Source, "match", no_lookup)
        args = [command, path, "--format", output, "--review-ready"]
        assert run(args) == 1
        out, err = capsys.readouterr()
        assert err == (
            "aurcase: 4 error finding(s): E006 x3, E011 x1 (listed by 'aurcase check')\n"
        )
        # With those rules off, the same stdout, exit 0 and nothing on stderr.
        quiet = write(tmp_path, "quiet.cfg", "rule.E006.severity = off\nrule.E011.severity = off\n")
        assert run([*args, "--config", quiet]) == 0
        assert capsys.readouterr() == (out, "")

    def test_a_case_with_warnings_only_leaves_stderr_empty(
        self, tmp_path, capsys, command, output
    ):
        path = write(tmp_path, "warned.aur", mutate("W103"))
        assert run([command, path, "--format", output]) == 0
        assert capsys.readouterr().err == ""

    def test_the_case_without_hazards_names_e001(self, capsys, command, output):
        assert run([command, str(FIXTURES / "balance_none.aur"), "--format", output]) == 1
        assert capsys.readouterr().err == (
            "aurcase: 1 error finding(s): E001 x1 (listed by 'aurcase check')\n"
        )


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

    def test_a_misspelt_event_definition_blocks(self, tmp_path, capsys):
        # The target counts "injury-causing collision"; a row for another
        # spelling records no events for it, however much exposure it has.
        ledger = write(
            tmp_path,
            "misspelt.ledger",
            "release,phase,exposure,exposure_unit,event_definition,count\n"
            "2024.3.1,predicted,100000000,mi,injury causing collision,5000\n",
        )
        assert run(["review", GOLDEN, "--ledger", ledger]) == 1
        assert capsys.readouterr().out == (
            "readiness: blocked\n"
            "  blocker AC1: criterion AC1: release 2024.3.1 (predicted) records no "
            "count for event definition 'injury-causing collision'\n"
        )

    def test_machine_format(self, capsys):
        assert run(["review", GOLDEN, "--ledger", LEDGER, "--format", "machine"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "approved"
        assert payload["targets"][0]["status"] == "met"

    def test_a_ledger_with_only_observed_rows_has_no_bound_to_print(self, tmp_path, capsys):
        header, _predicted, observed = Path(LEDGER).read_text(encoding="utf-8").splitlines()
        ledger = write(tmp_path, "observed.ledger", f"{header}\n{observed}\n")
        assert run(["review", GOLDEN, "--ledger", ledger]) == 1
        assert capsys.readouterr().out == (
            "readiness: blocked\n"
            "  target AC1: insufficient_data "
            "(upper bound n/a, target 5e-06, exposure 0, events 0)\n"
            "  blocker AC1: no predicted-phase exposure recorded for this target\n"
        )
        assert run(["review", GOLDEN, "--ledger", ledger, "--format", "machine"]) == 1
        (target,) = json.loads(capsys.readouterr().out)["targets"]
        assert target["status"] == "insufficient_data"
        assert target["upper_bound"] is None

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


    def test_a_definition_no_target_names_gets_one_stderr_line(self, tmp_path, capsys):
        """Its events go unchecked, so stderr says so, with its releases and
        summed count; stdout, the exit code and the artifacts do not change."""
        extra = (
            "2024.3.1,predicted,1000000,mi,injury causing colision,7\n"
            "2024.2.0,observed,250000,mi,injury causing colision,2\n"
        )
        ledger = write(tmp_path, "extra.ledger", Path(LEDGER).read_text(encoding="utf-8") + extra)
        artifacts, out_dir = {}, tmp_path / "out"
        for name in (LEDGER, ledger):
            for command in (["review"], ["report", "--out", str(out_dir)]):
                assert run([*command, GOLDEN, "--ledger", name]) == 0
                artifacts[name, command[0]] = capsys.readouterr()
            files = {path.name: path.read_bytes() for path in out_dir.iterdir()}
            payload = json.loads(files.pop("report.json"))
            del payload["generated_at"], payload["inputs"]  # the ledger's path and digest
            artifacts[name] = files, payload
        assert artifacts[ledger] == artifacts[LEDGER]
        for command in ("review", "report"):
            assert artifacts[LEDGER, command].err == ""
            assert artifacts[ledger, command].out == artifacts[LEDGER, command].out
            assert artifacts[ledger, command].err == (
                "aurcase: ledger event definition 'injury causing colision' (2024.3.1 "
                "predicted, 2024.2.0 observed) is named by no rate-bound target; its 9 "
                "event(s) are not checked\n"
            )


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
        (out_dir / "report.txt").write_text("an earlier run\n", encoding="utf-8")
        assert run(["report", GOLDEN, "--out", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"aurcase: error: cannot write {out_dir / 'report.json'}: Is a directory\n"
        )
        # Nothing of the set was replaced, and no temporary file is left.
        assert (out_dir / "report.txt").read_text(encoding="utf-8") == "an earlier run\n"
        assert sorted(path.name for path in out_dir.iterdir()) == ["report.json", "report.txt"]


    def test_an_out_directory_under_a_regular_file_is_a_usage_error(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "F").write_text("", encoding="utf-8")
        assert run(["report", GOLDEN, "--out", "F/out"]) == 2
        assert capsys.readouterr() == (
            "",
            "aurcase: error: cannot create F/out: Not a directory\n",
        )
        assert [path.name for path in tmp_path.iterdir()] == ["F"]
        assert (tmp_path / "F").read_text(encoding="utf-8") == ""


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

    def test_a_case_longer_than_one_write_slice_is_written_whole(self, tmp_path, capsys):
        text = scaled_golden(20)
        assert text.count("\n") > 2 * cli._WRITE_SLICE
        path = write(tmp_path, "x20.aur", text)
        assert run(["fmt", path]) == 0
        assert capsys.readouterr().out == serialize(parse(text, path).case)

    def test_only_the_case_is_held_while_the_output_is_built(
        self, tmp_path, capsys, monkeypatch, golden_cat_text
    ):
        # The file name is this test's own, so only this command's source counts.
        path = write(tmp_path, "held.aur", golden_cat_text)
        alive: list[tuple[str, int, int]] = []

        def sources() -> int:
            return sum(
                isinstance(o, dsl._Source) and o.file == path for o in gc.get_objects()
            )

        def recording(name: str, step):
            def call(*args, **kwargs):
                before = sources()
                value = step(*args, **kwargs)
                alive.append((name, before, sources()))
                return value

            return call

        monkeypatch.setattr(cli, "parse", recording("parse", cli.parse))
        monkeypatch.setattr(
            cli, "_canonical_lines", recording("serialize", cli._canonical_lines)
        )
        assert run(["fmt", path]) == 0
        assert capsys.readouterr().out == golden_cat_text
        # The parse result holds the source until the refusal check is done.
        assert alive == [("parse", 0, 1), ("serialize", 0, 0)]

    def test_unresolved_case_refuses(self, tmp_path, capsys):
        path = write(tmp_path, "dangling.aur", mutate("E009"))
        assert run(["fmt", path]) == 1
        assert "E008" in capsys.readouterr().err

    def test_fmt_peaks_no_higher_than_check(self, tmp_path, monkeypatch):
        """Both peak at the parse: `fmt` builds, joins and writes its lines a
        slice at a time, so nothing later rises above it.  A list of all the
        lines would take `fmt` 5 % above `check` here.  `parse` is not
        wrapped, as a wrapper's arguments would keep the input alive."""
        path = write(tmp_path, "x20.aur", scaled_golden(20))
        peaks = {}
        with open(os.devnull, "w", encoding="utf-8") as sink:
            monkeypatch.setattr(sys, "stdout", sink)
            # The first round also counts what is loaded once and kept.
            for command in ("check", "fmt") * 2:
                tracemalloc.start()
                try:
                    assert run([command, path]) == 0
                    _, peaks[command] = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
        assert peaks["fmt"] <= 1.01 * peaks["check"], peaks


class TestUsage:
    def test_unknown_subcommand_exits_two(self, capsys):
        assert run(["frobnicate", GOLDEN]) == 2

    def test_unknown_flag_exits_two(self, capsys):
        assert run(["check", GOLDEN, "--frobnicate"]) == 2

    def test_no_arguments_exits_two(self, capsys):
        assert run([]) == 2


# -- reading the command line ------------------------------------------------

_OPTION_NAMES = sorted(cli._OPTIONS)
_VALUES = ["", "-x", "nan", "1e400", "0.5", "machine", "text", "bogus", "case.aur"]
_WORDS = [
    *_VALUES,
    *_OPTION_NAMES,
    *(name[:-2] for name in _OPTION_NAMES),  # abbreviated: `--form`, `--o`
    *(f"{name}={value}" for name in _OPTION_NAMES for value in ("machine", "0.5", "")),
    *("--", "-h", "--version", "--no-such-flag"),
]
_ARGPARSE = cli._build_parser()


def _argparse_vars(argv: list[str]) -> dict | None:
    """`vars()` of argparse's namespace for `argv`, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(_ARGPARSE.parse_args(argv))
        except SystemExit:
            return None


def _same(canonical, parsed: dict) -> bool:
    # `repr` tells 1.0 from 1 and reads nan as nan.
    return repr(sorted(vars(canonical).items())) == repr(sorted(parsed.items()))


@st.composite
def canonical_shapes(draw) -> list[str]:
    """A command, one positional, then some of the command's own options
    spelt whole, each that takes a value followed by one of `_VALUES` or
    the value it usually takes."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    argv, names = [command, draw(st.sampled_from(_VALUES))], cli._COMMANDS[command][2]
    for name in draw(st.lists(st.sampled_from(names), max_size=5)) if names else ():
        argv.append(name)
        if "action" not in cli._OPTIONS[name]:
            usual = {"--format": "machine", "--coverage-threshold": "0.5"}.get(name, "f")
            argv.append(draw(st.sampled_from([usual, *_VALUES])))
    return argv


@st.composite
def command_lines(draw) -> list[str]:
    """A canonical shape (or `bogus`, or `--version` alone) with one to
    three of `_WORDS` put in it or in place of its words after the
    command, and at times those words shuffled."""
    argv = draw(st.sampled_from([["bogus", "case.aur"], ["--version"]]) | canonical_shapes())
    for _ in range(draw(st.integers(1, 3))):
        at, word = draw(st.integers(1, len(argv))), draw(st.sampled_from(_WORDS))
        argv[at : at + draw(st.integers(0, 1))] = [word]
    if draw(st.booleans()):
        argv[1:] = draw(st.permutations(argv[1:]))
    return argv


class TestCommandLine:
    """`run` reads a canonical argv without argparse; every other argv goes
    to argparse, so the two must agree wherever the first answers."""

    @settings(max_examples=300, deadline=None)
    @given(argv=canonical_shapes())
    def test_the_canonical_shape_is_read_as_argparse_reads_it(self, argv):
        """In this shape, the fast path answers wherever argparse does not
        exit, and with argparse's namespace."""
        canonical, parsed = cli._canonical_args(argv), _argparse_vars(argv)
        assert (canonical is None) == (parsed is None)
        assert canonical is None or _same(canonical, parsed)

    @settings(max_examples=300, deadline=None)
    @given(argv=command_lines())
    def test_any_argv_the_fast_path_answers_is_read_as_argparse_reads_it(self, argv):
        canonical = cli._canonical_args(argv)
        if canonical is not None:
            parsed = _argparse_vars(argv)
            assert parsed is not None and _same(canonical, parsed)

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "c.aur"],
            ["check", "c.aur", "--format", "machine", "--review-ready"],
            ["check", "c.aur", "--config", "r.cfg", "--coverage-threshold", "0.9"],
            ["coverage", "c.aur"],
            ["trace", "c.aur", "--format", "text"],
            ["review", "c.aur", "--ledger", "l.csv", "--format", "machine"],
            ["report", "c.aur", "--ledger", "l.csv", "--out", "out"],
            ["report", "c.aur", "--out", "out"],
            ["fmt", "c.aur"],
        ],
    )
    def test_canonical_argv_is_read_without_argparse(self, argv):
        assert vars(cli._canonical_args(argv)) == _argparse_vars(argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "c.aur", "--format=machine"],
            ["check", "c.aur", "--form", "machine"],
            ["check", "--review-ready", "c.aur"],
            ["check", "--", "c.aur"],
            ["check", "c.aur", "--format", "bogus"],
            ["check", "c.aur", "--coverage-threshold", "x"],
            ["check", "c.aur", "--coverage-threshold", "-1"],
            ["check", "c.aur", "--config"],
            ["check", "c.aur", "-h"],
            ["check", "c.aur", "d.aur"],
            ["check"],
            ["review", "c.aur"],
            ["report", "c.aur", "--ledger", "l.csv"],
            ["fmt", "c.aur", "--format", "text"],
            ["--version", "check", "c.aur"],
            ["bogus", "c.aur"],
        ],
    )
    def test_any_other_argv_is_left_to_argparse(self, argv):
        assert cli._canonical_args(argv) is None

    @pytest.mark.parametrize("closed", [False, True], ids=["stdout", "stdout-closed"])
    def test_version_prints_what_argparses_version_action_prints(
        self, capsys, monkeypatch, closed
    ):
        if closed:  # `sys.stdout` is None when descriptor 1 is closed
            monkeypatch.setattr(sys, "stdout", None)
        assert run(["--version"]) == 0
        printed = capsys.readouterr()
        with pytest.raises(SystemExit) as exited:
            cli._build_parser().parse_args(["--version"])
        assert exited.value.code == 0
        assert capsys.readouterr() == printed
        assert (printed.err if closed else printed.out) == f"aurcase {cli.__version__}\n"


def _reject_constant(name: str):
    raise ValueError(f"not strict JSON: {name}")


class TestEarlyExits:
    """The analysis commands end early the same way: a fatal parse prints
    its diagnostic to stdout and exits 2; a case with dangling references
    prints its E009 findings and one E008 to stderr and exits 1 (as `fmt`
    does)."""

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

    @pytest.mark.parametrize("format", ["text", "machine"])
    def test_check_of_a_case_that_is_not_utf8_prints_e013_and_exits_two(
        self, tmp_path, capsys, format
    ):
        path = tmp_path / "latin1.aur"
        path.write_bytes(b'safety_case "\xff\xfe" {}\n')
        assert run(["check", str(path), "--format", format]) == 2
        captured = capsys.readouterr()
        assert captured.err == ""
        message = "document is not valid UTF-8: invalid start byte at byte 13"
        if format == "text":
            assert captured.out == (
                f"{path}:1:14: error[E013]: {message}\n1 error(s), 0 warning(s)\n"
            )
        else:
            payload = json.loads(captured.out, parse_constant=_reject_constant)
            assert payload == {
                "diagnostics": [
                    {
                        "col": 14,
                        "file": str(path),
                        "line": 1,
                        "message": message,
                        "rule_id": "E013",
                        "severity": "error",
                        "subject": "",
                    }
                ]
            }

    def test_fmt_of_a_case_that_is_not_utf8_prints_e013_on_stderr_and_exits_two(
        self, tmp_path, capsys
    ):
        path = tmp_path / "latin1.aur"
        path.write_bytes(b'safety_case "\xff\xfe" {}\n')
        assert run(["fmt", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"{path}:1:14: error[E013]: document is not valid UTF-8: invalid start byte "
            "at byte 13\n1 error(s), 0 warning(s)\n"
        )

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

    @pytest.mark.parametrize("command", [*COMMANDS, "fmt"])
    def test_a_refusal_counts_every_finding_it_prints(self, tmp_path, capsys, command):
        path = write(tmp_path, "dangling.aur", mutate("E009"))
        assert run(self.argv(command, path, tmp_path)) == 1
        lines = capsys.readouterr().err.splitlines()
        errors = sum("error[" in line for line in lines)
        warnings = sum("warning[" in line for line in lines)
        assert lines[-1] == f"{errors} error(s), {warnings} warning(s)"
        assert lines[0].startswith(f"{path}:1:1: error[E008]: ")


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
        "step",
        [
            "parse",
            "parse-dangling",
            "parse-fatal",
            "validate",
            "readiness_review",
            "build_report",
            "serialize",
        ],
    )
    def test_a_step_leaves_nothing_for_the_collector(self, step):
        # `render_machine` is left out: json's pure-Python indent encoder
        # leaves cycles of its own on every call.
        text = fixture_text("golden_cat.aur")
        result = parse(text, "golden_cat.aur")
        ledger = parse_ledger(fixture_text("golden.ledger"))
        steps = {
            "parse": lambda: parse(text, "golden_cat.aur"),
            "parse-dangling": lambda: parse(mutate("E009"), "case.aur"),
            "parse-fatal": lambda: parse('safety_case "x" {', "case.aur"),
            "validate": lambda: validate(
                result.case, None, result.span_index, result.reference_spans
            ),
            "readiness_review": lambda: readiness_review(result.case, ledger),
            "build_report": lambda: build_report(result.case, "golden_cat.aur", []),
            "serialize": lambda: serialize(result.case),
        }
        steps[step]()  # first-use imports and caches leave cycles of their own
        gc.collect()
        gc.disable()
        try:
            kept = steps[step]()
            assert gc.collect() == 0  # nothing the step dropped is cyclic
            del kept
            assert gc.collect() == 0  # nor is anything it returned
        finally:
            gc.enable()

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


# -- the command as its own process -------------------------------------------

SRC = Path(cli.__file__).resolve().parents[1]
PIPE_BUFFER = 1 << 16  # a Linux pipe's capacity: `fmt` writes more while it is read


def cold(
    argv: list[str],
    cwd: Path,
    stdout=subprocess.PIPE,
    shell: str = "",
    unbuffered: bool = False,
    hash_seed: int | None = None,
) -> subprocess.CompletedProcess:
    """`python -m aurcase.cli ARGV` in `cwd`, with this tree's `src` first
    on the path and buffered standard streams unless `unbuffered`; stderr
    is captured. With `shell`, `sh` runs it with that redirection. With
    `hash_seed`, it is the child's `PYTHONHASHSEED`."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    command = [sys.executable, "-m", "aurcase.cli", *argv]
    if shell:
        command = ["sh", "-c", f'exec "$0" "$@" {shell}', *command]
    return subprocess.run(
        command, cwd=cwd, env=env, stdout=stdout, stderr=subprocess.PIPE, timeout=60
    )


@pytest.fixture(scope="module")
def workspace(tmp_path_factory) -> Path:
    """A directory with the golden case and ledger, a dirty case, a case
    whose only error is E006 and a case whose `fmt` fills a pipe."""
    root = tmp_path_factory.mktemp("process")
    shutil.copy(FIXTURES / "golden_cat.aur", root)
    shutil.copy(FIXTURES / "golden.ledger", root)
    (root / "dirty.aur").write_text(scaled_findings(2), encoding="utf-8")
    (root / "e006.aur").write_text(mutate("E006"), encoding="utf-8")
    (root / "big.aur").write_text(scaled_golden(20), encoding="utf-8")
    return root


class TestProcess:
    """`main` ends the process with `os._exit` once it has flushed, so these
    run the command cold and compare it with `run` in-process, which the
    other tests and `tests/differential.py` call."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["--version"], 0),
            (["check", "--no-such-flag", "golden_cat.aur"], 2),
            (["check", "dirty.aur"], 1),
            (["check", "dirty.aur", "--format", "machine"], 1),
            (["check", "--format=machine", "dirty.aur"], 1),
            (["fmt", "big.aur"], 0),
            (["trace", "e006.aur"], 1),
            (["review", "golden_cat.aur", "--ledger", "golden.ledger", "--format", "machine"], 0),
            (["report", "golden_cat.aur", "--ledger", "golden.ledger", "--out", "out"], 0),
        ],
        ids=[
            "version",
            "usage",
            "check",
            "check-machine",
            "check-through-argparse",
            "fmt",
            "trace",
            "review",
            "report",
        ],
    )
    def test_a_cold_process_prints_what_run_prints(
        self, workspace, monkeypatch, capsys, argv, code
    ):
        monkeypatch.chdir(workspace)
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
        assert run(argv) == code
        expected = capsys.readouterr()
        done = cold(argv, workspace)
        printed = (done.stdout.decode("utf-8"), done.stderr.decode("utf-8"))
        assert (done.returncode, *printed) == (code, *expected)
        if argv[0] == "fmt":
            assert len(done.stdout) > PIPE_BUFFER

    def test_no_output_depends_on_the_hash_seed(self, workspace):
        """Strings hash by the seed and plain enum members by identity, so
        the order a set or dict of them iterates in changes between
        processes. No stdout, stderr, exit code or artifact may follow it.
        `wide.aur` gives the golden case's sets of enum members more than
        one member each, in no canonical order."""
        wide = fixture_text("golden_cat.aur")
        for old, new in [
            ("= behavioral {", "= behavioral also = in_service_operational, architectural {"),
            ("= behavioral\n", "= in_service_operational, behavioral, architectural\n"),
            ("= responder\n", "= responder, initiator\n"),
            ("= collision_avoidance\n", "= conflict_avoidance, collision_avoidance\n"),
            ("= nominal\n", "= nominal, degraded\n"),
        ]:
            wide = wide.replace(old, new)
        (workspace / "wide.aur").write_text(wide, encoding="utf-8")
        commands = [
            ["report", "golden_cat.aur", "--ledger", "golden.ledger", "--out", "seeded"],
            ["fmt", "wide.aur"],
            ["fmt", "dirty.aur"],
            ["review", "golden_cat.aur", "--ledger", "golden.ledger", "--format", "machine"],
            ["check", "dirty.aur", "--format", "machine"],
        ]
        runs = []
        for seed in (0, 4242):
            outputs = []
            for argv in commands:
                done = cold(argv, workspace, hash_seed=seed)
                outputs.append((argv[0], done.returncode, done.stdout, done.stderr))
            for name in ("report.json", "report.txt", "heatmap.svg", "trace.txt"):
                data = (workspace / "seeded" / name).read_bytes()
                outputs.append((name, re.sub(rb'"generated_at": "[^"]*"', b"", data)))
            runs.append(outputs)
        assert [code for _, code, _, _ in runs[0][:5]] == [0, 0, 0, 0, 1]
        assert runs[0][1][2] != wide.encode("utf-8")  # `fmt` put the sets in order
        assert runs[0] == runs[1]

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["fmt", "big.aur"],
            ["check", "golden_cat.aur"],
            ["--help"],
            ["review", "golden_cat.aur", "-h"],
        ],
        ids=["while-writing", "at-the-final-flush", "help", "command-help"],
    )
    def test_a_full_stdout_is_a_usage_error(self, workspace, argv, unbuffered):
        """As an unwritable `--out` is: exit 2 and one stderr line, whether
        the write fails inside `run`, in argparse's help or at the flush in
        `main`."""
        with open("/dev/full", "wb") as full:
            done = cold(argv, workspace, stdout=full, unbuffered=unbuffered)
        assert (done.returncode, done.stderr.decode()) == (
            2,
            "aurcase: error: cannot write stdout: No space left on device\n",
        )

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "argv",
        [["fmt", "big.aur"], ["check", "golden_cat.aur"], ["--help"]],
        ids=["while-writing", "at-the-final-flush", "help"],
    )
    def test_a_closed_pipe_exits_1_with_nothing_on_stderr(self, workspace, argv, unbuffered):
        """The reader is gone before the command starts: `fmt` fills the
        stdout buffer and meets the closed pipe inside `run`, and `check`'s
        short output and the help meet it at the flush in `main` unless
        unbuffered."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = cold(argv, workspace, stdout=write_end, unbuffered=unbuffered)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (1, b"")

    def test_a_closed_stdout_exits_with_the_command_code_and_nothing_on_stderr(
        self, workspace
    ):
        # With descriptor 1 closed, `sys.stdout` is None and `print` writes
        # nothing.
        for argv, code in [(["check", "dirty.aur"], 1), (["fmt", "golden_cat.aur"], 0)]:
            done = cold(argv, workspace, shell=">&-")
            assert (done.returncode, done.stderr) == (code, b""), argv
