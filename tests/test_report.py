from __future__ import annotations

import hashlib
import json
import random
import re
import sys
import xml.etree.ElementTree as ET

import pytest
from hypothesis import HealthCheck, given, settings

from aurcase.coverage import CoverageMap, Signal, coverage_map
from aurcase.diagnostics import Diagnostic, Severity, SourceSpan, diagnostic_line
from aurcase.dsl import parse
from aurcase.lifecycle import parse_ledger, readiness_review
from aurcase.model import Cell
from aurcase.report import (
    build_report,
    digest_of,
    render_diagnostics,
    render_coverage_text,
    render_heatmap,
    render_json,
    render_machine,
    render_text,
    render_trace_text,
    trace_matrix,
)

from conftest import FIXTURES, fixture_text, pipeline
from mutations import MUTATIONS
from oracles import trace_rows
from strategies import safety_cases


class TestTraceMatrix:
    def test_golden_chains_hazard_to_everything(self, golden_case):
        matrix = trace_matrix(golden_case)
        (row,) = matrix.rows
        assert row.hazard_id == "H1"
        assert row.criterion_ids == ("AC1", "AC2")
        assert row.claim_ids == ("C1", "C2")
        assert row.evidence_ids == ("E1", "E2", "E3")
        assert row.complete

    def test_untraced_hazard_row_is_incomplete_and_e007_fires(self, golden_cat_text):
        text = golden_cat_text.rstrip()[:-1] + (
            '  hazard H9 category = behavioral {\n'
            '    description = "Unaddressed"\n'
            "  }\n}\n"
        )
        result = parse(text, "case.aur")
        matrix = trace_matrix(result.case)
        by_hazard = {row.hazard_id: row for row in matrix.rows}
        assert by_hazard["H9"].criterion_ids == ()
        assert not by_hazard["H9"].complete
        assert by_hazard["H1"].complete
        assert "E007" in [d.rule_id for d in pipeline(text)]

    def test_evidence_cited_in_two_claim_trees_appears_in_both_rows(self):
        text = """
safety_case "shared" {
  context { use_case = "pilot" }
  hazard H1 category = behavioral { description = "a" }
  hazard H2 category = behavioral { description = "b" }
  methodology M1 { name = "m" category = behavioral }
  criterion AC1 hazard = H1 methodology = M1 aggregation = event_level { statement = "s1" }
  criterion AC2 hazard = H2 methodology = M1 aggregation = aggregate_level { statement = "s2" }
  evidence E1 methodology = M1 strength = strong { kind = "k" uri = "u" }
  claim C1 criterion = AC1 { argument A.1 { text = "t" evidence = E1 } }
  claim C2 criterion = AC2 { argument A.1 { text = "t" evidence = E1 } }
}
"""
        matrix = trace_matrix(parse(text, "shared.aur").case)
        assert [row.evidence_ids for row in matrix.rows] == [("E1",), ("E1",)]


class TestTextRendering:
    def test_diagnostic_line_format(self):
        diagnostic = Diagnostic(
            "E002",
            Severity.ERROR,
            "top claim C1 lacks a reasonableness subclaim",
            subject_id="C1",
            span=SourceSpan("case.aur", 12, 3, 12, 8),
        )
        assert diagnostic_line(diagnostic) == (
            "case.aur:12:3: error[E002]: top claim C1 lacks a reasonableness subclaim"
        )

    def test_e001_line_quotes_the_phrase(self):
        diagnostics = pipeline(fixture_text("balance_none.aur"))
        rendered = render_diagnostics(diagnostics)
        assert "no acceptance criteria declared" in rendered

    def test_zero_diagnostics_renders_summary_only(self):
        assert render_diagnostics([]) == "0 error(s), 0 warning(s)\n"

    def test_errors_come_before_warnings_at_equal_spans(self):
        span = SourceSpan("case.aur", 1, 1, 1, 2)
        warning = Diagnostic("W103", Severity.WARNING, "orphan", span=span)
        error = Diagnostic("E007", Severity.ERROR, "untraced", span=span)
        rendered = render_diagnostics([warning, error]).splitlines()
        assert rendered[0].startswith("case.aur:1:1: error[E007]")
        assert rendered[1].startswith("case.aur:1:1: warning[W103]")
        assert rendered[2] == "1 error(s), 1 warning(s)"

    def test_coverage_text_shows_the_worked_numbers(self, golden_case):
        from aurcase.report import coverage_bundle

        text = render_coverage_text(coverage_bundle(golden_case))
        assert "4/96" in text
        assert "responder 4/48" in text
        assert "initiator 0/48" in text
        assert "balance: balanced" in text

    def test_trace_text_table(self, golden_case):
        text = render_trace_text(trace_matrix(golden_case))
        assert text.splitlines()[0] == "hazard | criteria | claims | evidence | complete"
        assert "H1 | AC1, AC2 | C1, C2 | E1, E2, E3 | yes" in text


class TestMachineRendering:
    def build(self, golden_case, review=None):
        return build_report(golden_case, "golden_cat.aur", [], review=review)

    def test_overall_coverage_as_numerator_denominator(self, golden_case):
        payload = json.loads(render_machine(self.build(golden_case)))
        assert payload["coverage"]["overall"] == {"numerator": 4, "denominator": 96}
        assert payload["coverage"]["strong"] == {"numerator": 3, "denominator": 96}
        marginals = payload["coverage"]["marginals"]
        assert marginals["role"]["responder"] == {"numerator": 4, "denominator": 48}

    def test_regeneration_differs_only_in_generated_at(self, golden_case):
        first = render_machine(self.build(golden_case))
        second = render_machine(self.build(golden_case))
        strip = lambda s: re.sub(r'"generated_at": "[^"]*"', '"generated_at": "X"', s)  # noqa: E731
        assert strip(first) == strip(second)

    def test_generated_at_is_the_utc_second_in_iso_8601(self, golden_case):
        from datetime import datetime, timedelta, timezone

        before = datetime.now(timezone.utc).replace(microsecond=0)
        stamp = json.loads(render_machine(self.build(golden_case)))["generated_at"]
        after = datetime.now(timezone.utc)
        assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00", stamp), stamp
        assert before <= datetime.fromisoformat(stamp) <= after + timedelta(seconds=1)

    def test_blocked_review_appears_with_blockers(self, golden_case):
        from aurcase.lifecycle import ExposureLedger

        decision = readiness_review(golden_case, ExposureLedger())
        payload = json.loads(render_machine(self.build(golden_case, review=decision)))
        assert payload["review"]["status"] == "blocked"
        assert len(payload["review"]["blockers"]) >= 1

    def test_numbers_are_plain_decimals(self, golden_case, golden_ledger_text):
        decision = readiness_review(golden_case, parse_ledger(golden_ledger_text))
        rendered = render_machine(self.build(golden_case, review=decision))
        payload = json.loads(rendered)
        bound = payload["review"]["targets"][0]["upper_bound"]
        assert isinstance(bound, float)
        assert "," not in rendered.replace(", ", "").replace(",\n", "\n")

    def test_full_text_report_contains_all_sections(self, golden_case):
        report = self.build(golden_case)
        text = render_text(report)
        for heading in ("== diagnostics ==", "== coverage ==", "== trace =="):
            assert heading in text


def svg_cells(svg_text: str) -> dict[tuple, str]:
    root = ET.fromstring(svg_text)
    namespace = "{http://www.w3.org/2000/svg}"
    cells = {}
    for rect in root.iter(f"{namespace}rect"):
        if "data-signal" not in rect.attrib:
            continue
        key = (
            rect.attrib["data-severity"],
            rect.attrib["data-role"],
            rect.attrib["data-capability"],
            rect.attrib["data-status"],
            rect.attrib["data-aggregation"],
        )
        cells[key] = (rect.attrib["data-signal"], rect.attrib["fill"])
    return cells


def cell_key(cell: Cell) -> tuple:
    return (
        cell.severity.name,
        cell.role.value,
        cell.capability.value,
        cell.status.value,
        cell.aggregation.value,
    )


class TestHeatmap:
    def test_every_cell_fill_matches_the_map(self, golden_case):
        coverage = coverage_map(golden_case)
        cells = svg_cells(render_heatmap(coverage))
        assert len(cells) == 96
        fills = {}
        from aurcase.coverage import FULL_SPACE

        for cell in FULL_SPACE:
            signal, fill = cells[cell_key(cell)]
            assert signal == coverage.signal(cell).name.lower()
            fills.setdefault(signal, set()).add(fill)
        # Three visually distinct fills.
        all_fills = {fill for group in fills.values() for fill in group}
        assert len(all_fills) == len(fills)

    def test_golden_slice_contains_three_strong_one_weak(self, golden_case):
        cells = svg_cells(render_heatmap(coverage_map(golden_case)))
        slice_cells = {
            key: value
            for key, value in cells.items()
            if key[1:] == ("responder", "collision_avoidance", "nominal", "aggregate_level")
        }
        signals = sorted(value[0] for value in slice_cells.values())
        assert signals == ["strong", "strong", "strong", "weak"]
        others = [
            value[0] for key, value in cells.items() if key not in slice_cells
        ]
        assert set(others) == {"none"}

    def test_empty_map_is_uniformly_none(self):
        cells = svg_cells(render_heatmap(CoverageMap()))
        assert {value[0] for value in cells.values()} == {"none"}

    def test_full_strong_map_is_uniformly_strong(self):
        from aurcase.coverage import FULL_SPACE

        full = CoverageMap(signals={cell: Signal.STRONG for cell in FULL_SPACE})
        cells = svg_cells(render_heatmap(full))
        assert {value[0] for value in cells.values()} == {"strong"}

    def test_legend_and_slice_titles_present(self, golden_case):
        svg = render_heatmap(coverage_map(golden_case))
        for label in (">none<", ">weak<", ">strong<"):
            assert label in svg
        assert "responder / nominal / aggregate_level" in svg
        assert svg.count("<svg") == 1

    def test_rendering_is_deterministic(self, golden_case):
        coverage = coverage_map(golden_case)
        assert render_heatmap(coverage) == render_heatmap(coverage)


def _trace_tuples(case) -> list[tuple]:
    return [
        (row.hazard_id, row.criterion_ids, row.claim_ids, row.evidence_ids)
        for row in trace_matrix(case).rows
    ]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=safety_cases())
def test_trace_matrix_matches_the_rescanning_oracle(case):
    assert _trace_tuples(case) == trace_rows(case)


def _resolved_fixture_cases():
    texts = {
        name: fixture_text(name)
        for name in (
            "golden_cat.aur",
            "golden_min.aur",
            "balance_aggregate_only.aur",
            "balance_event_only.aur",
            "balance_none.aur",
        )
    }
    for mutation in MUTATIONS:
        texts[f"mutant {mutation.rule_id}"] = mutation.apply(
            fixture_text(mutation.base_fixture)
        )
    for name, text in texts.items():
        result = parse(text, name)
        if not result.fatal and not result.diagnostics:
            yield name, result.case


@pytest.mark.parametrize(("name", "case"), list(_resolved_fixture_cases()))
def test_trace_matrix_matches_the_rescanning_oracle_on_fixtures(name, case):
    assert _trace_tuples(case) == trace_rows(case)


def test_render_json_refuses_non_finite_numbers():
    with pytest.raises(ValueError):
        render_json({"upper_bound": float("inf")})
    with pytest.raises(ValueError):
        render_json({"exposure": float("nan")})


_DIGEST_INPUTS = {
    "golden_cat.aur": (FIXTURES / "golden_cat.aur").read_bytes(),
    "golden.ledger": (FIXTURES / "golden.ledger").read_bytes(),
    "empty": b"",
    "random-1MiB": random.Random(17).randbytes(1 << 20),
}


@pytest.mark.parametrize("name", list(_DIGEST_INPUTS))
def test_digest_is_the_sha256_of_the_bytes(name):
    data = _DIGEST_INPUTS[name]
    assert digest_of(name, data) == {
        "path": name,
        "sha256": hashlib.sha256(data).hexdigest(),
    }


def test_digest_falls_back_to_hashlib_without_the_builtin_modules(monkeypatch):
    # A None entry in sys.modules makes importing that module fail.
    monkeypatch.setitem(sys.modules, "_sha2", None)
    monkeypatch.setitem(sys.modules, "_sha256", None)
    sha256, calls = hashlib.sha256, []
    monkeypatch.setattr(hashlib, "sha256", lambda data: calls.append(data) or sha256(data))
    for name, data in _DIGEST_INPUTS.items():
        assert digest_of(name, data)["sha256"] == sha256(data).hexdigest()
    assert calls == list(_DIGEST_INPUTS.values())
