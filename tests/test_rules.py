from __future__ import annotations

import re

import pytest

from aurcase.diagnostics import Severity
from aurcase.dsl import parse
from aurcase.rules import (
    RuleConfig,
    parse_config,
    rule_catalog,
    validate,
)

from conftest import fixture_text, pipeline
from mutations import MUTATIONS, remove_block

ALL_RULE_IDS = [f"E{n:03d}" for n in range(1, 14)] + [f"W{n}" for n in range(101, 108)]


class TestCatalog:
    def test_contains_every_registered_rule(self):
        ids = [info.rule_id for info in rule_catalog()]
        assert ids == ALL_RULE_IDS

    def test_rule_ids_unique(self):
        ids = [info.rule_id for info in rule_catalog()]
        assert len(ids) == len(set(ids))

    def test_e004_rationale_mentions_coverage_assessment(self):
        info = {i.rule_id: i for i in rule_catalog()}["E004"]
        assert "coverage assessment" in info.rationale

    def test_rule_ids_are_a_letter_e_or_w_and_three_digits(self):
        # The default severity comes from the letter, so there is no third kind.
        for info in rule_catalog():
            assert re.fullmatch(r"[EW]\d{3}", info.rule_id), info.rule_id

    def test_default_severities_match_prefix(self):
        for info in rule_catalog():
            expected = Severity.ERROR if info.rule_id.startswith("E") else Severity.WARNING
            assert info.default_severity is expected


def test_golden_fixture_is_clean(golden_cat_text):
    assert pipeline(golden_cat_text) == []


def test_empty_case_yields_e001():
    diagnostics = pipeline(fixture_text("balance_none.aur"))
    assert [d.rule_id for d in diagnostics] == ["E001"]
    assert "no acceptance criteria declared" in diagnostics[0].message


def test_deleting_reasonableness_names_the_claim(golden_cat_text):
    mutated = [m for m in MUTATIONS if m.rule_id == "E002"][0]
    diagnostics = pipeline(mutated.apply(golden_cat_text))
    assert [(d.rule_id, d.subject_id) for d in diagnostics] == [("E002", "C1")]


@pytest.mark.parametrize(
    "rule_id, block, lacks",
    [("E004", "coverage_assessment {", "coverage"), ("E005", "confidence_assessment {", "confidence")],
)
def test_an_anonymous_satisfaction_is_named_by_its_derived_key(
    golden_cat_text, rule_id, block, lacks
):
    """C2's satisfaction subclaim has no id: E004 and E005 name it `C2.2`
    and point at its keyword."""
    c1, c2 = golden_cat_text.split("  claim C2 ")
    text = c1 + "  claim C2 " + remove_block(c2, block)
    diagnostics = pipeline(text)
    assert [(d.rule_id, d.subject_id, d.message) for d in diagnostics] == [
        (rule_id, "C2.2", f"satisfaction subclaim C2.2 lacks a {lacks} assessment")
    ]
    line = text.splitlines().index("    satisfaction {") + 1
    assert (diagnostics[0].span.start_line, diagnostics[0].span.start_col) == (line, 5)


@pytest.mark.parametrize("mutation", MUTATIONS, ids=[m.rule_id for m in MUTATIONS])
def test_mutation_soundness(mutation):
    base = fixture_text(mutation.base_fixture)
    baseline = pipeline(base, mutation.config)
    assert baseline == [], f"fixture {mutation.base_fixture} not clean under config"
    mutated = pipeline(mutation.apply(base), mutation.config)
    assert [d.rule_id for d in mutated] == [mutation.rule_id], mutation.description


def test_validate_is_deterministic(golden_cat_text):
    result = parse(golden_cat_text, "golden_cat.aur")
    first = validate(result.case, span_index=result.span_index)
    second = validate(result.case, span_index=result.span_index)
    assert first == second


@pytest.mark.parametrize("mutation", MUTATIONS, ids=[m.rule_id for m in MUTATIONS])
def test_disabling_a_rule_silences_only_that_rule(mutation):
    if mutation.rule_id in ("E010", "E013"):
        pytest.skip("parse-fatal rules are not configurable")
    base = fixture_text(mutation.base_fixture)
    mutated_text = mutation.apply(base)
    with_rule = pipeline(mutated_text, mutation.config)
    disabled_config = mutation.config.replace(
        severity_overrides={
            **mutation.config.severity_overrides,
            mutation.rule_id: "off",
        }
    )
    without_rule = pipeline(mutated_text, disabled_config)
    assert [d for d in with_rule if d.rule_id != mutation.rule_id] == without_rule


def test_severity_override_changes_severity_not_findings(golden_cat_text):
    mutation = [m for m in MUTATIONS if m.rule_id == "E006"][0]
    mutated_text = mutation.apply(golden_cat_text)
    default = pipeline(mutated_text)
    overridden = pipeline(
        mutated_text, RuleConfig(severity_overrides={"E006": "warning"})
    )
    assert [(d.rule_id, d.subject_id) for d in default] == [
        (d.rule_id, d.subject_id) for d in overridden
    ]
    assert default[0].severity is Severity.ERROR
    assert overridden[0].severity is Severity.WARNING


def test_refusal_is_a_single_fatal_diagnostic(golden_cat_text):
    text = golden_cat_text.replace("indicator = I1, I2", "indicator = I1, I2, I9")
    result = parse(text, "case.aur")
    diagnostics = validate(result.case, RuleConfig(require_resolved=True))
    assert [d.rule_id for d in diagnostics] == ["E008"]
    assert "refused" in diagnostics[0].message
    assert "1 unresolved reference(s)" in diagnostics[0].message


def test_e006_scope_can_exempt_reasonableness_subtrees(golden_cat_text):
    # Strip the evidence links from one reasonableness row and one
    # satisfaction-side row; only the latter stays reportable under the
    # narrowed scope.
    text = golden_cat_text.replace(
        "        evidence = E2\n", "", 1
    )  # row A.2 (reasonableness subtree)
    text = text.replace("          evidence = E1\n", "", 1)  # row B.1
    default = [d for d in pipeline(text) if d.rule_id == "E006"]
    assert [d.subject_id for d in default] == ["SC1.A.2", "SC2.1.B.1"]
    narrowed = [
        d
        for d in pipeline(text, RuleConfig(e006_scope="skip_reasonableness"))
        if d.rule_id == "E006"
    ]
    assert [d.subject_id for d in narrowed] == ["SC2.1.B.1"]


def test_w107_checks_every_confidence_assessment(golden_cat_text):
    config = RuleConfig(required_facets=frozenset({"Robustness"}))
    diagnostics = pipeline(golden_cat_text, config)
    # C1's confidence assessment has the facet; C2's does not.
    assert [(d.rule_id, d.subject_id) for d in diagnostics] == [("W107", "C2.2.2")]


def test_every_emitted_rule_id_is_registered(golden_cat_text):
    registered = {info.rule_id for info in rule_catalog()}
    for mutation in MUTATIONS:
        base = fixture_text(mutation.base_fixture)
        for diagnostic in pipeline(mutation.apply(base), mutation.config):
            assert diagnostic.rule_id in registered


def test_diagnostics_are_ordered_by_position_then_severity(golden_cat_text):
    mutated = golden_cat_text
    for rule_id in ("E007", "W103"):
        mutation = [m for m in MUTATIONS if m.rule_id == rule_id][0]
        mutated = mutation.apply(mutated)
    diagnostics = pipeline(mutated)
    assert [d.rule_id for d in diagnostics] == ["E007", "W103"]
    spans = [
        (d.span.file, d.span.start_line, d.span.start_col) for d in diagnostics
    ]
    assert spans == sorted(spans)


class TestConfigFile:
    def test_full_config_round_trip(self):
        config = parse_config(
            """
            # comments and blank lines are fine
            rule.E006.severity = warning
            rule.W101.severity = off
            rule.E006.scope = skip_reasonableness
            facets.required = Scoring confidence, Technical validity of benchmark
            review_ready = true
            """
        )
        assert config.severity_overrides == {"E006": "warning", "W101": "off"}
        assert config.required_facets == {
            "Scoring confidence",
            "Technical validity of benchmark",
        }
        assert config.review_ready is True
        assert config.e006_scope == "skip_reasonableness"

    def test_one_leading_byte_order_mark_is_dropped(self):
        text = "rule.W103.severity = off\nreview_ready = true\n"
        assert parse_config("\ufeff" + text) == parse_config(text)
        with pytest.raises(ValueError) as info:
            parse_config("\ufeff\ufeff" + text, "c.cfg")
        assert str(info.value) == "c.cfg:1: unknown configuration key '\\ufeffrule.W103.severity'"

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="unknown rule"):
            parse_config("rule.E099.severity = off")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown configuration key"):
            parse_config("rule.E006.enabled = false")

    def test_bad_severity_rejected(self):
        with pytest.raises(ValueError, match="must be error, warning, or off"):
            parse_config("rule.E006.severity = fatal")

    @pytest.mark.parametrize(
        "line, message",
        [
            (
                "rule.E001.severity = loud",
                "c.cfg:2: severity for E001 must be error, warning, or off; got 'loud'",
            ),
            (
                "rule.E006.scope = some",
                "c.cfg:2: rule.E006.scope must be 'all' or 'skip_reasonableness'; got 'some'",
            ),
            ("review_ready = maybe", "c.cfg:2: review_ready must be true or false; got 'maybe'"),
        ],
        ids=["severity", "scope", "review_ready"],
    )
    def test_bad_values_name_their_line(self, line, message):
        with pytest.raises(ValueError) as info:
            parse_config(f"# c\n{line}\n", "c.cfg")
        assert str(info.value) == message

    def test_a_key_set_twice_takes_the_later_value(self):
        config = parse_config(
            "rule.E006.severity = warning\n"
            "review_ready = true\n"
            "rule.E006.severity = off\n"
            "review_ready = false\n"
        )
        assert config.severity_overrides == {"E006": "off"}
        assert config.review_ready is False

    def test_facet_lines_add_up(self):
        config = parse_config("facets.required = A, B\nfacets.required = B, C\n")
        assert config.required_facets == {"A", "B", "C"}

    def test_a_bad_value_after_valid_overrides_names_its_own_line(self):
        text = "rule.E006.severity = warning\nrule.W101.severity = off\nrule.E007.severity = loud\n"
        with pytest.raises(ValueError) as info:
            parse_config(text, "c.cfg")
        assert str(info.value) == (
            "c.cfg:3: severity for E007 must be error, warning, or off; got 'loud'"
        )

    def test_config_overrides_reference_registered_rules_only(self):
        with pytest.raises(ValueError, match="unregistered rule"):
            RuleConfig(severity_overrides={"E099": "off"})


def test_an_identifier_named_like_the_case_does_not_take_its_span():
    # Case-level findings point at the case header, even when a hazard
    # carries the case's own identifier.
    text = fixture_text("balance_aggregate_only.aur").replace('"aggregate-only"', '"H1"')
    (w104,) = [d for d in pipeline(text) if d.rule_id == "W104"]
    assert (w104.subject_id, w104.span.start_line, w104.span.start_col) == ("H1", 1, 1)


def test_an_identifier_named_context_does_not_take_the_context_span():
    # A missing context field is reported at the context block, not at a
    # hazard called `context`.
    text = fixture_text("balance_aggregate_only.aur").replace("H1", "context")
    e011 = [d for d in pipeline(text, RuleConfig(review_ready=True)) if d.rule_id == "E011"]
    assert len(e011) == 4
    assert {(d.span.start_line, d.span.start_col) for d in e011} == {(2, 3)}
