from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aurcase import cli, lifecycle
from aurcase.dsl import parse
from aurcase.lifecycle import (
    DriftCheck,
    DriftStatus,
    ExposureLedger,
    LedgerEntry,
    Phase,
    TargetCheck,
    TargetNotApplicableError,
    TargetStatus,
    check_target,
    drift_check,
    parse_ledger,
    rate_upper_bound,
    readiness_review,
    unnamed_definitions,
)
from aurcase.model import (
    AcceptanceCriterion,
    AggregationLevel,
    TargetKind,
    ValidationTarget,
)
from aurcase.rules import RuleConfig

from mutations import MUTATIONS
from oracles import poisson_cdf, poisson_sf, poisson_smaller_tail, upper_bound_bisect
from strategies import GOLDEN, GOLDEN_EVENT, UNNAMED_EVENTS, ledger_rows, ledger_text


_LEDGER_HEADER = "release,phase,exposure,exposure_unit,event_definition,count\n"


def rel_err(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


def make_criterion(max_rate=5e-6, unit="mi", confidence=0.95, event="crash"):
    return AcceptanceCriterion(
        id="AC1",
        statement="bounded rate",
        hazard_ids=frozenset({"H1"}),
        methodology_id="M1",
        aggregation=AggregationLevel.AGGREGATE_LEVEL,
        target=ValidationTarget(
            kind=TargetKind.RATE_BOUND,
            event_definition=event,
            max_rate=max_rate,
            exposure_unit=unit,
            confidence=confidence,
        ),
    )


def entry(release="r1", phase=Phase.PREDICTED, exposure=1e6, unit="mi", counts=None):
    return LedgerEntry(
        release=release,
        phase=phase,
        exposure=exposure,
        exposure_unit=unit,
        event_counts=counts or {},
    )


class TestRateUpperBound:
    def test_zero_events_unit_exposure_closed_form(self):
        confidence = 1.0 - math.exp(-1.0)
        assert rel_err(rate_upper_bound(0, 1.0, confidence), 1.0) < 1e-9

    def test_zero_events_million_miles(self):
        expected = -math.log(0.05) / 1e6  # 2.99573e-6
        assert rel_err(rate_upper_bound(0, 1e6, 0.95), expected) < 1e-9
        assert rel_err(rate_upper_bound(0, 1e6, 0.95), 2.99573e-6) < 1e-5

    @pytest.mark.parametrize("confidence", [1e-12, 1e-15])
    def test_zero_events_keeps_its_digits_at_tiny_confidences(self, confidence):
        # -log(1 - c) loses the digits of c that 1 - c rounds away.
        expected = -math.log1p(-confidence) / 1e6
        assert rel_err(rate_upper_bound(0, 1e6, confidence), expected) < 1e-12

    def test_one_event_million_miles_matches_bisection_oracle(self):
        bound = rate_upper_bound(1, 1e6, 0.95)
        assert rel_err(bound, upper_bound_bisect(1, 1e6, 0.95)) < 1e-6
        assert rel_err(bound, 4.74386e-6) < 1e-5

    @pytest.mark.parametrize(
        "count, exposure, confidence",
        [(0, 1e3, 0.9), (2, 1e4, 0.95), (7, 1e5, 0.99), (20, 1e7, 0.9)],
    )
    def test_matches_oracle_at_sampled_points(self, count, exposure, confidence):
        bound = rate_upper_bound(count, exposure, confidence)
        assert rel_err(bound, upper_bound_bisect(count, exposure, confidence)) < 1e-6

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="exposure"):
            rate_upper_bound(0, 0.0, 0.95)
        with pytest.raises(ValueError, match="confidence"):
            rate_upper_bound(0, 1.0, 1.0)
        with pytest.raises(ValueError, match="confidence"):
            rate_upper_bound(0, 1.0, 0.0)
        with pytest.raises(ValueError, match="count"):
            rate_upper_bound(-1, 1.0, 0.9)
        with pytest.raises(ValueError, match="count"):
            rate_upper_bound(1.5, 1.0, 0.9)  # type: ignore[arg-type]

    @settings(max_examples=300, deadline=None)
    @given(
        exposures=st.tuples(
            st.floats(min_value=1.0, max_value=1e9),
            st.floats(min_value=1.0, max_value=1e9),
        ).filter(lambda pair: pair[0] != pair[1]),
        confidence=st.floats(min_value=0.5, max_value=0.999),
    )
    def test_more_exposure_tightens_the_zero_event_bound(self, exposures, confidence):
        low, high = sorted(exposures)
        assert rate_upper_bound(0, high, confidence) < rate_upper_bound(
            0, low, confidence
        )

    @settings(max_examples=100, deadline=None)
    @given(
        count=st.integers(min_value=0, max_value=30),
        exposure=st.floats(min_value=1e2, max_value=1e8),
        confidence=st.sampled_from([0.9, 0.95, 0.99]),
    )
    def test_strictly_increasing_in_count(self, count, exposure, confidence):
        assert rate_upper_bound(count + 1, exposure, confidence) > rate_upper_bound(
            count, exposure, confidence
        )

    @pytest.mark.parametrize("confidence", [0.01, 0.5, 0.95, 0.999999])
    @pytest.mark.parametrize("count", [50, 200, 1000, 5000])
    def test_matches_oracle_at_large_counts(self, count, confidence):
        bound = rate_upper_bound(count, 1e6, confidence)
        assert rel_err(bound, upper_bound_bisect(count, 1e6, confidence)) < 1e-6

    @pytest.mark.parametrize("confidence", [0.5, 0.95])
    @pytest.mark.parametrize("count", [10**5, 10**6])
    def test_solves_the_defining_equation_at_huge_counts(self, count, confidence):
        exposure = 1e7
        mean = rate_upper_bound(count, exposure, confidence) * exposure
        assert rel_err(poisson_cdf(count, mean), 1.0 - confidence) < 1e-6

    @pytest.mark.parametrize("confidence", [1e-12, 1e-100])
    @pytest.mark.parametrize("count", [1, 5, 50])
    def test_keeps_its_digits_at_tiny_confidences(self, count, confidence):
        mean = rate_upper_bound(count, 1.0, confidence)
        assert rel_err(poisson_sf(count, mean), confidence) < 1e-9

    @pytest.mark.parametrize("count", [1, 10**7])
    def test_converges_across_confidences(self, count):
        confidences = [5e-324, 1e-12, 0.01, 0.1, 0.3, 0.5, 0.9, 1.0 - 1e-12, 1.0 - 2.0**-53]
        bounds = [rate_upper_bound(count, 1.0, c) for c in confidences]
        assert all(math.isfinite(b) and b > 0.0 for b in bounds)
        assert bounds == sorted(set(bounds))

    @settings(max_examples=200, deadline=None)
    @given(
        count=st.integers(min_value=0, max_value=2000),
        confidences=st.tuples(
            st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
            st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
        ).filter(lambda pair: abs(pair[0] - pair[1]) > 1e-3),
        exposures=st.tuples(
            st.floats(min_value=1e-3, max_value=1e12),
            st.floats(min_value=1e-3, max_value=1e12),
        ),
    )
    def test_monotone_in_count_and_confidence_and_scales_with_exposure(
        self, count, confidences, exposures
    ):
        low, high = sorted(confidences)
        exposure, other = exposures
        bound = rate_upper_bound(count, exposure, low)
        assert rate_upper_bound(count + 1, exposure, low) > bound
        assert rate_upper_bound(count, exposure, high) > bound
        assert math.isclose(
            bound * exposure, rate_upper_bound(count, other, low) * other, rel_tol=1e-12
        )


class TestCountCeiling:
    """Up to `MAX_BOUND_COUNT` the solved mean meets its defining equation,
    checked against a sum of Poisson terms; above it the bound is refused."""

    @pytest.mark.parametrize("confidence", [1e-12, 0.01, 0.5, 0.95, 0.999999, 1.0 - 1e-12])
    @pytest.mark.parametrize("count", [10**7, 10**8, "ceiling"])
    def test_the_defining_equation_holds_up_to_the_ceiling(self, count, confidence):
        if count == "ceiling":
            count = lifecycle.MAX_BOUND_COUNT
        mean = rate_upper_bound(count, 1.0, confidence)
        tail, below_mean = poisson_smaller_tail(count, mean)
        expected = 1.0 - confidence if below_mean else confidence
        assert rel_err(tail, expected) < 1e-9

    def test_counts_above_the_ceiling_are_refused(self):
        ceiling = lifecycle.MAX_BOUND_COUNT
        assert ceiling <= 10**9
        rate_upper_bound(ceiling, 1.0, 0.95)
        with pytest.raises(ValueError, match=f"at or below {ceiling}"):
            rate_upper_bound(ceiling + 1, 1.0, 0.95)

    def test_a_solved_mean_below_the_count_is_refused(self, monkeypatch):
        monkeypatch.setattr(lifecycle, "_poisson_mean_upper", lambda count, _: count - 0.5)
        with pytest.raises(ValueError, match="lies below it"):
            rate_upper_bound(100, 1.0, 0.95)

    @settings(max_examples=300, deadline=None)
    @given(
        count=st.integers(min_value=0, max_value=2**62),
        confidence=st.floats(
            min_value=1e-300, max_value=1.0 - 1e-16, exclude_min=True, exclude_max=True
        ),
        exposure=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    )
    def test_returns_a_positive_finite_bound_or_refuses(self, count, confidence, exposure):
        try:
            bound = rate_upper_bound(count, exposure, confidence)
        except ValueError:
            return
        assert math.isfinite(bound) and bound > 0.0


class TestLedgerParsing:
    def test_groups_rows_by_release_and_phase(self, golden_ledger_text):
        ledger = parse_ledger(golden_ledger_text)
        assert len(ledger.entries) == 2
        predicted = ledger.for_phase(Phase.PREDICTED)
        assert len(predicted) == 1
        assert predicted[0].exposure == 1e6
        assert predicted[0].event_counts == {"injury-causing collision": 0}

    def test_multiple_event_definitions_merge_into_one_entry(self):
        ledger = parse_ledger(
            "release,phase,exposure,exposure_unit,event_definition,count\n"
            "r1,predicted,1000,mi,crash,1\n"
            "r1,predicted,1000,mi,near-miss,4\n"
        )
        (only,) = ledger.entries
        assert only.event_counts == {"crash": 1, "near-miss": 4}

    def test_unnamed_definitions_are_those_no_rate_bound_target_names(
        self, golden_case, golden_ledger_text
    ):
        ledger = parse_ledger(
            "release,phase,exposure,exposure_unit,event_definition,count\n"
            "r2,observed,10,mi,near-miss,3\n"
            "r1,predicted,1000,mi,injury-causing collision,1\n"
            "r1,predicted,1000,mi,near-miss,4\n"
            "r1,predicted,1000,mi,crash,0\n"
        )
        unnamed = unnamed_definitions(golden_case, ledger)
        assert list(unnamed) == ["near-miss", "crash"]
        assert [entry.release for entry in unnamed["near-miss"]] == ["r2", "r1"]
        assert unnamed_definitions(golden_case, parse_ledger(golden_ledger_text)) == {}

    def test_header_must_match(self):
        with pytest.raises(ValueError, match="header"):
            parse_ledger("a,b,c\n")

    def test_one_leading_byte_order_mark_is_dropped(self, golden_ledger_text):
        assert parse_ledger("\ufeff" + golden_ledger_text) == parse_ledger(
            golden_ledger_text
        )
        with pytest.raises(ValueError, match="header"):
            parse_ledger("\ufeff\ufeff" + golden_ledger_text)

    def test_conflicting_exposure_rejected(self):
        with pytest.raises(ValueError, match="conflicts with line"):
            parse_ledger(
                "release,phase,exposure,exposure_unit,event_definition,count\n"
                "r1,predicted,1000,mi,crash,1\n"
                "r1,predicted,2000,mi,near-miss,4\n"
            )

    def test_duplicate_event_definition_rejected(self):
        with pytest.raises(ValueError, match="duplicate event definition"):
            parse_ledger(
                "release,phase,exposure,exposure_unit,event_definition,count\n"
                "r1,predicted,1000,mi,crash,1\n"
                "r1,predicted,1000,mi,crash,2\n"
            )

    def test_bad_phase_rejected(self):
        with pytest.raises(ValueError, match="phase"):
            parse_ledger(
                "release,phase,exposure,exposure_unit,event_definition,count\n"
                "r1,guessed,1000,mi,crash,1\n"
            )

    def test_nonpositive_exposure_rejected(self):
        with pytest.raises(ValueError, match="exposure must be > 0"):
            parse_ledger(
                "release,phase,exposure,exposure_unit,event_definition,count\n"
                "r1,predicted,0,mi,crash,0\n"
            )

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="negative count"):
            parse_ledger(
                "release,phase,exposure,exposure_unit,event_definition,count\n"
                "r1,predicted,10,mi,crash,-1\n"
            )

    def test_nonpositive_exposure_names_its_line(self):
        for exposure in ("0", "-1", "-0.0"):
            with pytest.raises(ValueError, match=r"ledger line 2: exposure must be > 0"):
                parse_ledger(_LEDGER_HEADER + f"r,predicted,{exposure},mi,crash,0\n")

    def test_negative_count_names_its_line(self):
        with pytest.raises(ValueError, match=r"ledger line 3: negative count '-1'"):
            parse_ledger(
                _LEDGER_HEADER
                + "r1,predicted,10,mi,crash,0\n"
                + "r1,predicted,10,mi,near-miss,-1\n"
            )

    def test_line_numbers_count_blank_lines(self):
        with pytest.raises(ValueError, match=r"ledger line 4: negative count"):
            parse_ledger(_LEDGER_HEADER + "\n\nr1,predicted,10,mi,crash,-1\n")

    def test_csv_errors_become_positioned_value_errors(self):
        with pytest.raises(ValueError, match=r"ledger line 2: new-line character"):
            parse_ledger(_LEDGER_HEADER + "r1,predicted,10\rx,mi,crash,0\n")
        with pytest.raises(ValueError, match=r"ledger line 2: field larger than field limit"):
            parse_ledger(_LEDGER_HEADER + "r1,predicted,10,mi," + "x" * 200_000 + ",0\n")

    def test_release_unique_per_phase(self):
        with pytest.raises(ValueError, match="appears twice"):
            ExposureLedger(
                entries=(
                    entry(release="r1"),
                    entry(release="r1"),
                )
            )


class TestCheckTarget:
    def test_met_with_a_million_clean_miles(self):
        ledger = ExposureLedger(entries=(entry(counts={"crash": 0}),))
        check = check_target(make_criterion(event="crash"), ledger, Phase.PREDICTED)
        assert check.status is TargetStatus.MET
        assert rel_err(check.upper_bound, 2.99573e-6) < 1e-5

    def test_unmet_with_a_tenth_of_the_exposure(self):
        ledger = ExposureLedger(entries=(entry(exposure=1e5, counts={"crash": 0}),))
        check = check_target(make_criterion(event="crash"), ledger, Phase.PREDICTED)
        assert check.status is TargetStatus.UNMET
        assert rel_err(check.upper_bound, 2.99573e-5) < 1e-5

    def test_insufficient_data_on_empty_phase(self):
        ledger = ExposureLedger(entries=(entry(phase=Phase.OBSERVED),))
        check = check_target(make_criterion(), ledger, Phase.PREDICTED)
        assert check.status is TargetStatus.INSUFFICIENT_DATA
        assert check.upper_bound is None

    def test_status_is_read_from_the_bound(self):
        assert TargetCheck.FIELDS == ("criterion_id", "target", "upper_bound", "exposure", "count")
        check = TargetCheck("AC1", target=5e-6)
        assert check.status is TargetStatus.INSUFFICIENT_DATA
        assert check.replace(upper_bound=5e-6).status is TargetStatus.MET
        assert check.replace(upper_bound=math.nextafter(5e-6, 1.0)).status is TargetStatus.UNMET
        with pytest.raises(TypeError):
            TargetCheck("AC1", target=5e-6, status=TargetStatus.MET)

    def test_exposure_sums_across_releases(self):
        ledger = ExposureLedger(
            entries=(
                entry(release="r1", exposure=4e5, counts={"crash": 0}),
                entry(release="r2", exposure=6e5, counts={"crash": 0}),
            )
        )
        check = check_target(make_criterion(event="crash"), ledger, Phase.PREDICTED)
        assert check.exposure == 1e6
        assert check.status is TargetStatus.MET

    def test_unit_mismatch_is_an_error_not_a_conversion(self):
        ledger = ExposureLedger(entries=(entry(unit="km"),))
        with pytest.raises(ValueError, match="no unit conversion"):
            check_target(make_criterion(unit="mi"), ledger, Phase.PREDICTED)

    def test_an_entry_without_the_target_definition_cannot_support_it(self):
        # A misspelt definition is no evidence of zero events: refused, not
        # summed as 0, in either phase.
        ledger = ExposureLedger(
            entries=(
                entry(release="2024.3.1", exposure=1e8, counts={"crash ": 5000}),
                entry(release="2024.2.0", phase=Phase.OBSERVED, counts={"Crash": 1}),
            )
        )
        for phase, release in [(Phase.PREDICTED, "2024.3.1"), (Phase.OBSERVED, "2024.2.0")]:
            with pytest.raises(ValueError) as excinfo:
                check_target(make_criterion(event="crash"), ledger, phase)
            assert str(excinfo.value) == (
                f"criterion AC1: release {release} ({phase.value}) records no count "
                "for event definition 'crash'"
            )

    def test_every_release_without_a_count_is_named_in_sorted_order(self):
        entries = (
            entry(release="r2", counts={"near miss": 1}),
            entry(release="r1", counts={"near miss": 0}),
            entry(release="r3", counts={"crash": 0}),
        )
        for ordered in (entries, entries[::-1]):
            with pytest.raises(ValueError) as excinfo:
                check_target(make_criterion(event="crash"), ExposureLedger(ordered), Phase.PREDICTED)
            assert str(excinfo.value) == (
                "criterion AC1: releases r1, r2 (predicted) record no count "
                "for event definition 'crash'"
            )

    def test_a_unit_mismatch_is_reported_before_a_missing_count(self):
        entries = (entry(release="r1", counts={"near miss": 0}), entry(release="r2", unit="km"))
        for ordered in (entries, entries[::-1]):
            with pytest.raises(ValueError, match="ledger exposure unit 'km' does not match"):
                check_target(make_criterion(event="crash"), ExposureLedger(ordered), Phase.PREDICTED)

    def test_the_summed_exposure_is_exact_in_any_row_order(self):
        entries = tuple(
            entry(release=f"r{i}", exposure=exposure, counts={"crash": 1})
            for i, exposure in enumerate((0.1, 0.2, 0.3))
        )
        criterion = make_criterion(event="crash")
        forward = check_target(criterion, ExposureLedger(entries), Phase.PREDICTED)
        backward = check_target(criterion, ExposureLedger(entries[::-1]), Phase.PREDICTED)
        assert forward.exposure == backward.exposure == 0.6
        assert forward.upper_bound == backward.upper_bound

    def test_qualitative_target_not_applicable(self):
        criterion = AcceptanceCriterion(
            id="AC1",
            statement="s",
            hazard_ids=frozenset({"H1"}),
            methodology_id="M1",
            aggregation=AggregationLevel.EVENT_LEVEL,
            target=ValidationTarget(kind=TargetKind.QUALITATIVE, description="d"),
        )
        with pytest.raises(TargetNotApplicableError):
            check_target(criterion, ExposureLedger(), Phase.PREDICTED)


class TestDriftCheck:
    def test_clean_observation_shows_no_drift(self):
        ledger = ExposureLedger(
            entries=(
                entry(phase=Phase.PREDICTED, counts={"crash": 0}),
                entry(release="r0", phase=Phase.OBSERVED, exposure=1e6, counts={"crash": 0}),
            )
        )
        result = drift_check(make_criterion(event="crash"), ledger)
        assert result.status is DriftStatus.NO_DRIFT
        assert rel_err(result.observed_upper_bound, 2.99573e-6) < 1e-5

    def test_three_events_in_a_tenth_of_the_miles_is_drift(self):
        ledger = ExposureLedger(
            entries=(
                entry(phase=Phase.PREDICTED, counts={"crash": 0}),
                entry(release="r0", phase=Phase.OBSERVED, exposure=1e5, counts={"crash": 3}),
            )
        )
        result = drift_check(make_criterion(event="crash"), ledger)
        assert result.status is DriftStatus.DRIFT
        assert rel_err(result.observed_upper_bound, 7.75366e-5) < 1e-5
        assert rel_err(result.observed_upper_bound, upper_bound_bisect(3, 1e5, 0.95)) < 1e-6

    def test_no_observed_entries_is_insufficient_data(self):
        ledger = ExposureLedger(entries=(entry(phase=Phase.PREDICTED),))
        result = drift_check(make_criterion(), ledger)
        assert result.status is DriftStatus.INSUFFICIENT_DATA

    def test_an_observed_only_ledger_is_checked(self):
        ledger = ExposureLedger(
            entries=(entry(phase=Phase.OBSERVED, exposure=1e6, counts={"crash": 0}),)
        )
        result = drift_check(make_criterion(event="crash"), ledger)
        assert result.status is DriftStatus.NO_DRIFT
        assert rel_err(result.observed_upper_bound, 2.99573e-6) < 1e-5

    def test_status_is_read_from_the_observed_bound(self):
        assert DriftCheck.FIELDS == ("criterion_id", "target", "observed_upper_bound")
        check = DriftCheck("AC1", target=5e-6)
        assert check.status is DriftStatus.INSUFFICIENT_DATA
        assert check.replace(observed_upper_bound=5e-6).status is DriftStatus.NO_DRIFT
        drifted = check.replace(observed_upper_bound=math.nextafter(5e-6, 1.0))
        assert drifted.status is DriftStatus.DRIFT

    def test_without_observed_rows_the_predicted_rows_are_not_checked(self):
        # Predicted rows that could not support the target raise nothing.
        ledger = ExposureLedger(entries=(entry(unit="km", counts={"other": 1}),))
        result = drift_check(make_criterion(), ledger)
        assert result.status is DriftStatus.INSUFFICIENT_DATA

    def test_predicted_rows_that_cannot_support_the_target_do_not_hide_drift(
        self, golden_case
    ):
        # Checked, the predicted row would raise on its unit.
        ledger = parse_ledger(
            _LEDGER_HEADER
            + f"2024.3.1,predicted,1000000,km,{GOLDEN_EVENT},0\n"
            + f"2024.2.0,observed,250000,mi,{GOLDEN_EVENT},50\n"
        )
        (criterion,) = (c for c in golden_case.criteria if c.id == "AC1")
        with pytest.raises(ValueError, match="unit 'km' does not match"):
            check_target(criterion, ledger, Phase.PREDICTED)
        result = drift_check(criterion, ledger)
        assert result.status is DriftStatus.DRIFT
        assert rel_err(result.observed_upper_bound, upper_bound_bisect(50, 250000, 0.95)) < 1e-6


class TestReadinessReview:
    def golden_case(self, golden_text):
        return parse(golden_text, "golden_cat.aur").case

    def test_golden_with_sufficient_exposure_is_approved(
        self, golden_cat_text, golden_ledger_text
    ):
        case = self.golden_case(golden_cat_text)
        decision = readiness_review(case, parse_ledger(golden_ledger_text))
        assert decision.approved
        assert decision.status == "approved"
        assert [c.status for c in decision.target_checks] == [TargetStatus.MET]

    def test_structural_error_blocks_with_named_cause(
        self, golden_cat_text, golden_ledger_text
    ):
        mutation = [m for m in MUTATIONS if m.rule_id == "E002"][0]
        case = self.golden_case(mutation.apply(golden_cat_text))
        decision = readiness_review(case, parse_ledger(golden_ledger_text))
        assert not decision.approved
        assert any(
            b.subject_id == "C1" and "E002" in b.reason for b in decision.blockers
        )

    def test_tenfold_less_exposure_blocks_on_the_target(self, golden_cat_text):
        case = self.golden_case(golden_cat_text)
        ledger = parse_ledger(
            "release,phase,exposure,exposure_unit,event_definition,count\n"
            "2024.3.1,predicted,100000,mi,injury-causing collision,0\n"
        )
        decision = readiness_review(case, ledger)
        assert not decision.approved
        assert [c.status for c in decision.target_checks] == [TargetStatus.UNMET]
        assert any("target unmet" in b.reason for b in decision.blockers)

    def test_empty_ledger_blocks_as_insufficient_data(self, golden_cat_text):
        case = self.golden_case(golden_cat_text)
        decision = readiness_review(case, ExposureLedger())
        assert not decision.approved
        assert any("no predicted-phase exposure" in b.reason for b in decision.blockers)

    def test_incomplete_context_blocks_even_without_review_ready_config(
        self, golden_cat_text, golden_ledger_text
    ):
        text = golden_cat_text.replace(
            'deployment_scale = "Up to 400 vehicles, about one million miles per quarter"',
            'deployment_scale = ""',
        )
        case = self.golden_case(text)
        decision = readiness_review(case, parse_ledger(golden_ledger_text))
        assert not decision.approved
        assert any("E011" in b.reason for b in decision.blockers)

    def test_unresolved_case_refuses_instead_of_crashing(self, golden_cat_text):
        text = golden_cat_text.replace("indicator = I1, I2", "indicator = I1, I2, I9")
        case = self.golden_case(text)
        decision = readiness_review(case, ExposureLedger())
        assert not decision.approved
        assert "unresolved reference" in decision.blockers[0].reason

    def test_unit_mismatch_becomes_a_blocker(self, golden_cat_text):
        case = self.golden_case(golden_cat_text)
        ledger = parse_ledger(
            "release,phase,exposure,exposure_unit,event_definition,count\n"
            "2024.3.1,predicted,1000000,km,injury-causing collision,0\n"
        )
        decision = readiness_review(case, ledger)
        assert not decision.approved
        assert any("no unit conversion" in b.reason for b in decision.blockers)

    def test_approval_implies_no_errors_and_all_targets_met(
        self, golden_cat_text, golden_ledger_text, golden_min_text
    ):
        from aurcase.rules import validate
        from aurcase.diagnostics import Severity

        ledger = parse_ledger(golden_ledger_text)
        for text in (golden_cat_text, golden_min_text):
            case = self.golden_case(text)
            decision = readiness_review(case, ledger)
            if decision.approved:
                config = RuleConfig(review_ready=True)
                errors = [
                    d
                    for d in validate(case, config)
                    if d.severity is Severity.ERROR
                ]
                assert errors == []
                assert all(
                    c.status is TargetStatus.MET for c in decision.target_checks
                )

    def test_approval_implies_finite_exposure_and_bounds(self, golden_cat_text):
        case = self.golden_case(golden_cat_text)
        approvals = 0

        @settings(max_examples=200, deadline=None, derandomize=True)
        @given(
            rows=st.lists(
                st.tuples(
                    st.sampled_from(list(Phase)),
                    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                    st.sampled_from(["mi", "mi", "km"]),
                    st.sampled_from(["injury-causing collision", "near-miss"]),
                    st.integers(min_value=0, max_value=10**6),
                ),
                max_size=4,
            )
        )
        def approval_rests_on_finite_numbers(rows):
            nonlocal approvals
            ledger = ExposureLedger(
                entries=tuple(
                    entry(f"r{i}", phase, exposure, unit, {event: count})
                    for i, (phase, exposure, unit, event, count) in enumerate(rows)
                )
            )
            decision = readiness_review(case, ledger)
            if decision.approved:
                approvals += 1
                assert decision.target_checks
                for check in decision.target_checks:
                    assert math.isfinite(check.exposure)
                    assert check.upper_bound is not None
                    assert math.isfinite(check.upper_bound)

        approval_rests_on_finite_numbers()
        assert approvals > 0, "property would be vacuous: no approved decision"

    def test_approval_needs_a_count_for_every_target_definition(self, golden_cat_text):
        case = self.golden_case(golden_cat_text)
        definitions = {
            c.target.event_definition for c in lifecycle.quantitative_criteria(case)
        }
        assert definitions == {"injury-causing collision"}
        outcomes = set()

        @settings(max_examples=200, deadline=None, derandomize=True)
        @given(
            rows=st.lists(
                st.tuples(
                    st.sampled_from(["2024.3.1", "2024.3.2"]),
                    st.sampled_from(list(Phase)),
                    st.sampled_from(
                        [
                            "injury-causing collision",
                            "injury causing collision",
                            "Injury-causing collision",
                            "near-miss",
                        ]
                    ),
                    st.integers(min_value=0, max_value=3),
                ),
                unique_by=lambda row: row[:3],
                max_size=5,
            )
        )
        def approval_needs_every_definition(rows):
            # Exposure enough for any count drawn here to meet the target.
            ledger = parse_ledger(
                _LEDGER_HEADER
                + "".join(
                    f"{release},{phase.value},100000000,mi,{event},{count}\n"
                    for release, phase, event, count in rows
                )
            )
            predicted = ledger.for_phase(Phase.PREDICTED)
            covered = all(definitions <= entry.event_counts.keys() for entry in predicted)
            decision = readiness_review(case, ledger)
            assert decision.approved == (bool(predicted) and covered)
            outcomes.add((decision.approved, covered))

        approval_needs_every_definition()
        # Neither side of the property is vacuous.
        assert {(True, True), (False, False)} <= outcomes


class TestGateProperties:
    """What the gate's decision on the golden case must not depend on."""

    @staticmethod
    def review(ledger_path: Path) -> tuple[tuple, dict, list]:
        """`review --format machine` run in process: the decision (exit code,
        status, blocked subjects and each target's status and count), its
        sums, and the stderr lines in an order-free form."""
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            argv = ["review", str(GOLDEN), "--ledger", str(ledger_path), "--format", "machine"]
            code = cli.run(argv)
        review = json.loads(out.getvalue())
        checks = review["targets"]
        decision = (
            code,
            review["status"],
            sorted((blocker["subject"], blocker["reason"]) for blocker in review["blockers"]),
            [(check["criterion"], check["status"], check["events"]) for check in checks],
        )
        sums = {check["criterion"]: (check["exposure"], check["upper_bound"]) for check in checks}
        # Each line names a definition and its releases in ledger order, by
        # design (see test_unnamed_definitions_are_those_no_rate_bound_target_names).
        lines = []
        for line in err.getvalue().splitlines():
            head, _, rest = line.partition(" (")
            releases, _, tail = rest.partition(") ")
            lines.append((head, sorted(releases.split(", ")), tail))
        return decision, sums, sorted(lines)

    def test_the_order_of_ledger_rows_changes_no_decision_and_no_stderr_line(self, tmp_path):
        outcomes = set()

        @settings(max_examples=60, deadline=None)
        @given(rows=ledger_rows(), data=st.data())
        def order_free(rows, data):
            path = tmp_path / "rows.ledger"
            path.write_text(ledger_text(rows), encoding="utf-8")
            decision, sums, lines = self.review(path)
            # Reversed, the ledger lists its releases the other way round.
            for shuffled in (rows[::-1], data.draw(st.permutations(rows))):
                path.write_text(ledger_text(shuffled), encoding="utf-8")
                again, shuffled_sums, shuffled_lines = self.review(path)
                assert again == decision
                assert shuffled_lines == lines
                assert shuffled_sums == sums
            outcomes.add((decision[1], bool(lines)))

        order_free()
        assert {("approved", True), ("blocked", False)} <= outcomes

    def test_raising_one_predicted_count_never_turns_blocked_into_approved(self, golden_case):
        outcomes = set()

        @settings(max_examples=150, deadline=None)
        @given(rows=ledger_rows(), data=st.data())
        def no_approval_by_more_events(rows, data):
            predicted = [i for i, row in enumerate(rows) if row[1] == "predicted"]
            assume(predicted)
            at = data.draw(st.sampled_from(predicted))
            raised = list(rows)
            raised[at] = (*rows[at][:5], str(int(rows[at][5]) + data.draw(st.integers(1, 10**4))))
            before = readiness_review(golden_case, parse_ledger(ledger_text(rows)))
            after = readiness_review(golden_case, parse_ledger(ledger_text(raised)))
            assert before.approved or not after.approved
            outcomes.add((before.approved, after.approved))

        no_approval_by_more_events()
        assert {(True, False), (False, False)} <= outcomes

    def test_more_exposure_at_the_same_counts_never_turns_approved_into_blocked(
        self, golden_case
    ):
        outcomes = set()

        @settings(max_examples=100, deadline=None)
        @given(rows=ledger_rows())
        def no_block_by_more_exposure(rows):
            release = rows[0][0]
            rows = [row for row in rows if row[0] == release]
            assume(any(row[1] == "predicted" for row in rows))
            approvals = []
            # The predicted exposure from far below the target's reach to far above it.
            for scale in (10.0**power for power in range(-12, 7)):
                scaled = [
                    (*row[:2], repr(float(row[2]) * scale), *row[3:])
                    if row[1] == "predicted"
                    else row
                    for row in rows
                ]
                decision = readiness_review(golden_case, parse_ledger(ledger_text(scaled)))
                approvals.append(decision.approved)
            # Blocked up to some exposure, and approved from there on.
            assert approvals == sorted(approvals)
            outcomes.add(approvals[-1])

        no_block_by_more_exposure()
        assert outcomes == {True, False}

    def test_renaming_a_definition_no_target_names_changes_no_decision(self, golden_case):
        renamed = []
        # Case variants of the target's own definition are names no target uses.
        names = st.sampled_from(
            (GOLDEN_EVENT.upper(), GOLDEN_EVENT.title(), GOLDEN_EVENT.capitalize())
        ) | st.text("abcdefghij -", min_size=1, max_size=12).map(lambda name: f"x{name}x")

        @settings(max_examples=150, deadline=None)
        @given(rows=ledger_rows(), name=names, data=st.data())
        def rename_free(rows, name, data):
            definitions = {row[4] for row in rows}
            unnamed = sorted(definitions - {GOLDEN_EVENT})
            assume(unnamed and name not in definitions)
            old = data.draw(st.sampled_from(unnamed))
            rows_renamed = [(*row[:4], name, row[5]) if row[4] == old else row for row in rows]
            before = readiness_review(golden_case, parse_ledger(ledger_text(rows)))
            after = readiness_review(golden_case, parse_ledger(ledger_text(rows_renamed)))
            assert after == before
            renamed.append(name.casefold() == GOLDEN_EVENT.casefold())

        rename_free()
        assert True in renamed and False in renamed

    def test_a_unit_mismatch_or_a_missing_count_always_blocks(self, golden_case):
        faults = set()
        reasons = ("does not match target unit", "no count for event definition")

        @settings(max_examples=150, deadline=None)
        @given(rows=ledger_rows(), unit=st.sampled_from((None, "km", "MI", "miles")), data=st.data())
        def blocked(rows, unit, data):
            predicted = sorted({row[0] for row in rows if row[1] == "predicted"})
            assume(predicted)
            release = data.draw(st.sampled_from(predicted))
            at_fault = lambda row: row[:2] == (release, "predicted")  # noqa: E731
            if unit is not None:  # the release's predicted exposure in another unit
                rows = [(*row[:3], unit, *row[4:]) if at_fault(row) else row for row in rows]
            else:  # the release's predicted rows without the target's count
                kept = [row for row in rows if not (at_fault(row) and row[4] == GOLDEN_EVENT)]
                if not any(at_fault(row) for row in kept):
                    first = next(row for row in rows if at_fault(row))
                    kept.append((*first[:4], UNNAMED_EVENTS[0], "0"))
                rows = kept
            decision = readiness_review(golden_case, parse_ledger(ledger_text(rows)))
            assert any(
                blocker.subject_id == "AC1" and any(reason in blocker.reason for reason in reasons)
                for blocker in decision.blockers
            )
            faults.add(unit)

        blocked()
        assert faults == {None, "km", "MI", "miles"}


class TestNonFiniteInputs:
    """The gate must never approve on numbers it cannot support."""

    def test_infinite_exposure_rejected_with_its_line(self):
        with pytest.raises(ValueError, match=r"ledger line 3: exposure must be finite"):
            parse_ledger(
                _LEDGER_HEADER
                + "r1,observed,1000,mi,crash,0\n"
                + "r2,predicted,inf,mi,crash,50\n"
            )

    def test_nan_exposure_rejected_as_non_finite_not_as_a_conflict(self):
        with pytest.raises(ValueError, match=r"ledger line 2: exposure must be finite") as info:
            parse_ledger(_LEDGER_HEADER + "r1,predicted,nan,mi,crash,0\n")
        assert "conflicts" not in str(info.value)

    def test_ledger_entry_rejects_infinite_exposure(self):
        with pytest.raises(ValueError, match="exposure must be finite"):
            entry(exposure=math.inf)

    def test_bound_rejects_non_finite_exposure_and_overflowing_results(self):
        with pytest.raises(ValueError, match="finite"):
            rate_upper_bound(0, math.inf, 0.95)
        with pytest.raises(ValueError, match="overflows"):
            rate_upper_bound(0, 1e-320, 0.95)

    @pytest.mark.parametrize(
        "count, exposure, confidence",
        [(1, 1e300, 1e-300), (3, 1e308, 1e-200), (0, 1e300, 1e-300)],
    )
    def test_bound_rejects_underflowing_results(self, count, exposure, confidence):
        with pytest.raises(ValueError, match="underflows"):
            rate_upper_bound(count, exposure, confidence)

    def test_bound_rejects_a_solved_mean_below_the_count(self):
        with pytest.raises(ValueError, match="below"):
            rate_upper_bound(10**16, 1.0, 0.95)

    def test_overflowing_summed_exposure_blocks_the_release(self, golden_cat_text):
        case = parse(golden_cat_text, "golden_cat.aur").case
        ledger = parse_ledger(
            _LEDGER_HEADER
            + "r1,predicted,1e308,mi,injury-causing collision,0\n"
            + "r2,predicted,1e308,mi,injury-causing collision,0\n"
        )
        decision = readiness_review(case, ledger)
        assert not decision.approved
        assert decision.target_checks == ()
        assert any("finite" in b.reason for b in decision.blockers)
