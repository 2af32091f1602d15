from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aurcase.coverage import (
    FULL_REGION,
    FULL_SPACE,
    BalanceClass,
    CoverageMap,
    Signal,
    aggregation_balance,
    coverage_map,
    criteria_by_category,
    gap_report,
    region_cells,
)
from aurcase.dsl import parse
from aurcase.model import (
    AcSpaceRegion,
    AggregationLevel,
    BehavioralCapability,
    Cell,
    ConflictRole,
    FunctionalityStatus,
    HazardCategory,
    ModelError,
    SeverityLevel,
)

from conftest import fixture_text
from oracles import enumerate_cells, gap_rows
from strategies import regions, safety_cases

CAMPAIGN_REGION = AcSpaceRegion(
    severities=frozenset(SeverityLevel),
    roles=frozenset({ConflictRole.RESPONDER}),
    capabilities=frozenset({BehavioralCapability.COLLISION_AVOIDANCE}),
    statuses=frozenset({FunctionalityStatus.NOMINAL}),
    aggregations=frozenset({AggregationLevel.AGGREGATE_LEVEL}),
)


def as_tuples(cells) -> set[tuple]:
    return {(c.severity, c.role, c.capability, c.status, c.aggregation) for c in cells}


def as_tuple(c: Cell) -> tuple:
    return (c.severity, c.role, c.capability, c.status, c.aggregation)


class TestRegionCells:
    def test_campaign_region_has_four_cells(self):
        cells = region_cells(CAMPAIGN_REGION)
        assert len(cells) == 4
        oracle = enumerate_cells(
            CAMPAIGN_REGION.severities,
            CAMPAIGN_REGION.roles,
            CAMPAIGN_REGION.capabilities,
            CAMPAIGN_REGION.statuses,
            CAMPAIGN_REGION.aggregations,
        )
        assert as_tuples(cells) == oracle

    def test_full_region_has_96_cells(self):
        cells = region_cells(FULL_REGION)
        assert len(cells) == 96
        oracle = enumerate_cells(
            SeverityLevel,
            ConflictRole,
            BehavioralCapability,
            FunctionalityStatus,
            AggregationLevel,
        )
        assert as_tuples(cells) == oracle
        assert len(FULL_SPACE) == 96

    def test_empty_dimension_is_an_invalid_region(self):
        with pytest.raises(ModelError, match="region has no severity value"):
            CAMPAIGN_REGION.replace(severities=frozenset())

    @settings(max_examples=200, deadline=None)
    @given(region=regions())
    def test_cell_count_is_the_product_of_dimension_sizes(self, region):
        cells = region_cells(region)
        assert len(cells) == (
            len(region.severities)
            * len(region.roles)
            * len(region.capabilities)
            * len(region.statuses)
            * len(region.aggregations)
        )
        oracle = enumerate_cells(
            region.severities,
            region.roles,
            region.capabilities,
            region.statuses,
            region.aggregations,
        )
        assert as_tuples(cells) == oracle


class TestCoverageMap:
    def test_golden_case_matches_the_worked_example(self, golden_case):
        coverage = coverage_map(golden_case)
        strong = coverage.cells_with(Signal.STRONG)
        weak = coverage.cells_with(Signal.WEAK)
        assert len(strong) == 3
        assert len(weak) == 1
        assert len(coverage.cells_with(Signal.NONE)) == 92
        for cell in strong | weak:
            assert cell.role is ConflictRole.RESPONDER
            assert cell.capability is BehavioralCapability.COLLISION_AVOIDANCE
            assert cell.status is FunctionalityStatus.NOMINAL
            assert cell.aggregation is AggregationLevel.AGGREGATE_LEVEL
        (weak_cell,) = weak
        assert weak_cell.severity is SeverityLevel.S3
        assert set(coverage.signals) == strong | weak

    def test_a_stored_none_signal_is_refused(self):
        cell = next(iter(FULL_SPACE))
        with pytest.raises(ValueError, match="must not store NONE signals"):
            CoverageMap(signals={cell: Signal.NONE})
        assert CoverageMap(signals={cell: Signal.WEAK}).signal(cell) is Signal.WEAK

    def test_join_of_weak_and_strong_is_strong(self):
        text = """
safety_case "two" {
  context { use_case = "pilot" }
  methodology M1 {
    name = "one"
    category = behavioral
    region {
      severity = S0..S0
      role = responder
      capability = collision_avoidance
      status = nominal
      aggregation = aggregate_level
      weak(S0)
    }
  }
  methodology M2 {
    name = "two"
    category = behavioral
    region {
      severity = S0..S0
      role = responder
      capability = collision_avoidance
      status = nominal
      aggregation = aggregate_level
    }
  }
}
"""
        case = parse(text, "two.aur").case
        coverage = coverage_map(case)
        (cell,) = coverage.signals
        assert coverage.signal(cell) is Signal.STRONG

    def test_no_behavioral_methodologies_covers_nothing(self):
        text = """
safety_case "none" {
  context { use_case = "pilot" }
  methodology M1 { name = "audits" category = in_service_operational }
}
"""
        case = parse(text, "none.aur").case
        coverage = coverage_map(case)
        assert coverage.signals == {}
        assert len(coverage.cells_with(Signal.NONE)) == 96

    @settings(max_examples=75, deadline=None)
    @given(case=safety_cases())
    def test_covered_cells_equal_union_of_method_regions(self, case):
        coverage = coverage_map(case)
        union = set()
        for methodology in case.methodologies:
            if methodology.region is not None:
                union |= region_cells(methodology.region)
        assert set(coverage.signals) == union

    @settings(max_examples=75, deadline=None)
    @given(case=safety_cases(), extra=regions())
    def test_adding_a_methodology_never_decreases_signal(self, case, extra):
        from aurcase.model import Methodology

        before = coverage_map(case)
        grown = case.replace(
            methodologies=case.methodologies
            + (
                Methodology(
                    id="MZZ",
                    name="added",
                    hazard_categories=frozenset({HazardCategory.BEHAVIORAL}),
                    region=extra,
                ),
            ),
        )
        after = coverage_map(grown)
        for cell in FULL_SPACE:
            assert after.signal(cell) >= before.signal(cell)
        before_gaps = gap_report(before)
        after_gaps = gap_report(after)
        for dimension, per_value in before_gaps.marginals.items():
            for value, fraction in per_value.items():
                assert after_gaps.marginals[dimension][value].value >= fraction.value


class TestGapReport:
    def test_golden_marginals(self, golden_case):
        gaps = gap_report(coverage_map(golden_case))
        assert (gaps.covered.numerator, gaps.covered.denominator) == (4, 96)
        assert (gaps.strong.numerator, gaps.strong.denominator) == (3, 96)
        role = gaps.marginals["role"]
        assert (role["responder"].numerator, role["responder"].denominator) == (4, 48)
        assert (role["initiator"].numerator, role["initiator"].denominator) == (0, 48)
        for level in SeverityLevel:
            fraction = gaps.marginals["severity"][level.name]
            assert (fraction.numerator, fraction.denominator) == (1, 24)
        assert len(gaps.uncovered) == 92

    def test_fully_covered_map(self):
        text = """
safety_case "full" {
  context { use_case = "pilot" }
  methodology M1 {
    name = "everything"
    category = behavioral
    region {
      severity = S0..S3
      role = initiator, responder
      capability = regulatory_compliance, conflict_avoidance, collision_avoidance
      status = nominal, degraded
      aggregation = event_level, aggregate_level
    }
  }
}
"""
        case = parse(text, "full.aur").case
        gaps = gap_report(coverage_map(case))
        assert gaps.covered.numerator == 96
        assert gaps.uncovered == ()
        for per_value in gaps.marginals.values():
            for fraction in per_value.values():
                assert fraction.value == 1.0

    def test_empty_map(self):
        gaps = gap_report(CoverageMap())
        assert gaps.covered.numerator == 0
        assert len(gaps.uncovered) == 96
        grouped = gaps.uncovered_by_dimension()
        assert sum(len(cells) for cells in grouped["severity"].values()) == 96
        assert len(grouped["role"]["initiator"]) == 48

    @settings(max_examples=100, deadline=None)
    @given(case=safety_cases())
    def test_matches_the_cell_by_cell_oracle(self, case):
        gaps = gap_report(coverage_map(case))
        covered, strong, uncovered, marginals, by_dimension = gap_rows(
            case,
            SeverityLevel,
            ConflictRole,
            BehavioralCapability,
            FunctionalityStatus,
            AggregationLevel,
        )
        assert (gaps.covered.numerator, gaps.covered.denominator) == covered
        assert (gaps.strong.numerator, gaps.strong.denominator) == strong
        assert tuple(map(as_tuple, gaps.uncovered)) == uncovered
        assert tuple(
            (dim, tuple((name, f.numerator, f.denominator) for name, f in per_value.items()))
            for dim, per_value in gaps.marginals.items()
        ) == marginals
        assert tuple(
            (dim, tuple((name, tuple(map(as_tuple, cells))) for name, cells in groups.items()))
            for dim, groups in gaps.uncovered_by_dimension().items()
        ) == by_dimension


class TestAggregationBalance:
    @pytest.mark.parametrize(
        "fixture, expected",
        [
            ("golden_min.aur", BalanceClass.BALANCED),
            ("balance_aggregate_only.aur", BalanceClass.AGGREGATE_ONLY),
            ("balance_event_only.aur", BalanceClass.EVENT_ONLY),
            ("balance_none.aur", BalanceClass.NONE),
        ],
    )
    def test_quadrants(self, fixture, expected):
        case = parse(fixture_text(fixture), fixture).case
        assert aggregation_balance(case) is expected

    def test_advisories_name_the_risk(self):
        assert "individual scenarios" in BalanceClass.AGGREGATE_ONLY.advisory
        assert "residual risk" in BalanceClass.EVENT_ONLY.advisory
        assert "no argumentation" in BalanceClass.NONE.advisory.lower()

    def test_non_behavioral_criteria_do_not_count(self):
        text = """
safety_case "ops" {
  context { use_case = "pilot" }
  hazard H1 category = in_service_operational { description = "cargo" }
  methodology M1 { name = "audits" category = in_service_operational }
  criterion AC1 hazard = H1 methodology = M1 aggregation = event_level {
    statement = "every audit finding closed"
  }
}
"""
        case = parse(text, "ops.aur").case
        assert aggregation_balance(case) is BalanceClass.NONE
        counts = criteria_by_category(case)
        assert counts[HazardCategory.IN_SERVICE_OPERATIONAL] == 1
        assert counts[HazardCategory.BEHAVIORAL] == 0

    def test_depends_only_on_the_multiset_of_levels(self, golden_min_text):
        # Same levels, different declaration order and identifiers.
        renamed = (
            golden_min_text.replace("ACA", "ZC1")
            .replace("ACB", "AB1")
            .replace("minimal-balanced", "shuffled")
        )
        case_a = parse(golden_min_text, "a.aur").case
        case_b = parse(renamed, "b.aur").case
        assert aggregation_balance(case_a) is aggregation_balance(case_b)

    @settings(max_examples=75, deadline=None)
    @given(case=safety_cases())
    def test_classification_matches_level_sets(self, case):
        from aurcase.coverage import behavioral_criteria

        levels = {c.aggregation for c in behavioral_criteria(case)}
        balance = aggregation_balance(case)
        if not levels:
            assert balance is BalanceClass.NONE
        elif levels == {AggregationLevel.EVENT_LEVEL}:
            assert balance is BalanceClass.EVENT_ONLY
        elif levels == {AggregationLevel.AGGREGATE_LEVEL}:
            assert balance is BalanceClass.AGGREGATE_ONLY
        else:
            assert balance is BalanceClass.BALANCED


def test_signal_lattice_order():
    assert Signal.NONE < Signal.WEAK < Signal.STRONG
    assert max(Signal.WEAK, Signal.STRONG) is Signal.STRONG


def test_cell_prints_its_values_in_dimension_order():
    cell = Cell(
        SeverityLevel.S2,
        ConflictRole.RESPONDER,
        BehavioralCapability.COLLISION_AVOIDANCE,
        FunctionalityStatus.DEGRADED,
        AggregationLevel.EVENT_LEVEL,
    )
    assert str(cell) == "(S2, responder, collision_avoidance, degraded, event_level)"


def test_dimension_sets_follow_the_canonical_order():
    sets = CAMPAIGN_REGION.dimension_sets
    assert list(sets) == ["severity", "role", "capability", "status", "aggregation"]
    assert list(sets.values()) == [
        CAMPAIGN_REGION.severities,
        CAMPAIGN_REGION.roles,
        CAMPAIGN_REGION.capabilities,
        CAMPAIGN_REGION.statuses,
        CAMPAIGN_REGION.aggregations,
    ]
