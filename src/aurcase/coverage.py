"""Region algebra over the discretized acceptance-criteria space.

The behavioral space is the cartesian product of five dimensions, laid
out once in `model.SPACE_DIMENSIONS`.  In canonical order they are
severity, role, capability, status and aggregation (4 x 2 x 3 x 2 x 2 = 96
cells).  A severity is spelled by its name (`S0`..`S3`), any other value by
its lowercase value (`responder`, `collision_avoidance`, ...).  A
methodology's region is a rectangular block of cells: `model.AcSpaceRegion`
holds at least one value in each dimension and one contiguous severity
range.  The case-wide coverage map joins the regions' per-cell signal
(none < weak < strong) and the gap report summarizes what remains
uncovered, per dimension value.  `FULL_SPACE` and the report's
`uncovered` list cells in canonical order: by severity first, then role,
and so on, each dimension in its enum's order.
"""

from __future__ import annotations

import enum
from collections import Counter
from itertools import product, starmap
from typing import Mapping

from .model import (
    SPACE_DIMENSIONS,
    AcSpaceRegion,
    EMPTY_MAPPING,
    AggregationLevel,
    Cell,
    HazardCategory,
    IdentityEnum,
    Record,
    SafetyCase,
    require_resolved,
    value_name,
)

DIMENSIONS: dict[str, tuple] = {dim: tuple(members) for dim, _, members in SPACE_DIMENSIONS}

# In canonical order, so any filtered subsequence of it is sorted too.
FULL_SPACE: tuple[Cell, ...] = tuple(starmap(Cell, product(*DIMENSIONS.values())))

FULL_REGION = AcSpaceRegion(*map(frozenset, DIMENSIONS.values()))


class Signal(enum.IntEnum):
    """Per-cell signal strength; a lattice with join = max."""

    NONE = 0
    WEAK = 1
    STRONG = 2


class BalanceClass(IdentityEnum):
    """Which aggregation levels the behavioral criteria exercise."""

    BALANCED = "balanced"
    AGGREGATE_ONLY = "aggregate_only"
    EVENT_ONLY = "event_only"
    NONE = "none"

    @property
    def advisory(self) -> str:
        return _BALANCE_ADVISORIES[self]


_BALANCE_ADVISORIES = {
    BalanceClass.BALANCED: (
        "event-level and aggregate-level criteria are both present; risk in "
        "individual scenarios and overall residual risk are both addressed"
    ),
    BalanceClass.AGGREGATE_ONLY: (
        "only aggregate-level criteria are stated; aggregate rates can miss "
        "risk the system poses in individual scenarios"
    ),
    BalanceClass.EVENT_ONLY: (
        "only event-level criteria are stated; individual instances alone "
        "cannot bound residual risk across the full operating space"
    ),
    BalanceClass.NONE: (
        "no behavioral acceptance criteria are stated; no argumentation is "
        "possible without them"
    ),
}


def region_cells(region: AcSpaceRegion) -> frozenset[Cell]:
    """Expand a region to the exact set of cells it covers."""
    return frozenset(starmap(Cell, product(*region.dimension_sets.values())))


class CoverageMap(Record):
    """Cell -> signal over the full space.

    Only covered cells are stored, so a stored NONE is refused; `signal()`
    reads NONE for the rest.
    """

    signals: Mapping[Cell, Signal] = EMPTY_MAPPING

    def __post_init__(self) -> None:
        if Signal.NONE in self.signals.values():
            raise ValueError("covered-cell map must not store NONE signals")

    def signal(self, cell: Cell) -> Signal:
        return self.signals.get(cell, Signal.NONE)

    def cells_with(self, sig: Signal) -> frozenset[Cell]:
        if sig is Signal.NONE:
            return frozenset(c for c in FULL_SPACE if c not in self.signals)
        return frozenset(c for c, s in self.signals.items() if s is sig)


def coverage_map(case: SafetyCase) -> CoverageMap:
    """Join every behavioral methodology's region into one per-cell map.

    A cell is strong if any methodology covers it outside that
    methodology's weak severity slices, weak if it is only covered in such
    slices, and uncovered otherwise.  Only the joined signal is kept, not
    which methodologies gave it.
    """
    require_resolved(case)
    signals: dict[Cell, Signal] = {}
    for methodology in case.methodologies:
        if methodology.region is None:
            continue
        weak = methodology.region.weak_severities
        for cell in region_cells(methodology.region):
            sig = Signal.WEAK if cell.severity in weak else Signal.STRONG
            signals[cell] = max(signals.get(cell, Signal.NONE), sig)
    return CoverageMap(signals=signals)


class Fraction(Record):
    """An exact cell-count ratio; reports never round these."""

    numerator: int
    denominator: int

    @property
    def value(self) -> float:
        return self.numerator / self.denominator if self.denominator else 0.0

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}"


class GapReport(Record):
    """What the coverage map leaves uncovered, overall and per dimension."""

    covered: Fraction
    strong: Fraction
    uncovered: tuple[Cell, ...]
    marginals: Mapping[str, Mapping[str, Fraction]]

    def uncovered_by_dimension(self) -> dict[str, dict[str, tuple[Cell, ...]]]:
        """Group the uncovered cells by each dimension value they fall under."""
        return {
            dim: {
                value_name(value): tuple(c for c in self.uncovered if getattr(c, dim) is value)
                for value in values
            }
            for dim, values in DIMENSIONS.items()
        }


def gap_report(coverage: CoverageMap) -> GapReport:
    total = len(FULL_SPACE)
    covered = [c for c in FULL_SPACE if c in coverage.signals]
    hits = Counter((dim, getattr(c, dim)) for c in covered for dim in DIMENSIONS)
    return GapReport(
        covered=Fraction(len(covered), total),
        strong=Fraction(sum(coverage.signal(c) is Signal.STRONG for c in covered), total),
        uncovered=tuple(c for c in FULL_SPACE if c not in coverage.signals),
        # Each value of a dimension labels the same share of the product.
        marginals={
            dim: {
                value_name(value): Fraction(hits[dim, value], total // len(values))
                for value in values
            }
            for dim, values in DIMENSIONS.items()
        },
    )


def behavioral_criteria(case: SafetyCase) -> list:
    """Criteria that address at least one hazard carrying the behavioral
    category (hazards count under every category they carry)."""
    hazards = case.hazard_map()
    return [
        criterion
        for criterion in case.criteria
        if HazardCategory.BEHAVIORAL in _categories(criterion, hazards)
    ]


def _categories(criterion, hazards):
    """Categories of the declared hazards a criterion covers, repeats kept."""
    for hazard_id in criterion.hazard_ids:
        if hazard_id in hazards:
            yield from hazards[hazard_id].categories


def behavioral_balance(case: SafetyCase) -> BalanceClass:
    """Map the aggregation levels of the behavioral criteria onto their
    quadrant.  A hazard reference that does not resolve adds no category."""
    levels = {criterion.aggregation for criterion in behavioral_criteria(case)}
    if not levels:
        return BalanceClass.NONE
    if levels == {AggregationLevel.EVENT_LEVEL, AggregationLevel.AGGREGATE_LEVEL}:
        return BalanceClass.BALANCED
    if levels == {AggregationLevel.AGGREGATE_LEVEL}:
        return BalanceClass.AGGREGATE_ONLY
    return BalanceClass.EVENT_ONLY


def aggregation_balance(case: SafetyCase) -> BalanceClass:
    """Classify which aggregation levels the behavioral criteria exercise.

    Depends only on the multiset of aggregation levels, so reordering or
    duplicating criteria cannot change the class.
    """
    require_resolved(case)
    return behavioral_balance(case)


def criteria_by_category(case: SafetyCase) -> dict[HazardCategory, int]:
    """Count criteria per hazard category (a criterion counts under every
    category its hazards carry).  Only the behavioral category has a
    defined evaluation space; the others are reported by count and
    traceability alone."""
    hazards = case.hazard_map()
    counts = {category: 0 for category in HazardCategory}
    for criterion in case.criteria:
        for category in set(_categories(criterion, hazards)):
            counts[category] += 1
    return counts
