"""Release exposure ledger, rate-bound target checks, and readiness gating.

Quantitative validation targets cap an event rate per exposure unit at a
stated one-sided confidence.  The check uses the exact Poisson upper
bound: the smallest rate ``lam`` such that observing at most ``count``
events has probability ``1 - confidence`` under a Poisson law with mean
``lam * exposure``.  With zero events this has the closed form
``-ln(1 - confidence) / exposure``.  Otherwise Garwood's identity gives
the mean as the inverse regularized incomplete gamma function at
``count + 1``, which Newton's method solves with `math` alone, for counts
up to `MAX_BOUND_COUNT`; larger counts are refused.  More exposure at the
same count always tightens the bound, which is what lets confidence grow
with scale.

The readiness gate is deliberately wider than the rate checks alone: it
blocks on any error-severity structural finding and on incomplete
operational context, not just on unmet targets.
"""

from __future__ import annotations

import csv
import enum
import io
import sys
from dataclasses import dataclass, field
from math import exp, inf, isfinite, lgamma, log, log1p, pi, sqrt
from typing import Mapping

from .diagnostics import Severity
from .model import (
    AcceptanceCriterion,
    SafetyCase,
    TargetKind,
    UnresolvedCaseError,
    resolve_references,
)
from .rules import RuleConfig, validate

_MEAN_REL_TOL = 1e-12
# The largest event count the Poisson bound is computed for.  Up to it,
# tests check the solved mean against an independent sum of Poisson terms:
# the defining equation holds to 1e-9 of the smaller tail.
MAX_BOUND_COUNT = 10**9


class Phase(enum.Enum):
    PREDICTED = "predicted"
    OBSERVED = "observed"


class TargetStatus(enum.Enum):
    MET = "met"
    UNMET = "unmet"
    INSUFFICIENT_DATA = "insufficient_data"


class DriftStatus(enum.Enum):
    DRIFT = "drift"
    NO_DRIFT = "no_drift"
    INSUFFICIENT_DATA = "insufficient_data"


@dataclass(frozen=True)
class LedgerEntry:
    """Exposure and event counts for one release in one phase."""

    release: str
    phase: Phase
    exposure: float
    exposure_unit: str
    event_counts: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.exposure > 0:
            raise ValueError(f"ledger entry {self.release}: exposure must be > 0")
        if not isfinite(self.exposure):
            raise ValueError(f"ledger entry {self.release}: exposure must be finite")
        for definition, count in self.event_counts.items():
            if count < 0:
                raise ValueError(
                    f"ledger entry {self.release}: negative count for {definition!r}"
                )
        object.__setattr__(self, "event_counts", dict(self.event_counts))


@dataclass(frozen=True)
class ExposureLedger:
    """Every ledger entry, at most one per (release, phase)."""

    entries: tuple[LedgerEntry, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        seen: set[tuple[str, Phase]] = set()
        for entry in self.entries:
            key = (entry.release, entry.phase)
            if key in seen:
                raise ValueError(
                    f"release {entry.release} appears twice in phase {entry.phase.value}"
                )
            seen.add(key)

    def for_phase(self, phase: Phase) -> tuple[LedgerEntry, ...]:
        return tuple(e for e in self.entries if e.phase is phase)


LEDGER_COLUMNS = ("release", "phase", "exposure", "exposure_unit", "event_definition", "count")


def parse_ledger(text: str) -> ExposureLedger:
    """Read the comma-separated ledger format.

    One row per (release, phase, event definition); rows for the same
    release and phase must agree on exposure and unit, and merge into one
    entry.  No unit conversion is ever attempted.  One leading UTF-8 byte
    order mark, as spreadsheets write into "CSV UTF-8", is dropped.
    """
    reader = csv.reader(io.StringIO(text.removeprefix("\ufeff")))
    try:
        rows = [
            (reader.line_num, row)
            for row in reader
            if row and any(cell.strip() for cell in row)
        ]
    except csv.Error as exc:
        raise ValueError(f"ledger line {reader.line_num}: {exc}") from None
    if not rows:
        raise ValueError("ledger is empty; expected a header line")
    header = tuple(cell.strip() for cell in rows[0][1])
    if header != LEDGER_COLUMNS:
        raise ValueError(
            f"ledger header must be {','.join(LEDGER_COLUMNS)}, got {','.join(header)}"
        )
    grouped: dict[tuple[str, Phase], dict] = {}
    for line_no, row in rows[1:]:
        if len(row) != len(LEDGER_COLUMNS):
            raise ValueError(f"ledger line {line_no}: expected {len(LEDGER_COLUMNS)} fields")
        release, phase_text, exposure_text, unit, definition, count_text = (
            cell.strip() for cell in row
        )
        try:
            phase = Phase(phase_text)
        except ValueError:
            raise ValueError(
                f"ledger line {line_no}: phase must be 'predicted' or 'observed', "
                f"got {phase_text!r}"
            ) from None
        try:
            exposure = float(exposure_text)
        except ValueError:
            raise ValueError(f"ledger line {line_no}: bad exposure {exposure_text!r}") from None
        if not isfinite(exposure):
            raise ValueError(f"ledger line {line_no}: exposure must be finite, got {exposure_text!r}")
        if not exposure > 0:
            raise ValueError(f"ledger line {line_no}: exposure must be > 0, got {exposure_text!r}")
        try:
            count = int(count_text)
        except ValueError:
            raise ValueError(f"ledger line {line_no}: bad count {count_text!r}") from None
        if count < 0:
            raise ValueError(
                f"ledger line {line_no}: negative count {count_text!r} for {definition!r}"
            )
        group = grouped.setdefault(
            (release, phase),
            {"exposure": exposure, "unit": unit, "counts": {}, "line": line_no},
        )
        if group["exposure"] != exposure or group["unit"] != unit:
            raise ValueError(
                f"ledger line {line_no}: exposure for release {release!r} "
                f"({phase.value}) conflicts with line {group['line']}"
            )
        if definition in group["counts"]:
            raise ValueError(
                f"ledger line {line_no}: duplicate event definition {definition!r} "
                f"for release {release!r} ({phase.value})"
            )
        group["counts"][definition] = count
    entries = tuple(
        LedgerEntry(
            release=release,
            phase=phase,
            exposure=group["exposure"],
            exposure_unit=group["unit"],
            event_counts=group["counts"],
        )
        for (release, phase), group in grouped.items()
    )
    return ExposureLedger(entries=entries)


def rate_upper_bound(count: int, exposure: float, confidence: float) -> float:
    """Exact one-sided upper confidence bound on a Poisson event rate.

    Returns the smallest rate ``lam`` with
    ``P(X <= count | mean = lam * exposure) = 1 - confidence``.  Raises
    `ValueError` for a count above `MAX_BOUND_COUNT`, for a bound that is
    not a finite normal float, and for a solved mean below ``count`` at
    ``confidence >= 0.5``, which no exact bound can be.
    """
    if not isinstance(count, int) or isinstance(count, bool) or count < 0:
        raise ValueError("count must be a non-negative integer")
    if count > MAX_BOUND_COUNT:
        raise ValueError(
            f"rate upper bound cannot be certified for count {count}: the "
            f"solver is verified only for counts at or below {MAX_BOUND_COUNT}"
        )
    if not exposure > 0:
        raise ValueError("exposure must be > 0")
    if not isfinite(exposure):
        raise ValueError(f"exposure must be finite, got {exposure!r}")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie in (0, 1)")
    if count == 0:
        return _finite_bound(-log1p(-confidence) / exposure, exposure)
    try:
        mean = _poisson_mean_upper(count, confidence)
    except ArithmeticError as exc:
        raise ValueError(
            f"rate upper bound cannot be computed for count {count}: {exc}"
        ) from exc
    # An integer Poisson mean is also a median, so P(X <= count | count) >= 1/2
    # and the exact mean at confidence >= 0.5 is at least the count.
    if confidence >= 0.5 and not mean >= count:
        raise ValueError(
            f"rate upper bound cannot be certified for count {count}: "
            f"the solved mean {mean!r} lies below it"
        )
    return _finite_bound(mean / exposure, exposure)


def _poisson_mean_upper(count: int, confidence: float) -> float:
    """The Poisson mean ``mu`` with ``P(X <= count | mu) = 1 - confidence``.

    By Garwood's identity (Biometrika 28:437, 1936) ``P(X <= k | mu)`` is
    the upper regularized incomplete gamma ``Q(k + 1, mu)``, so ``mu``
    solves ``P(k + 1, mu) = confidence``.  Newton steps on the log of the
    smaller tail, from a Wilson-Hilferty start, keep a bracket and fall
    back to bisection whenever a step would leave it.  Working with the
    smaller tail means no digits are lost to ``1 - confidence``, which is
    exact for ``confidence >= 0.5``.
    """
    a = count + 1.0
    lower = confidence < 0.5
    tail = confidence if lower else 1.0 - confidence
    log_tail = log(tail)
    # Wilson-Hilferty, with the normal quantile of Abramowitz & Stegun 26.2.22.
    t = sqrt(-2.0 * log_tail)
    z = t - (2.30753 + 0.27061 * t) / (1.0 + t * (0.99229 + 0.04481 * t))
    if lower:
        z = -z
    mu = a * (1.0 - 1.0 / (9.0 * a) + z / (3.0 * sqrt(a))) ** 3
    if not mu > 0.0:  # far lower tail, where P(a, mu) ~ mu**a / a!
        mu = exp((log_tail + lgamma(a + 1.0)) / a)
    lo, hi = 0.0, inf
    for _ in range(200):
        log_p, log_q, log_density = _gamma_log_tails(a, mu)
        # f rises with mu and is zero at the answer.
        if lower:
            f, slope = log_p - log_tail, exp(log_density - log_p)
        else:
            f, slope = log_tail - log_q, exp(log_density - log_q)
        if f < 0.0:
            lo = mu
        else:
            hi = mu
        step = f / slope if slope > 0.0 else inf
        # A generous bound on the rounding error of f; once f is below it,
        # a further step is noise.
        noise = 1e-15 * (a * abs(log(mu)) + mu + lgamma(a))
        if abs(step) <= _MEAN_REL_TOL * mu or (slope > 0.0 and abs(f) <= noise):
            return mu - step
        mu -= step
        if not lo < mu < hi:
            mu = 0.5 * (lo + hi) if hi < inf else 2.0 * lo
    raise ValueError(f"rate upper bound did not converge for count {count}")


def _gamma_log_tails(a: float, x: float) -> tuple[float, float, float]:
    """``ln P(a, x)``, ``ln Q(a, x)`` and the log gamma density at ``x``.

    The series (``x < a + 1``) or the Lentz continued fraction (otherwise)
    of Numerical Recipes section 6.2 gives the smaller tail directly; the
    other is one minus it.  The prefactor is taken in log space.
    """
    log_prefactor = _log_gamma_prefactor(a, x)
    if x < a + 1.0:
        term = total = 1.0 / a
        denominator = a
        while term > total * 1e-16:
            denominator += 1.0
            term *= x / denominator
            total += term
        log_p = log(total) + log_prefactor
        log_q = log1p(-exp(log_p))
    else:
        tiny = 1e-300
        b = x + 1.0 - a
        c = 1.0 / tiny
        d = 1.0 / b
        h = d
        i = 0
        while True:
            i += 1
            an = -i * (i - a)
            b += 2.0
            d = an * d + b
            d = 1.0 / (d if abs(d) >= tiny else tiny)
            c = b + an / c
            if abs(c) < tiny:
                c = tiny
            delta = d * c
            h *= delta
            if abs(delta - 1.0) <= 1e-16:
                break
        log_q = log(h) + log_prefactor
        log_p = log1p(-exp(log_q))
    return log_p, log_q, log_prefactor - log(x)


def _log_gamma_prefactor(a: float, x: float) -> float:
    """``ln(x**a * exp(-x) / Gamma(a))``.  For large ``a``, Stirling's
    series for ``lgamma(a)`` cancels the terms as large as ``a * ln(x)`` by
    hand: ``a * ln(x/a) - (x - a)`` is ``-a * (t - ln(1 + t))`` with
    ``t = (x - a) / a``, which is small near the answer and keeps its
    digits."""
    if a < 100.0:
        return a * log(x) - x - lgamma(a)
    t = (x - a) / a
    stirling = 1.0 / (12.0 * a) - 1.0 / (360.0 * a**3) + 1.0 / (1260.0 * a**5)
    return -a * (t - log1p(t)) + 0.5 * log(a / (2.0 * pi)) - stirling


def _finite_bound(bound: float, exposure: float) -> float:
    if not isfinite(bound):
        raise ValueError(f"rate upper bound overflows at exposure {exposure!r}")
    if not bound >= sys.float_info.min:
        raise ValueError(f"rate upper bound underflows at exposure {exposure!r}")
    return bound


@dataclass(frozen=True)
class TargetCheck:
    """Outcome of checking one criterion's rate bound against the ledger."""

    criterion_id: str
    status: TargetStatus
    target: float
    upper_bound: float | None = None
    exposure: float = 0.0
    count: int = 0

    def __post_init__(self) -> None:
        if self.upper_bound is not None:
            met = self.upper_bound <= self.target
            if met != (self.status is TargetStatus.MET):
                raise ValueError("status must agree with upper_bound vs target")

    def figures(self) -> tuple[str, str]:
        """The upper bound ("n/a" if none) and the target as printed: to six
        significant digits, or in full where those would read the same."""
        if self.upper_bound is None:
            return "n/a", f"{self.target:.6g}"
        bound, target = f"{self.upper_bound:.6g}", f"{self.target:.6g}"
        if bound == target:
            return repr(self.upper_bound), repr(self.target)
        return bound, target


class TargetNotApplicableError(ValueError):
    """The criterion carries no quantitative target to check."""


def check_target(
    criterion: AcceptanceCriterion, ledger: ExposureLedger, phase: Phase
) -> TargetCheck:
    """Check a rate-bound target against the summed exposure of one phase.

    Every entry of the phase contributes its exposure; counts contribute
    where the event definition matches the target's exactly.  Entries in a
    different exposure unit are a configuration error, not convertible.
    """
    target = criterion.target
    if target is None or target.kind is not TargetKind.RATE_BOUND:
        raise TargetNotApplicableError(
            f"criterion {criterion.id} has no rate-bound target"
        )
    entries = ledger.for_phase(phase)
    if not entries:
        return TargetCheck(
            criterion_id=criterion.id,
            status=TargetStatus.INSUFFICIENT_DATA,
            target=target.max_rate,
        )
    for entry in entries:
        if entry.exposure_unit != target.exposure_unit:
            raise ValueError(
                f"criterion {criterion.id}: ledger exposure unit "
                f"{entry.exposure_unit!r} does not match target unit "
                f"{target.exposure_unit!r} (no unit conversion)"
            )
    exposure = sum(entry.exposure for entry in entries)
    count = sum(entry.event_counts.get(target.event_definition, 0) for entry in entries)
    bound = rate_upper_bound(count, exposure, target.confidence)
    status = TargetStatus.MET if bound <= target.max_rate else TargetStatus.UNMET
    return TargetCheck(
        criterion_id=criterion.id,
        status=status,
        target=target.max_rate,
        upper_bound=bound,
        exposure=exposure,
        count=count,
    )


@dataclass(frozen=True)
class DriftCheck:
    """Whether post-deployment observation still satisfies a target that
    pre-deployment prediction satisfied."""

    criterion_id: str
    status: DriftStatus
    target: float
    observed_upper_bound: float | None = None
    predicted_upper_bound: float | None = None


def drift_check(criterion: AcceptanceCriterion, ledger: ExposureLedger) -> DriftCheck:
    """Flag drift when the observed-phase upper bound exceeds the target.

    Raises `TargetNotApplicableError` (from `check_target`) for a criterion
    without a rate-bound target.
    """
    observed = check_target(criterion, ledger, Phase.OBSERVED)
    if observed.status is TargetStatus.INSUFFICIENT_DATA:
        return DriftCheck(
            criterion_id=criterion.id,
            status=DriftStatus.INSUFFICIENT_DATA,
            target=observed.target,
        )
    predicted_bound: float | None = None
    if ledger.for_phase(Phase.PREDICTED):
        predicted_bound = check_target(criterion, ledger, Phase.PREDICTED).upper_bound
    drifted = observed.upper_bound is not None and observed.upper_bound > observed.target
    return DriftCheck(
        criterion_id=criterion.id,
        status=DriftStatus.DRIFT if drifted else DriftStatus.NO_DRIFT,
        target=observed.target,
        observed_upper_bound=observed.upper_bound,
        predicted_upper_bound=predicted_bound,
    )


@dataclass(frozen=True)
class Blocker:
    """One reason the gate refuses a release, and what it concerns."""

    subject_id: str
    reason: str


@dataclass(frozen=True)
class ReadinessDecision:
    """The gate's verdict: its blockers and every target it checked."""

    blockers: tuple[Blocker, ...] = ()
    target_checks: tuple[TargetCheck, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "blockers", tuple(self.blockers))
        object.__setattr__(self, "target_checks", tuple(self.target_checks))

    @property
    def approved(self) -> bool:
        return not self.blockers

    @property
    def status(self) -> str:
        return "approved" if self.approved else "blocked"


def quantitative_criteria(case: SafetyCase) -> list[AcceptanceCriterion]:
    return [
        c
        for c in case.criteria
        if c.target is not None and c.target.kind is TargetKind.RATE_BOUND
    ]


def readiness_review(
    case: SafetyCase,
    ledger: ExposureLedger,
    config: RuleConfig | None = None,
) -> ReadinessDecision:
    """Gate a release: structural findings, context, and targets together.

    The decision is blocked by any error-severity diagnostic (context
    completeness included; a readiness review is by definition
    review-ready), and by any rate-bound target that predicted-phase data
    leaves unmet or cannot support.  Qualitative targets gate through the
    claim structure alone.  Blockers enumerate every cause.
    """
    config = config or RuleConfig()
    gate_config = config.replace(review_ready=True)

    blockers: list[Blocker] = []
    findings = resolve_references(case)
    if findings:
        blockers.append(
            Blocker(subject_id=case.id, reason=str(UnresolvedCaseError(findings)))
        )
        return ReadinessDecision(blockers=tuple(blockers))

    for diagnostic in validate(case, gate_config):
        if diagnostic.severity is Severity.ERROR:
            blockers.append(
                Blocker(
                    subject_id=diagnostic.subject_id or case.id,
                    reason=f"[{diagnostic.rule_id}] {diagnostic.message}",
                )
            )

    checks: list[TargetCheck] = []
    for criterion in quantitative_criteria(case):
        try:
            check = check_target(criterion, ledger, Phase.PREDICTED)
        except ValueError as exc:
            blockers.append(Blocker(subject_id=criterion.id, reason=str(exc)))
            continue
        checks.append(check)
        if check.status is TargetStatus.UNMET:
            bound, target = check.figures()
            blockers.append(
                Blocker(
                    subject_id=criterion.id,
                    reason=(
                        f"target unmet: upper bound {bound} per "
                        f"{criterion.target.exposure_unit} exceeds "
                        f"{target} at confidence {criterion.target.confidence}"
                    ),
                )
            )
        elif check.status is TargetStatus.INSUFFICIENT_DATA:
            blockers.append(
                Blocker(
                    subject_id=criterion.id,
                    reason="no predicted-phase exposure recorded for this target",
                )
            )
    return ReadinessDecision(blockers=tuple(blockers), target_checks=tuple(checks))
