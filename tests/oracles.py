"""Independent check implementations the tests compare the library against.

These deliberately avoid the library's own code paths: the Poisson CDF is
summed term by term with `math`, the bisection is written separately from
the one in `lifecycle`, and cell enumeration uses plain nested loops.
"""

from __future__ import annotations

from math import exp, fsum, lgamma, log


def poisson_cdf(count: int, mean: float) -> float:
    """P(X <= count) for X ~ Poisson(mean), by direct summation."""
    if mean <= 0:
        raise ValueError("mean must be positive")
    return fsum(
        exp(-mean + k * log(mean) - lgamma(k + 1)) for k in range(count + 1)
    )


def poisson_sf(count: int, mean: float) -> float:
    """P(X > count) for X ~ Poisson(mean < count), summing the terms above
    count directly, so a tiny upper tail keeps its digits."""
    k = count + 1
    first = term = exp(-mean + k * log(mean) - lgamma(k + 1))
    terms = []
    while term > 1e-18 * first:  # terms fall from the first while k > mean
        terms.append(term)
        k += 1
        term *= mean / k
    return fsum(terms)


def upper_bound_bisect(
    count: int, exposure: float, confidence: float, tol: float = 1e-12
) -> float:
    """Solve P(X <= count | rate * exposure) = 1 - confidence for the rate."""
    tail = 1.0 - confidence
    hi = (count + 1.0) / exposure
    while poisson_cdf(count, hi * exposure) > tail:
        hi *= 2.0
    lo = 0.0
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if poisson_cdf(count, max(mid * exposure, 5e-324)) > tail:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol * hi:
            break
    return 0.5 * (lo + hi)


def enumerate_cells(severities, roles, capabilities, statuses, aggregations) -> set:
    """Brute-force cartesian enumeration with nested loops."""
    cells = set()
    for severity in severities:
        for role in roles:
            for capability in capabilities:
                for status in statuses:
                    for aggregation in aggregations:
                        cells.add((severity, role, capability, status, aggregation))
    return cells


def trace_rows(case) -> list[tuple]:
    """Hazard -> criteria -> top claims -> cited evidence, one tuple per
    hazard.  Rescans every criterion and claim for each hazard and walks
    the claim trees with its own recursion, not the library's walkers."""

    def cited(node) -> set:
        found = set()
        for row in node.rows:
            found |= row.evidence_ids
        for child in node.children:
            found |= cited(child)
        return found

    rows = []
    for hazard in case.hazards:
        criteria = [c.id for c in case.criteria if hazard.id in c.hazard_ids]
        claims = [root for root in case.claims if root.criterion_id in criteria]
        evidence = set()
        for root in claims:
            evidence |= cited(root)
        rows.append(
            (
                hazard.id,
                tuple(sorted(criteria)),
                tuple(sorted(root.id for root in claims)),
                tuple(sorted(evidence)),
            )
        )
    return rows
