"""Independent check implementations the tests compare the library against.

These deliberately avoid the library's own code paths: the Poisson CDF is
summed term by term with `math`, the bisection is written separately from
the one in `lifecycle`, cell enumeration uses plain nested loops, and the
`.aur` lexer walks the text one character at a time.

`perfbench/gen.py` loads this file by path, without registering it as a
module and without `aurcase` importable, so it uses the standard library
only and no dataclasses.
"""

from __future__ import annotations

from math import exp, fsum, lgamma, log, log1p, pi
from typing import NamedTuple


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


def poisson_smaller_tail(count: int, mean: float) -> tuple[float, bool]:
    """`(P(X <= count), True)` for `mean >= count`, else `(P(X > count),
    False)`, for X ~ Poisson(mean) and a large count.  The terms are summed
    outward from `count`, where they are largest, by their ratios; the term
    at `count` is taken from Stirling's series, so no digits are lost to
    `count * log(mean)`."""
    x = (mean - count) / count
    if abs(x) < 0.01:
        excess = fsum((-x) ** n / n for n in range(2, 14))  # x - log(1 + x)
    else:
        excess = x - log1p(x)
    stirling = 1 / (12 * count) - 1 / (360 * count**3) + 1 / (1260 * count**5)
    peak = exp(-count * excess - 0.5 * log(2 * pi * count) - stirling)
    terms = []
    if mean >= count:
        k, term = count, peak
        while k >= 0 and term > 1e-20 * peak:
            terms.append(term)
            term *= k / mean
            k -= 1
        return fsum(terms), True
    k, term = count + 1, peak * mean / (count + 1)
    first = term
    while term > 1e-20 * first:
        terms.append(term)
        k += 1
        term *= mean / k
    return fsum(terms), False


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


def gap_rows(case, severities, roles, capabilities, statuses, aggregations) -> tuple:
    """The gap report of `case`'s methodology regions, cell by cell.

    The five arguments list each dimension's members in canonical order.
    Returns `(covered, strong, uncovered, marginals, by_dimension)`:
    `covered` and `strong` are `(cells, 96)` pairs; `uncovered` holds the
    uncovered cells as 5-tuples in nested-loop order; `marginals` is
    `((dimension, ((name, hit, total), ...)), ...)`, and `by_dimension`
    is `((dimension, ((name, cells), ...)), ...)` over the uncovered
    cells.  A severity is spelled by its name, any other value by its
    value.  Signals are 0 (none), 1 (weak) and 2 (strong).
    """
    order = (
        ("severity", tuple(severities)),
        ("role", tuple(roles)),
        ("capability", tuple(capabilities)),
        ("status", tuple(statuses)),
        ("aggregation", tuple(aggregations)),
    )

    def spelled(dimension, member) -> str:
        return member.name if dimension == "severity" else member.value

    signals = []
    for severity in order[0][1]:
        for role in order[1][1]:
            for capability in order[2][1]:
                for status in order[3][1]:
                    for aggregation in order[4][1]:
                        cell = (severity, role, capability, status, aggregation)
                        signal = 0
                        for methodology in case.methodologies:
                            region = methodology.region
                            if region is None:
                                continue
                            if (
                                severity in region.severities
                                and role in region.roles
                                and capability in region.capabilities
                                and status in region.statuses
                                and aggregation in region.aggregations
                            ):
                                weak = severity in region.weak_severities
                                signal = max(signal, 1 if weak else 2)
                        signals.append((cell, signal))
    total = len(signals)
    covered = (sum(1 for _, s in signals if s > 0), total)
    strong = (sum(1 for _, s in signals if s == 2), total)
    uncovered = tuple(cell for cell, s in signals if s == 0)
    marginals = []
    by_dimension = []
    for index, (dimension, members) in enumerate(order):
        per_value = []
        grouped = []
        for member in members:
            hit = sum(1 for cell, s in signals if cell[index] is member and s > 0)
            size = sum(1 for cell, _ in signals if cell[index] is member)
            per_value.append((spelled(dimension, member), hit, size))
            grouped.append(
                (
                    spelled(dimension, member),
                    tuple(cell for cell in uncovered if cell[index] is member),
                )
            )
        marginals.append((dimension, tuple(per_value)))
        by_dimension.append((dimension, tuple(grouped)))
    return covered, strong, uncovered, tuple(marginals), tuple(by_dimension)


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


def claim_walk(root) -> tuple[list, list]:
    """A claim tree's (node, key) pairs and (row, row key, node, node key)
    tuples, depth-first, with keys spelt here by their documented rule: a
    node's id, else `<parent key>.<ordinal>` (the root's kind for an
    anonymous root); a row's `<node key>.<label>`, with `@n` on the n-th
    row of a label that repeats under one node."""
    nodes: list = []
    rows: list = []

    def visit(node, key: str) -> None:
        nodes.append((node, key))
        counts: dict = {}
        for row in node.rows:
            counts[row.label] = counts.get(row.label, 0) + 1
            repeat = f"@{counts[row.label]}" if counts[row.label] > 1 else ""
            rows.append((row, f"{key}.{row.label}{repeat}", node, key))
        for ordinal, child in enumerate(node.children, start=1):
            visit(child, child.id or f"{key}.{ordinal}")

    visit(root, root.id or root.kind.value)
    return nodes, rows


# -- the character-at-a-time lexer ---------------------------------------------
#
# The `.aur` lexer as it was before the master-pattern rewrite in
# `aurcase.dsl`, kept as the reference its token streams and fatal
# diagnostics are compared against.  It walks the text one character at a
# time and keeps line and column as it goes.


class Token(NamedTuple):
    kind: str  # IDENT | STRING | NUMBER | PUNCT | EOF
    text: str
    value: str | float | None
    line: int
    col: int
    end_line: int
    end_col: int


class LexFatal(Exception):
    """The first lexing error: its message and (line, col, end_line, end_col)."""

    def __init__(self, message: str, position: tuple[int, int, int, int]):
        super().__init__(message)
        self.message = message
        self.position = position


_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r"}


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_ident_char(ch: str) -> bool:
    return ch.isalnum() or ch in "_-"


class Lexer:
    def __init__(self, text: str, file_name: str):
        self.text = text
        self.file = file_name
        self.pos = 0
        self.line = 1
        self.col = 1

    def _fatal(self, message: str, line: int, col: int) -> LexFatal:
        return LexFatal(message, (line, col, self.line, max(self.col, col)))

    def _advance(self) -> str:
        ch = self.text[self.pos]
        self.pos += 1
        if ch == "\n":
            self.line += 1
            self.col = 1
        else:
            self.col += 1
        return ch

    def tokens(self) -> list[Token]:
        out: list[Token] = []
        text = self.text
        while self.pos < len(text):
            ch = text[self.pos]
            if ch in " \t\r\n":
                self._advance()
                continue
            if ch == "#":
                while self.pos < len(text) and text[self.pos] != "\n":
                    self._advance()
                continue
            line, col = self.line, self.col
            if ch == '"':
                out.append(self._string(line, col))
                continue
            if (
                ch.isdigit()
                or (
                    ch in "+-"
                    and self.pos + 1 < len(text)
                    and (text[self.pos + 1].isdigit() or text[self.pos + 1] == ".")
                )
                or (
                    ch == "."
                    and self.pos + 1 < len(text)
                    and text[self.pos + 1].isdigit()
                )
            ):
                out.append(self._number(line, col))
                continue
            if _is_ident_start(ch):
                out.append(self._ident(line, col))
                continue
            if ch == "." and text.startswith("..", self.pos):
                self._advance()
                self._advance()
                out.append(Token("PUNCT", "..", None, line, col, self.line, self.col))
                continue
            if ch in "{}()=,":
                self._advance()
                out.append(Token("PUNCT", ch, None, line, col, self.line, self.col))
                continue
            self._advance()
            raise self._fatal(f"unexpected character {ch!r}", line, col)
        out.append(Token("EOF", "", None, self.line, self.col, self.line, self.col))
        return out

    def _string(self, line: int, col: int) -> Token:
        self._advance()  # opening quote
        parts: list[str] = []
        raw = ['"']
        while True:
            if self.pos >= len(self.text):
                raise self._fatal("unterminated string literal", line, col)
            ch = self.text[self.pos]
            if ch == "\n":
                raise self._fatal("string literal must not span lines", line, col)
            self._advance()
            raw.append(ch)
            if ch == '"':
                break
            if ch == "\\":
                if self.pos >= len(self.text):
                    raise self._fatal("unterminated string literal", line, col)
                esc = self._advance()
                raw.append(esc)
                if esc not in _ESCAPES:
                    raise self._fatal(
                        f"unknown escape sequence '\\{esc}'", self.line, self.col - 2
                    )
                parts.append(_ESCAPES[esc])
            else:
                parts.append(ch)
        return Token(
            "STRING", "".join(raw), "".join(parts), line, col, self.line, self.col
        )

    def _number(self, line: int, col: int) -> Token:
        chars: list[str] = []
        text = self.text
        if text[self.pos] in "+-":
            chars.append(self._advance())
        while self.pos < len(text) and text[self.pos].isdigit():
            chars.append(self._advance())
        if (
            self.pos < len(text)
            and text[self.pos] == "."
            and not text.startswith("..", self.pos)
        ):
            chars.append(self._advance())
            while self.pos < len(text) and text[self.pos].isdigit():
                chars.append(self._advance())
        if self.pos < len(text) and text[self.pos] in "eE":
            chars.append(self._advance())
            if self.pos < len(text) and text[self.pos] in "+-":
                chars.append(self._advance())
            digits = 0
            while self.pos < len(text) and text[self.pos].isdigit():
                chars.append(self._advance())
                digits += 1
            if digits == 0:
                raise self._fatal("malformed number: exponent has no digits", line, col)
        literal = "".join(chars)
        try:
            value = float(literal)
        except ValueError:
            raise self._fatal(f"malformed number {literal!r}", line, col) from None
        return Token("NUMBER", literal, value, line, col, self.line, self.col)

    def _ident(self, line: int, col: int) -> Token:
        chars = [self._advance()]
        text = self.text
        while self.pos < len(text):
            ch = text[self.pos]
            if _is_ident_char(ch):
                chars.append(self._advance())
            elif (
                ch == "."
                and self.pos + 1 < len(text)
                and _is_ident_char(text[self.pos + 1])
                and text[self.pos + 1] != "."
            ):
                # Dotted labels like A.1; a double dot is the range operator.
                chars.append(self._advance())
            else:
                break
        word = "".join(chars)
        return Token("IDENT", word, word, line, col, self.line, self.col)
