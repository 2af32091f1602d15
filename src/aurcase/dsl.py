"""The `aurcase` textual safety-case format: parser and canonical serializer.

The format is block-structured so a document reads top-down the way the
case itself is organized: context, hazards, methodologies (each with its
region of the acceptance-criteria space), indicators, criteria with their
validation targets, evidence, and claim trees whose argument rows carry
text, evidence links, limitations, and counter-arguments.

Parsing records a precise source span for every declared element (and for
every cross-reference), never raises on malformed input, and reports the
first fatal problem as a diagnostic.  Dangling references are not fatal:
the case is still returned, carrying one E009 diagnostic per unresolved
reference so downstream analyses can refuse with context.

Serialization is canonical: stable field order, two-space indentation,
elements ordered by identifier, and deterministic to the byte.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property

from .diagnostics import Diagnostic, Severity, SourceSpan, dangling_references
from .model import (
    AGGREGATION_NAMES,
    CATEGORY_NAMES,
    CAPABILITY_NAMES,
    ROLE_NAMES,
    SEVERITY_NAMES,
    STAGE_NAMES,
    STATUS_NAMES,
    AcceptanceCriterion,
    AcSpaceRegion,
    ArgumentRow,
    Cell,
    ClaimKind,
    ClaimNode,
    ContextBlock,
    Evidence,
    EvidenceStrength,
    Hazard,
    Indicator,
    Methodology,
    ModelError,
    SafetyCase,
    SeverityLevel,
    TargetKind,
    ValidationTarget,
    require_resolved,
    resolve_references,
)

_SYNTAX_RULE = "E013"
_DUPLICATE_RULE = "E010"

_MAX_CLAIM_DEPTH = 64

_TOP_KEYWORDS = (
    "context",
    "hazard",
    "methodology",
    "indicator",
    "criterion",
    "evidence",
    "claim",
)

_SUBCLAIM_KINDS = {
    "reasonableness": ClaimKind.REASONABLENESS,
    "satisfaction": ClaimKind.SATISFACTION,
    "coverage_assessment": ClaimKind.COVERAGE_ASSESSMENT,
    "confidence_assessment": ClaimKind.CONFIDENCE_ASSESSMENT,
    "facet": ClaimKind.FACET,
}

# The non-severity region dimensions: keyword, AcSpaceRegion field, names.
_REGION_DIMENSIONS = (
    ("role", "roles", ROLE_NAMES),
    ("capability", "capabilities", CAPABILITY_NAMES),
    ("status", "statuses", STATUS_NAMES),
    ("aggregation", "aggregations", AGGREGATION_NAMES),
)


@dataclass(frozen=True)
class ParseResult:
    """Outcome of parsing one document.

    `case` is present unless a fatal error stopped the parse; the span
    index maps every declared element key (top-level ids, claim-node keys,
    row keys, `context.<field>`) to its source span.  `reference_spans`
    pins each cross-reference (referrer key, field, referenced id) to the
    exact token that made it, so reference diagnostics can point at the
    reference rather than at the element containing it.
    """

    case: SafetyCase | None
    diagnostics: tuple[Diagnostic, ...]
    span_index: dict[str, SourceSpan] = field(default_factory=dict)
    reference_spans: dict[tuple[str, str, str], SourceSpan] = field(default_factory=dict)

    @property
    def fatal(self) -> bool:
        return self.case is None


def _syntax_error(message: str, span: SourceSpan) -> Diagnostic:
    return Diagnostic(_SYNTAX_RULE, Severity.ERROR, message, subject_id="", span=span)


class _Fatal(Exception):
    def __init__(self, diagnostic: Diagnostic):
        super().__init__(diagnostic.message)
        self.diagnostic = diagnostic


_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r"}
_ESCAPE_OUT = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t", "\r": "\\r"}

# Where a string literal's body stops: at its closing quote, or at a line
# break or an escape the format does not know.
_STRING_BODY = re.compile(r'[^"\\\n]*(?:\\[\\"ntr][^"\\\n]*)*')

# One alternative per token kind, tried in order at each offset.  `\d` is a
# Unicode decimal digit and `\w` a character for which `str.isalnum()` is
# true, or `_`.  A number starts with a digit, a sign before a digit or a
# dot, or a dot before a digit; a dot joins an identifier only when another
# identifier character follows it, so `..` stays the range operator.
# ERROR takes any character no other alternative starts with, including a
# quote that opens a malformed string.
_TOKEN = re.compile(
    r"(?P<SKIP>[ \t\r\n]+|#[^\n]*)"
    f'|(?P<STRING>"{_STRING_BODY.pattern}")'
    r"|(?P<NUMBER>(?:[+-](?=[\d.])|(?=\.?\d))\d*(?:\.(?!\.)\d*)?(?:[eE][+-]?\d*)?)"
    r"|(?P<IDENT>[^\W\d][\w-]*(?:\.[\w-]+)*)"
    r"|(?P<PUNCT>\.\.|[{}()=,])"
    r"|(?P<ERROR>.)",
    re.DOTALL,
)
_ESCAPE_IN = re.compile(r"\\(.)")
_EXPONENT_WITHOUT_DIGITS = re.compile(r"[eE][+-]?\Z")


class _Token:
    __slots__ = ("kind", "text", "value", "start")

    def __init__(self, kind: str, text: str, value: str | float | None, start: int):
        self.kind = kind  # IDENT | STRING | NUMBER | PUNCT | EOF
        self.text = text
        self.value = value
        self.start = start  # offset of the token's first character


class _Source:
    """A document's text and name.  Line and column are worked out only
    when a span is asked for, by bisecting the offsets at which lines
    start; lines end at '\\n' only and columns count code points."""

    def __init__(self, text: str, file_name: str):
        self.text = text
        self.file = file_name

    @cached_property
    def _line_starts(self) -> list[int]:
        return [0, *(match.end() for match in re.finditer("\n", self.text))]

    def position(self, offset: int) -> tuple[int, int]:
        line = bisect_right(self._line_starts, offset)
        return line, offset - self._line_starts[line - 1] + 1

    def span(self, start: int, end: int) -> SourceSpan:
        """The span of `text[start:end]`, which lies on one line."""
        line, col = self.position(start)
        return SourceSpan(self.file, line, col, line, col + end - start)


def _lex(text: str, file_name: str) -> list[_Token]:
    """The tokens of `text`, ending with EOF; raises `_Fatal` at the first
    character that starts no token."""
    tokens: list[_Token] = []
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        if kind == "SKIP":
            continue
        word, start = match.group(), match.start()
        if kind == "IDENT" and (word[0].isalpha() or word[0] == "_"):
            value = word
        elif kind == "PUNCT":
            value = None
        elif kind == "STRING":
            value = word[1:-1]
            if "\\" in value:
                value = _ESCAPE_IN.sub(lambda escape: _ESCAPES[escape[1]], value)
        elif kind == "NUMBER":
            try:
                value = float(word)
            except ValueError:
                if _EXPONENT_WITHOUT_DIGITS.search(word):
                    message = "malformed number: exponent has no digits"
                else:
                    message = f"malformed number {word!r}"
                raise _lex_error(text, file_name, message, start, match.end()) from None
        elif word == '"':
            raise _lex_error(text, file_name, *_bad_string(text, start))
        else:  # ERROR, or a word character that starts no identifier ('²', 'Ⅻ')
            raise _lex_error(
                text, file_name, f"unexpected character {word[0]!r}", start, start + 1
            )
        tokens.append(_Token(kind, word, value, start))
    tokens.append(_Token("EOF", "", None, len(text)))
    return tokens


def _lex_error(text: str, file_name: str, message: str, start: int, end: int) -> _Fatal:
    return _Fatal(_syntax_error(message, _Source(text, file_name).span(start, end)))


def _bad_string(text: str, quote: int) -> tuple[str, int, int]:
    """Why the string literal opened at offset `quote` fails to lex, and
    the offsets the diagnostic spans."""
    stop = _STRING_BODY.match(text, quote + 1).end()
    if stop < len(text) and text[stop] == "\n":
        return "string literal must not span lines", quote, stop
    if stop + 1 >= len(text):  # the text ends, perhaps after a backslash
        return "unterminated string literal", quote, len(text)
    escape = text[stop + 1]
    if escape == "\n":
        return "string literal must not span lines", quote, stop + 1
    return f"unknown escape sequence '\\{escape}'", stop, stop + 2


_KIND_HINTS = {"STRING": " (a quoted string)", "NUMBER": " (a number)"}


class _Parser:
    def __init__(self, tokens: list[_Token], source: _Source):
        self.tokens = tokens
        self.source = source
        self.pos = 0
        self.declared: dict[str, _Token] = {}
        self.span_index: dict[str, SourceSpan] = {}
        self.ref_spans: dict[tuple[str, str, str], SourceSpan] = {}
        self.open_blocks: list[tuple[str, _Token]] = []

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        if token.kind != "EOF":
            self.pos += 1
        return token

    def span(self, token: _Token) -> SourceSpan:
        return self.source.span(token.start, token.start + len(token.text))

    def where(self, token: _Token) -> str:
        return "%d:%d" % self.source.position(token.start)

    def _fatal(self, message: str, token: _Token) -> _Fatal:
        return _Fatal(_syntax_error(message, self.span(token)))

    def _eof_message(self, expected: str) -> str:
        if self.open_blocks:
            desc, opener = self.open_blocks[-1]
            return (
                f"expected {expected} to close {desc} opened at "
                f"{self.where(opener)}, found end of document"
            )
        return f"expected {expected}, found end of document"

    def expect(self, kind: str, what: str, text: str | None = None) -> _Token:
        """Consume the next token if it is a `kind` (spelt `text`, when
        given); otherwise fail, saying `what` was expected."""
        token = self.tokens[self.pos]
        if token.kind == kind and (text is None or token.text == text):
            self.pos += 1
            return token
        if token.kind == "EOF":
            raise self._fatal(self._eof_message(what), token)
        hint = _KIND_HINTS.get(kind, "")
        raise self._fatal(f"expected {what}{hint}, found {token.text!r}", token)

    def take(self, text: str) -> _Token:
        """Consume the keyword or punctuation `text`."""
        return self.expect("IDENT" if text[0].isalpha() else "PUNCT", f"'{text}'", text)

    def at(self, *texts: str) -> bool:
        # A token's text alone tells its kind: strings keep their quotes,
        # and words, numbers and punctuation start with different characters.
        return self.tokens[self.pos].text in texts

    def unknown_keyword(self, block: str, expected: str) -> _Fatal:
        """The fatal for a token that starts nothing allowed in `block`."""
        token = self.peek()
        if token.kind == "EOF":
            return self._fatal(self._eof_message("'}'"), token)
        message = f"unknown keyword {token.text!r}{block}; expected {expected}"
        return self._fatal(message, token)

    def comma_list(self, item) -> list:
        """`item()`, then once more after each comma."""
        items = [item()]
        while self.at(","):
            self.advance()
            items.append(item())
        return items

    def open_block(self, description: str) -> None:
        opener = self.take("{")
        self.open_blocks.append((description, opener))

    def close_block(self) -> None:
        self.take("}")
        self.open_blocks.pop()

    # -- declarations and references ----------------------------------------

    def declare(self, token: _Token) -> str:
        name = token.text
        previous = self.declared.get(name)
        if previous is not None:
            raise _Fatal(
                Diagnostic(
                    _DUPLICATE_RULE,
                    Severity.ERROR,
                    f"duplicate identifier {name!r}; first declared at "
                    f"{self.where(previous)}",
                    subject_id=name,
                    span=self.span(token),
                )
            )
        self.declared[name] = token
        self.span_index[name] = self.span(token)
        return name

    def record_ref(self, referrer: str, field_name: str, token: _Token) -> str:
        key = (referrer, field_name, token.text)
        if key not in self.ref_spans:
            self.ref_spans[key] = self.span(token)
        return token.text

    def enum_value(self, token: _Token, table: dict, what: str):
        if token.text not in table:
            expected = ", ".join(sorted(table))
            raise self._fatal(
                f"unknown {what} {token.text!r}; expected one of: {expected}", token
            )
        return table[token.text]

    def category(self):
        return self.enum_value(
            self.expect("IDENT", "a hazard category"), CATEGORY_NAMES, "hazard category"
        )

    def idlist(self, referrer: str, field_name: str) -> frozenset[str]:
        return frozenset(
            self.comma_list(
                lambda: self.record_ref(
                    referrer, field_name, self.expect("IDENT", "an identifier")
                )
            )
        )

    # -- grammar -------------------------------------------------------------

    def parse_document(self) -> SafetyCase:
        header = self.take("safety_case")
        case_id = self.expect("STRING", "the case identifier")
        self.span_index[case_id.value] = self.span(header)
        self.open_block(f"safety_case {case_id.value!r}")

        context: ContextBlock | None = None
        hazards: list[Hazard] = []
        methodologies: list[Methodology] = []
        indicators: list[Indicator] = []
        criteria: list[AcceptanceCriterion] = []
        evidence: list[Evidence] = []
        claims: list[ClaimNode] = []

        while not self.at("}"):
            token = self.peek()
            if token.text not in _TOP_KEYWORDS:
                raise self.unknown_keyword("", "one of: " + ", ".join(_TOP_KEYWORDS))
            if token.text == "context":
                if context is not None:
                    raise self._fatal("context is declared twice", token)
                context = self.parse_context()
            elif token.text == "hazard":
                hazards.append(self.parse_hazard())
            elif token.text == "methodology":
                methodologies.append(self.parse_methodology())
            elif token.text == "indicator":
                indicators.append(self.parse_indicator())
            elif token.text == "criterion":
                criteria.append(self.parse_criterion())
            elif token.text == "evidence":
                evidence.append(self.parse_evidence())
            else:
                claims.append(self.parse_claim())
        self.close_block()

        trailing = self.peek()
        if trailing.kind != "EOF":
            raise self._fatal(
                f"unexpected {trailing.text!r} after the closing '}}' of the case",
                trailing,
            )
        if context is None:
            raise self._fatal("the case must declare a context block", header)

        try:
            return SafetyCase(
                id=case_id.value,
                context=context,
                hazards=tuple(hazards),
                methodologies=tuple(methodologies),
                indicators=tuple(indicators),
                criteria=tuple(criteria),
                evidence=tuple(evidence),
                claims=tuple(claims),
            )
        except ModelError as exc:
            raise self._fatal(f"invalid case: {exc}", header) from exc

    def parse_context(self) -> ContextBlock:
        keyword = self.take("context")
        self.span_index["context"] = self.span(keyword)
        self.open_block("context block")
        values: dict[str, str] = {}
        while not self.at("}"):
            key = self.expect("IDENT", "a context field name")
            if key.text not in ContextBlock.FIELD_ORDER:
                expected = ", ".join(ContextBlock.FIELD_ORDER)
                raise self._fatal(
                    f"unknown context field {key.text!r}; expected one of: {expected}",
                    key,
                )
            if key.text in values:
                raise self._fatal(f"context field {key.text!r} is set twice", key)
            self.take("=")
            value = self.expect("STRING", f"a value for {key.text}")
            values[key.text] = value.value
            self.span_index[f"context.{key.text}"] = self.span(key)
        self.close_block()
        return ContextBlock(**values)

    def parse_hazard(self) -> Hazard:
        self.take("hazard")
        ident = self.expect("IDENT", "a hazard identifier")
        hazard_id = self.declare(ident)
        self.take("category")
        self.take("=")
        primary = self.category()
        secondary: frozenset = frozenset()
        if self.at("also"):
            self.advance()
            self.take("=")
            secondary = frozenset(self.comma_list(self.category))
        self.open_block(f"hazard {hazard_id}")
        description = self._single_string_field("description")
        self.close_block()
        try:
            return Hazard(
                id=hazard_id,
                description=description,
                primary_category=primary,
                secondary_categories=secondary,
            )
        except ModelError as exc:
            raise self._fatal(str(exc), ident) from exc

    def _single_string_field(self, name: str) -> str:
        self.take(name)
        self.take("=")
        return self.expect("STRING", f"a value for {name}").value

    def parse_methodology(self) -> Methodology:
        self.take("methodology")
        ident = self.expect("IDENT", "a methodology identifier")
        methodology_id = self.declare(ident)
        self.open_block(f"methodology {methodology_id}")
        name: str | None = None
        categories: frozenset | None = None
        region: AcSpaceRegion | None = None
        while not self.at("}"):
            if self.at("name"):
                if name is not None:
                    raise self._fatal("name is set twice", self.peek())
                name = self._single_string_field("name")
            elif self.at("category"):
                if categories is not None:
                    raise self._fatal("category is set twice", self.peek())
                self.advance()
                self.take("=")
                categories = frozenset(self.comma_list(self.category))
            elif self.at("region"):
                if region is not None:
                    raise self._fatal("region is declared twice", self.peek())
                region = self.parse_region()
            else:
                raise self.unknown_keyword(
                    " in methodology block", "name, category, or region"
                )
        self.close_block()
        if name is None:
            raise self._fatal(f"methodology {methodology_id} must state a name", ident)
        try:
            return Methodology(
                id=methodology_id,
                name=name,
                hazard_categories=categories or frozenset(),
                region=region,
            )
        except ModelError as exc:
            raise self._fatal(str(exc), ident) from exc

    def parse_region(self) -> AcSpaceRegion:
        keyword = self.take("region")
        self.open_block("region block")
        severities: frozenset[SeverityLevel] | None = None
        sets: dict[str, frozenset] = {}
        weak_levels: list[tuple[SeverityLevel, _Token]] = []
        dimension_tables = {dim: table for dim, _, table in _REGION_DIMENSIONS}
        while not self.at("}"):
            if self.at("severity"):
                keyword_token = self.advance()
                if severities is not None:
                    raise self._fatal("severity is set twice", keyword_token)
                self.take("=")
                low = self.enum_value(
                    self.expect("IDENT", "a severity level"), SEVERITY_NAMES, "severity level"
                )
                self.take("..")
                high_token = self.expect("IDENT", "a severity level")
                high = self.enum_value(high_token, SEVERITY_NAMES, "severity level")
                if high < low:
                    raise self._fatal(
                        f"severity range {low.name}..{high.name} is reversed", high_token
                    )
                severities = frozenset(
                    level for level in SeverityLevel if low <= level <= high
                )
            elif self.at(*dimension_tables):
                dim_token = self.advance()
                dim = dim_token.text
                if dim in sets:
                    raise self._fatal(f"{dim} is set twice", dim_token)
                self.take("=")
                table = dimension_tables[dim]
                sets[dim] = frozenset(
                    self.comma_list(
                        lambda: self.enum_value(
                            self.expect("IDENT", f"a {dim} value"), table, f"{dim} value"
                        )
                    )
                )
            elif self.at("weak"):
                self.advance()
                self.take("(")
                token = self.expect("IDENT", "a severity level")
                weak_levels.append(
                    (self.enum_value(token, SEVERITY_NAMES, "severity level"), token)
                )
                self.take(")")
            else:
                raise self.unknown_keyword(
                    " in region block",
                    "severity, role, capability, status, aggregation, or weak(...)",
                )
        self.close_block()
        missing = ["severity"] if severities is None else []
        missing += [dim for dim in dimension_tables if dim not in sets]
        if missing:
            raise self._fatal(
                f"region is missing dimension(s): {', '.join(missing)}", keyword
            )
        weak_cells: set[Cell] = set()
        for level, token in weak_levels:
            if level not in severities:
                raise self._fatal(
                    f"weak({level.name}) lies outside the region's severity range",
                    token,
                )
            weak_cells.update(
                Cell(level, role, cap, status, agg)
                for role in sets["role"]
                for cap in sets["capability"]
                for status in sets["status"]
                for agg in sets["aggregation"]
            )
        return AcSpaceRegion(
            severities=severities,
            weak_cells=frozenset(weak_cells),
            **{attribute: sets[dim] for dim, attribute, _ in _REGION_DIMENSIONS},
        )

    def parse_indicator(self) -> Indicator:
        self.take("indicator")
        ident = self.expect("IDENT", "an indicator identifier")
        indicator_id = self.declare(ident)
        self.take("stage")
        self.take("=")
        stage = self.enum_value(
            self.expect("IDENT", "a causal stage"), STAGE_NAMES, "causal stage"
        )
        self.open_block(f"indicator {indicator_id}")
        description = self._single_string_field("description")
        self.close_block()
        return Indicator(id=indicator_id, description=description, causal_stage=stage)

    def parse_criterion(self) -> AcceptanceCriterion:
        self.take("criterion")
        ident = self.expect("IDENT", "a criterion identifier")
        criterion_id = self.declare(ident)
        self.take("hazard")
        self.take("=")
        hazard_ids = self.idlist(criterion_id, "hazard_ids")
        self.take("methodology")
        self.take("=")
        methodology_id = self.record_ref(
            criterion_id, "methodology_id", self.expect("IDENT", "a methodology identifier")
        )
        self.take("aggregation")
        self.take("=")
        aggregation = self.enum_value(
            self.expect("IDENT", "an aggregation level"), AGGREGATION_NAMES, "aggregation level"
        )
        self.open_block(f"criterion {criterion_id}")
        statement: str | None = None
        target: ValidationTarget | None = None
        region: AcSpaceRegion | None = None
        indicator_ids: frozenset[str] | None = None
        while not self.at("}"):
            if self.at("statement"):
                if statement is not None:
                    raise self._fatal("statement is set twice", self.peek())
                statement = self._single_string_field("statement")
            elif self.at("target"):
                if target is not None:
                    raise self._fatal("target is declared twice", self.peek())
                target = self.parse_target()
            elif self.at("region"):
                if region is not None:
                    raise self._fatal("region is declared twice", self.peek())
                region = self.parse_region()
            elif self.at("indicator"):
                if indicator_ids is not None:
                    raise self._fatal("indicator list is set twice", self.peek())
                self.advance()
                self.take("=")
                indicator_ids = self.idlist(criterion_id, "indicator_ids")
            else:
                raise self.unknown_keyword(
                    " in criterion block", "statement, target, region, or indicator"
                )
        self.close_block()
        if statement is None:
            raise self._fatal(f"criterion {criterion_id} must state a statement", ident)
        try:
            return AcceptanceCriterion(
                id=criterion_id,
                statement=statement,
                hazard_ids=hazard_ids,
                methodology_id=methodology_id,
                aggregation=aggregation,
                indicator_ids=indicator_ids or frozenset(),
                region=region,
                target=target,
            )
        except ModelError as exc:
            raise self._fatal(str(exc), ident) from exc

    def parse_target(self) -> ValidationTarget:
        self.take("target")
        kind_token = self.expect("IDENT", "'rate_bound' or 'qualitative'")
        if kind_token.text == "qualitative":
            self.take("(")
            description = self.expect("STRING", "a description").value
            self.take(")")
            return ValidationTarget(kind=TargetKind.QUALITATIVE, description=description)
        if kind_token.text != "rate_bound":
            raise self._fatal(
                f"unknown target kind {kind_token.text!r}; expected rate_bound or "
                "qualitative",
                kind_token,
            )
        self.take("(")
        self.take("events")
        self.take("=")
        events = self.expect("STRING", "an event definition").value
        self.take(",")
        self.take("max")
        self.take("=")
        max_rate = self.expect("NUMBER", "a maximum rate").value
        self.take(",")
        self.take("per")
        self.take("=")
        unit = self.expect("STRING", "an exposure unit").value
        self.take(",")
        self.take("confidence")
        self.take("=")
        confidence_token = self.expect("NUMBER", "a confidence level")
        self.take(")")
        try:
            return ValidationTarget(
                kind=TargetKind.RATE_BOUND,
                event_definition=events,
                max_rate=max_rate,
                exposure_unit=unit,
                confidence=confidence_token.value,
            )
        except ModelError as exc:
            raise self._fatal(str(exc), confidence_token) from exc

    def parse_evidence(self) -> Evidence:
        self.take("evidence")
        ident = self.expect("IDENT", "an evidence identifier")
        evidence_id = self.declare(ident)
        self.take("methodology")
        self.take("=")
        methodology_id = self.record_ref(
            evidence_id, "methodology_id", self.expect("IDENT", "a methodology identifier")
        )
        self.take("strength")
        self.take("=")
        strength_token = self.expect("IDENT", "'strong' or 'weak'")
        if strength_token.text not in ("strong", "weak"):
            raise self._fatal(
                f"strength must be strong or weak, got {strength_token.text!r}",
                strength_token,
            )
        self.open_block(f"evidence {evidence_id}")
        kind: str | None = None
        uri: str | None = None
        while not self.at("}"):
            if self.at("kind"):
                if kind is not None:
                    raise self._fatal("kind is set twice", self.peek())
                kind = self._single_string_field("kind")
            elif self.at("uri"):
                if uri is not None:
                    raise self._fatal("uri is set twice", self.peek())
                uri = self._single_string_field("uri")
            else:
                raise self.unknown_keyword(" in evidence block", "kind or uri")
        self.close_block()
        if kind is None or uri is None:
            raise self._fatal(
                f"evidence {evidence_id} must state both kind and uri", ident
            )
        return Evidence(
            id=evidence_id,
            methodology_id=methodology_id,
            kind=kind,
            uri=uri,
            strength=EvidenceStrength(strength_token.text),
        )

    def parse_claim(self) -> ClaimNode:
        self.take("claim")
        ident = self.expect("IDENT", "a claim identifier")
        claim_id = self.declare(ident)
        self.take("criterion")
        self.take("=")
        criterion_id = self.record_ref(
            claim_id, "criterion_id", self.expect("IDENT", "a criterion identifier")
        )
        children, rows = self.parse_claim_body(claim_id, f"claim {claim_id}", depth=1)
        try:
            return ClaimNode(
                kind=ClaimKind.TOP_CLAIM,
                id=claim_id,
                criterion_id=criterion_id,
                children=children,
                rows=rows,
            )
        except ModelError as exc:
            raise self._fatal(str(exc), ident) from exc

    def parse_claim_body(
        self, parent_key: str, description: str, depth: int
    ) -> tuple[tuple[ClaimNode, ...], tuple[ArgumentRow, ...]]:
        if depth > _MAX_CLAIM_DEPTH:
            raise self._fatal(
                f"claim nesting exceeds the depth limit of {_MAX_CLAIM_DEPTH}",
                self.peek(),
            )
        self.open_block(description)
        children: list[ClaimNode] = []
        rows: list[ArgumentRow] = []
        row_labels: dict[str, int] = {}
        while not self.at("}"):
            if self.at(*_SUBCLAIM_KINDS):
                children.append(self.parse_subclaim(parent_key, len(children) + 1, depth))
            elif self.at("argument"):
                rows.append(self.parse_row(parent_key, row_labels))
            else:
                expected = ", ".join((*_SUBCLAIM_KINDS, "argument"))
                raise self.unknown_keyword(" in claim body", f"one of: {expected}")
        self.close_block()
        return tuple(children), tuple(rows)

    def parse_subclaim(self, parent_key: str, ordinal: int, depth: int) -> ClaimNode:
        keyword = self.advance()
        kind = _SUBCLAIM_KINDS[keyword.text]
        facet_label = ""
        if kind is ClaimKind.FACET:
            facet_label = self.expect("STRING", "a facet label").value
        node_id = ""
        if self.peek().kind == "IDENT":
            node_id = self.declare(self.advance())
        key = node_id or f"{parent_key}.{ordinal}"
        if key not in self.span_index:
            self.span_index[key] = self.span(keyword)
        description = f"{keyword.text} subclaim" + (f" {node_id}" if node_id else "")
        children, rows = self.parse_claim_body(key, description, depth + 1)
        try:
            return ClaimNode(
                kind=kind,
                id=node_id,
                facet_label=facet_label,
                children=children,
                rows=rows,
            )
        except ModelError as exc:
            raise self._fatal(str(exc), keyword) from exc

    def parse_row(self, parent_key: str, row_labels: dict[str, int]) -> ArgumentRow:
        keyword = self.take("argument")
        label_token = self.expect("IDENT", "an argument label")
        label = label_token.text
        count = row_labels.get(label, 0)
        row_labels[label] = count + 1
        row_key = f"{parent_key}.{label}" + (f"@{count + 1}" if count else "")
        self.span_index[row_key] = self.span(keyword)
        self.open_block(f"argument {label}")
        text: str | None = None
        evidence_ids: frozenset[str] | None = None
        limitations: str | None = None
        counter: str | None = None
        while not self.at("}"):
            if self.at("text"):
                if text is not None:
                    raise self._fatal("text is set twice", self.peek())
                text = self._single_string_field("text")
            elif self.at("evidence"):
                if evidence_ids is not None:
                    raise self._fatal("evidence list is set twice", self.peek())
                self.advance()
                self.take("=")
                evidence_ids = self.idlist(row_key, "evidence_ids")
            elif self.at("limitations"):
                if limitations is not None:
                    raise self._fatal("limitations is set twice", self.peek())
                limitations = self._single_string_field("limitations")
            elif self.at("counter"):
                if counter is not None:
                    raise self._fatal("counter is set twice", self.peek())
                counter = self._single_string_field("counter")
            else:
                raise self.unknown_keyword(
                    " in argument block", "text, evidence, limitations, or counter"
                )
        self.close_block()
        if text is None:
            raise self._fatal(f"argument {label} must state its text", label_token)
        try:
            return ArgumentRow(
                label=label,
                argument=text,
                evidence_ids=evidence_ids or frozenset(),
                limitations=limitations or "",
                counter_argument=counter or "",
            )
        except ModelError as exc:
            raise self._fatal(str(exc), label_token) from exc


def parse(text: str | bytes, file_name: str = "<input>") -> ParseResult:
    """Parse one document; never raises on malformed input.

    A fatal problem (syntax error, unknown keyword, duplicate identifier,
    invalid structure) yields no case and exactly one diagnostic pointing
    at the offending source.  Dangling references yield the case plus one
    E009 diagnostic per unresolved reference, spanned at the reference.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            diagnostic = _syntax_error(
                f"document is not valid UTF-8: {exc.reason} at byte {exc.start}",
                SourceSpan(file_name, 1, 1, 1, 1),
            )
            return ParseResult(case=None, diagnostics=(diagnostic,))
    try:
        parser = _Parser(_lex(text, file_name), _Source(text, file_name))
        case = parser.parse_document()
    except _Fatal as fatal:
        return ParseResult(case=None, diagnostics=(fatal.diagnostic,))
    except RecursionError:  # pragma: no cover - the depth guard fires first
        diagnostic = _syntax_error(
            "document nests too deeply to parse", SourceSpan(file_name, 1, 1, 1, 1)
        )
        return ParseResult(case=None, diagnostics=(diagnostic,))

    diagnostics = dangling_references(
        resolve_references(case), Severity.ERROR, parser.ref_spans, parser.span_index
    )
    diagnostics.sort(key=Diagnostic.sort_key)
    return ParseResult(
        case=case,
        diagnostics=tuple(diagnostics),
        span_index=parser.span_index,
        reference_spans=parser.ref_spans,
    )


# -- canonical serialization -------------------------------------------------


def _quote(value: str) -> str:
    escaped = "".join(_ESCAPE_OUT.get(ch, ch) for ch in value)
    return f'"{escaped}"'


def _format_number(value: float) -> str:
    return repr(float(value))


def _severity_range(severities: frozenset[SeverityLevel]) -> str:
    levels = sorted(severities)
    expected = [level for level in SeverityLevel if levels[0] <= level <= levels[-1]]
    if levels != expected:
        raise ValueError(
            "region severities are not a contiguous range and cannot be written "
            f"in the aurcase format: {[s.name for s in levels]}"
        )
    return f"{levels[0].name}..{levels[-1].name}"


def _weak_severities(region: AcSpaceRegion) -> list[SeverityLevel]:
    """Severity levels whose full slice of the region is weak.

    The format marks weakness per severity level; a weak set that is not a
    union of whole severity slices is not representable.
    """
    if not region.weak_cells:
        return []
    by_level: dict[SeverityLevel, set[Cell]] = {}
    for cell in region.weak_cells:
        by_level.setdefault(cell.severity, set()).add(cell)
    slice_size = (
        len(region.roles)
        * len(region.capabilities)
        * len(region.statuses)
        * len(region.aggregations)
    )
    for level, cells in by_level.items():
        if len(cells) != slice_size:
            raise ValueError(
                f"weak cells at severity {level.name} do not cover the whole "
                "severity slice and cannot be written in the aurcase format"
            )
    return sorted(by_level)


def _names(members, table: dict) -> str:
    """`members` as a comma list of their names, in the name table's order."""
    return ", ".join(member.value for member in table.values() if member in members)


class _Writer:
    def __init__(self) -> None:
        self.lines: list[str] = []
        self.depth = 0

    def line(self, text: str = "") -> None:
        self.lines.append(("  " * self.depth + text) if text else "")

    def block(self, header: str) -> "_BlockCtx":
        return _BlockCtx(self, header)


class _BlockCtx:
    def __init__(self, writer: _Writer, header: str):
        self.writer = writer
        self.header = header

    def __enter__(self) -> _Writer:
        self.writer.line(self.header + " {")
        self.writer.depth += 1
        return self.writer

    def __exit__(self, *exc) -> None:
        self.writer.depth -= 1
        self.writer.line("}")


def _write_region(w: _Writer, region: AcSpaceRegion) -> None:
    with w.block("region"):
        w.line(f"severity = {_severity_range(region.severities)}")
        for dim, attribute, table in _REGION_DIMENSIONS:
            w.line(f"{dim} = {_names(getattr(region, attribute), table)}")
        for level in _weak_severities(region):
            w.line(f"weak({level.name})")


def _write_target(w: _Writer, target: ValidationTarget) -> None:
    if target.kind is TargetKind.QUALITATIVE:
        w.line(f"target qualitative({_quote(target.description)})")
    else:
        w.line(
            "target rate_bound("
            f"events = {_quote(target.event_definition)}, "
            f"max = {_format_number(target.max_rate)}, "
            f"per = {_quote(target.exposure_unit)}, "
            f"confidence = {_format_number(target.confidence)})"
        )


def _write_row(w: _Writer, row: ArgumentRow) -> None:
    with w.block(f"argument {row.label}"):
        w.line(f"text = {_quote(row.argument)}")
        if row.evidence_ids:
            w.line(f"evidence = {', '.join(sorted(row.evidence_ids))}")
        if row.limitations:
            w.line(f"limitations = {_quote(row.limitations)}")
        if row.counter_argument:
            w.line(f"counter = {_quote(row.counter_argument)}")


def _write_claim_node(w: _Writer, node: ClaimNode) -> None:
    if node.kind is ClaimKind.FACET:
        header = f"facet {_quote(node.facet_label)}"
    else:
        header = node.kind.value
    if node.id:
        header += f" {node.id}"
    with w.block(header):
        for child in node.children:
            _write_claim_node(w, child)
        for row in node.rows:
            _write_row(w, row)


def serialize(case: SafetyCase) -> str:
    """Render a case in canonical form: stable field order, two-space
    indentation, top-level elements ordered by identifier.

    Requires a reference-resolved case; raises `UnresolvedCaseError`
    otherwise, and `ValueError` for regions the format cannot express
    (non-contiguous severity sets, partial weak slices).
    """
    require_resolved(case)
    w = _Writer()
    w.depth = 1
    blocks: list[list[str]] = []

    def collect() -> list[str]:
        lines, w.lines = w.lines, []
        return lines

    with w.block("context"):
        for field_name in ContextBlock.FIELD_ORDER:
            value = getattr(case.context, field_name)
            if value:
                w.line(f"{field_name} = {_quote(value)}")
    blocks.append(collect())

    for hazard in case.hazards:
        header = f"hazard {hazard.id} category = {hazard.primary_category.value}"
        if hazard.secondary_categories:
            header += f" also = {_names(hazard.secondary_categories, CATEGORY_NAMES)}"
        with w.block(header):
            w.line(f"description = {_quote(hazard.description)}")
        blocks.append(collect())

    for methodology in case.methodologies:
        with w.block(f"methodology {methodology.id}"):
            w.line(f"name = {_quote(methodology.name)}")
            if methodology.hazard_categories:
                w.line(f"category = {_names(methodology.hazard_categories, CATEGORY_NAMES)}")
            if methodology.region is not None:
                _write_region(w, methodology.region)
        blocks.append(collect())

    for indicator in case.indicators:
        header = (
            f"indicator {indicator.id} stage = {indicator.causal_stage.name.lower()}"
        )
        with w.block(header):
            w.line(f"description = {_quote(indicator.description)}")
        blocks.append(collect())

    for criterion in case.criteria:
        header = (
            f"criterion {criterion.id} "
            f"hazard = {', '.join(sorted(criterion.hazard_ids))} "
            f"methodology = {criterion.methodology_id} "
            f"aggregation = {criterion.aggregation.value}"
        )
        with w.block(header):
            w.line(f"statement = {_quote(criterion.statement)}")
            if criterion.target is not None:
                _write_target(w, criterion.target)
            if criterion.region is not None:
                _write_region(w, criterion.region)
            if criterion.indicator_ids:
                w.line(f"indicator = {', '.join(sorted(criterion.indicator_ids))}")
        blocks.append(collect())

    for item in case.evidence:
        header = (
            f"evidence {item.id} methodology = {item.methodology_id} "
            f"strength = {item.strength.value}"
        )
        with w.block(header):
            w.line(f"kind = {_quote(item.kind)}")
            w.line(f"uri = {_quote(item.uri)}")
        blocks.append(collect())

    for root in case.claims:
        with w.block(f"claim {root.id} criterion = {root.criterion_id}"):
            for child in root.children:
                _write_claim_node(w, child)
            for row in root.rows:
                _write_row(w, row)
        blocks.append(collect())

    out: list[str] = [f"safety_case {_quote(case.id)} {{"]
    for index, block in enumerate(blocks):
        if index:
            out.append("")
        out.extend(block)
    out.append("}")
    return "\n".join(out) + "\n"
