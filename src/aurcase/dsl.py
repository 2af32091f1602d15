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

from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class _Token:
    kind: str  # IDENT | STRING | NUMBER | PUNCT | EOF
    text: str
    value: str | float | None
    line: int
    col: int
    end_line: int
    end_col: int

    def span(self, file_name: str) -> SourceSpan:
        return SourceSpan(file_name, self.line, self.col, self.end_line, self.end_col)


def _syntax_error(message: str, span: SourceSpan) -> Diagnostic:
    return Diagnostic(_SYNTAX_RULE, Severity.ERROR, message, subject_id="", span=span)


class _Fatal(Exception):
    def __init__(self, diagnostic: Diagnostic):
        super().__init__(diagnostic.message)
        self.diagnostic = diagnostic


_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r"}
_ESCAPE_OUT = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t", "\r": "\\r"}


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_ident_char(ch: str) -> bool:
    return ch.isalnum() or ch in "_-"


class _Lexer:
    def __init__(self, text: str, file_name: str):
        self.text = text
        self.file = file_name
        self.pos = 0
        self.line = 1
        self.col = 1

    def _fatal(self, message: str, line: int, col: int) -> _Fatal:
        span = SourceSpan(self.file, line, col, self.line, max(self.col, col))
        return _Fatal(_syntax_error(message, span))

    def _advance(self) -> str:
        ch = self.text[self.pos]
        self.pos += 1
        if ch == "\n":
            self.line += 1
            self.col = 1
        else:
            self.col += 1
        return ch

    def tokens(self) -> list[_Token]:
        out: list[_Token] = []
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
                out.append(_Token("PUNCT", "..", None, line, col, self.line, self.col))
                continue
            if ch in "{}()=,":
                self._advance()
                out.append(_Token("PUNCT", ch, None, line, col, self.line, self.col))
                continue
            self._advance()
            raise self._fatal(f"unexpected character {ch!r}", line, col)
        out.append(_Token("EOF", "", None, self.line, self.col, self.line, self.col))
        return out

    def _string(self, line: int, col: int) -> _Token:
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
        return _Token(
            "STRING", "".join(raw), "".join(parts), line, col, self.line, self.col
        )

    def _number(self, line: int, col: int) -> _Token:
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
        return _Token("NUMBER", literal, value, line, col, self.line, self.col)

    def _ident(self, line: int, col: int) -> _Token:
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
        return _Token("IDENT", word, word, line, col, self.line, self.col)


class _Parser:
    def __init__(self, tokens: list[_Token], file_name: str):
        self.tokens = tokens
        self.file = file_name
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

    def _fatal(self, message: str, token: _Token) -> _Fatal:
        return _Fatal(_syntax_error(message, token.span(self.file)))

    def _eof_message(self, expected: str) -> str:
        if self.open_blocks:
            desc, opener = self.open_blocks[-1]
            return (
                f"expected {expected} to close {desc} opened at "
                f"{opener.line}:{opener.col}, found end of document"
            )
        return f"expected {expected}, found end of document"

    def expect_punct(self, punct: str) -> _Token:
        token = self.peek()
        if token.kind == "EOF":
            raise self._fatal(self._eof_message(f"'{punct}'"), token)
        if token.kind != "PUNCT" or token.text != punct:
            raise self._fatal(f"expected '{punct}', found {token.text!r}", token)
        return self.advance()

    def expect_word(self, word: str) -> _Token:
        token = self.peek()
        if token.kind == "EOF":
            raise self._fatal(self._eof_message(f"'{word}'"), token)
        if token.kind != "IDENT" or token.text != word:
            raise self._fatal(f"expected '{word}', found {token.text!r}", token)
        return self.advance()

    def expect_ident(self, what: str) -> _Token:
        token = self.peek()
        if token.kind == "EOF":
            raise self._fatal(self._eof_message(what), token)
        if token.kind != "IDENT":
            raise self._fatal(f"expected {what}, found {token.text!r}", token)
        return self.advance()

    def expect_string(self, what: str) -> _Token:
        token = self.peek()
        if token.kind == "EOF":
            raise self._fatal(self._eof_message(what), token)
        if token.kind != "STRING":
            raise self._fatal(f"expected {what} (a quoted string), found {token.text!r}", token)
        return self.advance()

    def expect_number(self, what: str) -> _Token:
        token = self.peek()
        if token.kind == "EOF":
            raise self._fatal(self._eof_message(what), token)
        if token.kind != "NUMBER":
            raise self._fatal(f"expected {what} (a number), found {token.text!r}", token)
        return self.advance()

    def at_word(self, *words: str) -> bool:
        token = self.peek()
        return token.kind == "IDENT" and token.text in words

    def at_punct(self, punct: str) -> bool:
        token = self.peek()
        return token.kind == "PUNCT" and token.text == punct

    def open_block(self, description: str) -> None:
        opener = self.expect_punct("{")
        self.open_blocks.append((description, opener))

    def close_block(self) -> None:
        self.expect_punct("}")
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
                    f"{previous.line}:{previous.col}",
                    subject_id=name,
                    span=token.span(self.file),
                )
            )
        self.declared[name] = token
        self.span_index[name] = token.span(self.file)
        return name

    def record_ref(self, referrer: str, field_name: str, token: _Token) -> str:
        key = (referrer, field_name, token.text)
        self.ref_spans.setdefault(key, token.span(self.file))
        return token.text

    def enum_value(self, token: _Token, table: dict, what: str):
        if token.text not in table:
            expected = ", ".join(sorted(table))
            raise self._fatal(
                f"unknown {what} {token.text!r}; expected one of: {expected}", token
            )
        return table[token.text]

    def idlist(self, referrer: str, field_name: str) -> frozenset[str]:
        ids = [self.record_ref(referrer, field_name, self.expect_ident("an identifier"))]
        while self.at_punct(","):
            self.advance()
            ids.append(
                self.record_ref(referrer, field_name, self.expect_ident("an identifier"))
            )
        return frozenset(ids)

    # -- grammar -------------------------------------------------------------

    def parse_document(self) -> SafetyCase:
        header = self.expect_word("safety_case")
        case_id = self.expect_string("the case identifier")
        self.span_index[case_id.value] = header.span(self.file)
        self.open_block(f"safety_case {case_id.value!r}")

        context: ContextBlock | None = None
        hazards: list[Hazard] = []
        methodologies: list[Methodology] = []
        indicators: list[Indicator] = []
        criteria: list[AcceptanceCriterion] = []
        evidence: list[Evidence] = []
        claims: list[ClaimNode] = []

        while not self.at_punct("}"):
            token = self.peek()
            if token.kind == "EOF":
                raise self._fatal(self._eof_message("'}'"), token)
            if token.kind != "IDENT" or token.text not in _TOP_KEYWORDS:
                expected = ", ".join(_TOP_KEYWORDS)
                raise self._fatal(
                    f"unknown keyword {token.text!r}; expected one of: {expected}",
                    token,
                )
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
        keyword = self.expect_word("context")
        self.span_index["context"] = keyword.span(self.file)
        self.open_block("context block")
        values: dict[str, str] = {}
        while not self.at_punct("}"):
            key = self.expect_ident("a context field name")
            if key.text not in ContextBlock.FIELD_ORDER:
                expected = ", ".join(ContextBlock.FIELD_ORDER)
                raise self._fatal(
                    f"unknown context field {key.text!r}; expected one of: {expected}",
                    key,
                )
            if key.text in values:
                raise self._fatal(f"context field {key.text!r} is set twice", key)
            self.expect_punct("=")
            value = self.expect_string(f"a value for {key.text}")
            values[key.text] = value.value
            self.span_index[f"context.{key.text}"] = key.span(self.file)
        self.close_block()
        return ContextBlock(**values)

    def parse_hazard(self) -> Hazard:
        self.expect_word("hazard")
        ident = self.expect_ident("a hazard identifier")
        hazard_id = self.declare(ident)
        self.expect_word("category")
        self.expect_punct("=")
        primary = self.enum_value(
            self.expect_ident("a hazard category"), CATEGORY_NAMES, "hazard category"
        )
        secondary: set = set()
        if self.at_word("also"):
            self.advance()
            self.expect_punct("=")
            while True:
                token = self.expect_ident("a hazard category")
                secondary.add(self.enum_value(token, CATEGORY_NAMES, "hazard category"))
                if not self.at_punct(","):
                    break
                self.advance()
        self.open_block(f"hazard {hazard_id}")
        description = self._single_string_field("description")
        self.close_block()
        try:
            return Hazard(
                id=hazard_id,
                description=description,
                primary_category=primary,
                secondary_categories=frozenset(secondary),
            )
        except ModelError as exc:
            raise self._fatal(str(exc), ident) from exc

    def _single_string_field(self, name: str) -> str:
        self.expect_word(name)
        self.expect_punct("=")
        return self.expect_string(f"a value for {name}").value

    def parse_methodology(self) -> Methodology:
        self.expect_word("methodology")
        ident = self.expect_ident("a methodology identifier")
        methodology_id = self.declare(ident)
        self.open_block(f"methodology {methodology_id}")
        name: str | None = None
        categories: set = set()
        saw_categories = False
        region: AcSpaceRegion | None = None
        while not self.at_punct("}"):
            if self.at_word("name"):
                if name is not None:
                    raise self._fatal("name is set twice", self.peek())
                name = self._single_string_field("name")
            elif self.at_word("category"):
                if saw_categories:
                    raise self._fatal("category is set twice", self.peek())
                saw_categories = True
                self.advance()
                self.expect_punct("=")
                while True:
                    token = self.expect_ident("a hazard category")
                    categories.add(
                        self.enum_value(token, CATEGORY_NAMES, "hazard category")
                    )
                    if not self.at_punct(","):
                        break
                    self.advance()
            elif self.at_word("region"):
                if region is not None:
                    raise self._fatal("region is declared twice", self.peek())
                region = self.parse_region()
            else:
                token = self.peek()
                if token.kind == "EOF":
                    raise self._fatal(self._eof_message("'}'"), token)
                raise self._fatal(
                    f"unknown keyword {token.text!r} in methodology block; "
                    "expected name, category, or region",
                    token,
                )
        self.close_block()
        if name is None:
            raise self._fatal(f"methodology {methodology_id} must state a name", ident)
        try:
            return Methodology(
                id=methodology_id,
                name=name,
                hazard_categories=frozenset(categories),
                region=region,
            )
        except ModelError as exc:
            raise self._fatal(str(exc), ident) from exc

    def parse_region(self) -> AcSpaceRegion:
        keyword = self.expect_word("region")
        self.open_block("region block")
        severities: frozenset[SeverityLevel] | None = None
        sets: dict[str, frozenset] = {}
        weak_levels: list[tuple[SeverityLevel, _Token]] = []
        dimension_tables = {
            "role": ROLE_NAMES,
            "capability": CAPABILITY_NAMES,
            "status": STATUS_NAMES,
            "aggregation": AGGREGATION_NAMES,
        }
        while not self.at_punct("}"):
            if self.at_word("severity"):
                keyword_token = self.advance()
                if severities is not None:
                    raise self._fatal("severity is set twice", keyword_token)
                self.expect_punct("=")
                low = self.enum_value(
                    self.expect_ident("a severity level"), SEVERITY_NAMES, "severity level"
                )
                self.expect_punct("..")
                high_token = self.expect_ident("a severity level")
                high = self.enum_value(high_token, SEVERITY_NAMES, "severity level")
                if high < low:
                    raise self._fatal(
                        f"severity range {low.name}..{high.name} is reversed", high_token
                    )
                severities = frozenset(
                    level for level in SeverityLevel if low <= level <= high
                )
            elif self.at_word("role", "capability", "status", "aggregation"):
                dim_token = self.advance()
                dim = dim_token.text
                if dim in sets:
                    raise self._fatal(f"{dim} is set twice", dim_token)
                self.expect_punct("=")
                values = set()
                table = dimension_tables[dim]
                while True:
                    token = self.expect_ident(f"a {dim} value")
                    values.add(self.enum_value(token, table, f"{dim} value"))
                    if not self.at_punct(","):
                        break
                    self.advance()
                sets[dim] = frozenset(values)
            elif self.at_word("weak"):
                self.advance()
                self.expect_punct("(")
                token = self.expect_ident("a severity level")
                weak_levels.append(
                    (self.enum_value(token, SEVERITY_NAMES, "severity level"), token)
                )
                self.expect_punct(")")
            else:
                token = self.peek()
                if token.kind == "EOF":
                    raise self._fatal(self._eof_message("'}'"), token)
                raise self._fatal(
                    f"unknown keyword {token.text!r} in region block; expected "
                    "severity, role, capability, status, aggregation, or weak(...)",
                    token,
                )
        self.close_block()
        missing = [
            dim
            for dim, present in (
                ("severity", severities is not None),
                ("role", "role" in sets),
                ("capability", "capability" in sets),
                ("status", "status" in sets),
                ("aggregation", "aggregation" in sets),
            )
            if not present
        ]
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
            roles=sets["role"],
            capabilities=sets["capability"],
            statuses=sets["status"],
            aggregations=sets["aggregation"],
            weak_cells=frozenset(weak_cells),
        )

    def parse_indicator(self) -> Indicator:
        self.expect_word("indicator")
        ident = self.expect_ident("an indicator identifier")
        indicator_id = self.declare(ident)
        self.expect_word("stage")
        self.expect_punct("=")
        stage = self.enum_value(
            self.expect_ident("a causal stage"), STAGE_NAMES, "causal stage"
        )
        self.open_block(f"indicator {indicator_id}")
        description = self._single_string_field("description")
        self.close_block()
        return Indicator(id=indicator_id, description=description, causal_stage=stage)

    def parse_criterion(self) -> AcceptanceCriterion:
        self.expect_word("criterion")
        ident = self.expect_ident("a criterion identifier")
        criterion_id = self.declare(ident)
        self.expect_word("hazard")
        self.expect_punct("=")
        hazard_ids = self.idlist(criterion_id, "hazard_ids")
        self.expect_word("methodology")
        self.expect_punct("=")
        methodology_id = self.record_ref(
            criterion_id, "methodology_id", self.expect_ident("a methodology identifier")
        )
        self.expect_word("aggregation")
        self.expect_punct("=")
        aggregation = self.enum_value(
            self.expect_ident("an aggregation level"), AGGREGATION_NAMES, "aggregation level"
        )
        self.open_block(f"criterion {criterion_id}")
        statement: str | None = None
        target: ValidationTarget | None = None
        region: AcSpaceRegion | None = None
        indicator_ids: frozenset[str] = frozenset()
        saw_indicators = False
        while not self.at_punct("}"):
            if self.at_word("statement"):
                if statement is not None:
                    raise self._fatal("statement is set twice", self.peek())
                statement = self._single_string_field("statement")
            elif self.at_word("target"):
                if target is not None:
                    raise self._fatal("target is declared twice", self.peek())
                target = self.parse_target()
            elif self.at_word("region"):
                if region is not None:
                    raise self._fatal("region is declared twice", self.peek())
                region = self.parse_region()
            elif self.at_word("indicator"):
                if saw_indicators:
                    raise self._fatal("indicator list is set twice", self.peek())
                saw_indicators = True
                self.advance()
                self.expect_punct("=")
                indicator_ids = self.idlist(criterion_id, "indicator_ids")
            else:
                token = self.peek()
                if token.kind == "EOF":
                    raise self._fatal(self._eof_message("'}'"), token)
                raise self._fatal(
                    f"unknown keyword {token.text!r} in criterion block; expected "
                    "statement, target, region, or indicator",
                    token,
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
                indicator_ids=indicator_ids,
                region=region,
                target=target,
            )
        except ModelError as exc:
            raise self._fatal(str(exc), ident) from exc

    def parse_target(self) -> ValidationTarget:
        self.expect_word("target")
        kind_token = self.expect_ident("'rate_bound' or 'qualitative'")
        if kind_token.text == "qualitative":
            self.expect_punct("(")
            description = self.expect_string("a description").value
            self.expect_punct(")")
            return ValidationTarget(kind=TargetKind.QUALITATIVE, description=description)
        if kind_token.text != "rate_bound":
            raise self._fatal(
                f"unknown target kind {kind_token.text!r}; expected rate_bound or "
                "qualitative",
                kind_token,
            )
        self.expect_punct("(")
        self.expect_word("events")
        self.expect_punct("=")
        events = self.expect_string("an event definition").value
        self.expect_punct(",")
        self.expect_word("max")
        self.expect_punct("=")
        max_rate = self.expect_number("a maximum rate").value
        self.expect_punct(",")
        self.expect_word("per")
        self.expect_punct("=")
        unit = self.expect_string("an exposure unit").value
        self.expect_punct(",")
        self.expect_word("confidence")
        self.expect_punct("=")
        confidence_token = self.expect_number("a confidence level")
        self.expect_punct(")")
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
        self.expect_word("evidence")
        ident = self.expect_ident("an evidence identifier")
        evidence_id = self.declare(ident)
        self.expect_word("methodology")
        self.expect_punct("=")
        methodology_id = self.record_ref(
            evidence_id, "methodology_id", self.expect_ident("a methodology identifier")
        )
        self.expect_word("strength")
        self.expect_punct("=")
        strength_token = self.expect_ident("'strong' or 'weak'")
        if strength_token.text not in ("strong", "weak"):
            raise self._fatal(
                f"strength must be strong or weak, got {strength_token.text!r}",
                strength_token,
            )
        self.open_block(f"evidence {evidence_id}")
        kind: str | None = None
        uri: str | None = None
        while not self.at_punct("}"):
            if self.at_word("kind"):
                if kind is not None:
                    raise self._fatal("kind is set twice", self.peek())
                kind = self._single_string_field("kind")
            elif self.at_word("uri"):
                if uri is not None:
                    raise self._fatal("uri is set twice", self.peek())
                uri = self._single_string_field("uri")
            else:
                token = self.peek()
                if token.kind == "EOF":
                    raise self._fatal(self._eof_message("'}'"), token)
                raise self._fatal(
                    f"unknown keyword {token.text!r} in evidence block; "
                    "expected kind or uri",
                    token,
                )
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
        self.expect_word("claim")
        ident = self.expect_ident("a claim identifier")
        claim_id = self.declare(ident)
        self.expect_word("criterion")
        self.expect_punct("=")
        criterion_id = self.record_ref(
            claim_id, "criterion_id", self.expect_ident("a criterion identifier")
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
        while not self.at_punct("}"):
            if self.at_word(*_SUBCLAIM_KINDS):
                children.append(self.parse_subclaim(parent_key, len(children) + 1, depth))
            elif self.at_word("argument"):
                rows.append(self.parse_row(parent_key, row_labels))
            else:
                token = self.peek()
                if token.kind == "EOF":
                    raise self._fatal(self._eof_message("'}'"), token)
                expected = ", ".join((*_SUBCLAIM_KINDS, "argument"))
                raise self._fatal(
                    f"unknown keyword {token.text!r} in claim body; expected one "
                    f"of: {expected}",
                    token,
                )
        self.close_block()
        return tuple(children), tuple(rows)

    def parse_subclaim(self, parent_key: str, ordinal: int, depth: int) -> ClaimNode:
        keyword = self.advance()
        kind = _SUBCLAIM_KINDS[keyword.text]
        facet_label = ""
        if kind is ClaimKind.FACET:
            facet_label = self.expect_string("a facet label").value
        node_id = ""
        if self.peek().kind == "IDENT":
            node_id = self.declare(self.advance())
        key = node_id or f"{parent_key}.{ordinal}"
        self.span_index.setdefault(key, keyword.span(self.file))
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
        keyword = self.expect_word("argument")
        label_token = self.expect_ident("an argument label")
        label = label_token.text
        count = row_labels.get(label, 0)
        row_labels[label] = count + 1
        row_key = f"{parent_key}.{label}" + (f"@{count + 1}" if count else "")
        self.span_index[row_key] = keyword.span(self.file)
        self.open_block(f"argument {label}")
        text: str | None = None
        evidence_ids: frozenset[str] = frozenset()
        saw_evidence = False
        limitations = ""
        saw_limitations = False
        counter = ""
        saw_counter = False
        while not self.at_punct("}"):
            if self.at_word("text"):
                if text is not None:
                    raise self._fatal("text is set twice", self.peek())
                text = self._single_string_field("text")
            elif self.at_word("evidence"):
                if saw_evidence:
                    raise self._fatal("evidence list is set twice", self.peek())
                saw_evidence = True
                self.advance()
                self.expect_punct("=")
                evidence_ids = self.idlist(row_key, "evidence_ids")
            elif self.at_word("limitations"):
                if saw_limitations:
                    raise self._fatal("limitations is set twice", self.peek())
                saw_limitations = True
                limitations = self._single_string_field("limitations")
            elif self.at_word("counter"):
                if saw_counter:
                    raise self._fatal("counter is set twice", self.peek())
                saw_counter = True
                counter = self._single_string_field("counter")
            else:
                token = self.peek()
                if token.kind == "EOF":
                    raise self._fatal(self._eof_message("'}'"), token)
                raise self._fatal(
                    f"unknown keyword {token.text!r} in argument block; expected "
                    "text, evidence, limitations, or counter",
                    token,
                )
        self.close_block()
        if text is None:
            raise self._fatal(f"argument {label} must state its text", label_token)
        try:
            return ArgumentRow(
                label=label,
                argument=text,
                evidence_ids=evidence_ids,
                limitations=limitations,
                counter_argument=counter,
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
        tokens = _Lexer(text, file_name).tokens()
        parser = _Parser(tokens, file_name)
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


def _enum_sorted(values, order) -> list:
    ordered = [v for v in order if v in values]
    return ordered


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
        roles = ", ".join(r.value for r in _enum_sorted(region.roles, tuple(ROLE_NAMES.values())))
        w.line(f"role = {roles}")
        caps = ", ".join(
            c.value for c in _enum_sorted(region.capabilities, tuple(CAPABILITY_NAMES.values()))
        )
        w.line(f"capability = {caps}")
        statuses = ", ".join(
            s.value for s in _enum_sorted(region.statuses, tuple(STATUS_NAMES.values()))
        )
        w.line(f"status = {statuses}")
        aggs = ", ".join(
            a.value for a in _enum_sorted(region.aggregations, tuple(AGGREGATION_NAMES.values()))
        )
        w.line(f"aggregation = {aggs}")
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
            also = ", ".join(
                c.value
                for c in _enum_sorted(
                    hazard.secondary_categories, tuple(CATEGORY_NAMES.values())
                )
            )
            header += f" also = {also}"
        with w.block(header):
            w.line(f"description = {_quote(hazard.description)}")
        blocks.append(collect())

    for methodology in case.methodologies:
        with w.block(f"methodology {methodology.id}"):
            w.line(f"name = {_quote(methodology.name)}")
            if methodology.hazard_categories:
                categories = ", ".join(
                    c.value
                    for c in _enum_sorted(
                        methodology.hazard_categories, tuple(CATEGORY_NAMES.values())
                    )
                )
                w.line(f"category = {categories}")
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
