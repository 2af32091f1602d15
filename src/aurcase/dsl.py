"""The `aurcase` textual safety-case format: parser and canonical serializer.

The format is block-structured so a document reads top-down the way the
case itself is organized: context, hazards, methodologies (each with its
region of the acceptance-criteria space), indicators, criteria with their
validation targets, evidence, and claim trees whose argument rows carry
text, evidence links, limitations, and counter-arguments.

Parsing never raises on malformed input, and reports the first fatal
problem as a diagnostic.  Dangling references are not fatal: the case is
still returned, carrying one E009 diagnostic per unresolved reference so
downstream analyses can refuse with context.  The lexer keeps no object
per token but its word, and one string per distinct word: it scans the
text in runs of whole lines, one `findall` each, into a list of words,
and works out the kind of each distinct word once.  The parser is a
cursor over the words.  No token's offset is kept: the document's
`_Source` keeps the offset and first token of each run.  A span map
keeps the index of the token that declares an element or makes a
cross-reference, and holds the `_Source`, which finds the token's offset
by matching its run again only when the span is looked up, so a clean
case looks up none.  One leading byte order mark is dropped, and
positions count from after it.

Serialization is canonical: stable field order, two-space indentation,
elements ordered by identifier, and deterministic to the byte.
"""

from __future__ import annotations

import re
from array import array
from bisect import bisect_right
from collections.abc import Iterator, Mapping
from functools import cached_property
from itertools import chain, islice

from .diagnostics import Diagnostic, Severity, SourceSpan, dangling_references
from .model import (
    CASE_SPAN,
    CONTEXT_SPAN,
    CATEGORY_NAMES,
    DIMENSION_NAMES,
    ELEMENTS,
    EMPTY_MAPPING,
    MAX_CLAIM_DEPTH,
    SPACE_DIMENSIONS,
    STAGE_NAMES,
    AcceptanceCriterion,
    AcSpaceRegion,
    ArgumentRow,
    ClaimKind,
    ClaimNode,
    ContextBlock,
    Evidence,
    EvidenceStrength,
    Hazard,
    Indicator,
    Methodology,
    ModelError,
    Record,
    SafetyCase,
    SeverityLevel,
    TargetKind,
    ValidationTarget,
    node_key,
    require_resolved,
    resolve_references,
    row_key,
)

_SYNTAX_RULE = "E013"
_DUPLICATE_RULE = "E010"

# Every claim kind but the top claim is a subclaim keyword, spelt as its value.
_SUBCLAIM_KINDS = {k.value: k for k in ClaimKind if k is not ClaimKind.TOP_CLAIM}
# Each region dimension's name table, and what a fatal calls one of its values.
_DIMENSION_VALUES = {dim: (table, f"{dim} value") for dim, table in DIMENSION_NAMES.items()}


class ParseResult(Record):
    """Outcome of parsing one document.

    `case` is present unless a fatal error stopped the parse; the span
    index maps every declared element key (top-level ids, claim-node keys,
    row keys, `CASE_SPAN`, `CONTEXT_SPAN`, `:context.<field>`) to its
    source span.  `reference_spans` pins each cross-reference (referrer
    key, field, referenced id) to the exact token that made it, so
    reference diagnostics can point at the reference rather than at the
    element containing it.  Both are read-only mappings in declaration
    order that make each span when it is looked up; they compare equal to
    a `dict` of the same spans.
    """

    case: SafetyCase | None
    diagnostics: tuple[Diagnostic, ...]
    span_index: Mapping[str, SourceSpan] = EMPTY_MAPPING
    reference_spans: Mapping[tuple[str, str, str], SourceSpan] = EMPTY_MAPPING

    @property
    def fatal(self) -> bool:
        return self.case is None


def _syntax_error(message: str, span: SourceSpan) -> Diagnostic:
    return Diagnostic(_SYNTAX_RULE, Severity.ERROR, message, subject_id="", span=span)


class _Fatal(Exception):
    def __init__(self, diagnostic: Diagnostic):
        super().__init__(diagnostic.message)
        self.diagnostic = diagnostic


_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r"}  # escape -> character
_ESCAPE_OUT = str.maketrans({char: "\\" + escape for escape, char in _ESCAPES.items()})

# Where a string literal's body stops: at its closing quote, or at a line
# break or an escape the format does not know.
_STRING_BODY = re.compile(rf'[^"\\\n]*+(?:\\[{re.escape("".join(_ESCAPES))}][^"\\\n]*+)*+')

# Token kinds.  A token is its index into the lexer's words; its kind is
# its word's.
IDENT, STRING, NUMBER, PUNCT, EOF = "IDENT", "STRING", "NUMBER", "PUNCT", "EOF"

# The token grammar: each kind's alternative.  No two match at the same
# offset, so their order only sets the speed: the commonest come first.
# `\d` is a Unicode decimal digit and `\w` a character for which
# `str.isalnum()` is true, or `_`.  A number starts with a digit, a sign
# before a digit or a dot, or a dot before a digit; a dot joins an
# identifier only when another identifier character follows it, so `..`
# stays the range operator.  No alternative holds a line break, and no
# lookahead reads past one.  The repeats of identifiers and strings, and
# of the blanks and comments before a token, are possessive (`*+`): no
# match needs a character that one of them would hand back, so the matches
# are those of plain repeats, and `re` keeps no backtracking state per token.
_ALTERNATIVES = {
    PUNCT: r"[{}()=,]|\.\.",
    IDENT: r"[^\W\d][\w-]*+(?:\.[\w-]++)*+",
    STRING: f'"{_STRING_BODY.pattern}"',
    NUMBER: r"(?:[+-](?=[\d.])|(?=\.?\d))\d*(?:\.(?!\.)\d*)?(?:[eE][+-]?\d*)?",
}

# One token per match: the blanks and comments before it, which are not
# kept, then group 1, the token: one of the alternatives, else any one
# character, which takes what starts no token (including a quote that
# opens a malformed string), or nothing at the end of the text.  So a run
# of whole lines lexes alone as it does in the whole text.
_TOKEN = re.compile(
    r"(?:[ \t\r\n]*+(?:#[^\n]*+[ \t\r\n]*+)*+)(" + "|".join(_ALTERNATIVES.values()) + r"|.|\Z)",
    re.DOTALL,
)
# The same alternatives, each a group named by its kind.
_KINDS = re.compile("|".join(f"(?P<{kind}>{pattern})" for kind, pattern in _ALTERNATIVES.items()))
_ESCAPE_IN = re.compile(r"\\(.)")
_EXPONENT_WITHOUT_DIGITS = re.compile(r"[eE][+-]?\Z")


class _Source:
    """A document's text and name, and where its tokens are.  The lexer
    records the offset and first token of each run of lines it scans; a
    token is placed only when asked for, by matching its run again up to
    it.  Lines end at '\\n' only, and columns count code points."""

    def __init__(self, text: str, file_name: str):
        self.text = text
        self.file = file_name
        self.run_offsets, self.run_firsts = array("q"), array("q")

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

    def match(self, token: int) -> re.Match:
        """The match of `_TOKEN` whose group 1 is `token`."""
        run = bisect_right(self.run_firsts, token) - 1
        matches = _TOKEN.finditer(self.text, self.run_offsets[run])
        return next(islice(matches, token - self.run_firsts[run], None))

    def token_span(self, token: int) -> SourceSpan:
        return self.span(*self.match(token).span(1))

    def where(self, token: int) -> str:
        return "%d:%d" % self.position(self.match(token).start(1))


# The fewest characters the lexer scans at once: a run of whole lines
# ends just after the first line break this far past its start.
_RUN = 512


def _lex(text: str, file_name: str) -> tuple[dict[str, str], list[str], _Source]:
    """The kind of each distinct word ('' for EOF), the words of the tokens
    of `text`, ending with EOF, and the `_Source` that places them; raises
    `_Fatal` at the first token that fails to lex."""
    # Each run of lines is one `findall` in C, which makes no object but
    # the words; equal words then share the first one's string (`seen`).
    # Only the offset and first token of each run are kept, in `source`.
    source = _Source(text, file_name)
    words: list[str] = []
    seen = {"": ""}  # EOF's word
    run_offsets, run_firsts = source.run_offsets, source.run_firsts
    findall, size, pos = _TOKEN.findall, len(text), 0
    while pos < size or not run_firsts:  # an empty text is one empty run
        end = text.find("\n", pos + _RUN - 1) + 1 or size
        first = len(words)
        run_offsets.append(pos)
        run_firsts.append(first)
        found = findall(text, pos, end)
        words += map(seen.setdefault, found, found)
        # The scan ends with an empty match at `end`, and one more before
        # it if blanks end the run.  No token is empty, so both go.
        del words[-1]
        if len(words) > first and not words[-1]:
            del words[-1]
        pos = end
    words.append("")  # EOF
    # A word's kind is worked out once.  `seen` is in the order of first
    # occurrence, so the first word that fails to lex is at the first
    # token that does.
    kind_of: dict[str, str] = {}
    for word in seen:
        kind = kind_of[word] = _kind(word)
        if kind is None:
            raise _lex_error(source, word, words.index(word))
    return kind_of, words, source


def _kind(word: str) -> str | None:
    """The kind of the token `word`, or None if it fails to lex."""
    if not word:
        return EOF
    match = _KINDS.match(word)
    kind = match and match.lastgroup
    if kind == IDENT and not (word[0].isalpha() or word[0] == "_"):
        return None  # a word character that starts no token ('²', 'Ⅻ')
    if kind == NUMBER:
        try:
            float(word)
        except ValueError:
            return None
    return kind


def _lex_error(source: _Source, word: str, token: int) -> _Fatal:
    """The fatal for `token`, whose word `word` fails to lex."""
    text, start = source.text, source.match(token).start(1)
    if word == '"':
        message, start, end = _bad_string(text, start)
    elif (match := _KINDS.match(text, start)) and match.lastgroup == NUMBER:
        # A number `float` rejects, or a lone sign before a dot ('-..').
        if _EXPONENT_WITHOUT_DIGITS.search(word):
            message = "malformed number: exponent has no digits"
        else:
            message = f"malformed number {word!r}"
        end = start + len(word)
    else:  # no token, or a word character that starts none ('²', 'Ⅻ')
        message = f"unexpected character {word[0]!r}"
        end = start + 1
    return _Fatal(_syntax_error(message, source.span(start, end)))


def _unquote(word: str) -> str:
    """The value of the string literal `word`."""
    value = word[1:-1]
    if "\\" in value:
        value = _ESCAPE_IN.sub(lambda escape: _ESCAPES[escape[1]], value)
    return value


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


_KIND_HINTS = {STRING: " (a quoted string)", NUMBER: " (a number)"}


class _Spans(Mapping):
    """A read-only map from each key to the span of the token it was
    recorded at.  Only the token's index is kept; on lookup the document's
    `_Source` places the token."""

    def __init__(self, tokens: dict[object, int], source: _Source):
        self._tokens = tokens
        self._source = source

    def __getitem__(self, key) -> SourceSpan:
        return self._source.token_span(self._tokens[key])

    def __contains__(self, key) -> bool:
        return key in self._tokens

    def __iter__(self):
        return iter(self._tokens)

    def __len__(self) -> int:
        return len(self._tokens)

    def __repr__(self) -> str:
        return f"_Spans({dict(self)!r})"


class _Parser:
    """A cursor over the lexer's words; a token is its index.

    A success path checks each token it expects in place: it compares the
    word at `pos` (or the word's kind) and advances `pos`.  The general
    helpers (`take`, `expect`, `string`, `unexpected`) are called where
    such a check fails, to raise its fatal, so a message or a block's
    description is formatted only when a fatal prints it."""

    def __init__(self, tokens: tuple[dict[str, str], list[str], _Source]):
        self.kind_of, self.words, self.source = tokens
        self.pos = 0
        # The token each span key and reference was recorded at.
        self.span_index: dict[str, int] = {}
        self.ref_spans: dict[tuple[str, str, str], int] = {}
        self.open_blocks: list[tuple[tuple[str, ...], int]] = []
        self.shared_sets: dict[frozenset, frozenset] = {}

    # -- token plumbing ----------------------------------------------------

    def advance(self) -> int:
        token = self.pos
        if self.words[token]:  # not EOF
            self.pos += 1
        return token

    def _fatal(self, message: str, token: int) -> _Fatal:
        return _Fatal(_syntax_error(message, self.source.token_span(token)))

    def build(self, record: type, token: int, /, field_tokens: Mapping = EMPTY_MAPPING, **fields):
        """`record(**fields)`; a `ModelError` is a fatal at the token that
        `field_tokens` maps the field it names to, or else at `token`."""
        try:
            return record(**fields)
        except ModelError as exc:
            raise self._fatal(str(exc), field_tokens.get(exc.field_name, token)) from exc

    def _eof_message(self, expected: str) -> str:
        if self.open_blocks:
            description, opener = self.open_blocks[-1]
            return (
                f"expected {expected} to close {' '.join(filter(None, description))} opened at "
                f"{self.source.where(opener)}, found end of document"
            )
        return f"expected {expected}, found end of document"

    def expect(self, kind: str, what: str, text: str | None = None) -> int:
        """Consume the next token if it is a `kind` (spelt `text`, when
        given); otherwise fail, saying `what` was expected."""
        token = self.pos
        word = self.words[token]
        if self.kind_of[word] == kind and (text is None or word == text):
            self.pos = token + 1
            return token
        raise self.unexpected(kind, what)

    def unexpected(self, kind: str, what: str) -> _Fatal:
        """The fatal for a next token that is not the `kind` that `what`
        names."""
        token = self.pos
        if not self.words[token]:
            return self._fatal(self._eof_message(what), token)
        hint = _KIND_HINTS.get(kind, "")
        return self._fatal(f"expected {what}{hint}, found {self.words[token]!r}", token)

    def string(self, what: str) -> str:
        """Consume a string literal; return its value."""
        return _unquote(self.words[self.expect(STRING, what)])

    def take(self, *texts: str) -> int:
        """Consume the keywords or punctuation `texts` in turn; return the
        first token."""
        first = self.pos
        for text in texts:
            if self.words[self.pos] == text:  # then it is of `text`'s kind
                self.pos += 1
            else:
                self.expect(IDENT if text[0].isalpha() else PUNCT, f"'{text}'", text)
        return first

    def at(self, text: str) -> bool:
        # A token's word alone tells its kind: strings keep their quotes,
        # and words, numbers and punctuation start with different characters.
        return self.words[self.pos] == text

    def unknown_keyword(self, block: str, expected: str) -> _Fatal:
        """The fatal for a token that starts nothing allowed in `block`."""
        token = self.pos
        if not self.words[token]:
            return self._fatal(self._eof_message("'}'"), token)
        message = f"unknown keyword {self.words[token]!r}{block}; expected {expected}"
        return self._fatal(message, token)

    def comma_list(self, item, *args) -> list:
        """`item(*args)`, then once more after each comma."""
        items = [item(*args)]
        while self.words[self.pos] == ",":
            self.pos += 1
            items.append(item(*args))
        return items

    def open_block(self, *description: str) -> None:
        """Consume '{'.  A fatal at the end of the document names the block
        by the nonempty words of `description`."""
        opener = self.pos
        if self.words[opener] != "{":
            raise self.unexpected(PUNCT, "'{'")
        self.pos = opener + 1
        self.open_blocks.append((description, opener))

    def close_block(self) -> None:
        if self.words[self.pos] != "}":
            raise self.unexpected(PUNCT, "'}'")
        self.pos += 1
        self.open_blocks.pop()

    def block_body(self, table: tuple[str, str, dict], referrer: str = "") -> dict:
        """Read an open block's entries by its entry `table` (see
        `_entry_table`), then its closing '}'.  Returns each keyword's
        value, as a list of values for a keyword that may repeat.  The loop
        reads each entry's keyword in place; a helper is called only to
        raise a fatal."""
        block, expected, entries = table
        values: dict = {}
        words = self.words
        while (keyword := words[token := self.pos]) != "}":
            entry = entries.get(keyword)
            if entry is None:
                raise self.unknown_keyword(block, expected)
            read, twice = entry
            if twice is not None and keyword in values:
                raise self._fatal(twice, token)
            # An entry keyword is a word, so its token is never EOF.
            self.pos = token + 1
            if read.__class__ is str:
                values[keyword] = self.assigned_ids(referrer, read)
            elif twice is None:
                values.setdefault(keyword, []).append(read(self, token))
            else:
                values[keyword] = read(self, token)
        self.close_block()
        return values

    # -- declarations and references ----------------------------------------

    def declare(self, token: int, name: str = "") -> str:
        """Record `name`, by default the word of `token`, as declared at
        `token`.  Identifiers, claim-node keys and row keys share one
        namespace: a name declared before is a fatal E010 at `token`."""
        name = name or self.words[token]
        previous = self.span_index.get(name)
        if previous is not None:
            raise _Fatal(
                Diagnostic(
                    _DUPLICATE_RULE,
                    Severity.ERROR,
                    f"duplicate identifier {name!r}; first declared at "
                    f"{self.source.where(previous)}",
                    subject_id=name,
                    span=self.source.token_span(token),
                )
            )
        self.span_index[name] = token
        return name

    def reference(self, referrer: str, field_name: str, what: str) -> str:
        """The identifier `referrer` names in `field_name`; its token is
        kept for reference diagnostics."""
        token = self.expect(IDENT, what)
        name = self.words[token]
        key = (referrer, field_name, name)
        if key not in self.ref_spans:
            self.ref_spans[key] = token
        return name

    def enum_value(self, table: dict, what: str):
        """Consume an identifier that names a `what`; return the member of
        `table` it names."""
        token = self.pos
        word = self.words[token]
        if word not in table:  # which names members by identifiers only
            self.expect(IDENT, f"{'an' if what[0] in 'aeiou' else 'a'} {what}")
            expected = ", ".join(sorted(table))
            raise self._fatal(f"unknown {what} {word!r}; expected one of: {expected}", token)
        self.pos = token + 1
        return table[word]

    def category(self):
        return self.enum_value(CATEGORY_NAMES, "hazard category")

    def severity(self) -> tuple[SeverityLevel, int]:
        token = self.pos
        return self.enum_value(DIMENSION_NAMES["severity"], "severity level"), token

    def assigned_string(self, keyword: int) -> str:
        """`= "..."`, the value of `keyword`."""
        words, pos = self.words, self.pos
        if words[pos] != "=" or self.kind_of[words[pos + 1]] != STRING:
            self.take("=")
            raise self.unexpected(STRING, f"a value for {words[keyword]}")
        self.pos = pos + 2
        return _unquote(words[pos + 1])

    def assigned_list(self, item, *args) -> frozenset:
        """`= item(*args), item(*args), ...`."""
        self.take("=")
        return self.shared(self.comma_list(item, *args))

    def shared(self, items) -> frozenset:
        """`items` as a frozenset: the one this parse made before, if equal.
        A scaled case repeats a few region dimension and category sets
        thousands of times."""
        value = frozenset(items)
        return self.shared_sets.setdefault(value, value)

    def assigned_ids(self, referrer: str, field_name: str) -> frozenset[str]:
        """`= id, id, ...`, each kept as `reference` keeps one."""
        words, kind_of, ref_spans = self.words, self.kind_of, self.ref_spans
        if words[self.pos] != "=":
            raise self.unexpected(PUNCT, "'='")
        pos = self.pos + 1
        names = []
        while kind_of[name := words[pos]] == IDENT:
            key = (referrer, field_name, name)
            if key not in ref_spans:
                ref_spans[key] = pos
            names.append(name)
            if words[pos + 1] != ",":
                self.pos = pos + 1
                return frozenset(names)
            pos += 2
        self.pos = pos
        raise self.unexpected(IDENT, "an identifier")

    # -- grammar -------------------------------------------------------------

    def parse_document(self) -> SafetyCase:
        header = self.take("safety_case")
        case_id = self.string("the case identifier")
        self.span_index[CASE_SPAN] = header
        self.open_block("safety_case", repr(case_id))
        body = self.block_body(_DOCUMENT_ENTRIES)

        trailing = self.pos
        if self.words[trailing]:
            raise self._fatal(
                f"unexpected {self.words[trailing]!r} after the closing '}}' of the case",
                trailing,
            )
        if "context" not in body:
            raise self._fatal("the case must declare a context block", header)

        # Building the case walks each claim tree and keeps the walk on its
        # root (see `iter_claim_nodes`): drop the spent tokens first, so the
        # walks take their memory instead of adding to the parse's peak.
        del self.kind_of, self.words
        try:
            return SafetyCase(
                id=case_id,
                context=body["context"],
                **{name: body.get(keyword, ()) for keyword, name in ELEMENTS},
            )
        except ModelError as exc:
            raise self._fatal(f"invalid case: {exc}", header) from exc

    def parse_context(self, keyword: int) -> ContextBlock:
        self.span_index[CONTEXT_SPAN] = keyword
        self.open_block("context block")
        values: dict[str, str] = {}
        while not self.at("}"):
            key = self.expect(IDENT, "a context field name")
            name = self.words[key]
            if name not in ContextBlock.FIELDS:
                expected = ", ".join(ContextBlock.FIELDS)
                raise self._fatal(
                    f"unknown context field {name!r}; expected one of: {expected}", key
                )
            if name in values:
                raise self._fatal(f"context field {name!r} is set twice", key)
            values[name] = self.assigned_string(key)
            self.span_index[f"{CONTEXT_SPAN}.{name}"] = key
        self.close_block()
        return ContextBlock(**values)

    def parse_hazard(self, _keyword: int) -> Hazard:
        ident = self.expect(IDENT, "a hazard identifier")
        hazard_id = self.declare(ident)
        self.take("category", "=")
        primary = self.category()
        secondary: frozenset = frozenset()
        if self.at("also"):
            self.advance()
            secondary = self.assigned_list(self.category)
        self.open_block("hazard", hazard_id)
        description = self.assigned_string(self.take("description"))
        self.close_block()
        return self.build(
            Hazard,
            ident,
            id=hazard_id,
            description=description,
            primary_category=primary,
            secondary_categories=secondary,
        )

    def parse_methodology(self, _keyword: int) -> Methodology:
        ident = self.expect(IDENT, "a methodology identifier")
        methodology_id = self.declare(ident)
        self.open_block("methodology", methodology_id)
        body = self.block_body(_METHODOLOGY_ENTRIES)
        if "name" not in body:
            raise self._fatal(f"methodology {methodology_id} must state a name", ident)
        return self.build(
            Methodology,
            ident,
            id=methodology_id,
            name=body["name"],
            hazard_categories=body.get("category", frozenset()),
            region=body.get("region"),
        )

    def parse_region(self, keyword: int) -> AcSpaceRegion:
        self.open_block("region block")
        body = self.block_body(_REGION_ENTRIES)
        missing = [dim for dim in DIMENSION_NAMES if dim not in body]
        if missing:
            raise self._fatal(
                f"region is missing dimension(s): {', '.join(missing)}", keyword
            )
        dimensions = {attribute: body[dim] for dim, attribute, _ in SPACE_DIMENSIONS}
        weak = set()
        for level, token in body.get("weak", ()):
            if level not in body["severity"]:
                raise self._fatal(
                    f"weak({level.name}) lies outside the region's severity range",
                    token,
                )
            weak.add(level)
        return self.build(AcSpaceRegion, keyword, weak_severities=weak, **dimensions)

    def severity_range(self, _keyword: int) -> frozenset[SeverityLevel]:
        self.take("=")
        low, _ = self.severity()
        self.take("..")
        high, high_token = self.severity()
        if high < low:
            raise self._fatal(
                f"severity range {low.name}..{high.name} is reversed", high_token
            )
        return self.shared(level for level in SeverityLevel if low <= level <= high)

    def categories(self, _keyword: int) -> frozenset:
        return self.assigned_list(self.category)

    def region_dimension(self, keyword: int) -> frozenset:
        return self.assigned_list(self.enum_value, *_DIMENSION_VALUES[self.words[keyword]])

    def weak_level(self, _keyword: int) -> tuple[SeverityLevel, int]:
        self.take("(")
        weak = self.severity()
        self.take(")")
        return weak

    def parse_indicator(self, _keyword: int) -> Indicator:
        ident = self.expect(IDENT, "an indicator identifier")
        indicator_id = self.declare(ident)
        self.take("stage", "=")
        stage = self.enum_value(STAGE_NAMES, "causal stage")
        self.open_block("indicator", indicator_id)
        description = self.assigned_string(self.take("description"))
        self.close_block()
        return Indicator(id=indicator_id, description=description, causal_stage=stage)

    def parse_criterion(self, _keyword: int) -> AcceptanceCriterion:
        ident = self.expect(IDENT, "a criterion identifier")
        criterion_id = self.declare(ident)
        self.take("hazard")
        hazard_ids = self.assigned_ids(criterion_id, "hazard_ids")
        self.take("methodology", "=")
        methodology_id = self.reference(
            criterion_id, "methodology_id", "a methodology identifier"
        )
        self.take("aggregation", "=")
        aggregation = self.enum_value(DIMENSION_NAMES["aggregation"], "aggregation level")
        self.open_block("criterion", criterion_id)
        body = self.block_body(_CRITERION_ENTRIES, criterion_id)
        if "statement" not in body:
            raise self._fatal(f"criterion {criterion_id} must state a statement", ident)
        return self.build(
            AcceptanceCriterion,
            ident,
            id=criterion_id,
            statement=body["statement"],
            hazard_ids=hazard_ids,
            methodology_id=methodology_id,
            aggregation=aggregation,
            indicator_ids=body.get("indicator", frozenset()),
            region=body.get("region"),
            target=body.get("target"),
        )

    def parse_target(self, _keyword: int) -> ValidationTarget:
        kind_token = self.expect(IDENT, "'rate_bound' or 'qualitative'")
        kind = self.words[kind_token]
        if kind == "qualitative":
            self.take("(")
            description = self.string("a description")
            self.take(")")
            return ValidationTarget(kind=TargetKind.QUALITATIVE, description=description)
        if kind != "rate_bound":
            raise self._fatal(
                f"unknown target kind {kind!r}; expected rate_bound or qualitative",
                kind_token,
            )
        self.take("(", "events", "=")
        events_token = self.expect(STRING, "an event definition")
        self.take(",", "max", "=")
        max_token = self.expect(NUMBER, "a maximum rate")
        self.take(",", "per", "=")
        unit_token = self.expect(STRING, "an exposure unit")
        self.take(",", "confidence", "=")
        confidence_token = self.expect(NUMBER, "a confidence level")
        self.take(")")
        field_tokens = {
            "event_definition": events_token,
            "max_rate": max_token,
            "exposure_unit": unit_token,
            "confidence": confidence_token,
        }
        return self.build(
            ValidationTarget,
            confidence_token,
            field_tokens,
            kind=TargetKind.RATE_BOUND,
            event_definition=_unquote(self.words[events_token]),
            max_rate=float(self.words[max_token]),
            exposure_unit=_unquote(self.words[unit_token]),
            confidence=float(self.words[confidence_token]),
        )

    def parse_evidence(self, _keyword: int) -> Evidence:
        ident = self.expect(IDENT, "an evidence identifier")
        evidence_id = self.declare(ident)
        self.take("methodology", "=")
        methodology_id = self.reference(
            evidence_id, "methodology_id", "a methodology identifier"
        )
        self.take("strength", "=")
        strength_token = self.expect(IDENT, "'strong' or 'weak'")
        strength = self.words[strength_token]
        if strength not in ("strong", "weak"):
            raise self._fatal(
                f"strength must be strong or weak, got {strength!r}", strength_token
            )
        self.open_block("evidence", evidence_id)
        body = self.block_body(_EVIDENCE_ENTRIES)
        if "kind" not in body or "uri" not in body:
            raise self._fatal(
                f"evidence {evidence_id} must state both kind and uri", ident
            )
        return Evidence(
            id=evidence_id,
            methodology_id=methodology_id,
            kind=body["kind"],
            uri=body["uri"],
            strength=EvidenceStrength(strength),
        )

    def parse_claim(self, _keyword: int) -> ClaimNode:
        ident = self.expect(IDENT, "a claim identifier")
        claim_id = self.declare(ident)
        self.take("criterion", "=")
        criterion_id = self.reference(claim_id, "criterion_id", "a criterion identifier")
        return self.claim_node(
            ident, claim_id, 1, ClaimKind.TOP_CLAIM, claim_id, "", criterion_id, "claim", claim_id
        )

    def claim_node(self, token, key, depth, kind, node_id, facet_label, criterion_id, *description):
        """Read the body of the claim node keyed `key`, `depth` levels down
        (a top claim's is 1), and build the `ClaimNode` from its header
        fields; a `ModelError` is a fatal at `token`.  `description` names
        the body in a fatal at the end of the document."""
        if depth > MAX_CLAIM_DEPTH:
            raise self._fatal(
                f"claim nesting exceeds the depth limit of {MAX_CLAIM_DEPTH}", self.pos
            )
        self.open_block(*description)
        children: list[ClaimNode] = []
        rows: list[ArgumentRow] = []
        row_labels: dict[str, int] = {}
        while not self.at("}"):
            if self.words[self.pos] in _SUBCLAIM_KINDS:
                children.append(self.parse_subclaim(key, len(children) + 1, depth + 1))
            elif self.at("argument"):
                rows.append(self.parse_row(key, row_labels))
            else:
                expected = ", ".join((*_SUBCLAIM_KINDS, "argument"))
                raise self.unknown_keyword(" in claim body", f"one of: {expected}")
        self.close_block()
        return self.build(
            ClaimNode,
            token,
            kind=kind,
            id=node_id,
            criterion_id=criterion_id,
            facet_label=facet_label,
            children=children,
            rows=rows,
        )

    def parse_subclaim(self, parent_key: str, ordinal: int, depth: int) -> ClaimNode:
        keyword = self.advance()
        word = self.words[keyword]
        kind = _SUBCLAIM_KINDS[word]
        facet_label = self.string("a facet label") if kind is ClaimKind.FACET else ""
        node_id = self.words[self.pos]
        if self.kind_of[node_id] != IDENT:
            node_id = ""
        # An anonymous node is declared under its derived key, at its keyword.
        token = self.advance() if node_id else keyword
        key = self.declare(token, node_key(parent_key, ordinal, node_id))
        return self.claim_node(
            keyword, key, depth, kind, node_id, facet_label, "", word, "subclaim", node_id
        )

    def parse_row(self, parent_key: str, row_labels: dict[str, int]) -> ArgumentRow:
        keyword = self.take("argument")
        label_token = self.expect(IDENT, "an argument label")
        label = self.words[label_token]
        key = self.declare(keyword, row_key(parent_key, label, row_labels))
        self.open_block("argument", label)
        body = self.block_body(_ROW_ENTRIES, key)
        if "text" not in body:
            raise self._fatal(f"argument {label} must state its text", label_token)
        return self.build(
            ArgumentRow,
            label_token,
            label=label,
            argument=body["text"],
            evidence_ids=body.get("evidence", frozenset()),
            limitations=body.get("limitations", ""),
            counter_argument=body.get("counter", ""),
        )


def _entry_table(block: str, entries: dict, expected: str = "") -> tuple[str, str, dict]:
    """The table that `_Parser.block_body` reads a block kind by: where the
    block is and what it expects (by default its keywords), for an unknown
    keyword's message, then `entries`.  They map each keyword that may
    start an entry to `(read, twice)`.  `read` is the name of a reference
    field for `= id, id, ...` (referred to from the referrer `block_body`
    is given), or a `_Parser` method that reads the rest of the entry from
    its keyword token, such as `assigned_string` for `= "..."`.  `twice` is the fatal
    message for a second entry with that keyword, or None where entries
    may repeat.  Built once, at import, so a block makes no reader."""
    if not expected:
        *most, last = entries
        expected = f"{', '.join(most)}{',' if len(most) > 1 else ''} or {last}"
    return block, expected, entries


_DOCUMENT_ENTRIES = _entry_table(
    "",
    {
        "context": (_Parser.parse_context, "context is declared twice"),
        **{keyword: (getattr(_Parser, f"parse_{keyword}"), None) for keyword, _ in ELEMENTS},
    },
    "one of: " + ", ".join(["context", *(keyword for keyword, _ in ELEMENTS)]),
)
_METHODOLOGY_ENTRIES = _entry_table(
    " in methodology block",
    {
        "name": (_Parser.assigned_string, "name is set twice"),
        "category": (_Parser.categories, "category is set twice"),
        "region": (_Parser.parse_region, "region is declared twice"),
    },
)
_REGION_ENTRIES = _entry_table(
    " in region block",
    {
        **{dim: (_Parser.region_dimension, f"{dim} is set twice") for dim in DIMENSION_NAMES},
        "severity": (_Parser.severity_range, "severity is set twice"),
        "weak": (_Parser.weak_level, None),
    },
    "severity, role, capability, status, aggregation, or weak(...)",
)
_CRITERION_ENTRIES = _entry_table(
    " in criterion block",
    {
        "statement": (_Parser.assigned_string, "statement is set twice"),
        "target": (_Parser.parse_target, "target is declared twice"),
        "region": (_Parser.parse_region, "region is declared twice"),
        "indicator": ("indicator_ids", "indicator list is set twice"),
    },
)
_EVIDENCE_ENTRIES = _entry_table(
    " in evidence block",
    {
        "kind": (_Parser.assigned_string, "kind is set twice"),
        "uri": (_Parser.assigned_string, "uri is set twice"),
    },
)
_ROW_ENTRIES = _entry_table(
    " in argument block",
    {
        "text": (_Parser.assigned_string, "text is set twice"),
        "evidence": ("evidence_ids", "evidence list is set twice"),
        "limitations": (_Parser.assigned_string, "limitations is set twice"),
        "counter": (_Parser.assigned_string, "counter is set twice"),
    },
)


def parse(text: str | bytes, file_name: str = "<input>") -> ParseResult:
    """Parse one document; never raises on malformed input.

    A fatal problem (syntax error, unknown keyword, duplicate identifier,
    invalid structure) yields no case and exactly one diagnostic pointing
    at the offending source.  Dangling references yield the case plus one
    E009 diagnostic per unresolved reference, spanned at the reference.
    One leading byte order mark, in `text` or its UTF-8 bytes, is dropped.
    Bytes that are not UTF-8 are a fatal at the first bad byte.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            before = text[: exc.start].decode("utf-8").removeprefix("\ufeff")
            diagnostic = _syntax_error(
                f"document is not valid UTF-8: {exc.reason} at byte {exc.start}",
                _Source(before, file_name).span(len(before), len(before)),
            )
            return ParseResult(case=None, diagnostics=(diagnostic,))
    text = text.removeprefix("\ufeff")  # a byte order mark; positions count after it
    try:
        parser = _Parser(_lex(text, file_name))
        case = parser.parse_document()
    except _Fatal as fatal:
        return ParseResult(case=None, diagnostics=(fatal.diagnostic,))
    except RecursionError:  # pragma: no cover - the depth guard fires first
        diagnostic = _syntax_error(
            "document nests too deeply to parse", SourceSpan(file_name, 1, 1, 1, 1)
        )
        return ParseResult(case=None, diagnostics=(diagnostic,))

    span_index = _Spans(parser.span_index, parser.source)
    reference_spans = _Spans(parser.ref_spans, parser.source)
    diagnostics = dangling_references(
        resolve_references(case), Severity.ERROR, reference_spans, span_index
    )
    diagnostics.sort(key=Diagnostic.sort_key)
    return ParseResult(
        case=case,
        diagnostics=diagnostics,
        span_index=span_index,
        reference_spans=reference_spans,
    )


# -- canonical serialization -------------------------------------------------


def _quote(value: str) -> str:
    # Most values hold nothing to escape, and five scans in C cost less
    # than copying each value through `translate`.
    if "\\" in value or '"' in value or "\n" in value or "\t" in value or "\r" in value:
        value = value.translate(_ESCAPE_OUT)
    return f'"{value}"'


def _format_number(value: float) -> str:
    return repr(float(value))


def _names(members, table: dict) -> str:
    """`members` as a comma list of their names, in the name table's order."""
    return ", ".join(name for name, member in table.items() if member in members)


def _block(header: str, *body: str) -> list[str]:
    """`header {`, the `body` lines one level in, and `}`."""
    return [f"{header} {{", *[f"  {line}" for line in body], "}"]


def _context(context: ContextBlock) -> list[str]:
    values = [(name, getattr(context, name)) for name in ContextBlock.FIELDS]
    return _block("context", *[f"{name} = {_quote(value)}" for name, value in values if value])


def _hazard(hazard: Hazard) -> list[str]:
    header = f"hazard {hazard.id} category = {hazard.primary_category.value}"
    if hazard.secondary_categories:
        header += f" also = {_names(hazard.secondary_categories, CATEGORY_NAMES)}"
    return _block(header, f"description = {_quote(hazard.description)}")


def _methodology(methodology: Methodology) -> list[str]:
    body = [f"name = {_quote(methodology.name)}"]
    if methodology.hazard_categories:
        body.append(f"category = {_names(methodology.hazard_categories, CATEGORY_NAMES)}")
    if methodology.region is not None:
        body += _region(methodology.region)
    return _block(f"methodology {methodology.id}", *body)


def _region(region: AcSpaceRegion) -> list[str]:
    levels = region.severities
    return _block(
        "region",
        f"severity = {min(levels).name}..{max(levels).name}",
        # Severity, first, is written as a range; the rest as name lists.
        *[
            f"{dim} = {_names(getattr(region, attribute), DIMENSION_NAMES[dim])}"
            for dim, attribute, _ in SPACE_DIMENSIONS[1:]
        ],
        *[f"weak({level.name})" for level in sorted(region.weak_severities)],
    )


def _indicator(indicator: Indicator) -> list[str]:
    return _block(
        f"indicator {indicator.id} stage = {indicator.causal_stage.name.lower()}",
        f"description = {_quote(indicator.description)}",
    )


def _criterion(criterion: AcceptanceCriterion) -> list[str]:
    header = (
        f"criterion {criterion.id} "
        f"hazard = {', '.join(sorted(criterion.hazard_ids))} "
        f"methodology = {criterion.methodology_id} "
        f"aggregation = {criterion.aggregation.value}"
    )
    body = [f"statement = {_quote(criterion.statement)}"]
    if criterion.target is not None:
        body.append(_target(criterion.target))
    if criterion.region is not None:
        body += _region(criterion.region)
    if criterion.indicator_ids:
        body.append(f"indicator = {', '.join(sorted(criterion.indicator_ids))}")
    return _block(header, *body)


def _target(target: ValidationTarget) -> str:
    if target.kind is TargetKind.QUALITATIVE:
        return f"target qualitative({_quote(target.description)})"
    return (
        "target rate_bound("
        f"events = {_quote(target.event_definition)}, "
        f"max = {_format_number(target.max_rate)}, "
        f"per = {_quote(target.exposure_unit)}, "
        f"confidence = {_format_number(target.confidence)})"
    )


def _evidence(item: Evidence) -> list[str]:
    return _block(
        f"evidence {item.id} methodology = {item.methodology_id} "
        f"strength = {item.strength.value}",
        f"kind = {_quote(item.kind)}",
        f"uri = {_quote(item.uri)}",
    )


def _claim(node: ClaimNode, lines: list[str], indent: str) -> None:
    """Append the block of `node` to `lines`, each line at its final
    `indent`, so no line of a deep tree is copied once per level."""
    if node.kind is ClaimKind.TOP_CLAIM:
        header = f"claim {node.id} criterion = {node.criterion_id}"
    else:
        if node.kind is ClaimKind.FACET:
            header = f"facet {_quote(node.facet_label)}"
        else:
            header = node.kind.value
        if node.id:
            header += f" {node.id}"
    lines.append(f"{indent}{header} {{")
    inner = indent + "  "
    for child in node.children:
        _claim(child, lines, inner)
    for row in node.rows:
        _row(row, lines, inner)
    lines.append(f"{indent}}}")


def _row(row: ArgumentRow, lines: list[str], indent: str) -> None:
    inner = indent + "  "
    lines.append(f"{indent}argument {row.label} {{")
    lines.append(f"{inner}text = {_quote(row.argument)}")
    if row.evidence_ids:
        lines.append(f"{inner}evidence = {', '.join(sorted(row.evidence_ids))}")
    if row.limitations:
        lines.append(f"{inner}limitations = {_quote(row.limitations)}")
    if row.counter_argument:
        lines.append(f"{inner}counter = {_quote(row.counter_argument)}")
    lines.append(f"{indent}}}")


def serialize(case: SafetyCase) -> str:
    """Render a case in canonical form: stable field order, two-space
    indentation, top-level elements ordered by identifier.

    Requires a reference-resolved case; raises `UnresolvedCaseError`
    otherwise.
    """
    return "\n".join(_canonical_lines(case))


def _canonical_lines(case: SafetyCase) -> Iterator[str]:
    """The lines of `serialize(case)`, which joins them with '\\n'; the
    last one ends with it.  They are built a block at a time as they are
    pulled, so a writer can join and write a slice at a time, and never
    hold the whole text or all of its lines."""
    require_resolved(case)
    blocks = chain(
        [_context(case.context)],
        map(_hazard, case.hazards),
        map(_methodology, case.methodologies),
        map(_indicator, case.indicators),
        map(_criterion, case.criteria),
        map(_evidence, case.evidence),
    )
    yield f"safety_case {_quote(case.id)} {{"
    for index, block in enumerate(blocks):
        if index:
            yield ""
        yield from [f"  {line}" for line in block]
    for root in case.claims:  # after the context block, always written
        lines = [""]
        _claim(root, lines, "  ")
        yield from lines
    yield "}\n"
