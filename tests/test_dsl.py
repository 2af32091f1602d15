from __future__ import annotations

import importlib.util
import math
import random
import shutil
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from aurcase import dsl
from aurcase.coverage import Signal, coverage_map, region_cells
from aurcase.diagnostics import Diagnostic, Severity, SourceSpan
from aurcase.dsl import (
    _ESCAPE_OUT,
    ParseResult,
    _canonical_lines,
    _Fatal,
    _lex,
    _quote,
    _unquote,
    parse,
    serialize,
)
from aurcase.model import (
    ELEMENTS,
    SPACE_DIMENSIONS,
    AcSpaceRegion,
    ContextBlock,
    ModelError,
    SafetyCase,
    SeverityLevel,
    iter_claim_nodes,
    iter_rows,
)
from aurcase.rules import validate

from conftest import FIXTURES
from strategies import (
    fuzz_texts,
    golden_char_edits,
    golden_line_edits,
    safety_cases,
    varied_claims,
)

MINIMAL = """
safety_case "minimal" {
  context { use_case = "pilot" }
  hazard H1 category = behavioral { description = "collision" }
  methodology M1 { name = "campaign" category = behavioral }
  criterion AC1 hazard = H1 methodology = M1 aggregation = event_level {
    statement = "every event dispositioned"
  }
  evidence E1 methodology = M1 strength = strong { kind = "minutes" uri = "internal://x" }
  claim C1 criterion = AC1 {
    argument A.1 { text = "it holds" evidence = E1 }
  }
}
"""


def slice_at(text: str, span) -> str:
    lines = text.splitlines()
    if span.start_line == span.end_line:
        return lines[span.start_line - 1][span.start_col - 1 : span.end_col - 1]
    return lines[span.start_line - 1][span.start_col - 1 :]


def test_minimal_document_parses_clean():
    result = parse(MINIMAL, "minimal.aur")
    assert not result.fatal
    assert result.diagnostics == ()
    assert len(result.case.criteria) == 1
    assert result.case.id == "minimal"


def test_dangling_hazard_reference_spans_the_reference():
    text = MINIMAL.replace("hazard = H1", "hazard = H9")
    result = parse(text, "case.aur")
    assert not result.fatal
    # One finding: AC1 -> H9. (H1 being untraced is the validator's E007.)
    codes = [d.rule_id for d in result.diagnostics]
    assert codes == ["E009"]
    dangling = result.diagnostics[0]
    assert dangling.subject_id == "AC1"
    assert slice_at(text, dangling.span) == "H9"


def test_dangling_reference_examples_match_resolve_findings():
    text = MINIMAL.replace("evidence = E1", "evidence = E7")
    result = parse(text, "case.aur")
    assert not result.fatal
    (diagnostic,) = [d for d in result.diagnostics if "E7" in d.message]
    assert diagnostic.rule_id == "E009"
    assert diagnostic.subject_id == "C1.A.1"
    assert slice_at(text, diagnostic.span) == "E7"


def test_truncated_document_names_the_open_block():
    text = MINIMAL.rstrip()[:-1]
    result = parse(text, "case.aur")
    assert result.fatal
    (diagnostic,) = result.diagnostics
    assert diagnostic.rule_id == "E013"
    assert "expected '}'" in diagnostic.message
    assert "safety_case 'minimal'" in diagnostic.message
    assert "opened at 2:23" in diagnostic.message  # the '{' that is never closed
    assert "end of document" in diagnostic.message


@pytest.mark.parametrize(
    "opener, description",
    [
        ("satisfaction S1 {", "satisfaction subclaim S1"),
        ("confidence_assessment {", "confidence_assessment subclaim"),
        ('facet "scoring" F1 {', "facet subclaim F1"),
    ],
)
def test_a_document_that_ends_in_a_subclaim_names_it_by_its_keyword(opener, description):
    text = MINIMAL[: MINIMAL.index("    argument A.1")] + f"    {opener}\n"
    result = parse(text, "case.aur")
    (diagnostic,) = result.diagnostics
    assert diagnostic.message == (
        f"expected '}}' to close {description} opened at 11:{4 + len(opener)}, "
        "found end of document"
    )
    got = diagnostic.span
    assert (got.start_line, got.start_col, got.end_line, got.end_col) == (12, 1, 12, 1)


def test_unknown_keyword_is_fatal_with_span():
    text = MINIMAL.replace("hazard H1", "hazzard H1")
    result = parse(text, "case.aur")
    assert result.fatal
    (diagnostic,) = result.diagnostics
    assert diagnostic.rule_id == "E013"
    assert "hazzard" in diagnostic.message
    assert slice_at(text, diagnostic.span) == "hazzard"


def test_duplicate_identifier_is_fatal_e010():
    text = MINIMAL.replace(
        'evidence E1 methodology = M1 strength = strong { kind = "minutes" uri = "internal://x" }',
        'evidence E1 methodology = M1 strength = strong { kind = "minutes" uri = "internal://x" }\n'
        '  evidence E1 methodology = M1 strength = weak { kind = "dup" uri = "internal://y" }',
    )
    result = parse(text, "case.aur")
    assert result.fatal
    (diagnostic,) = result.diagnostics
    assert diagnostic.rule_id == "E010"
    assert "E1" in diagnostic.message
    assert "first declared at" in diagnostic.message
    assert slice_at(text, diagnostic.span) == "E1"


# C2's first child, an anonymous reasonableness subclaim, is keyed C2.1 and
# its second, an anonymous satisfaction subclaim, C2.2.
_C2_ROW_TAIL = '        limitations = "Review throughput bounds'
_C2_SATISFACTION = "    satisfaction {\n      coverage_assessment {"


@pytest.mark.parametrize(
    "edits, message, position, token",
    [
        pytest.param(
            [
                # The complete row D.1 under C2.1 must not take the key, and
                # so the diagnostics, of the incomplete row D.1 under C2's
                # anonymous first child.
                ("        evidence = E3\n" + _C2_ROW_TAIL, _C2_ROW_TAIL),
                (
                    _C2_SATISFACTION,
                    "    satisfaction C2.1 {\n"
                    '      argument D.1 { text = "complete" evidence = E3 }\n'
                    "      coverage_assessment {",
                ),
            ],
            "duplicate identifier 'C2.1'; first declared at 161:5",
            (168, 18),
            "C2.1",
            id="explicit-id-after-derived-key",
        ),
        pytest.param(
            [
                (
                    "  hazard H1 ",
                    '  hazard C2.2 category = behavioral { description = "x" }\n  hazard H1 ',
                )
            ],
            "duplicate identifier 'C2.2'; first declared at 12:10",
            (170, 5),
            "satisfaction",
            id="derived-key-after-hazard",
        ),
    ],
)
def test_claim_keys_share_the_identifier_namespace(
    golden_cat_text, edits, message, position, token
):
    text = golden_cat_text
    for old, new in edits:
        assert text.count(old) == 1
        text = text.replace(old, new)
    result = parse(text, "case.aur")
    assert result.fatal
    (diagnostic,) = result.diagnostics
    assert (diagnostic.rule_id, diagnostic.message) == ("E010", message)
    assert (diagnostic.span.start_line, diagnostic.span.start_col) == position
    assert slice_at(text, diagnostic.span) == token


def test_unknown_context_field_rejected():
    text = MINIMAL.replace('use_case = "pilot"', 'usecase = "pilot"')
    result = parse(text, "case.aur")
    assert result.fatal
    assert "unknown context field" in result.diagnostics[0].message


def test_unknown_keys_are_errors_not_ignored():
    text = MINIMAL.replace(
        'statement = "every event dispositioned"',
        'statement = "every event dispositioned"\n    note = "silently dropped?"',
    )
    result = parse(text, "case.aur")
    assert result.fatal
    assert "unknown keyword 'note'" in result.diagnostics[0].message


# Every block entry on a line of its own; the comments make each anchor line
# below unique.
FULL = """safety_case "blocks" {
  context { use_case = "pilot" }
  hazard H1 category = behavioral { description = "collision" }
  methodology M1 {
    name = "campaign"
    category = behavioral
    region {
      severity = S0..S1
      role = responder
      capability = collision_avoidance
      status = nominal
      aggregation = event_level
      weak(S1)
    } # M1 region
  }
  indicator I1 stage = harm { description = "injuries" }
  criterion AC1 hazard = H1 methodology = M1 aggregation = event_level {
    statement = "every event dispositioned"
    target qualitative("board review")
    region { severity = S0..S3 role = responder capability = collision_avoidance status = nominal aggregation = event_level }
    indicator = I1
  }
  evidence E1 methodology = M1 strength = strong {
    kind = "minutes"
    uri = "internal://x"
  }
  claim C1 criterion = AC1 {
    argument A.1 {
      text = "it holds"
      evidence = E1
      limitations = "urban only"
      counter = "none recorded"
    }
  }
}
"""
_AC1_REGION = (
    "region { severity = S0..S3 role = responder capability = collision_avoidance "
    "status = nominal aggregation = event_level }"
)

# (line the entry follows, the entry, the fatal message); the message must
# point at the entry's first token.
BLOCK_ENTRY_FATALS = [
    ('    name = "campaign"', 'name = "again"', "name is set twice"),
    ("    category = behavioral", "category = behavioral", "category is set twice"),
    ("    } # M1 region", _AC1_REGION, "region is declared twice"),
    (
        "    category = behavioral",
        "nickname = behavioral",
        "unknown keyword 'nickname' in methodology block; expected name, category, or "
        "region",
    ),
    ("      severity = S0..S1", "severity = S0..S0", "severity is set twice"),
    ("      role = responder", "role = initiator", "role is set twice"),
    (
        "      capability = collision_avoidance",
        "capability = collision_avoidance",
        "capability is set twice",
    ),
    ("      status = nominal", "status = nominal", "status is set twice"),
    ("      aggregation = event_level", "aggregation = event_level", "aggregation is set twice"),
    (
        "      weak(S1)",
        "strong(S1)",
        "unknown keyword 'strong' in region block; expected severity, role, capability, "
        "status, aggregation, or weak(...)",
    ),
    ('    statement = "every event dispositioned"', 'statement = "x"', "statement is set twice"),
    ('    target qualitative("board review")', 'target qualitative("y")', "target is declared twice"),
    (f"    {_AC1_REGION}", _AC1_REGION, "region is declared twice"),
    ("    indicator = I1", "indicator = I1", "indicator list is set twice"),
    (
        "    indicator = I1",
        'note = "x"',
        "unknown keyword 'note' in criterion block; expected statement, target, region, "
        "or indicator",
    ),
    ('    kind = "minutes"', 'kind = "log"', "kind is set twice"),
    ('    uri = "internal://x"', 'uri = "internal://y"', "uri is set twice"),
    (
        '    uri = "internal://x"',
        "strength = weak",
        "unknown keyword 'strength' in evidence block; expected kind or uri",
    ),
    ('      text = "it holds"', 'text = "again"', "text is set twice"),
    ("      evidence = E1", "evidence = E1", "evidence list is set twice"),
    ('      limitations = "urban only"', 'limitations = "x"', "limitations is set twice"),
    ('      counter = "none recorded"', 'counter = "x"', "counter is set twice"),
    (
        '      counter = "none recorded"',
        'rebuttal = "x"',
        "unknown keyword 'rebuttal' in argument block; expected text, evidence, "
        "limitations, or counter",
    ),
]


@pytest.mark.parametrize(
    "anchor, entry, message",
    BLOCK_ENTRY_FATALS,
    ids=[f"{i}-{entry.split()[0]}" for i, (_, entry, _) in enumerate(BLOCK_ENTRY_FATALS)],
)
def test_block_entry_fatals_name_the_entry(anchor, entry, message):
    lines = FULL.split("\n")
    at = lines.index(anchor) + 1
    indent = len(anchor) - len(anchor.lstrip())
    lines.insert(at, " " * indent + entry)
    text = "\n".join(lines)
    result = parse(text, "blocks.aur")
    assert result.fatal
    (diagnostic,) = result.diagnostics
    assert diagnostic.rule_id == "E013"
    assert diagnostic.message == message
    keyword = entry.split()[0].split("(")[0]
    assert (diagnostic.span.start_line, diagnostic.span.start_col) == (at + 1, indent + 1)
    assert slice_at(text, diagnostic.span) == keyword


# (text of `FULL` to replace, its replacement, the fatal message, the token
# the message points at: its first occurrence in the edited document).
VALUE_FATALS = [
    (
        "hazard H1 category = behavioral {",
        "hazard H1 category = behavioural {",
        "unknown hazard category 'behavioural'; expected one of: architectural, "
        "behavioral, in_service_operational",
        "behavioural",
    ),
    (
        "stage = harm",
        "stage = injury",
        "unknown causal stage 'injury'; expected one of: harm, hazard, "
        "hazardous_behavior, hazardous_event, triggering_condition",
        "injury",
    ),
    (
        "severity = S0..S1",
        "severity = S0..S9",
        "unknown severity level 'S9'; expected one of: S0, S1, S2, S3",
        "S9",
    ),
    (
        "      role = responder\n",
        "      role = bystander\n",
        "unknown role value 'bystander'; expected one of: initiator, responder",
        "bystander",
    ),
    (
        "      aggregation = event_level\n",
        "      aggregation = 7\n",
        "expected an aggregation value, found '7'",
        "7",
    ),
    (
        "methodology = M1 aggregation = event_level {",
        "methodology = M1 aggregation = eventual {",
        "unknown aggregation level 'eventual'; expected one of: aggregate_level, event_level",
        "eventual",
    ),
    (
        "hazard H1 category = behavioral {",
        "hazard H1 category = behavioral also = behavioral {",
        "hazard H1: primary category repeated in secondary categories",
        "H1",
    ),
    ('    name = "campaign"\n', "", "methodology M1 must state a name", "M1"),
    (
        '    statement = "every event dispositioned"\n',
        "",
        "criterion AC1 must state a statement",
        "AC1",
    ),
    ('    kind = "minutes"\n', "", "evidence E1 must state both kind and uri", "E1"),
    ('    uri = "internal://x"\n', "", "evidence E1 must state both kind and uri", "E1"),
    ('      text = "it holds"\n', "", "argument A.1 must state its text", "A.1"),
    (
        "methodology = M1 aggregation = event_level {",
        "methodology = M1 aggregation = aggregate_level {",
        "criterion AC1: aggregation level aggregate_level is outside the criterion's "
        "own region",
        "AC1",
    ),
    (
        'target qualitative("board review")',
        'target quantitative("board review")',
        "unknown target kind 'quantitative'; expected rate_bound or qualitative",
        "quantitative",
    ),
    (
        "strength = strong {",
        "strength = solid {",
        "strength must be strong or weak, got 'solid'",
        "solid",
    ),
    ('text = "it holds"', 'text = ""', "argument row A.1: text must be non-empty", "A.1"),
]


@pytest.mark.parametrize(
    "anchor, replacement, message, token",
    VALUE_FATALS,
    ids=[f"{i}-{token}" for i, (*_, token) in enumerate(VALUE_FATALS)],
)
def test_value_fatals_point_at_the_value_or_the_element(anchor, replacement, message, token):
    assert FULL.count(anchor) == 1
    text = FULL.replace(anchor, replacement)
    result = parse(text, "values.aur")
    assert result.fatal
    (diagnostic,) = result.diagnostics
    assert diagnostic.rule_id == "E013"
    assert diagnostic.message == message
    start = text.index(token)
    line, column = text.count("\n", 0, start) + 1, start - text.rfind("\n", 0, start)
    assert (diagnostic.span.start_line, diagnostic.span.start_col) == (line, column)
    assert slice_at(text, diagnostic.span) == token


_A1_ENTRIES = (
    '      text = "it holds"\n'
    "      evidence = E1\n"
    '      limitations = "urban only"\n'
    '      counter = "none recorded"\n'
)
_A1_OPEN = "to close argument A.1 opened at 28:18, found end of document"

# (entries that replace argument A.1's, whether the document ends right
# after them, the fatal message, its span as start line and column, end
# line and column).  These reach the checked path behind the string and
# identifier-list entries' inline reads.
ENTRY_FALLBACKS = [
    ('      text "x"\n', False, "expected '=', found '\"x\"'", (29, 12, 29, 15)),
    (
        "      text = x\n",
        False,
        "expected a value for text (a quoted string), found 'x'",
        (29, 14, 29, 15),
    ),
    (
        "      text = 1\n",
        False,
        "expected a value for text (a quoted string), found '1'",
        (29, 14, 29, 15),
    ),
    (
        '      text = "it holds"\n      evidence =\n',
        False,
        "expected an identifier, found '}'",
        (31, 5, 31, 6),
    ),
    (
        '      text = "it holds"\n      evidence = E1,\n',
        False,
        "expected an identifier, found '}'",
        (31, 5, 31, 6),
    ),
    (
        '      text = "it holds"\n      evidence = E1 E2\n',
        False,
        "unknown keyword 'E2' in argument block; expected text, evidence, limitations, "
        "or counter",
        (30, 21, 30, 23),
    ),
    (
        '      text = "it holds"\n      evidence = "E1"\n',
        False,
        "expected an identifier, found '\"E1\"'",
        (30, 18, 30, 22),
    ),
    ("      text", True, f"expected '=' {_A1_OPEN}", (29, 11, 29, 11)),
    ("      text =", True, f"expected a value for text {_A1_OPEN}", (29, 13, 29, 13)),
    (
        '      text = "it holds"\n      evidence =',
        True,
        f"expected an identifier {_A1_OPEN}",
        (30, 17, 30, 17),
    ),
    (
        '      text = "it holds"\n      evidence = E1,',
        True,
        f"expected an identifier {_A1_OPEN}",
        (30, 21, 30, 21),
    ),
]


@pytest.mark.parametrize(
    "entries, cut, message, span",
    ENTRY_FALLBACKS,
    ids=[f"{i}-{'cut' if cut else 'ok'}" for i, (_, cut, *_) in enumerate(ENTRY_FALLBACKS)],
)
def test_malformed_entries_keep_their_messages_and_positions(entries, cut, message, span):
    assert FULL.count(_A1_ENTRIES) == 1
    text = FULL.replace(_A1_ENTRIES, entries)
    if cut:
        text = text[: text.index(entries) + len(entries)]
    result = parse(text, "entries.aur")
    assert result.fatal
    (diagnostic,) = result.diagnostics
    assert diagnostic.rule_id == "E013"
    assert diagnostic.message == message
    got = diagnostic.span
    assert (got.start_line, got.start_col, got.end_line, got.end_col) == span


# (text of `FULL` to replace, its replacement, whether the document ends
# right after the replacement, the fatal message, its span as start line
# and column, end line and column).  The parser checks these tokens in
# place; each malformed one reaches the general helper that raises.
IN_PLACE_FALLBACKS = [
    # A keyword or punctuation that `take` reads alone.
    (
        '{ description = "collision" }',
        '{ desc = "collision" }',
        False,
        "expected 'description', found 'desc'",
        (3, 37, 3, 41),
    ),
    ("      weak(S1)", "      weak S1)", False, "expected '(', found 'S1'", (13, 12, 13, 14)),
    (
        "      weak(S1)",
        "      weak(S1",
        True,
        "expected ')' to close region block opened at 7:12, found end of document",
        (13, 14, 13, 14),
    ),
    # A reference.
    (
        "methodology = M1 aggregation",
        'methodology = "M1" aggregation',
        False,
        "expected a methodology identifier, found '\"M1\"'",
        (17, 43, 17, 47),
    ),
    (
        "claim C1 criterion = AC1 {",
        "claim C1 criterion = 1 {",
        False,
        "expected a criterion identifier, found '1'",
        (27, 24, 27, 25),
    ),
    (
        "claim C1 criterion = AC1 {",
        "claim C1 criterion =",
        True,
        "expected a criterion identifier to close safety_case 'blocks' opened at 1:22, "
        "found end of document",
        (27, 23, 27, 23),
    ),
    # An enumeration value, alone or in a region dimension's list.
    (
        "      role = responder",
        '      role = "responder"',
        False,
        "expected a role value, found '\"responder\"'",
        (9, 14, 9, 25),
    ),
    (
        "      role = responder",
        "      role = responder, 3",
        False,
        "expected a role value, found '3'",
        (9, 25, 9, 26),
    ),
    (
        "      capability = collision_avoidance",
        "      capability =",
        True,
        "expected a capability value to close region block opened at 7:12, found end of "
        "document",
        (10, 19, 10, 19),
    ),
    ("stage = harm", "stage = 2", False, "expected a causal stage, found '2'", (16, 24, 16, 25)),
    # An argument label.
    (
        "    argument A.1 {",
        '    argument "A.1" {',
        False,
        "expected an argument label, found '\"A.1\"'",
        (28, 14, 28, 19),
    ),
    (
        "    argument A.1 {",
        "    argument {",
        False,
        "expected an argument label, found '{'",
        (28, 14, 28, 15),
    ),
    (
        "    argument A.1 {",
        "    argument",
        True,
        "expected an argument label to close claim C1 opened at 27:28, found end of document",
        (28, 13, 28, 13),
    ),
    # What starts an entry of a claim body.
    (
        "    argument A.1 {",
        "    argumentt A.1 {",
        False,
        "unknown keyword 'argumentt' in claim body; expected one of: reasonableness, "
        "satisfaction, coverage_assessment, confidence_assessment, facet, argument",
        (28, 5, 28, 14),
    ),
    (
        "    argument A.1 {",
        '    "argument" A.1 {',
        False,
        "unknown keyword '\"argument\"' in claim body; expected one of: reasonableness, "
        "satisfaction, coverage_assessment, confidence_assessment, facet, argument",
        (28, 5, 28, 15),
    ),
    (
        "  claim C1 criterion = AC1 {",
        "  claim C1 criterion = AC1 {",
        True,
        "expected '}' to close claim C1 opened at 27:28, found end of document",
        (27, 29, 27, 29),
    ),
    # A block's braces, and a document that ends inside a block.
    (
        '{ description = "collision" }',
        'description = "collision" }',
        False,
        "expected '{', found 'description'",
        (3, 35, 3, 46),
    ),
    (
        '{ description = "collision" }',
        '{ description = "collision" extra }',
        False,
        "expected '}', found 'extra'",
        (3, 63, 3, 68),
    ),
    (
        "  evidence E1 methodology = M1 strength = strong {",
        "  evidence E1 methodology = M1 strength = strong",
        True,
        "expected '{' to close safety_case 'blocks' opened at 1:22, found end of document",
        (23, 49, 23, 49),
    ),
    (
        "    region {\n      severity = S0..S1",
        "    region {",
        True,
        "expected '}' to close region block opened at 7:12, found end of document",
        (7, 13, 7, 13),
    ),
    (
        '{ description = "collision" }',
        "{",
        True,
        "expected 'description' to close hazard H1 opened at 3:35, found end of document",
        (3, 36, 3, 36),
    ),
    (
        "    argument A.1 {",
        "    argument A.1 {",
        True,
        "expected '}' to close argument A.1 opened at 28:18, found end of document",
        (28, 19, 28, 19),
    ),
]


@pytest.mark.parametrize(
    "anchor, replacement, cut, message, span",
    IN_PLACE_FALLBACKS,
    ids=[f"{i}-{'cut' if cut else 'ok'}" for i, (_, _, cut, *_) in enumerate(IN_PLACE_FALLBACKS)],
)
def test_tokens_checked_in_place_keep_their_fatals(anchor, replacement, cut, message, span):
    assert FULL.count(anchor) == 1
    if cut:
        text = FULL[: FULL.index(anchor)] + replacement
    else:
        text = FULL.replace(anchor, replacement)
    result = parse(text, "in_place.aur")
    assert result.fatal
    (diagnostic,) = result.diagnostics
    assert diagnostic.rule_id == "E013"
    assert diagnostic.message == message
    got = diagnostic.span
    assert (got.start_line, got.start_col, got.end_line, got.end_col) == span


def test_reversed_severity_range_rejected():
    text = MINIMAL.replace(
        'methodology M1 { name = "campaign" category = behavioral }',
        "methodology M1 {\n"
        '    name = "campaign"\n'
        "    category = behavioral\n"
        "    region {\n"
        "      severity = S3..S1\n"
        "      role = responder\n"
        "      capability = collision_avoidance\n"
        "      status = nominal\n"
        "      aggregation = event_level\n"
        "    }\n"
        "  }",
    )
    result = parse(text, "case.aur")
    assert result.fatal
    assert "reversed" in result.diagnostics[0].message


def test_region_missing_dimension_rejected():
    text = MINIMAL.replace(
        'methodology M1 { name = "campaign" category = behavioral }',
        "methodology M1 {\n"
        '    name = "campaign"\n'
        "    category = behavioral\n"
        "    region {\n"
        "      severity = S0..S3\n"
        "      role = responder\n"
        "      capability = collision_avoidance\n"
        "      aggregation = event_level\n"
        "    }\n"
        "  }",
    )
    result = parse(text, "case.aur")
    assert result.fatal
    assert "missing dimension(s): status" in result.diagnostics[0].message


def test_weak_outside_severity_range_rejected():
    text = MINIMAL.replace(
        'methodology M1 { name = "campaign" category = behavioral }',
        "methodology M1 {\n"
        '    name = "campaign"\n'
        "    category = behavioral\n"
        "    region {\n"
        "      severity = S0..S1\n"
        "      role = responder\n"
        "      capability = collision_avoidance\n"
        "      status = nominal\n"
        "      aggregation = event_level\n"
        "      weak(S3)\n"
        "    }\n"
        "  }",
    )
    result = parse(text, "case.aur")
    assert result.fatal
    assert "weak(S3)" in result.diagnostics[0].message


def test_weak_expands_to_the_whole_severity_slice():
    text = """
safety_case "w" {
  context { use_case = "pilot" }
  methodology M1 {
    name = "campaign"
    category = behavioral
    region {
      severity = S0..S1
      role = initiator, responder
      capability = collision_avoidance
      status = nominal
      aggregation = event_level, aggregate_level
      weak(S1)
    }
  }
}
"""
    result = parse(text, "case.aur")
    assert not result.fatal
    region = result.case.methodologies[0].region
    assert region.weak_severities == {SeverityLevel.S1}
    coverage = coverage_map(result.case)
    cells = region_cells(region)
    assert len(cells) == 2 * 2 * 1 * 1 * 2
    for cell in cells:
        weak = cell.severity is SeverityLevel.S1
        assert coverage.signal(cell) is (Signal.WEAK if weak else Signal.STRONG)


def test_string_escapes_round_trip():
    tricky = 'a "quoted" \\ backslash\nnewline\ttab\rcr'
    text = MINIMAL.replace(
        'statement = "every event dispositioned"',
        'statement = "a \\"quoted\\" \\\\ backslash\\nnewline\\ttab\\rcr"',
    )
    result = parse(text, "case.aur")
    assert not result.fatal
    assert result.case.criteria[0].statement == tricky
    again = parse(serialize(result.case), "round.aur")
    assert again.case == result.case


def test_unknown_escape_rejected():
    text = MINIMAL.replace('"pilot"', '"pi\\qlot"')
    result = parse(text, "case.aur")
    assert result.fatal
    assert "escape" in result.diagnostics[0].message


def test_newline_styles_are_equivalent():
    unix = parse(MINIMAL, "a.aur")
    windows = parse(MINIMAL.replace("\n", "\r\n"), "b.aur")
    assert unix.case == windows.case


def test_parse_accepts_bytes_and_rejects_bad_utf8():
    ok = parse(MINIMAL.encode("utf-8"), "ok.aur")
    assert not ok.fatal
    bad = parse(b'safety_case "\xff\xfe" {}', "bad.aur")
    assert bad.fatal
    assert "UTF-8" in bad.diagnostics[0].message


@pytest.mark.parametrize("mark", [b"", "\ufeff".encode("utf-8")], ids=["plain", "marked"])
def test_a_byte_that_is_not_utf8_is_a_fatal_at_its_line_and_column(golden_cat_text, mark):
    """Its column counts code points after any byte order mark, as every
    other position does; the message gives its offset in bytes."""
    lines = golden_cat_text.split("\n")
    before = "\n".join(lines[:12]) + "\n" + lines[12][: lines[12].index('"') + 1] + "éé"
    head = mark + before.encode("utf-8")
    data = head + b"\xe9" + golden_cat_text[len(before) - 2 :].encode("utf-8")
    (diagnostic,) = parse(data, "bad.aur").diagnostics
    col = len(before) - before.rindex("\n")
    assert diagnostic.span == SourceSpan("bad.aur", 13, col, 13, col)
    assert diagnostic.message.endswith(f"at byte {len(head)}")


@pytest.mark.parametrize("encode", [False, True], ids=["str", "bytes"])
def test_one_leading_byte_order_mark_is_dropped(encode):
    """The case, its findings and every span are the plain text's:
    positions count from after the mark."""
    text = MINIMAL.replace("evidence = E1", "evidence = E7")
    plain = parse(text, "case.aur")
    marked = parse(("\ufeff" + text).encode("utf-8") if encode else "\ufeff" + text, "case.aur")
    assert plain.diagnostics and marked.diagnostics == plain.diagnostics
    assert marked.case == plain.case
    assert marked.span_index == plain.span_index
    assert marked.reference_spans == plain.reference_spans


def test_a_second_byte_order_mark_is_an_unexpected_character():
    (diagnostic,) = parse("\ufeff\ufeff" + MINIMAL, "case.aur").diagnostics
    assert diagnostic.message == "unexpected character '\\ufeff'"
    assert diagnostic.span == SourceSpan("case.aur", 1, 1, 1, 2)


def test_comments_are_ignored():
    text = MINIMAL.replace(
        'context { use_case = "pilot" }',
        '# a comment line\n  context { use_case = "pilot" } # trailing',
    )
    result = parse(text, "case.aur")
    assert not result.fatal


# Repeated row labels (keyed `@2`) and anonymous subclaims nested four deep.
_NESTED_ANONYMOUS = MINIMAL.replace(
    '    argument A.1 { text = "it holds" evidence = E1 }',
    """    argument A.1 { text = "it holds" evidence = E1 }
    argument A.1 { text = "it holds again" evidence = E1 }
    reasonableness { argument R { text = "r" evidence = E1 } }
    satisfaction {
      confidence_assessment {
        facet "outer" {
          facet "inner" {
            argument B { text = "b" evidence = E1 }
            argument B { text = "b again" evidence = E1 }
          }
          argument B { text = "outer b" evidence = E1 }
        }
      }
    }""",
)


@pytest.mark.parametrize("name", ["golden_cat.aur", "nested_anonymous.aur"])
def test_span_index_covers_every_element(golden_cat_text, name):
    text = golden_cat_text if name == "golden_cat.aur" else _NESTED_ANONYMOUS
    result = parse(text, name)
    assert result.diagnostics == ()
    case = result.case
    element_ids = {":safety_case", ":context"}
    for _, collection in ELEMENTS[:-1]:
        element_ids.update(element.id for element in getattr(case, collection))
    assert element_ids <= set(result.span_index)
    top_level = element_ids | {f":context.{name}" for name in ContextBlock.FIELDS}
    claim_keys = [key for root in case.claims for _node, key in iter_claim_nodes(root)]
    row_keys = [key for root in case.claims for _row, key, _n, _k in iter_rows(root)]
    assert len(set(claim_keys + row_keys)) == len(claim_keys) + len(row_keys)
    assert set(result.span_index) - top_level == set(claim_keys + row_keys)


@pytest.mark.parametrize("name", ["golden_cat.aur", "nested_anonymous.aur"])
def test_walk_keys_are_the_span_index_keys(golden_cat_text, name):
    """The walk kept on each root holds the parser's key strings, not
    copies: each claim and row key is the span index's own object."""
    text = golden_cat_text if name == "golden_cat.aur" else _NESTED_ANONYMOUS
    result = parse(text, name)
    declared = {key: key for key in result.span_index}
    keys = []
    for root in result.case.claims:
        keys += [key for _node, key in iter_claim_nodes(root)]
        for _row, key, _node, node_key in iter_rows(root):
            keys += [key, node_key]
    assert any(key.count(".") > 1 for key in keys)  # derived keys are among them
    assert [key for key in keys if declared[key] is not key] == []


def test_serialize_requires_resolved_case():
    from aurcase.model import UnresolvedCaseError

    result = parse(MINIMAL.replace("hazard = H1", "hazard = H9"), "case.aur")
    with pytest.raises(UnresolvedCaseError):
        serialize(result.case)


def test_the_canonical_lines_are_built_as_they_are_pulled():
    """`serialize` joins them; `fmt` writes them a slice at a time."""
    from aurcase.model import UnresolvedCaseError

    dangling = parse(MINIMAL.replace("hazard = H1", "hazard = H9"), "case.aur").case
    lines = _canonical_lines(dangling)  # nothing is checked or built yet
    with pytest.raises(UnresolvedCaseError):
        next(lines)
    golden = (FIXTURES / "golden_cat.aur").read_text(encoding="utf-8")
    case = parse(golden, "golden_cat.aur").case
    lines = _canonical_lines(case)
    assert next(lines) == golden.split("\n", 1)[0]
    assert "\n".join(_canonical_lines(case)) == serialize(case) == golden


def test_a_gapped_severity_set_is_refused_when_the_region_is_built(golden_case):
    region = golden_case.methodologies[0].region
    gapped = frozenset({SeverityLevel.S0, SeverityLevel.S2})
    with pytest.raises(ModelError, match="contiguous") as info:
        region.replace(severities=gapped, weak_severities=frozenset())
    assert info.value.field_name == "severities"


@pytest.mark.parametrize("attribute", [attribute for _, attribute, _ in SPACE_DIMENSIONS])
def test_a_region_with_an_empty_dimension_is_refused_when_built(golden_case, attribute):
    region = golden_case.methodologies[0].region
    dim = next(dim for dim, field, _ in SPACE_DIMENSIONS if field == attribute)
    with pytest.raises(ModelError, match=f"region has no {dim} value") as info:
        region.replace(weak_severities=frozenset(), **{attribute: frozenset()})
    assert info.value.field_name == attribute


# Any set of each dimension's values, empty and gapped ones included.
_VALUE_SETS = {
    attribute: st.frozensets(st.sampled_from(list(members)))
    for _, attribute, members in SPACE_DIMENSIONS
}


def test_a_region_is_refused_when_built_or_written_and_read_back(golden_case):
    """Whatever sets a region is given, it raises `ModelError` when it is
    built, or the golden case with it as `M1`'s region round-trips and it
    covers the product of its dimension sizes."""
    methodology, *others = golden_case.methodologies
    outcomes = set()

    @settings(max_examples=200, deadline=None)
    @given(st.fixed_dictionaries({**_VALUE_SETS, "weak_severities": _VALUE_SETS["severities"]}))
    def refused_or_round_trips(fields):
        try:
            region = AcSpaceRegion(**fields)
        except ModelError:
            outcomes.add("refused")
            return
        case = golden_case.replace(methodologies=(methodology.replace(region=region), *others))
        assert parse(serialize(case), "case.aur").case == case
        sizes = [len(values) for values in region.dimension_sets.values()]
        assert len(region_cells(region)) == math.prod(sizes)
        outcomes.add("built")

    refused_or_round_trips()
    assert outcomes == {"refused", "built"}


def test_a_claim_tree_is_refused_when_built_or_written_and_read_back(golden_case):
    """Whatever ids, row labels and depth one of the golden claim trees is
    given (see `strategies.varied_claims`), the case raises `ModelError`
    when it is built, or it round-trips: the model refuses each name
    collision and each depth that the parser refuses."""
    outcomes = set()

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(varied_claims(golden_case))
    def refused_or_round_trips(claims):
        try:
            case = golden_case.replace(claims=claims)
        except ModelError:
            outcomes.add("refused")
            return
        assert parse(serialize(case), "case.aur").case == case
        outcomes.add("built")

    refused_or_round_trips()
    assert outcomes == {"refused", "built"}


def test_serialize_is_deterministic(golden_case):
    assert serialize(golden_case) == serialize(golden_case)


def test_elements_are_the_case_collections_in_serialized_order(golden_case):
    collections = list(SafetyCase.FIELDS[2:])
    assert [name for _, name in ELEMENTS] == collections
    # Each top-level block of the canonical text opens with its keyword.
    openers = [
        line.split()[0]
        for line in serialize(golden_case).splitlines()
        if line.startswith("  ") and not line.startswith("   ") and line != "  }"
    ]
    block_order = list(dict.fromkeys(openers))
    assert block_order == ["context", *(keyword for keyword, _ in ELEMENTS)]
    assert all(getattr(golden_case, name) for name in collections)


def test_golden_file_is_canonical(golden_cat_text):
    case = parse(golden_cat_text, "golden_cat.aur").case
    assert serialize(case) == golden_cat_text


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=safety_cases())
def test_round_trip_parse_of_serialize(case):
    rendered = serialize(case)
    result = parse(rendered, "round.aur")
    assert not result.fatal, result.diagnostics
    assert result.diagnostics == ()
    assert result.case == case
    assert serialize(result.case) == rendered


@settings(max_examples=300, deadline=None)
@given(value=st.text(st.one_of(st.sampled_from('\\"\n\t\r'), st.characters())))
def test_quote_escapes_what_translate_escapes(value):
    assert _quote(value) == '"' + value.translate(_ESCAPE_OUT) + '"'


def test_fuzz_random_bytes_never_crash():
    rng = random.Random(20240)
    for _ in range(1000):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 200)))
        result = parse(blob, "fuzz.aur")
        assert isinstance(result, ParseResult)
        assert result.case is not None or result.diagnostics


def test_fuzz_token_soup_never_crashes():
    vocabulary = (
        "safety_case context hazard methodology indicator criterion evidence claim "
        "argument region target severity role capability status aggregation weak "
        'facet reasonableness satisfaction { } ( ) = , .. S0 S3 "text" 5e-06 H1 # c'
    ).split()
    rng = random.Random(77)
    for _ in range(500):
        soup = " ".join(rng.choice(vocabulary) for _ in range(rng.randrange(0, 60)))
        result = parse(soup, "soup.aur")
        assert isinstance(result, ParseResult)


def test_deep_nesting_reports_depth_limit_instead_of_crashing():
    text = (
        'safety_case "deep" {\n  context { use_case = "x" }\n'
        '  hazard H1 category = behavioral { description = "d" }\n'
        '  methodology M1 { name = "n" category = behavioral }\n'
        "  criterion AC1 hazard = H1 methodology = M1 aggregation = event_level "
        '{ statement = "s" }\n'
        "  claim C1 criterion = AC1 {\n"
        "    satisfaction {\n      confidence_assessment {\n"
        + '        facet "f" {\n' * 200
        + "        }\n" * 200
        + "      }\n    }\n  }\n}\n"
    )
    result = parse(text, "deep.aur")
    assert result.fatal
    assert "depth limit" in result.diagnostics[0].message


def test_infinite_rate_bound_maximum_is_a_positioned_e013():
    text = MINIMAL.replace(
        '    statement = "every event dispositioned"\n',
        '    statement = "every event dispositioned"\n'
        '    target rate_bound(events = "crash", max = 1e999, per = "mi", confidence = 0.95)\n',
    )
    result = parse(text, "inf.aur")
    assert result.fatal
    (diagnostic,) = result.diagnostics
    assert diagnostic.rule_id == "E013"
    assert diagnostic.message == "rate_bound target: max_rate must be finite"
    assert slice_at(text, diagnostic.span) == "1e999"


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("events", '""', "rate_bound target: event_definition must be non-empty"),
        ("max", "0", "rate_bound target: max_rate must be > 0"),
        ("per", '""', "rate_bound target: exposure_unit must be non-empty"),
        ("confidence", "1.5", "rate_bound target: confidence must lie in (0, 1)"),
    ],
    ids=["events", "max", "per", "confidence"],
)
def test_rate_bound_errors_point_at_the_field_at_fault(field, value, message):
    values = {"events": '"crash"', "max": "1e-6", "per": '"mi"', "confidence": "0.95"}
    values[field] = value
    arguments = ", ".join(f"{name} = {text}" for name, text in values.items())
    target = f"    target rate_bound({arguments})\n"
    text = MINIMAL.replace(
        '    statement = "every event dispositioned"\n',
        '    statement = "every event dispositioned"\n' + target,
    )
    (diagnostic,) = parse(text, "target.aur").diagnostics
    assert diagnostic.rule_id == "E013"
    assert diagnostic.message == message
    assert diagnostic.span.start_line == text.splitlines().index(target.rstrip("\n")) + 1
    assert slice_at(text, diagnostic.span) == value
    spanned = f"{field} = {value}"
    assert diagnostic.span.start_col == target.index(spanned) + len(spanned) - len(value) + 1


# -- the lexer against its character-at-a-time reference ----------------------

PERFBENCH_GEN = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"


def test_fuzz_text_never_crashes():
    for text in fuzz_texts(2026, 20_000):
        result = parse(text, "fuzz.aur")
        assert isinstance(result, ParseResult)
        assert result.case is not None or result.diagnostics


def test_backslash_before_a_line_break_spans_the_string_to_the_break():
    text = 'safety_case "a\\\nb" {}\n'
    (diagnostic,) = parse(text, "split.aur").diagnostics
    assert diagnostic.rule_id == "E013"
    assert diagnostic.message == "string literal must not span lines"
    assert diagnostic.span == SourceSpan("split.aur", 1, 13, 1, 16)  # '"a\\' up to the break


def _reference_lex(text: str):
    try:
        tokens = oracles.Lexer(text, "d.aur").tokens()
    except oracles.LexFatal as fatal:
        span = SourceSpan("d.aur", *fatal.position)
        return None, Diagnostic("E013", Severity.ERROR, fatal.message, span=span)
    return [
        (t.kind, t.text, t.value, SourceSpan("d.aur", t.line, t.col, t.end_line, t.end_col))
        for t in tokens
    ], None


def _library_lex(text: str):
    try:
        kind_of, words, source = _lex(text, "d.aur")
    except _Fatal as fatal:
        return None, fatal.diagnostic
    values = {"IDENT": str, "STRING": _unquote, "NUMBER": float}
    return [
        (kind, word, values[kind](word) if kind in values else None, source.token_span(token))
        for token, (kind, word) in enumerate(zip(map(kind_of.get, words), words))
    ], None


SCANNER_EDGES = [
    "",
    " \t\r\n ",
    "# only a comment",
    "a # a trailing comment with no newline",
    "a\r\nb\r\n",
    '"a # not a comment" b',
    "+", "-", ".",
    "+..", "-..", "...", "a ..",
    "+1", "-2", ".3", "+.4", "-.5e1",
    "+ 1", "- x", ". 1", "a +", "a -", "a .",
    "+.", "-.", "1e", "1e+", "2.e-",
    "+..1", '"', 'a "b', 'a "b\nc"', "1 +. \"", "\" +.",
    # Two words that fail, and a failing word that recurs: the first
    # failing token in the text is the one reported.
    'a 1e "', '" a 1e', "1e x 1e+", "x 1e y 1e", "1e+ 1e", "a\n1e x\n1e", "$ 1e $",
    "a " * 300 + "\n" + "b " * 300 + "\n1e+ $\n" + "c " * 300 + '\n" 1e+',
    # A word character that starts no token, an underscore that starts an
    # identifier, Arabic-Indic digits (decimal, so a number), and a sign
    # before a blank.
    "Ⅻ", "a Ⅻ", "_a", "١٢", "x = +١", "-\t1", "a +\n.5",
    # Where a possessive repeat would differ from a backtracking one, if
    # anything after it could use a character it hands back: an escaped
    # quote that closes nothing, a backslash at the end, an unknown escape,
    # a quote inside a comment, and dots that end or double in identifiers.
    '"a\\"', '"a\\', '"\\q"', '# "x\n"y"',
    "a.", "a.b.", "a-.b", "x..y", "1..2", "\n# a\n\n# b\n x",
]

NON_DECIMAL_DIGITS = ["²", "a ²", "x = ² 1e"]


@pytest.mark.parametrize("text", SCANNER_EDGES)
def test_scanner_edges_lex_like_the_reference(text):
    assert _library_lex(text) == _reference_lex(text)


@pytest.mark.parametrize("text", NON_DECIMAL_DIGITS)
def test_a_non_decimal_digit_is_an_unexpected_character(text):
    """The reference took '²' for a number digit; both reject the text."""
    tokens, diagnostic = _library_lex(text)
    assert tokens is None
    assert diagnostic.message == "unexpected character '²'"
    col = text.index("²") + 1
    assert diagnostic.span == SourceSpan("d.aur", 1, col, 1, col + 1)
    assert _reference_lex(text)[1].rule_id == "E013"


def test_span_maps_are_read_only_mappings_in_declaration_order():
    result = parse(MINIMAL, "m.aur")
    spans, references = result.span_index, result.reference_spans
    assert spans == dict(spans) and references == dict(references)
    assert list(spans) == [
        ":safety_case", ":context", ":context.use_case", "H1", "M1", "AC1", "E1", "C1", "C1.A.1"
    ]
    assert list(references) == [
        ("AC1", "hazard_ids", "H1"),
        ("AC1", "methodology_id", "M1"),
        ("E1", "methodology_id", "M1"),
        ("C1", "criterion_id", "AC1"),
        ("C1.A.1", "evidence_ids", "E1"),
    ]
    assert spans["H1"] == SourceSpan("m.aur", 4, 10, 4, 12)
    assert references[("C1.A.1", "evidence_ids", "E1")] == SourceSpan("m.aur", 11, 49, 11, 51)
    assert spans.get("H9") is None and "H9" not in spans
    assert references.get(("C1", "criterion_id", "AC9")) is None
    with pytest.raises(TypeError):
        spans["H9"] = spans["H1"]
    with pytest.raises(TypeError):
        references[("C1", "criterion_id", "AC9")] = spans["H1"]


def _golden_scaled(copies: int) -> str:
    """The golden case cloned `copies` times by perfbench's generator."""
    spec = importlib.util.spec_from_file_location("_perfbench_gen", PERFBENCH_GEN)
    gen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gen  # dataclasses look their module up
    spec.loader.exec_module(gen)
    model = gen.Golden.load(FIXTURES / "golden_cat.aur")
    return gen.assemble(model.header, gen.scaled(model, copies))


def _lexer_corpus(name: str) -> list[str]:
    if name == "fixtures":
        return [path.read_text(encoding="utf-8") for path in sorted(FIXTURES.glob("*.aur"))]
    if name == "golden_x10":
        return [_golden_scaled(10)]
    if name == "golden_edits":
        return golden_char_edits(31, 300)
    return list(fuzz_texts(2026, 20_000))


@pytest.mark.parametrize("corpus", ["fixtures", "golden_x10", "golden_edits", "fuzz"])
def test_lexer_matches_the_reference(corpus):
    """Same tokens (kind, text, value, span) and the same fatal diagnostic
    as the reference, except where the reference crashed on a backslash
    before a line break, and where a text holds digits that are not
    decimal (`²`, `①`): the reference took those for number digits and
    always rejected the number; the library rejects them as characters."""
    matched = 0
    for text in _lexer_corpus(corpus):
        got = _library_lex(text)
        try:
            expected = _reference_lex(text)
        except ValueError as exc:
            assert "1-based" in str(exc)
            assert got[1].message == "string literal must not span lines", text
            continue
        if got != expected and any(ch.isdigit() and not ch.isdecimal() for ch in text):
            assert expected[1] is not None and expected[1].rule_id == "E013", text
            assert got[1] is not None and got[1].rule_id == "E013", text
            continue
        assert got == expected, text
        matched += 1
    assert matched


# -- recorded spans against the reference lexer -------------------------------


def _checked_spans(text: str) -> int:
    """Check that every recorded span is the span of the reference token
    that starts where it starts; return how many were checked."""
    result = parse(text, "d.aur")
    if result.fatal:
        return 0
    ends = {
        (token.line, token.col): (token.end_line, token.end_col)
        for token in oracles.Lexer(text, "d.aur").tokens()
    }
    checked = 0
    for spans in (result.span_index, result.reference_spans):
        for key, span in spans.items():
            assert span.file == "d.aur"
            assert (span.end_line, span.end_col) == ends[span.start_line, span.start_col], key
            checked += 1
    return checked


@pytest.mark.parametrize("corpus", ["fixtures", "golden_x10", "golden_line_edits"])
def test_recorded_spans_are_the_reference_tokens(corpus):
    if corpus == "golden_line_edits":
        texts = golden_line_edits(47, 300)
    else:
        texts = _lexer_corpus(corpus)
    parsed = sum(1 for text in texts if _checked_spans(text))
    # Every fixture parses; of the edited texts, 131 do.
    assert parsed >= (100 if corpus == "golden_line_edits" else len(texts))


def test_the_lexer_makes_no_object_per_token():
    """A tuple per token costs 56 bytes on a 64-bit build; the lexer's
    peak stays well under the cost that one would add."""
    text = _golden_scaled(20)
    tracemalloc.start()
    try:
        _, words, _ = _lex(text, "x20.aur")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(words) == 9789
    assert peak / len(words) <= 120, f"{peak / len(words):.1f} bytes per token"


def test_the_lexer_keeps_one_string_per_distinct_word():
    """Keywords and ids recur on almost every line of a large case; the
    word list, and the ids and references taken from it, share them."""
    _, words, _ = _lex(_golden_scaled(20), "x20.aur")
    assert len({id(word) for word in words}) == len(set(words)) < len(words) // 2


# -- runs of lines and lazy offsets --------------------------------------------


def _lexed_and_parsed(text: str) -> tuple:
    """What the lexer and the parser make of `text`: tokens with the offset
    of every 13th looked up by index (each lookup scans up to its token
    from its run's start), or the fatal; then the diagnostics and, unless
    the parse was fatal, both span maps."""
    try:
        kind_of, words, source = _lex(text, "d.aur")
        kinds = [kind_of[word] for word in words]
        tokens = (kinds, words, [source.match(t).start(1) for t in range(0, len(words), 13)])
    except _Fatal as fatal:
        tokens = fatal.diagnostic
    result = parse(text, "d.aur")
    if result.fatal:
        return tokens, result.diagnostics
    return tokens, result.diagnostics, dict(result.span_index), dict(result.reference_spans)


@pytest.mark.parametrize("run", [1, 1 << 40], ids=["one line per run", "one run"])
@pytest.mark.parametrize("corpus", ["golden_edits", "golden_line_edits", "fuzz"])
def test_the_run_length_changes_no_token_span_or_fatal(monkeypatch, corpus, run):
    texts = golden_line_edits(47, 300) if corpus == "golden_line_edits" else _lexer_corpus(corpus)
    expected = [_lexed_and_parsed(text) for text in texts]
    monkeypatch.setattr(dsl, "_RUN", run)
    for text, want in zip(texts, expected):
        assert _lexed_and_parsed(text) == want, text


@pytest.fixture()
def offset_lookups(monkeypatch) -> list[int]:
    """The tokens whose offset is looked up from here on."""
    looked_up: list[int] = []
    match = dsl._Source.match

    def recording(self, token):
        looked_up.append(token)
        return match(self, token)

    monkeypatch.setattr(dsl._Source, "match", recording)
    return looked_up


def test_a_clean_parse_and_validate_look_up_no_offset(offset_lookups):
    text = _golden_scaled(10)
    result = parse(text, "x10.aur")
    assert not result.fatal and not result.diagnostics
    assert validate(result.case, None, result.span_index, result.reference_spans) == []
    # Tokens of unusual first characters that lex need none either.
    kind_of, words, _ = _lex('a .. b = -1.5 +2 .5 é_1 Ω "x" 3e+1', "odd.aur")
    assert [kind_of[word] for word in words[-4:]] == ["IDENT", "STRING", "NUMBER", "EOF"]
    assert offset_lookups == []
    # A span that is asked for looks up its token's offset.
    assert result.span_index["H1"] == SourceSpan("x10.aur", 12, 10, 12, 12)
    assert len(offset_lookups) == 1


def test_equal_sets_in_one_parse_are_one_object(golden_cat_text):
    text = _golden_scaled(2)
    result = parse(text, "x2.aur")
    first, second = (m.region for m in result.case.methodologies[:2])
    assert first == second
    for dim, attribute, _ in SPACE_DIMENSIONS:
        assert getattr(first, attribute) is getattr(second, attribute), dim
    # Another parse makes its own.
    other = parse(text, "x2.aur").case.methodologies[0].region
    assert other.roles == first.roles and other.roles is not first.roles
    assert serialize(parse(golden_cat_text, "g.aur").case) == golden_cat_text


# -- the differential harness against a parent tree -------------------------

ROOT = Path(__file__).resolve().parents[1]


def _differential(parent: Path) -> subprocess.CompletedProcess:
    command = [sys.executable, str(ROOT / "tests" / "differential.py"), "--parent", str(parent)]
    return subprocess.run(
        [*command, "--seed", "3", "--edits", "150"], capture_output=True, text=True, timeout=60
    )


def test_the_differential_finds_no_difference_against_this_tree():
    started = time.perf_counter()
    done = _differential(ROOT)
    expected = "0 differences in 644 texts\n0 differences in 369 command runs\n"
    assert (done.returncode, done.stdout) == (0, expected), done.stderr
    assert time.perf_counter() - started < 10


def test_the_differential_reports_a_changed_message(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    changed = tmp_path / "src" / "aurcase" / "dsl.py"
    text = changed.read_text(encoding="utf-8")
    changed.write_text(text.replace('"unterminated string literal"', '"open string"'), "utf-8")
    done = _differential(tmp_path)
    assert done.returncode == 1, done.stderr
    lines = done.stdout.splitlines()
    assert lines[:2] == ["first difference: random text 0 (seed 3)", "  diagnostics:"]
    assert '"unterminated string literal"' in lines[2] and '"open string"' in lines[3]
    assert lines[-2:] == ["12 differences in 644 texts", "0 differences in 369 command runs"]


def test_the_differential_reports_a_changed_command_output(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    changed = tmp_path / "src" / "aurcase" / "cli.py"
    text = changed.read_text(encoding="utf-8")
    changed.write_text(text.replace('"heatmap.svg"', '"heat.svg"'), "utf-8")
    done = _differential(tmp_path)
    assert done.returncode == 1, done.stderr
    lines = done.stdout.splitlines()
    assert lines[:3] == [
        "0 differences in 644 texts",
        "first difference: aurcase report balance_aggregate_only.aur --ledger golden.ledger"
        " --out out",
        "  stdout:",
    ]
    assert "heatmap.svg" in lines[3] and "heat.svg" in lines[4]
    assert lines[-1] == "36 differences in 369 command runs"


def test_the_differential_reports_an_ignored_config_variable(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    changed = tmp_path / "src" / "aurcase" / "cli.py"
    text = changed.read_text(encoding="utf-8")
    reading = "path = args.config or os.environ.get(CONFIG_ENV_VAR)"
    assert reading in text
    changed.write_text(text.replace(reading, "path = args.config"), "utf-8")
    done = _differential(tmp_path)
    assert done.returncode == 1, done.stderr
    lines = done.stdout.splitlines()
    assert lines[:2] == [
        "0 differences in 644 texts",
        "first difference: AURCASE_CONFIG=strict.cfg aurcase check balance_aggregate_only.aur",
    ]
    assert lines[-1] == "29 differences in 369 command runs"
