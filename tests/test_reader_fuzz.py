"""Seeded fuzz of the ledger and rule-config readers.

Each reader is total: on any text it returns a value or raises
`ValueError` with a message the CLI can print, and never lets another
exception (a `csv.Error`, say) escape.  Inputs are valid documents with a
few random edits, plus random ASCII and concatenations of tokens the
readers treat specially.
"""

from __future__ import annotations

import random

import pytest

from aurcase.lifecycle import parse_ledger
from aurcase.rules import parse_config

from conftest import fixture_text

CONFIG = (
    "# every key the reader knows\n"
    "rule.E006.severity = warning\n"
    "rule.W101.severity = off\n"
    "rule.E006.scope = skip_reasonableness\n"
    "facets.required = Scoring confidence, Technical validity of benchmark\n"
    "review_ready = true\n"
)

TOKENS = [
    "", " ", ",", "=", "#", '"', '""', "\n", "\r", "\r\n", "\x00", "\x85", "﻿",
    "nan", "inf", "-inf", "1e999", "1e-320", "-1", "0", "-0", "3", "１２",
    "٣", "predicted", "observed", "mi", "true", "false", "off", "error",
    "rule.", ".severity", "rule.E006.severity", "facets.required", "review_ready",
    "rule.E006.scope", "all", "9" * 5000, "x" * 140_000,
]


def fuzz_corpus(seed: int, base: str, size: int):
    rng = random.Random(seed)
    for _ in range(size):
        roll = rng.random()
        if roll < 0.2:
            yield "".join(chr(rng.randrange(128)) for _ in range(rng.randrange(80)))
        elif roll < 0.3:
            yield "".join(rng.choice(TOKENS) for _ in range(rng.randrange(10)))
        else:
            text = list(base)
            for _ in range(rng.randrange(1, 8)):
                at = rng.randrange(len(text) + 1)
                edit = rng.randrange(3)
                if edit == 0:
                    del text[at : rng.randrange(at, len(text) + 1)]
                elif edit == 1:
                    text[at:at] = rng.choice(TOKENS)
                else:
                    text[at:at] = chr(rng.randrange(0x110000 if rng.random() < 0.2 else 128))
            yield "".join(text)


@pytest.mark.parametrize(
    "reader, base",
    [(parse_ledger, fixture_text("golden.ledger")), (parse_config, CONFIG)],
    ids=["parse_ledger", "parse_config"],
)
def test_reader_raises_only_value_error(reader, base):
    rejected = 0
    for text in fuzz_corpus(4001, base, 5000):
        try:
            reader(text)
        except ValueError:
            rejected += 1
    assert 0 < rejected < 5000
