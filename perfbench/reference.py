"""Fixed reference work for the benchmark; it does not import aurcase.

Run in a fresh interpreter between measured commands.  Its wall time
tracks how fast the machine runs a cold Python process at that moment:
interpreter start, stdlib imports, and string and dict work of the kind
the CLI does.
"""

import argparse  # noqa: F401
import csv  # noqa: F401
import dataclasses  # noqa: F401
import decimal  # noqa: F401
import email.parser  # noqa: F401
import fractions  # noqa: F401
import json
import statistics  # noqa: F401

words = ("hazard", "H1x7", "=", "{", '"text with spaces"', "0.95", "}") * 20_000
index: dict[str, int] = {}
for position, word in enumerate(words):
    if word.isidentifier():
        index[f"{word}.{position % 977}"] = position
print(len(json.dumps(sorted(index.items()))))
