#!/usr/bin/env python3
"""Print one JSON line per seeded mutation of the shipped presentation files.

Each mutant (a few character and line edits of fixtures/*.lie,
tests/data/*.lie or perfbench/six_gen.lie) is parsed.  When it parses, the
line holds its canonical rendering and a few parse_element_text results;
otherwise it holds the diagnostics.  Any exception other than ParseError
escapes, so a clean exit also means no input crashed the parser.

Two parsers agree on these inputs when, run with the same seed and count
(set PYTHONPATH to each checkout's src/), their outputs are identical.

Usage: python scripts/parser_digest.py --seed S --count N
"""

import argparse
import glob
import json
import os
import random
import sys

from bvalg.dsl import ParseError, parse_element_text, parse_presentation, render_presentation

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SOURCES = ["fixtures/*.lie", "tests/data/*.lie", "perfbench/six_gen.lie"]
ALPHABET = "abdnxQF0123456789-+*/^[]:=,!# \n"


def _mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        lines = text.split("\n")
        i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
        pos = rng.randrange(len(text) + 1)
        edit = rng.randrange(7)
        if edit == 0:
            text = text[:pos] + text[pos + 1:]
        elif edit == 1:
            text = text[:pos] + rng.choice(ALPHABET) + text[pos:]
        elif edit == 2:
            text = text[:pos] + rng.choice(ALPHABET) + text[pos + 1:]
        elif edit == 3:
            del lines[i]
            text = "\n".join(lines)
        elif edit == 4:
            lines.insert(j, lines[i])
            text = "\n".join(lines)
        elif edit == 5:
            lines[i], lines[j] = lines[j], lines[i]
            text = "\n".join(lines)
        else:
            digits = [k for k, ch in enumerate(text) if ch.isdigit()]
            if digits:
                k = rng.choice(digits)
                text = text[:k] + rng.choice(["-1", "0", "1/0", "1/2", "13"]) + text[k + 1:]
    return text


def _diagnostics(exc: ParseError):
    return [[d.line, d.column, d.message] for d in exc.diagnostics]


def _elements(rng: random.Random, source):
    ids = [g.id for g in source.presentation.generators] or ["x"]
    first, last = ids[0], ids[-1]
    texts = [first, f"{first}^2", f"2*{first} - 1/3*{last}", f"{first}*{last} + 3"]
    texts.append(_mutate(rng, rng.choice(texts)).replace("\n", " "))
    results = []
    for text in texts:
        try:
            results.append([text, str(parse_element_text(text, source))])
        except ParseError as exc:
            results.append([text, _diagnostics(exc)])
    return results


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=300)
    args = parser.parse_args()

    paths = sorted(path for pattern in SOURCES
                   for path in glob.glob(os.path.join(ROOT, pattern)))
    texts = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            texts.append((os.path.relpath(path, ROOT), handle.read()))
    for n in range(args.count):
        rng = random.Random(f"{args.seed}:{n}")  # one stream per mutant keeps lines aligned
        name, text = rng.choice(texts)
        record = {"n": n, "file": name}
        try:
            source = parse_presentation(_mutate(rng, text))
        except ParseError as exc:
            record["diagnostics"] = _diagnostics(exc)
        else:
            record["rendering"] = render_presentation(source)
            record["elements"] = _elements(rng, source)
        print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
