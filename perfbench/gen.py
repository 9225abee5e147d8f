"""Seeded benchmark inputs: isomorphic copies of two presentations.

Each copy relabels the generators and rescales every generator by a
nonzero rational, then rewrites the brackets and differentials so the
presentation is isomorphic to the original.  Verdicts, instance counts and
Betti numbers are isomorphism invariants, so every copy has a known answer;
only the names, the monomial order and the size of the exact scalars change.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
SIX_GEN = HERE / "six_gen.lie"

# Single letters, without 'd' (the differential keyword's operand).
NAMES = "abcefghjkmnpqrstuvwxyz"
# Numerators and denominators are products of 2 and 3, so every scale is
# a unit over Q and over each prime in HEISENBERG_PRIMES.
_MAGNITUDES = sorted({Fraction(n, d) for n in (1, 2, 3) for d in (1, 2, 3)})
SCALES = _MAGNITUDES + [-m for m in _MAGNITUDES]
HEISENBERG_PRIMES = (7, 11, 13)

# The six-generator presentation: degrees, brackets [a,b] = c, differentials d a = b.
SIX_GEN_DEGREES = {"x": 3, "y": 2, "z": 6, "w": 5, "u": 3, "v": 7}
SIX_GEN_BRACKETS = [("x", "y", "z"), ("y", "y", "w"), ("x", "u", "v")]
SIX_GEN_DIFFS = [("x", "y"), ("z", "w")]


@dataclass
class Copy:
    """One generated presentation file and what the CLI must report on it."""

    name: str
    text: str
    # Free-operator values on generators, as `--format json` renders them.
    bv_details: Dict[str, list] = field(default_factory=dict)


def _term(coeff: Fraction, gen: str) -> str:
    return f"{coeff}*{gen}"


def _relabel(rng: random.Random, ids: List[str]) -> Tuple[Dict[str, str], Dict[str, Fraction]]:
    names = rng.sample(NAMES, len(ids))
    return dict(zip(ids, names)), {g: rng.choice(SCALES) for g in ids}


def six_gen_copy(rng: random.Random, index: int) -> Copy:
    """g' = c_g * g for each generator, so [a',b'] = (c_a c_b / c_c) c'."""
    ids = list(SIX_GEN_DEGREES)
    name, scale = _relabel(rng, ids)
    lines = ["field Q", "shift n=2"]
    lines += [f"gen {name[g]} : {SIX_GEN_DEGREES[g]}" for g in ids]
    for a, b, c in SIX_GEN_BRACKETS:
        coeff = scale[a] * scale[b] / scale[c]
        lines.append(f"bracket [{name[a]},{name[b]}] = {_term(coeff, name[c])}")
    details = {f"bv({name[g]})": [] for g in ids}
    for a, b in SIX_GEN_DIFFS:
        coeff = scale[a] / scale[b]
        lines.append(f"diff d {name[a]} = {_term(coeff, name[b])}")
        # The free operator is -d on generators (the contraction needs two letters).
        details[f"bv({name[a]})"] = [[name[b], str(-coeff)]]
    return Copy(f"six_gen-{index}", "\n".join(lines) + "\n", details)


def heisenberg_copy(rng: random.Random, k: int, field_name: str, index: int) -> Copy:
    """h_{2k+1} at shift 0 with degree-1 generators: [x_i, y_i] = z."""
    ids = [f"{s}{i}" for i in range(1, k + 1) for s in "xy"] + ["z"]
    name, scale = _relabel(rng, ids)
    lines = [f"field {field_name}", "shift n=0"]
    lines += [f"gen {name[g]} : 1" for g in ids]
    for i in range(1, k + 1):
        x, y = f"x{i}", f"y{i}"
        coeff = scale[x] * scale[y] / scale["z"]
        lines.append(f"bracket [{name[x]},{name[y]}] = {_term(coeff, name['z'])}")
    return Copy(f"h{2 * k + 1}-{field_name}-{index}", "\n".join(lines) + "\n")


def heisenberg_betti(k: int) -> List[int]:
    """Betti numbers of h_{2k+1} in characteristic 0: b_j = C(2k,j) - C(2k,j-2)
    for j <= k, and b_j = b_{2k+1-j} above (Poincare duality)."""
    low = [comb(2 * k, j) - (comb(2 * k, j - 2) if j >= 2 else 0) for j in range(k + 1)]
    return low + low[::-1]


def write_copies(copies: List[Copy], directory: Path) -> List[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for c in copies:
        path = directory / f"{c.name}.lie"
        path.write_text(c.text, encoding="utf-8")
        paths.append(path)
    return paths
