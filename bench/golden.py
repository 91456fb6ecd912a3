"""The benchmark's own expected answers, independent of the code under test.

`golden_table.json` is the exact stdout of
`semple2 table --max-degree 40 --format json` at the commit that defined
this benchmark.  It is never regenerated at run time: `load_golden` checks
its sha256 and then re-checks its integers against facts this file knows
without semple2, namely the printed degree 1-6 reference values, the
classical Kontsevich recursion on the `h2.h2` row, and the five 3:1 row
identities.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from math import comb
from typing import Dict, List

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_table.json")
GOLDEN_SHA256 = "1e0e3e5a26a2ab5a420f9d6d1c6db75de92ddbf7c1414d4697ae78730ced3c19"
GOLDEN_MAX_DEGREE = 40

LABELS = (
    "h2hd", "h2z", "hd2z",
    "h2.h2", "h2.hd2", "h2.hz", "h2.hdz",
    "hd2.hd2", "hd2.hz", "hd2.hdz",
    "hz.hz", "hz.hdz", "hdz.hdz",
)

#: the thirteen invariants in degrees 1..6, as printed in the source paper
REFERENCE_D1_6: Dict[str, tuple] = {
    "h2hd":    (1, 1, 10, 428, 51040, 13300176),
    "h2z":     (3, 3, 30, 1284, 153120, 39900528),
    "hd2z":    (-3, 0, 21, 1452, 216180, 64150200),
    "h2.h2":   (1, 1, 12, 620, 87304, 26312976),
    "h2.hd2":  (0, 2, 36, 2184, 335792, 106976160),
    "h2.hz":   (0, 6, 108, 6552, 1007376, 320928480),
    "h2.hdz":  (-3, 0, 54, 4872, 894528, 315755712),
    "hd2.hd2": (0, 4, 100, 7200, 1222192, 415085088),
    "hd2.hz":  (0, 12, 300, 21600, 3666576, 1245255264),
    "hd2.hdz": (0, 0, 150, 15912, 3223944, 1214002800),
    "hz.hz":   (0, 36, 900, 64800, 10999728, 3735765792),
    "hz.hdz":  (0, 0, 450, 47736, 9671832, 3642008400),
    "hdz.hdz": (9, 0, 63, 22860, 6556140, 2948122440),
}

#: rows that are exactly three times another row, in every degree
RATIO_IDENTITIES = (
    ("h2z", "h2hd"), ("h2.hz", "h2.hd2"), ("hd2.hz", "hd2.hd2"),
    ("hz.hz", "hd2.hz"), ("hz.hdz", "hd2.hdz"),
)


class GoldenError(RuntimeError):
    """The stored golden table disagrees with an independent fact."""


@dataclass(frozen=True)
class Golden:
    """The golden table: its exact bytes and its rows by label."""

    raw: bytes
    values: Dict[str, List[int]]


def kontsevich_row(dmax: int) -> List[int]:
    """Rational plane curves of degree 1..dmax through 3d-1 general points."""
    n = [0, 1]
    for d in range(2, dmax + 1):
        n.append(sum(
            n[a] * n[d - a] * (a * a * (d - a) ** 2 * comb(3 * d - 4, 3 * a - 2)
                               - a ** 3 * (d - a) * comb(3 * d - 4, 3 * a - 1))
            for a in range(1, d)))
    return n[1:]


def golden_problems(values: Dict[str, List[int]]) -> List[str]:
    """Every disagreement of a 13-row table with the independent facts above."""
    bad = []
    for label, row in REFERENCE_D1_6.items():
        if tuple(values[label][:6]) != row:
            bad.append(f"{label} degrees 1..6 differ from the printed values")
    for d, (got, want) in enumerate(zip(values["h2.h2"], kontsevich_row(len(values["h2.h2"]))), 1):
        if got != want:
            bad.append(f"h2.h2 at degree {d} is {got}, Kontsevich gives {want}")
    for big, small in RATIO_IDENTITIES:
        for d, (a, b) in enumerate(zip(values[big], values[small]), 1):
            if a != 3 * b:
                bad.append(f"{big} != 3*{small} at degree {d}")
    return bad


def load_golden() -> Golden:
    """The golden table, rows as label -> [value at degree 1, 2, ...], fully checked."""
    with open(GOLDEN_PATH, "rb") as handle:
        raw = handle.read()
    if hashlib.sha256(raw).hexdigest() != GOLDEN_SHA256:
        raise GoldenError(f"{GOLDEN_PATH} does not have the recorded sha256")
    data = json.loads(raw)
    if tuple(data["labels"]) != LABELS or data["max_degree"] != GOLDEN_MAX_DEGREE:
        raise GoldenError("golden table has unexpected labels or degree range")
    values = {label: [int(v) for v in data["values"][label]] for label in LABELS}
    bad = golden_problems(values)
    if bad:
        raise GoldenError("; ".join(bad[:5]))
    return Golden(raw, values)
