"""Seeded operation streams for the three workloads, each with its expected answer.

A stream is an endless sequence of rounds.  Round r of workload w under
seed s is drawn from `random.Random(f"{w}:{s}:{r}")`, so one seed always
gives the same operations and the first rounds can be generated before
timing starts.  Every round holds the same mix of operation kinds in a
seeded order; only the parameters vary, so latency percentiles compare
across seeds.

Expected answers come from the golden table (`golden.py`) through the
multilinear count formulas, and from ring identities that follow from the
relations h^3 = hd^3 = 0, h*hd = h^2 + hd^2, i = z + 3(h - hd), i*z = 0
and the normalisation of h^2*hd*z to 1.  None is computed by semple2.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from golden import GOLDEN_MAX_DEGREE, LABELS, Golden

#: argv placeholder for the cache path: the warm cache, or a new empty path
#: for each cold-table operation
CACHE = "{cache}"

#: the degree range of counted and tabulated operations
DEGREES = (2, GOLDEN_MAX_DEGREE)

#: fixed plane curves as (degree, nodes, cusps); lines are left out because
#: the contact formulas exclude them
CURVES = ((2, 0, 0), (3, 0, 0), (3, 1, 0), (3, 0, 1), (4, 0, 0),
          (4, 1, 0), (4, 0, 1), (4, 3, 0), (5, 0, 0), (5, 2, 1))

#: z-basis normal forms, from the relations in the module docstring
CHOW_Z = (
    ("i*z", "0"), ("h^3", "0"), ("hd^3", "0"), ("h*hd", "h^2 + hd^2"),
    ("i", "3*h - 3*hd + z"), ("(h+hd)^2", "3*h^2 + 3*hd^2"),
    ("z^2", "-3*h*z + 3*hd*z"), ("hz - 3*hd^2", "-3*hd^2 + h*z"),
)
#: i-basis normal forms; the first is a README example
CHOW_I = (
    ("hz - 3*hd^2", "h*i"), ("i", "i"), ("h^2*hd*z", "h^2*hd*i"),
    ("i*z", "0"), ("h*hd", "hd^2 + h^2"),
)
#: integrals; the first two are README examples
CHOW_INTEGRAL = (
    ("h^2*hd*z", "1"), ("i*z", "0"), ("h^2*hd*i", "1"), ("h*hd^2*z", "1"),
    ("h^2*hd", "0"),
)
#: expressions the parser must reject with exit code 2
MALFORMED = ("h^", "(h", "h+*z", "x^2", "h z)", "h/0")

#: checks `verify` reports at the benchmark's commit, all expected to pass
VERIFY_CHECKS = (
    "dual-pairing-matrix", "ring-relations", "degree1-seed", "invariant-table",
    "ratio-identities", "kontsevich-oracle", "contact-coefficients",
    "gluing-cap-independence", "cache-validation",
)

#: the kinds of one warm-queries round; three of twenty are refusals
WARM_ROUND = (("points",) * 4 + ("tangent1",) * 3 + ("tangent2",) * 2
              + ("osculate",) * 2 + ("contact",) * 2
              + ("chow-z", "chow-i", "chow-integral", "table-csv")
              + ("refused",) * 3)

SELFTEST_DEGREES = tuple(range(2, 9))


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what it must produce."""

    kind: str
    argv: Tuple[str, ...]
    code: int
    #: exact expected stdout, or None when `verify_degree` is checked instead
    stdout: Optional[bytes]
    verify_degree: Optional[int] = None


def _curve(rng: random.Random) -> Tuple[int, int, int, Tuple[int, int, int]]:
    """(degree, class, cusps) and the (degree, nodes, cusps) it came from."""
    c, nodes, cusps = rng.choice(CURVES)
    return c, c * (c - 1) - 2 * nodes - 3 * cusps, cusps, (c, nodes, cusps)


def _spec(curve) -> str:
    return ",".join(str(x) for x in curve[:3])


def _formula(a: int, b: int, k: int) -> str:
    """The printed triple-contact formula, e.g. 21c+30č+10κ."""
    out = ""
    for coeff, sym in ((a, "c"), (b, "č"), (k, "κ")):
        if coeff == 0:
            continue
        body = sym if coeff == 1 else "-" + sym if coeff == -1 else f"{coeff}{sym}"
        out += body if not out or body.startswith("-") else "+" + body
    return out or "0"


def _text(lines) -> bytes:
    return ("\n".join(str(x) for x in lines) + "\n").encode("utf-8")


def _count(d: int, points: int, tangents=(), osculants=()) -> Tuple[str, ...]:
    argv = ["count", "--degree", str(d), "--points", str(points)]
    for t in tangents:
        argv += ["--tangent", _spec(t)]
    for o in osculants:
        argv += ["--osculate", _spec(o)]
    return tuple(argv) + ("--cache", CACHE)


def _warm_op(kind: str, rng: random.Random, g: Dict[str, List[int]]) -> Op:
    d = rng.randint(*DEGREES)
    col = {label: g[label][d - 1] for label in LABELS}
    if kind == "points":
        return Op(kind, _count(d, 3 * d - 1), 0, _text([col["h2.h2"]]))
    if kind == "tangent1":
        t = _curve(rng)
        n = t[0] * col["h2.hd2"] + t[1] * col["h2.h2"]
        return Op(kind, _count(d, 3 * d - 2, [t]), 0, _text([n]))
    if kind == "tangent2":
        t, u = _curve(rng), _curve(rng)
        n = (t[0] * u[0] * col["hd2.hd2"] + (t[0] * u[1] + t[1] * u[0]) * col["h2.hd2"]
             + t[1] * u[1] * col["h2.h2"])
        return Op(kind, _count(d, 3 * d - 3, [t, u]), 0, _text([n]))
    if kind == "osculate":
        o = _curve(rng)
        n = o[0] * col["hd2z"] + o[1] * col["h2z"] + o[2] * col["h2hd"]
        return Op(kind, _count(d, 3 * d - 3, osculants=[o]), 0, _text([n]))
    if kind == "contact":
        c, cdual, cusps, (_, nodes, _) = _curve(rng)
        a, b, k = col["hd2z"], col["h2z"], col["h2hd"]
        argv = ("contact", "--degree", str(d), "--plucker", f"{c},{nodes},{cusps}",
                "--cache", CACHE)
        return Op(kind, argv, 0, _text([f"N_{d}(C) = {_formula(a, b, k)}",
                                         f"count = {a * c + b * cdual + k * cusps}"]))
    if kind == "chow-z":
        expr, want = rng.choice(CHOW_Z)
        return Op(kind, ("chow-eval", expr), 0, _text([want]))
    if kind == "chow-i":
        expr, want = rng.choice(CHOW_I)
        return Op(kind, ("chow-eval", expr, "--basis", "i"), 0, _text([want]))
    if kind == "chow-integral":
        expr, want = rng.choice(CHOW_INTEGRAL)
        return Op(kind, ("chow-eval", expr, "--integrate"), 0, _text([want]))
    if kind == "table-csv":
        rows = ["invariant," + ",".join(str(e) for e in range(1, d + 1))]
        rows += [label + "," + ",".join(str(v) for v in g[label][:d]) for label in LABELS]
        argv = ("table", "--max-degree", str(d), "--format", "csv", "--cache", CACHE)
        return Op(kind, argv, 0, _text(rows))
    if kind == "refused":
        why = rng.choice(("unsupported", "bad-points", "bad-expr"))
        if why == "unsupported":
            shape = rng.choice(((3, 0), (1, 1), (0, 2)))
            tangents = [_curve(rng) for _ in range(shape[0])]
            osculants = [_curve(rng) for _ in range(shape[1])]
            points = 3 * d - 1 - shape[0] - 2 * shape[1]
            return Op(f"refused-{why}", _count(d, points, tangents, osculants), 3, b"")
        if why == "bad-points":
            points = 3 * d - 1 + rng.choice((-2, -1, 1, 2))
            return Op(f"refused-{why}", _count(d, points), 2, b"")
        return Op(f"refused-{why}", ("chow-eval", rng.choice(MALFORMED)), 2, b"")
    raise ValueError(f"unknown operation kind {kind!r}")


def round_ops(workload: str, seed: int, r: int, golden: Golden) -> List[Op]:
    """Round r of the workload's stream under the given seed."""
    rng = random.Random(f"{workload}:{seed}:{r}")
    if workload == "cold-table":
        argv = ("table", "--max-degree", str(GOLDEN_MAX_DEGREE), "--format", "json",
                "--cache", CACHE)
        return [Op("table-json", argv, 0, golden.raw)]
    if workload == "warm-queries":
        kinds = list(WARM_ROUND)
        rng.shuffle(kinds)
        return [_warm_op(kind, rng, golden.values) for kind in kinds]
    if workload == "selftest":
        degrees = list(SELFTEST_DEGREES)
        rng.shuffle(degrees)
        return [Op("verify", ("verify", "--max-degree", str(k), "--cache", CACHE), 0,
                   None, verify_degree=k) for k in degrees]
    raise ValueError(f"unknown workload {workload!r}")
