"""Command-line front end.

Subcommands: `table` emits the invariant table, `contact` evaluates the
triple-contact formula, `count` evaluates mixed condition profiles,
`chow-eval` normalizes ring expressions, and `verify` runs the self-test.
Data goes to stdout, diagnostics to stderr.  All integers are emitted as
decimal strings in JSON output.  Exit codes: 0 success, 2 usage error,
3 unsupported profile, 4 verification or cache failure.  `contact` and
`count` check their curve and profile options before they compute or read
a degree, so a refused request (exit 2 or 3) writes no cache.  Integer
options are read in ASCII digits only, and a degree must be at least 1.
A library warning prints as one `warning:` line, or, where warnings are
errors (`python -W error`), refuses the request like any other (exit 2).  Each
subcommand imports only the modules it runs, so `table`, `contact` and `count` load
neither the Chow ring, the polynomials nor the oracles, also when they
compute new degrees.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from typing import List

from .contact import (
    ConditionProfile,
    CurveInvariants,
    UnsupportedProfileError,
    check_profile,
    contact_coefficients,
    contact_formula,
    contact_number,
    mixed_count,
    plucker_class,
)
from .recursion import INVARIANT_LABELS, CacheError, InvariantTable, compute_up_to

CACHE_ENV = "SEMPLE2_CACHE"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_UNSUPPORTED = 3
EXIT_VERIFY = 4


def _default_cache(value: str | None) -> str | None:
    return value if value is not None else os.environ.get(CACHE_ENV)


def _emit(text: str) -> None:
    sys.stdout.write(text + "\n")


def _diag(text: str) -> None:
    sys.stderr.write(text + "\n")


def _table_json(table: InvariantTable, dmax: int) -> str:
    data = {
        "max_degree": dmax,
        "labels": list(INVARIANT_LABELS),
        "values": {
            label: [str(table.get(d, label)) for d in range(1, dmax + 1)]
            for label in INVARIANT_LABELS
        },
    }
    return json.dumps(data, indent=2)


def _table_csv(table: InvariantTable, dmax: int) -> str:
    lines = ["invariant," + ",".join(str(d) for d in range(1, dmax + 1))]
    for label in INVARIANT_LABELS:
        lines.append(label + "," + ",".join(
            str(table.get(d, label)) for d in range(1, dmax + 1)))
    return "\n".join(lines)


def _table_pretty(table: InvariantTable, dmax: int) -> str:
    rows = [[label] + [str(table.get(d, label)) for d in range(1, dmax + 1)]
            for label in INVARIANT_LABELS]
    header = ["invariant"] + [f"d={d}" for d in range(1, dmax + 1)]
    widths = [max(len(header[i]), *(len(r[i]) for r in rows))
              for i in range(len(header))]
    fmt_row = lambda r: "  ".join(
        r[i].ljust(widths[i]) if i == 0 else r[i].rjust(widths[i])
        for i in range(len(r)))
    return "\n".join([fmt_row(header)] + [fmt_row(r) for r in rows])


def _cmd_table(args) -> int:
    table = compute_up_to(args.max_degree, cache_path=_default_cache(args.cache))
    if args.format == "json":
        _emit(_table_json(table, args.max_degree))
    elif args.format == "csv":
        _emit(_table_csv(table, args.max_degree))
    else:
        _emit(_table_pretty(table, args.max_degree))
    return EXIT_OK


def _curve_from_args(args) -> CurveInvariants | None:
    if args.curve is not None and args.plucker is not None:
        raise ValueError("give either --curve or --plucker")
    if args.plucker is not None:
        return plucker_class(*_parse_triple(args.plucker))
    return None if args.curve is None else _fixed_curve(args.curve)


def _cmd_contact(args) -> int:
    d = args.degree
    curve = _curve_from_args(args)
    table = compute_up_to(d, cache_path=_default_cache(args.cache))
    formula = contact_formula(d, table)
    a, b, k = contact_coefficients(d, table)
    if args.format == "json":
        data = {
            "degree": d,
            "formula": formula,
            "coefficients": {"c": str(a), "class": str(b), "kappa": str(k)},
        }
        if curve is not None:
            data["curve"] = {"c": str(curve.c), "class": str(curve.cdual),
                             "kappa": str(curve.kappa)}
            data["count"] = str(contact_number(d, curve, table))
        _emit(json.dumps(data, indent=2))
    else:
        _emit(f"N_{d}(C) = {formula}")
        if curve is not None:
            _emit(f"count = {contact_number(d, curve, table)}")
    return EXIT_OK


def _integer(text: str) -> int:
    """The integer of an option or a curve field: an optional sign and the
    ASCII digits that `chow-eval` and the cache reader take, spaces around
    them allowed; int() alone also reads "３" and "1_0"."""
    s = text.strip()
    digits = s[1:] if s[:1] in ("+", "-") else s
    if digits.isascii() and digits.isdecimal():
        try:
            return int(s)
        except ValueError:  # past the int-str digit limit, as int() refuses it
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _degree(text: str) -> int:
    d = _integer(text)
    if d < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {d}")
    return d


def _parse_triple(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated integers, got {text!r}")
    try:
        return tuple(_integer(p) for p in parts)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"bad curve triple {text!r}") from exc


def _fixed_curve(text: str) -> CurveInvariants:
    """The curve of a C,CLASS,KAPPA option; as with --plucker, its degree
    must be at least 1 (the library's CurveInvariants(0, 0, 0) is the zero
    of its additive uses, not a curve)."""
    c, cdual, kappa = _parse_triple(text)
    if c < 1:
        raise ValueError("curve degree must be at least 1")
    return CurveInvariants(c, cdual, kappa)


def _cmd_count(args) -> int:
    d = args.degree
    tangents = tuple(_fixed_curve(s) for s in args.tangent or [])
    osculants = tuple(_fixed_curve(s) for s in args.osculate or [])
    profile = ConditionProfile(d, args.points, tangents, osculants)
    check_profile(profile)
    table = compute_up_to(d, cache_path=_default_cache(args.cache))
    value = mixed_count(profile, table)
    if args.format == "json":
        data = {
            "degree": d,
            "points": args.points,
            "tangent": [[c.c, c.cdual, c.kappa] for c in tangents],
            "osculate": [[c.c, c.cdual, c.kappa] for c in osculants],
            "count": str(value),
        }
        _emit(json.dumps(data, indent=2))
    else:
        _emit(str(value))
    return EXIT_OK


def _cmd_chow_eval(args) -> int:
    from .chow import (I_BASIS_ORDER, I_BASIS_SYMBOL, LABELS, Z_BASIS_SYMBOL,
                       format_coords, integrate, parse_class_expr, to_i_basis)

    cls = parse_class_expr(args.expr)
    if args.basis == "z":
        coords = {label: cls.coordinate(label) for label in LABELS}
        symbolic = format_coords([coords[l] for l in LABELS], LABELS, Z_BASIS_SYMBOL)
        order = LABELS
    else:
        icoords = to_i_basis(cls)
        coords = dict(zip(I_BASIS_ORDER, icoords))
        symbolic = format_coords(icoords, I_BASIS_ORDER, I_BASIS_SYMBOL)
        order = I_BASIS_ORDER
    if args.format == "json":
        data = {
            "expression": args.expr,
            "basis": args.basis,
            "coords": {label: str(coords[label]) for label in order if coords[label]},
            "normal_form": symbolic,
        }
        if args.integrate:
            data["integral"] = str(integrate(cls))
        _emit(json.dumps(data, indent=2))
    else:
        if args.integrate:
            _emit(str(integrate(cls)))
        else:
            _emit(symbolic)
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .verify import run_selftest

    reports = run_selftest(args.max_degree, cache_path=args.cache)
    for r in reports:
        _diag(f"{r['status'].upper()} {r['name']} [{r['degrees']}]")
    _emit(json.dumps(reports, indent=2))
    return EXIT_OK if all(r["status"] == "pass" for r in reports) else EXIT_VERIFY


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semple2", allow_abbrev=False,
        description="Second-order invariants of rational plane curves and "
                    "triple-contact counts, in exact arithmetic.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", allow_abbrev=False, help="emit the invariant table")
    p.add_argument("--max-degree", type=_degree, required=True)
    p.add_argument("--format", choices=("json", "csv", "pretty"), default="pretty")
    p.add_argument("--cache", default=None,
                   help=f"cache file (default from ${CACHE_ENV})")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("contact", allow_abbrev=False,
                       help="triple-contact formula and counts")
    p.add_argument("--degree", type=_degree, required=True)
    p.add_argument("--curve", default=None, metavar="C,CLASS,KAPPA",
                   help="fixed curve as degree,class,cusps")
    p.add_argument("--plucker", default=None, metavar="C,NODES,CUSPS",
                   help="curve as degree,nodes,cusps")
    p.add_argument("--format", choices=("json", "pretty"), default="pretty")
    p.add_argument("--cache", default=None)
    p.set_defaults(func=_cmd_contact)

    p = sub.add_parser("count", allow_abbrev=False,
                       help="count curves meeting a condition profile")
    p.add_argument("--degree", type=_degree, required=True)
    p.add_argument("--points", type=_integer, required=True)
    p.add_argument("--tangent", action="append", metavar="C,CLASS,KAPPA",
                   help="tangency condition curve (repeatable)")
    p.add_argument("--osculate", action="append", metavar="C,CLASS,KAPPA",
                   help="triple-contact condition curve (repeatable)")
    p.add_argument("--format", choices=("json", "pretty"), default="pretty")
    p.add_argument("--cache", default=None)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("chow-eval", allow_abbrev=False,
                       help="normalize a ring expression")
    p.add_argument("expr", help="expression in h, hd, i, z")
    p.add_argument("--basis", choices=("z", "i"), default="z")
    p.add_argument("--integrate", action="store_true")
    p.add_argument("--format", choices=("json", "pretty"), default="pretty")
    p.set_defaults(func=_cmd_chow_eval)

    p = sub.add_parser("verify", allow_abbrev=False,
                       help="run the self-test oracles")
    p.add_argument("--max-degree", type=_degree, required=True)
    p.add_argument("--cache", default=None,
                   help="also read this cache file and check it against the computed "
                        f"table; it is never written, and ${CACHE_ENV} is not read")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv: List[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # from degree 572 on an invariant has more than the 4300 digits that
    # Python 3.11 and 3.10.7+ convert to and from str by default; the limit
    # is lifted for this call and put back after it
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    # a library warning (a degree-1 curve is a line) prints as one
    # diagnostic line, without the source location the default hook adds
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: _diag(f"warning: {message}")
        try:
            return args.func(args)
        except UnsupportedProfileError as exc:
            _diag(f"error: {exc}")
            return EXIT_UNSUPPORTED
        except CacheError as exc:
            _diag(f"error: {exc}")
            return EXIT_VERIFY
        except (ValueError, KeyError, Warning) as exc:
            # ChowParseError is a ValueError; a library warning is raised
            # where warnings are errors (python -W error)
            _diag(f"error: {exc}")
            return EXIT_USAGE
        finally:
            if limit is not None:
                sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
