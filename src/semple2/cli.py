"""Command-line front end.

Subcommands: `table` emits the invariant table, `contact` evaluates the
triple-contact formula, `count` evaluates mixed condition profiles,
`chow-eval` normalizes ring expressions, and `verify` runs the self-test.
Data goes to stdout, diagnostics to stderr.  In JSON output the degrees and
`count`'s point count and curve fields are JSON numbers; every other integer
(invariants, coefficients, counts, `contact`'s curve, ring coordinates and
integrals) is a decimal string.  Exit codes: 0 success, 2 usage error,
3 unsupported profile, 4 verification or cache failure.  `contact` and
`count` check their curve and profile options before they compute or read a
degree, so a refused request (exit 2 or 3) writes no cache.  Integer options
are read in ASCII digits only, and a degree must be at least 1.  A library
warning prints as one `warning:` line, or, where warnings are errors
(`python -W error`), refuses the request like any other (exit 2).  Each
subcommand imports only the modules it runs, so `table`, `contact` and
`count` load neither the Chow ring, the polynomials nor the oracles, also
when they compute new degrees.  Every JSON a subcommand prints, the
`--format json` of `table`, `contact`, `count` and `chow-eval` and
`verify`'s reports, is written by one writer, `_json`, in the bytes of
`json.dumps(..., indent=2)`; `json` loads only for a printed string that
needs escaping (such as `contact`'s č and κ, or a quote in a user
expression or a report).  The cache is written and read without json, by
`recursion.table_to_json` and `recursion.table_from_json`.  A query that reads
degree k validates degrees 1..k of the cache; `verify --cache` reads and
checks all of it.

Options are read by the table `_COMMANDS`: `--opt value` or `--opt=value`,
the full name only; the last of a repeated option wins and
`--tangent`/`--osculate` collect theirs in order; `--` ends the options; a
negative number is a value, any other word that starts with a dash is an
option.  A usage error prints the usage and one `semple2 CMD: error: ...`
line to stderr and raises SystemExit(2).  argparse formats the usage, the
`--help` text and the error line from the same table; it is imported only
to print one of them and never parses argv.

Run as the program (`main()` with no argv), the CLI freezes its start-up
heap with `gc.freeze()`, so the collector's passes during the command and
at exit skip the interpreter's and semple2's start-up objects; `main(argv)`
with an explicit argv leaves the collector as it found it.
"""

import os
import sys
import warnings
from collections import deque
from types import SimpleNamespace

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
from .recursion import INVARIANT_LABELS, CacheError, compute_up_to

CACHE_ENV = "SEMPLE2_CACHE"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_UNSUPPORTED = 3
EXIT_VERIFY = 4


class _OptionError(Exception):
    """A value an option does not take; reported as `argument OPT: MESSAGE`."""


def _default_cache(value: str | None) -> str | None:
    return value if value is not None else os.environ.get(CACHE_ENV)


def _emit(text: str) -> None:
    sys.stdout.write(text + "\n")


def _diag(text: str) -> None:
    sys.stderr.write(text + "\n")


def _json(value, indent: str = "\n") -> str:
    """`json.dumps(value, indent=2)` of the values the subcommands print:
    dicts with str keys, lists, strs and ints.  Any other type, a bool
    included, is a TypeError."""
    kind, inner = type(value), indent + "  "
    if kind is str:
        return _json_string(value)
    if kind is int:
        return str(value)
    if kind is list:
        items = [_json(item, inner) for item in value]
    elif kind is dict and all(type(key) is str for key in value):
        items = [f"{_json_string(key)}: {_json(item, inner)}" for key, item in value.items()]
    else:
        raise TypeError(f"cannot write a {kind.__name__} as JSON")
    ends = "[]" if kind is list else "{}"
    if not items:
        return ends
    return ends[0] + inner + f",{inner}".join(items) + indent + ends[1]


def _json_string(text: str) -> str:
    """`json.dumps(text)`: json writes printable ASCII other than '"' and
    '\\' as it is, and is imported only for a string that needs escaping."""
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'
    import json

    return json.dumps(text)


def _cmd_table(args) -> int:
    dmax = args.max_degree
    table = compute_up_to(dmax, cache_path=_default_cache(args.cache))
    degrees = range(1, dmax + 1)
    # one row per invariant: its label, then its decimal strings by degree
    rows = [[label, *(str(table.get(d, label)) for d in degrees)]
            for label in INVARIANT_LABELS]
    if args.format == "json":
        _emit(_json({"max_degree": dmax, "labels": list(INVARIANT_LABELS),
                     "values": {label: values for label, *values in rows}}))
    elif args.format == "csv":
        _emit("\n".join(",".join(row) for row in [["invariant", *map(str, degrees)], *rows]))
    else:
        rows.insert(0, ["invariant", *(f"d={d}" for d in degrees)])
        widths = [max(map(len, column)) for column in zip(*rows)]
        _emit("\n".join("  ".join([row[0].ljust(widths[0]), *map(str.rjust, row[1:], widths[1:])])
                        for row in rows))
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
        _emit(_json(data))
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
    raise _OptionError(f"invalid int value: {text!r}")


def _degree(text: str) -> int:
    d = _integer(text)
    if d < 1:
        raise _OptionError(f"must be at least 1, got {d}")
    return d


def _parse_triple(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated integers, got {text!r}")
    try:
        return tuple(_integer(p) for p in parts)
    except _OptionError as exc:
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
    tangents = tuple(_fixed_curve(s) for s in args.tangent)
    osculants = tuple(_fixed_curve(s) for s in args.osculate)
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
        _emit(_json(data))
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
        _emit(_json(data))
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
    _emit(_json(reports))
    return EXIT_OK if all(r["status"] == "pass" for r in reports) else EXIT_VERIFY


#: the marks of an argument that must be given, of an option given any
#: number of times (its values kept in order) and of one that takes no value
_REQUIRED, _REPEATED, _FLAG = object(), object(), object()

#: each subcommand's handler, help line and arguments.  An argument is
#: (name, read, default, metavar, help), the last two optional: `read` turns
#: the text into the value (a function, a tuple of the choices, or None for a
#: flag), and `default` is the value when the option is absent, or one of the
#: marks above.  A name without dashes is the positional.  `_parser` builds
#: from the same table the argparse parser that formats the usage and help.
_COMMANDS = {
    "table": (_cmd_table, "emit the invariant table", (
        ("--max-degree", _degree, _REQUIRED),
        ("--format", ("json", "csv", "pretty"), "pretty"),
        ("--cache", str, None, None, f"cache file (default from ${CACHE_ENV})"),
    )),
    "contact": (_cmd_contact, "triple-contact formula and counts", (
        ("--degree", _degree, _REQUIRED),
        ("--curve", str, None, "C,CLASS,KAPPA", "fixed curve as degree,class,cusps"),
        ("--plucker", str, None, "C,NODES,CUSPS", "curve as degree,nodes,cusps"),
        ("--format", ("json", "pretty"), "pretty"),
        ("--cache", str, None),
    )),
    "count": (_cmd_count, "count curves meeting a condition profile", (
        ("--degree", _degree, _REQUIRED),
        ("--points", _integer, _REQUIRED),
        ("--tangent", str, _REPEATED, "C,CLASS,KAPPA",
         "tangency condition curve (repeatable)"),
        ("--osculate", str, _REPEATED, "C,CLASS,KAPPA",
         "triple-contact condition curve (repeatable)"),
        ("--format", ("json", "pretty"), "pretty"),
        ("--cache", str, None),
    )),
    "chow-eval": (_cmd_chow_eval, "normalize a ring expression", (
        ("expr", str, _REQUIRED, None, "expression in h, hd, i, z"),
        ("--basis", ("z", "i"), "z"),
        ("--integrate", None, _FLAG),
        ("--format", ("json", "pretty"), "pretty"),
    )),
    "verify": (_cmd_verify, "run the self-test oracles", (
        ("--max-degree", _degree, _REQUIRED),
        ("--cache", str, None, None,
         "also read this cache file and check it against the computed table; "
         f"it is never written, and ${CACHE_ENV} is not read"),
    )),
}

_HELP = ("-h", "--help")


def _arguments(command: str) -> dict:
    """The subcommand's arguments by name, each (name, read, default, metavar, help)."""
    return {arg[0]: arg + (None,) * (5 - len(arg)) for arg in _COMMANDS[command][2]}


def _parser(command: str | None):
    """The argparse parser of the top level or of one subcommand, built from
    `_COMMANDS` to format its usage, help and error lines; it parses nothing.
    argparse is imported here, so only a usage error or a help loads it."""
    import argparse

    if command is None:
        parser = argparse.ArgumentParser(
            prog="semple2", description="Second-order invariants of rational plane "
            "curves and triple-contact counts, in exact arithmetic.")
        sub = parser.add_subparsers(dest="command", required=True)
        for name, (_, text, _) in _COMMANDS.items():
            sub.add_parser(name, help=text)
        return parser
    parser = argparse.ArgumentParser(prog=f"semple2 {command}")
    for name, read, default, metavar, text in _arguments(command).values():
        options = {"help": text}
        if default is _FLAG:
            options["action"] = "store_true"
        elif name.startswith("-"):
            options.update(metavar=metavar, required=default is _REQUIRED,
                           action="append" if default is _REPEATED else "store")
        if isinstance(read, tuple):
            options["choices"] = read
        parser.add_argument(name, **options)
    return parser


def _fail(command: str | None, message: str):
    _parser(command).error(message)


def _show_help(command: str | None):
    _parser(command).print_help()
    raise SystemExit(EXIT_OK)


def _is_option(word: str, options) -> bool:
    """Whether `word` is an option rather than a value: one of `options`, alone
    or before an `=`, or a dash and more that is neither a negative number nor
    has a space in it."""
    if word.partition("=")[0] in options:
        return True
    if word[:1] != "-" or len(word) == 1 or " " in word:
        return False
    whole, dot, frac = word[1:].partition(".")
    return not ((whole.isdecimal() or dot and not whole) and (not dot or frac.isdecimal()))


def _value(command: str, name: str, read, text: str):
    """The value of option `name` given as `text`; a value it does not take is
    a usage error."""
    if isinstance(read, tuple):
        if text not in read:
            choices = ", ".join(map(repr, read))
            _fail(command, f"argument {name}: invalid choice: {text!r} (choose from {choices})")
        return text
    try:
        return read(text)
    except _OptionError as exc:
        _fail(command, f"argument {name}: {exc}")


def _read_argv(argv: list[str]):
    """The handler of the subcommand `argv` names and its arguments, as the
    attributes of a namespace; -h or --help prints the help and exits 0, and a
    usage error exits 2."""
    # before the subcommand, -h and --help are the only options
    unknown, at = [], 0
    while at < len(argv) and _is_option(argv[at], _HELP):
        if argv[at] in _HELP:
            _show_help(None)
        unknown.append(argv[at])
        at += 1
    if at == len(argv):
        _fail(None, "the following arguments are required: command")
    command = argv[at]
    if command not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        _fail(None, f"argument command: invalid choice: {command!r} (choose from {choices})")
    arguments = _arguments(command)
    options = {name for name in arguments if name.startswith("-")} | set(_HELP)
    positional = [name for name in arguments if name not in options]
    values, words, ended = {}, deque(argv[at + 1:]), False
    while words:
        word = words.popleft()
        if ended or not _is_option(word, options):
            if positional and positional[0] not in values:
                values[positional[0]] = word
            else:
                unknown.append(word)
        elif word == "--":
            ended = True
        elif word in _HELP:
            _show_help(command)
        elif word.partition("=")[0] not in arguments:
            unknown.append(word)
        else:
            name, equals, text = word.partition("=")
            _, read, default, _, _ = arguments[name]
            if default is _FLAG:
                if equals:
                    _fail(command, f"argument {name}: ignored explicit argument {text!r}")
                values[name] = True
                continue
            if not equals:
                if not words or _is_option(words[0], options):
                    _fail(command, f"argument {name}: expected one argument")
                text = words.popleft()
            value = _value(command, name, read, text)
            if default is _REPEATED:
                values.setdefault(name, []).append(value)
            else:
                values[name] = value
    missing = [name for name, arg in arguments.items()
               if arg[2] is _REQUIRED and name not in values]
    if missing:
        _fail(command, f"the following arguments are required: {', '.join(missing)}")
    if unknown:
        _fail(command, f"unrecognized arguments: {' '.join(unknown)}")
    for name, (_, _, default, _, _) in arguments.items():
        if name not in values:
            values[name] = [] if default is _REPEATED else False if default is _FLAG else default
    return _COMMANDS[command][0], SimpleNamespace(
        **{name.lstrip("-").replace("-", "_"): value for name, value in values.items()})


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        # run as the program: the start-up objects move to the permanent
        # generation, so the collections during the command and at exit
        # skip them; what the command allocates is collected as before.
        # An in-process caller passes argv, and its heap is left alone.
        import gc
        gc.freeze()
        argv = sys.argv[1:]
    handler, args = _read_argv(list(argv))
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
            return handler(args)
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
