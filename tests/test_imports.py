"""Which modules each entry point loads, and the public API."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import semple2
from semple2.potentials import build_gluing_matrix
from semple2.recursion import compute_up_to

#: the public names and their defining submodules
PUBLIC = {
    "CacheError": "recursion", "INVARIANT_LABELS": "recursion",
    "InvariantTable": "recursion", "compute_up_to": "recursion",
    "kontsevich": "recursion",
    "ConditionProfile": "contact", "CurveInvariants": "contact",
    "UnsupportedProfileError": "contact", "contact_coefficients": "contact",
    "contact_formula": "contact", "contact_number": "contact",
    "mixed_count": "contact", "plucker_class": "contact",
}

#: modules a query served from the cache must not load
QUERY_FREE = ("semple2._kernel", "semple2.chow", "semple2.poly", "semple2.potentials",
              "semple2.verify", "fractions")


#: standard-library modules no query and no self-test loads; checked under
#: `-S`, because a `site` hook may load them itself (certifi's, for one,
#: imports tempfile).  The CLI reads its options without argparse, which
#: would bring gettext and, on its first message lookup, locale; argparse
#: is imported only to print a usage error or a help.
LEAN_FREE = ("argparse", "dataclasses", "gettext", "locale", "tempfile", "typing")


def run_child(body: str, *flags: str) -> str:
    """Run `body` in a fresh interpreter started with `flags`; return its stdout."""
    src = str(Path(semple2.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    env.pop("SEMPLE2_CACHE", None)
    proc = subprocess.run([sys.executable, *flags, "-c", body], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def modules_after_cli(*argvs, flags=(), codes=None) -> set:
    """The modules loaded once `cli.main` has run each argv in one fresh
    process, each exiting with its entry of `codes` (by default 0)."""
    codes = [0] * len(argvs) if codes is None else list(codes)
    out = run_child(
        "import contextlib, io, sys\n"
        "from semple2 import cli\n"
        f"for argv, code in zip({[list(a) for a in argvs]!r}, {codes!r}):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == code, argv\n"
        "print(*sys.modules)\n", *flags)
    return set(out.split())


def test_warm_queries_load_neither_the_ring_nor_the_polynomials_nor_the_oracles(tmp_path):
    cache = str(tmp_path / "cache.csv")
    compute_up_to(10, cache_path=cache)
    loaded = modules_after_cli(
        ("count", "--degree", "7", "--points", "19", "--tangent", "2,2,0",
         "--cache", cache),
        ("contact", "--degree", "10", "--plucker", "3,1,0", "--cache", cache),
        ("table", "--max-degree", "10", "--format", "csv", "--cache", cache))
    assert {"semple2.recursion", "semple2.contact"} <= loaded
    assert loaded.isdisjoint(QUERY_FREE)


def test_chow_eval_loads_the_ring_only():
    loaded = modules_after_cli(("chow-eval", "h^2*hd*z", "--integrate"))
    assert "semple2.chow" in loaded
    assert loaded.isdisjoint({"semple2.poly", "semple2.potentials", "semple2.verify"})


def test_a_cold_table_loads_neither_the_ring_nor_the_polynomials_nor_the_oracles():
    # the recursion runs the shipped kernel; generating it is the self-test's job
    loaded = modules_after_cli(("table", "--max-degree", "3"))
    assert "semple2.recursion" in loaded
    assert loaded.isdisjoint(set(QUERY_FREE) - {"semple2._kernel"})


def test_a_cold_table_loads_the_kernel_and_a_warm_one_does_not(tmp_path):
    cache = str(tmp_path / "cache.csv")
    cold = modules_after_cli(("table", "--max-degree", "40", "--cache", cache))
    assert "semple2._kernel" in cold and "semple2.verify" not in cold
    warm = modules_after_cli(("table", "--max-degree", "40", "--cache", cache))
    assert "semple2._kernel" not in warm


def test_the_kernel_imports_no_module():
    path = Path(semple2.__file__).with_name("_kernel.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))] == []


@pytest.mark.parametrize("kind", ["warm", "cold-table", "chow-eval", "verify"])
def test_queries_load_neither_dataclasses_nor_tempfile(tmp_path, kind):
    cache = str(tmp_path / "cache.csv")
    compute_up_to(10, cache_path=cache)
    argvs = {
        "warm": [("count", "--degree", "7", "--points", "19", "--tangent", "2,2,0",
                  "--cache", cache),
                 ("contact", "--degree", "10", "--plucker", "3,1,0", "--cache", cache),
                 ("table", "--max-degree", "10", "--format", "json", "--cache", cache)],
        "cold-table": [("table", "--max-degree", "3")],
        "chow-eval": [("chow-eval", "hz - 3*hd^2", "--basis", "i"),
                      ("chow-eval", "h^2*hd*z", "--integrate")],
        "verify": [("verify", "--max-degree", "8", "--cache", cache)],
    }[kind]
    loaded = modules_after_cli(*argvs, flags=("-S",))
    assert "semple2.cli" in loaded
    assert loaded.isdisjoint(LEAN_FREE)


def test_the_table_and_queries_without_a_cache_load_no_json(tmp_path):
    # the table and the cache are written without json; under -S, since a
    # `site` hook may load json itself
    loaded = modules_after_cli(
        ("table", "--max-degree", "12", "--format", "json",
         "--cache", str(tmp_path / "new.csv")),
        ("table", "--max-degree", "6", "--format", "pretty"),
        ("contact", "--degree", "4"),
        ("chow-eval", "h^2*hd*z", "--integrate"),
        ("count", "--degree", "3", "--points", "7"),
        ("count", "--degree", "3", "--points", "4", "--osculate", "2,2,0",
         "--osculate", "2,2,0"),
        codes=(0, 0, 0, 0, 2, 3), flags=("-S",))
    assert {"semple2.cli", "semple2._kernel", "semple2.chow"} <= loaded
    assert "json" not in loaded


@pytest.mark.parametrize("kind", ["cache read", "verify", "ascii json", "escaped string"])
def test_json_loads_only_for_a_printed_string_that_needs_escaping(tmp_path, kind):
    # a cache is read, and the cache and every printed JSON are written,
    # with string operations alone; json loads only to escape a string:
    # contact's formula, with its non-ASCII symbols, or a report that
    # quotes a non-ASCII label
    cache = str(tmp_path / "cache.csv")
    compute_up_to(8, cache_path=cache)
    # the cache-validation report quotes the unknown label, which is not ASCII
    foreign = tmp_path / "foreign.csv"
    with open(cache, encoding="utf-8") as handle:
        foreign.write_text(handle.read().replace("\nh2hd,", "\nh\u00e9,", 1), encoding="utf-8")
    argvs = {
        "cache read": [(0, "count", "--degree", "3", "--points", "8", "--cache", cache),
                       (0, "contact", "--degree", "8", "--plucker", "3,1,0", "--cache", cache),
                       (0, "table", "--max-degree", "8", "--format", "csv", "--cache", cache)],
        "verify": [(0, "verify", "--max-degree", "2"),
                   (0, "verify", "--max-degree", "8", "--cache", cache)],
        "ascii json": [(0, "count", "--degree", "3", "--points", "7", "--tangent", "2,2,0",
                        "--format", "json", "--cache", cache),
                       (0, "chow-eval", "h^2*hd*z", "--integrate", "--format", "json")],
        "escaped string": [(0, "contact", "--degree", "3", "--format", "json", "--cache", cache),
                           (4, "verify", "--max-degree", "2", "--cache", str(foreign))],
    }[kind]
    for code, *argv in argvs:
        loaded = modules_after_cli(argv, flags=("-S",), codes=[code])
        assert ("json" in loaded) == (kind == "escaped string"), argv


def test_no_cache_read_or_write_loads_json_or_csv(tmp_path):
    # a cache is written, extended, read in part and in full, and refused at
    # degree 2, by string operations alone; under -S, since a `site` hook
    # may load json itself
    cache, refused = str(tmp_path / "cache.csv"), tmp_path / "refused.csv"
    compute_up_to(2, cache_path=str(refused))
    refused.write_text(refused.read_text(encoding="utf-8").replace("h2.h2,1,1", "h2.h2,1,2"),
                       encoding="utf-8")
    loaded = modules_after_cli(
        ("table", "--max-degree", "6", "--cache", cache),
        ("table", "--max-degree", "8", "--format", "csv", "--cache", cache),
        ("count", "--degree", "3", "--points", "8", "--cache", cache),
        ("verify", "--max-degree", "8", "--cache", cache),
        ("count", "--degree", "2", "--points", "5", "--cache", str(refused)),
        codes=(0, 0, 0, 0, 4), flags=("-S",))
    assert {"semple2.cli", "semple2.recursion", "semple2._kernel", "semple2.verify"} <= loaded
    assert loaded.isdisjoint({"json", "csv"})


#: what `import fractions` loads beside itself
RATIONALS = ("fractions", "decimal", "numbers")

#: the README's chow-eval examples, every value of which is an integer
README_CHOW_EVAL = (("chow-eval", "i*z"), ("chow-eval", "h^2*hd*z", "--integrate"),
                    ("chow-eval", "hz - 3*hd^2", "--basis", "i"))


@pytest.mark.parametrize("kind", ["verify", "verify with a cache", "integral chow-eval"])
def test_integral_work_loads_no_rationals(tmp_path, kind):
    # every number verify computes is an int numerator over a known
    # denominator, and an integral class has int coordinates
    cache = str(tmp_path / "cache.csv")
    compute_up_to(8, cache_path=cache)
    argvs = {
        "verify": [("verify", "--max-degree", "8")],
        "verify with a cache": [("verify", "--max-degree", "8", "--cache", cache)],
        "integral chow-eval": README_CHOW_EVAL,
    }[kind]
    loaded = modules_after_cli(*argvs, flags=("-S",))
    assert "semple2.chow" in loaded
    assert loaded.isdisjoint(RATIONALS)


def test_a_rational_chow_eval_loads_fractions():
    loaded = modules_after_cli(("chow-eval", "(1/2*i)^2", "--basis", "i"), flags=("-S",))
    assert "fractions" in loaded


def test_no_subcommand_loads_future(tmp_path):
    # the modules hold no `from __future__ import annotations`, so no call,
    # computed, cached, refused, failed or printing json, loads the module
    cache = str(tmp_path / "cache.csv")
    compute_up_to(8, cache_path=cache)
    loaded = modules_after_cli(
        ("table", "--max-degree", "10", "--format", "json", "--cache", cache),
        ("table", "--max-degree", "4", "--format", "pretty"),
        ("contact", "--degree", "8", "--plucker", "3,1,0", "--format", "json", "--cache", cache),
        ("count", "--degree", "3", "--points", "8", "--format", "json", "--cache", cache),
        ("count", "--degree", "3", "--points", "4", "--osculate", "2,2,0",
         "--osculate", "2,2,0"),
        ("chow-eval", "h^2*hd*z", "--integrate", "--format", "json"),
        ("verify", "--max-degree", "8", "--cache", cache),
        ("verify", "--max-degree", "2", "--cache", str(tmp_path / "missing.csv")),
        codes=(0, 0, 0, 0, 3, 0, 0, 4), flags=("-S",))
    assert {"semple2.cli", "semple2._kernel", "semple2.chow", "semple2.verify", "json"} <= loaded
    assert "__future__" not in loaded


def test_a_usage_error_and_a_help_import_argparse_to_print_themselves():
    # pytest has loaded argparse itself, so only a fresh interpreter shows
    # that the parser's lazy import runs and prints the pinned lines
    out = run_child(
        "import contextlib, io, sys\n"
        "from semple2 import cli\n"
        "before = 'argparse' in sys.modules\n"
        "results = []\n"
        "for argv in (['table', '--max-degree', 'x'], ['verify', '--help']):\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        try:\n"
        "            cli.main(argv)\n"
        "        except SystemExit as exc:\n"
        "            results.append((exc.code, out.getvalue(), err.getvalue()))\n"
        "print(repr((before, 'argparse' in sys.modules, results)))\n", "-S")
    before, after, [(code, out, err), (help_code, help_out, help_err)] = ast.literal_eval(out)
    assert (before, after) == (False, True)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == \
        "semple2 table: error: argument --max-degree: invalid int value: 'x'"
    assert (help_code, help_err) == (0, "")
    assert help_out.startswith("usage: semple2 verify")


def test_verify_and_the_potentials_load_neither_dataclasses_nor_inspect():
    loaded = modules_after_cli(("verify", "--max-degree", "2"), flags=("-S",))
    assert {"semple2.verify", "semple2.potentials", "semple2.poly"} <= loaded
    assert loaded.isdisjoint({*LEAN_FREE, "inspect"})
    loaded = run_child("import sys, semple2.potentials\nprint(*sys.modules)\n", "-S").split()
    assert set(loaded).isdisjoint({*LEAN_FREE, "inspect"})


def test_bare_import_loads_no_submodule():
    # no submodule beyond the two that define the public names
    loaded = run_child("import sys, semple2\nprint(*sys.modules)\n").split()
    assert sorted(m for m in loaded if m.startswith("semple2.")) == \
        ["semple2.contact", "semple2.recursion"]
    assert set(loaded).isdisjoint(QUERY_FREE)


def test_public_names_are_unchanged():
    assert sorted(semple2.__all__) == sorted(PUBLIC)
    assert set(PUBLIC) <= set(dir(semple2))
    for name, home in PUBLIC.items():
        module = importlib.import_module(f"semple2.{home}")
        assert getattr(semple2, name) is getattr(module, name)
    namespace = {}
    exec("from semple2 import *", namespace)
    assert set(PUBLIC) <= set(namespace)
    assert all(namespace[name] is getattr(semple2, name) for name in PUBLIC)


def test_unknown_public_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        semple2.no_such_name
    assert not hasattr(semple2, "expand_cover_series")


def test_selftest_builds_each_gluing_matrix_once_per_call():
    out = run_child(
        "import semple2.potentials as potentials\n"
        "caps = []\n"
        "build = potentials.build_gluing_matrix\n"
        "def counted(cap):\n"
        "    caps.append(cap)\n"
        "    return build(cap)\n"
        "potentials.build_gluing_matrix = counted\n"
        "from semple2.verify import run_selftest\n"
        "assert all(r['status'] == 'pass' for r in run_selftest(8))\n"
        "first = list(caps)\n"
        "assert all(r['status'] == 'pass' for r in run_selftest(8))\n"
        "print((first, caps))\n")
    assert ast.literal_eval(out) == ([2, 3], [2, 3, 2, 3])


def test_the_ring_checks_run_where_verify_reports_them_and_not_on_import():
    out = run_child(
        "import contextlib, io, os, sys\n"
        "calls = []\n"
        "def profile(frame, event, arg):\n"
        "    code = frame.f_code\n"
        "    if (event == 'call' and os.path.basename(code.co_filename) == 'chow.py'\n"
        "            and code.co_name in ('relation_failures', 'pairing_failures')):\n"
        "        calls.append(code.co_name)\n"
        "sys.setprofile(profile)\n"
        "import semple2.chow\n"
        "on_import = list(calls)\n"
        "from semple2 import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "    status = cli.main(['verify', '--max-degree', '8'])\n"
        "sys.setprofile(None)\n"
        "print((on_import, sorted(calls[len(on_import):]), status))\n")
    assert ast.literal_eval(out) == ([], ["pairing_failures", "relation_failures"], 0)


def test_public_builder_returns_a_fresh_matrix():
    first, second = build_gluing_matrix(2), build_gluing_matrix(2)
    assert first is not second and first == second


#: the definitions no module calls: the README's test oracle
TEST_ORACLES = {"expand_cover_series"}


def test_every_definition_has_a_caller():
    # a name is used where the package's code loads it or reads it as an
    # attribute; a docstring that names it does not count
    defined, used = {}, set()
    for path in sorted(Path(semple2.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.setdefault(node.name, path.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    uncalled = {name: module for name, module in defined.items()
                if name not in used | set(semple2.__all__) | TEST_ORACLES}
    assert uncalled == {}


#: defaulted parameters that no call in the package passes, and why they
#: stay: the tests and programs that embed the CLI pass `main` its argv
UNPASSED_DEFAULTS = {("main", "argv")}


def _defaulted(fn: ast.FunctionDef, bound: int) -> list:
    """(name, index among the arguments a call writes, or None for a
    keyword-only one) of each parameter of `fn` that has a default;
    `bound` is how many leading parameters the call does not write."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    return ([(a.arg, i - bound) for i, a in enumerate(positional) if i >= first]
            + [(a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
               if d is not None])


def test_every_defaulted_parameter_is_passed_by_some_caller():
    # a parameter with one value in use is a constant; a call passes it by
    # position, by keyword, or through *args or **kwargs.  Calls match by
    # name, a call to a class is one to its __init__, and a method does not
    # count its self or cls
    defaults, calls, methods = {}, {}, set()
    for path in sorted(Path(semple2.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        methods.add(item)
                        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                     for d in item.decorator_list)
                        name = node.name if item.name == "__init__" else item.name
                        defaults.setdefault(name, []).extend(_defaulted(item, not static))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node not in methods:
                    defaults.setdefault(node.name, []).extend(_defaulted(node, 0))
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                starred = (any(isinstance(a, ast.Starred) for a in node.args)
                           or any(k.arg is None for k in node.keywords))
                calls.setdefault(name, []).append(
                    (starred, len(node.args), {k.arg for k in node.keywords}))

    def passed(name, param, index):
        return any(starred or param in keywords or (index is not None and index < npos)
                   for starred, npos, keywords in calls.get(name, ()))

    unpassed = {(name, param) for name, params in defaults.items()
                for param, index in params if not passed(name, param, index)}
    assert unpassed == UNPASSED_DEFAULTS
