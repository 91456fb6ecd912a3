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
QUERY_FREE = ("semple2.chow", "semple2.poly", "semple2.potentials", "semple2.verify",
              "fractions")


def run_child(body: str) -> str:
    """Run `body` in a fresh interpreter and return its stdout."""
    src = str(Path(semple2.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    env.pop("SEMPLE2_CACHE", None)
    proc = subprocess.run([sys.executable, "-c", body], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def modules_after_cli(*argvs) -> set:
    """The modules loaded once `cli.main` has run each argv in one fresh process."""
    out = run_child(
        "import contextlib, io, sys\n"
        "from semple2 import cli\n"
        f"for argv in {[list(a) for a in argvs]!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "print(*sys.modules)\n")
    return set(out.split())


def test_warm_queries_load_neither_the_ring_nor_the_polynomials_nor_the_oracles(tmp_path):
    cache = str(tmp_path / "cache.json")
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
    # the recursion runs the shipped stencil; deriving it is the self-test's job
    loaded = modules_after_cli(("table", "--max-degree", "3"))
    assert "semple2.recursion" in loaded
    assert loaded.isdisjoint(QUERY_FREE)


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
    assert not hasattr(semple2, "reference_table")


def test_selftest_builds_each_gluing_matrix_once_per_process():
    out = run_child(
        "import semple2.potentials as potentials\n"
        "caps = []\n"
        "build = potentials.build_gluing_matrix\n"
        "def counted(cap):\n"
        "    caps.append(cap)\n"
        "    return build(cap)\n"
        "potentials.build_gluing_matrix = counted\n"
        "from semple2.verify import run_selftest\n"
        "assert all(r.passed for r in run_selftest(8))\n"
        "first = list(caps)\n"
        "assert all(r.passed for r in run_selftest(8))\n"
        "print((first, caps))\n")
    assert ast.literal_eval(out) == ([2, 3], [2, 3])


def test_public_builder_returns_a_fresh_matrix():
    first, second = build_gluing_matrix(2), build_gluing_matrix(2)
    assert first is not second and first.entries == second.entries
