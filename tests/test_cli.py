import ast
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semple2
from semple2 import cli, recursion
from semple2.recursion import (
    INVARIANT_LABELS,
    compute_up_to,
    load_table,
    save_table,
    table_to_json,
)
from semple2.verify import TABLE1_REFERENCE

TABLE6_CSV = """\
invariant,1,2,3,4,5,6
h2hd,1,1,10,428,51040,13300176
h2z,3,3,30,1284,153120,39900528
hd2z,-3,0,21,1452,216180,64150200
h2.h2,1,1,12,620,87304,26312976
h2.hd2,0,2,36,2184,335792,106976160
h2.hz,0,6,108,6552,1007376,320928480
h2.hdz,-3,0,54,4872,894528,315755712
hd2.hd2,0,4,100,7200,1222192,415085088
hd2.hz,0,12,300,21600,3666576,1245255264
hd2.hdz,0,0,150,15912,3223944,1214002800
hz.hz,0,36,900,64800,10999728,3735765792
hz.hdz,0,0,450,47736,9671832,3642008400
hdz.hdz,9,0,63,22860,6556140,2948122440
"""


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def child_env() -> dict:
    """The environment of a child interpreter that imports this tree's semple2."""
    src = str(Path(semple2.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    env.pop("SEMPLE2_CACHE", None)
    return env


def test_table_csv_matches_reference(capsys):
    code, out, _ = run(capsys, "table", "--max-degree", "6", "--format", "csv")
    assert code == 0
    assert out == TABLE6_CSV


def test_table_json_uses_decimal_strings(capsys):
    code, out, _ = run(capsys, "table", "--max-degree", "6", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["labels"] == list(INVARIANT_LABELS)
    assert data["values"]["hdz.hdz"][5] == "2948122440"
    for label, row in data["values"].items():
        assert [int(v) for v in row] == list(TABLE1_REFERENCE[label])


@pytest.mark.parametrize("dmax", [1, 2, 40])
def test_table_json_keeps_the_bytes_of_json_dumps_with_indent_2(tmp_path, capsys, dmax):
    # the table and its cache are written without json; both keep its layout
    path = tmp_path / "cache.json"
    code, out, _ = run(capsys, "table", "--max-degree", str(dmax), "--format", "json",
                       "--cache", str(path))
    assert code == 0
    table = load_table(str(path))
    assert table == compute_up_to(dmax)
    data = {"max_degree": dmax, "labels": list(INVARIANT_LABELS),
            "values": {label: [str(table.get(d, label)) for d in range(1, dmax + 1)]
                       for label in INVARIANT_LABELS}}
    assert out == json.dumps(data, indent=2) + "\n" == json.dumps(json.loads(out), indent=2) + "\n"
    cache = path.read_text(encoding="utf-8")
    assert cache == json.dumps(json.loads(cache), indent=2) + "\n"


def test_table_degree_one(capsys):
    code, out, _ = run(capsys, "table", "--max-degree", "1", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1] == "h2hd,1"


def test_table_pretty_runs(capsys):
    code, out, _ = run(capsys, "table", "--max-degree", "2")
    assert code == 0
    assert "invariant" in out and "h2hd" in out


def test_table_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "table", "--max-degree", "7", "--format", "json")
    _, second, _ = run(capsys, "table", "--max-degree", "7", "--format", "json")
    assert first == second


def test_table_uses_cache(tmp_path, capsys):
    path = str(tmp_path / "cache.json")
    code, out1, _ = run(capsys, "table", "--max-degree", "5", "--format", "csv",
                        "--cache", path)
    assert code == 0
    code, out2, _ = run(capsys, "table", "--max-degree", "5", "--format", "csv",
                        "--cache", path)
    assert code == 0
    assert out1 == out2
    assert json.loads(Path(path).read_text())["5"]["h2hd"] == "51040"


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "envcache.json")
    monkeypatch.setenv(cli.CACHE_ENV, path)
    code, _, _ = run(capsys, "table", "--max-degree", "2", "--format", "csv")
    assert code == 0
    assert "2" in json.loads(Path(path).read_text())


def test_corrupt_cache_fails_table(tmp_path, capsys):
    path = tmp_path / "cache.json"
    path.write_text("{broken", encoding="utf-8")
    code, _, err = run(capsys, "table", "--max-degree", "2", "--cache", str(path))
    assert code == 4
    assert "cache" in err


def test_cache_with_wrong_point_count_fails_count(tmp_path, capsys):
    path = str(tmp_path / "cache.json")
    assert run(capsys, "table", "--max-degree", "6", "--cache", path)[0] == 0
    with open(path) as handle:
        data = json.load(handle)
    data["5"]["h2.h2"] = str(int(data["5"]["h2.h2"]) + 1)
    with open(path, "w") as handle:
        json.dump(data, handle, indent=2)
    code, out, err = run(capsys, "count", "--degree", "5", "--points", "14",
                         "--cache", path)
    assert code == 4
    assert out == ""
    assert "point count" in err


def refused_at_once(tmp_path, capsys, text):
    """The exit code, stdout and stderr of `count` on a cache `text`."""
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    return run(capsys, "count", "--degree", "2", "--points", "5", "--cache", str(path))


def test_tiny_hostile_cache_fails_count_at_once(tmp_path, capsys, point_draws):
    # a cache opens with degree 1: a first key of 3000 is refused unread
    text = table_to_json(compute_up_to(1)).replace('"1": {', '"3000": {')
    code, out, err = refused_at_once(tmp_path, capsys, text)
    assert (code, out) == (4, "")
    assert "degree 1 of the cache reads '3000' where semple2 writes '1'" in err
    assert point_draws[0] == 0


def test_a_hostile_degree_the_text_could_hold_fails_count_before_the_point_row(
        tmp_path, capsys, point_draws):
    # the point row up to degree 3000 would take minutes; degree 2 follows
    # degree 1, which is checked in full, its point count the one drawn
    text = table_to_json(compute_up_to(8)).replace('"2": {', '"3000": {')
    code, out, err = refused_at_once(tmp_path, capsys, text)
    assert (code, out) == (4, "")
    assert "degree 2 of the cache reads '3000' where semple2 writes '2'" in err
    assert point_draws[0] == 1


def test_a_cache_value_semple2_never_writes_fails_count(tmp_path, capsys):
    path = str(tmp_path / "cache.json")
    assert run(capsys, "table", "--max-degree", "6", "--cache", path)[0] == 0
    with open(path) as handle:
        data = json.load(handle)
    data["4"]["h2hd"] = "4_28"
    with open(path, "w") as handle:
        json.dump(data, handle, indent=2)
    code, out, err = run(capsys, "count", "--degree", "4", "--points", "11",
                         "--cache", path)
    assert (code, out) == (4, "")
    assert "bad integer for h2hd at degree 4" in err


def test_a_query_validates_only_the_degrees_it_reads(tmp_path, capsys):
    # degree-30 h2.h2 one too large: a degree-5 query reads degrees 1..5 and
    # answers; a degree-30 query and verify --cache read degree 30 and refuse
    path = str(tmp_path / "cache.json")
    compute_up_to(40, cache_path=path)
    with open(path) as handle:
        data = json.load(handle)
    data["30"]["h2.h2"] = str(int(data["30"]["h2.h2"]) + 1)
    with open(path, "w") as handle:
        json.dump(data, handle, indent=2)
    assert run(capsys, "count", "--degree", "5", "--points", "14", "--cache", path) == \
        (0, "87304\n", "")
    code, out, err = run(capsys, "count", "--degree", "30", "--points", "89", "--cache", path)
    assert (code, out) == (4, "")
    assert "degree 30 fails the point count" in err
    code, out, err = run(capsys, "verify", "--max-degree", "2", "--cache", path)
    assert code == 4
    assert err.splitlines()[-1] == "FAIL cache-validation [-]"


@pytest.mark.parametrize("argv, status", [
    (["contact", "--degree", "30", "--plucker", "3,0,0", "--curve", "2,2,0"], 2),
    (["count", "--degree", "30", "--points", "5"], 2),
    (["count", "--degree", "30", "--points", "-1"], 2),
    (["count", "--degree", "30", "--points", "85",
      "--osculate", "2,2,0", "--osculate", "2,2,0"], 3),
    (["contact", "--degree", "30", "--curve", "2,x,0"], 2),
    (["contact", "--degree", "30", "--curve", "0,0,0"], 2),
    (["count", "--degree", "30", "--points", "88", "--tangent", "0,0,0"], 2),
    (["count", "--degree", "30", "--points", "87", "--osculate", "0,0,0"], 2),
])
def test_a_refused_request_computes_nothing_and_writes_no_cache(
        tmp_path, capsys, monkeypatch, argv, status):
    def refuse(d, forms, row):
        raise AssertionError(f"degree {d} computed")

    monkeypatch.setattr(recursion, "recursion_rhs", refuse)
    path = tmp_path / "cache.json"
    code, out, err = run(capsys, *argv, "--cache", str(path))
    assert (code, out) == (status, "")
    assert err.startswith("error: ")
    assert not path.exists()


def test_missing_cache_directory_is_a_cache_error(tmp_path, capsys):
    path = tmp_path / "no" / "such" / "dir" / "cache.json"
    code, out, err = run(capsys, "table", "--max-degree", "3", "--cache", str(path))
    assert code == 4
    assert out == ""
    assert err.startswith("error: cannot write cache") and err.count("\n") == 1
    assert not (tmp_path / "no").exists()


def test_contact_formula_only(capsys):
    code, out, _ = run(capsys, "contact", "--degree", "4")
    assert code == 0
    assert out == "N_4(C) = 1452c+1284č+428κ\n"


def test_contact_with_curve(capsys):
    code, out, _ = run(capsys, "contact", "--degree", "3", "--curve", "2,2,0")
    assert code == 0
    assert "count = 102" in out


def test_contact_smooth_cubic_flexes(capsys):
    code, out, _ = run(capsys, "contact", "--degree", "1", "--curve", "3,6,0")
    assert code == 0
    assert "count = 9" in out


def test_contact_plucker_form(capsys):
    code, out, _ = run(capsys, "contact", "--degree", "1", "--plucker", "3,1,0")
    assert code == 0
    assert "count = 3" in out


def test_contact_nodes_cusps_form(capsys):
    code, out, _ = run(capsys, "contact", "--degree", "1", "--plucker", "3,0,1")
    assert code == 0
    assert "count = 1" in out


def test_contact_json(capsys):
    code, out, _ = run(capsys, "contact", "--degree", "6", "--format", "json",
                       "--curve", "2,2,0")
    assert code == 0
    data = json.loads(out)
    assert data["coefficients"] == {
        "c": "64150200", "class": "39900528", "kappa": "13300176"}
    assert data["count"] == str(64150200 * 2 + 39900528 * 2)


def test_contact_conflicting_curve_options(capsys):
    code, out, err = run(capsys, "contact", "--degree", "2",
                         "--curve", "3,6,0", "--plucker", "3,0,0")
    assert (code, out) == (2, "")
    assert err == "error: give either --curve or --plucker\n"


def test_contact_plucker_rejects_explicit_curve_options(capsys):
    # contact takes its curve only through --curve or --plucker
    for extra in (("--c", "2"), ("--class", "2"), ("--kappa", "0"),
                  ("--nodes", "1"), ("--cusps", "0")):
        with pytest.raises(SystemExit) as info:
            cli.main(["contact", "--degree", "3", "--plucker", "3,1,0", *extra])
        out, err = capsys.readouterr()
        assert (info.value.code, out) == (2, ""), extra
        assert f"unrecognized arguments: {' '.join(extra)}" in err


@pytest.mark.parametrize("argv", [
    ["table", "--max", "6"],
    ["table", "--max-degree", "2", "--form", "csv"],
    ["count", "--deg", "1", "--points", "2"],
    ["contact", "--degree", "2", "--pl", "3,1,0"],
    ["contact", "--degree", "3", "--cu", "2,2,0"],
    ["chow-eval", "h", "--int"],
    ["verify", "--max-degree", "1", "--cach", "cache.json"],
])
def test_an_option_prefix_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert (info.value.code, capsys.readouterr().out) == (2, "")


def test_count_points_only(capsys):
    code, out, _ = run(capsys, "count", "--degree", "3", "--points", "8")
    assert code == 0
    assert out == "12\n"


def test_count_tangent_conic(capsys):
    code, out, _ = run(capsys, "count", "--degree", "2", "--points", "4",
                       "--tangent", "2,2,0")
    assert code == 0
    assert out == "6\n"


def test_count_osculate_json(capsys):
    code, out, _ = run(capsys, "count", "--degree", "3", "--points", "6",
                       "--osculate", "2,2,0", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == "102"
    assert data["osculate"] == [[2, 2, 0]]


def test_count_unsupported_profile(capsys):
    code, _, err = run(capsys, "count", "--degree", "3", "--points", "3",
                       "--osculate", "2,2,0", "--osculate", "2,2,0")
    assert code == 3
    assert "outside the stored thirteen" in err
    assert "hd2z.hd2z" in err


def test_count_bad_point_count(capsys):
    code, _, err = run(capsys, "count", "--degree", "2", "--points", "3")
    assert code == 2
    assert "error" in err


def test_count_malformed_curve_spec(capsys):
    code, _, err = run(capsys, "count", "--degree", "2", "--points", "4",
                       "--tangent", "2;2;0")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("argv, message", [
    (["count", "--degree", "2", "--points", "4", "--tangent", "2,x,0"],
     "bad curve triple '2,x,0'"),
    (["contact", "--degree", "2", "--curve", "2,x,0"], "bad curve triple '2,x,0'"),
    (["contact", "--degree", "2", "--plucker", "3,-1,0"],
     "singularity counts must be nonnegative"),
])
def test_a_bad_curve_triple_is_a_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["contact", "--degree", "2", "--curve", "0,0,0"],
    ["contact", "--degree", "2", "--plucker", "0,0,0"],
    ["count", "--degree", "2", "--points", "4", "--tangent", "0,0,0"],
    ["count", "--degree", "3", "--points", "6", "--osculate", "0,2,0"],
    ["count", "--degree", "2", "--points", "3", "--tangent", "2,2,0", "--tangent", "0,1,0"],
])
def test_a_curve_of_degree_zero_is_refused_in_every_curve_option(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: curve degree must be at least 1\n"


def test_a_degree_one_curve_warns_in_one_line_and_prints_the_same_count():
    # the count is the one the formula gives; the line is the only stderr
    env = child_env()
    proc = subprocess.run([sys.executable, "-m", "semple2.cli", "contact", "--degree", "3",
                           "--curve", "1,0,0"], env=env, capture_output=True, text=True,
                          timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "N_3(C) = 21c+30č+10κ\ncount = 21\n")
    assert proc.stderr == ("warning: a degree-1 curve is a line; the contact formulas "
                           "assume the fixed curves contain no line\n")


@pytest.mark.parametrize("argv, stdout", [
    (["contact", "--degree", "3", "--curve", "1,0,0"], "N_3(C) = 21c+30č+10κ\ncount = 21\n"),
    (["contact", "--degree", "3", "--plucker", "1,0,0"], "N_3(C) = 21c+30č+10κ\ncount = 21\n"),
    (["count", "--degree", "3", "--points", "7", "--tangent", "1,0,0"], "36\n"),
], ids=["curve", "plucker", "tangent"])
def test_a_degree_one_curve_is_refused_in_one_line_where_warnings_are_errors(
        tmp_path, argv, stdout):
    env = child_env()
    line = "a degree-1 curve is a line; the contact formulas assume the fixed curves contain no line"
    for flags, code, out, err in (([], 0, stdout, f"warning: {line}\n"),
                                  (["-W", "error"], 2, "", f"error: {line}\n")):
        path = tmp_path / f"cache{code}.json"
        proc = subprocess.run([sys.executable, *flags, "-m", "semple2.cli", *argv,
                               "--cache", str(path)],
                              env=env, capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err), flags
        assert path.exists() == (code == 0)


@pytest.mark.parametrize("argv, option, value", [
    (["count", "--degree", "３", "--points", "8"], "--degree", "'３'"),
    (["count", "--degree", "1_0", "--points", "8"], "--degree", "'1_0'"),
    (["count", "--degree", "3", "--points", "1_0"], "--points", "'1_0'"),
    (["count", "--degree", "3", "--points", "８"], "--points", "'８'"),
    (["contact", "--degree", "٣"], "--degree", "'٣'"),
    (["table", "--max-degree", "３"], "--max-degree", "'３'"),
    (["verify", "--max-degree", "1_0"], "--max-degree", "'1_0'"),
    (["count", "--degree", "-1", "--points", "0"], "--degree", None),
    (["contact", "--degree", "0"], "--degree", None),
    (["table", "--max-degree", "0"], "--max-degree", None),
    (["verify", "--max-degree", "-3"], "--max-degree", None),
])
def test_an_integer_option_takes_ascii_digits_and_a_degree_at_least_one(
        capsys, argv, option, value):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    out, err = capsys.readouterr()
    assert (info.value.code, out) == (2, "")
    wanted = (f"invalid int value: {value}" if value is not None
              else f"must be at least 1, got {int(argv[argv.index(option) + 1])}")
    assert err.endswith(f": error: argument {option}: {wanted}\n")


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python converts ints of any length")
def test_an_option_past_the_int_str_digit_limit_is_an_invalid_int(capsys):
    # options are read before the CLI lifts the limit, so int() refuses it
    digits = "1" * 4400
    with pytest.raises(SystemExit) as info:
        cli.main(["table", "--max-degree", digits])
    out, err = capsys.readouterr()
    assert (info.value.code, out) == (2, "")
    assert err.endswith(f": error: argument --max-degree: invalid int value: '{digits}'\n")


@pytest.mark.parametrize("argv", [
    ["count", "--degree", "2", "--points", "4", "--tangent", "２, 2 ,0"],
    ["count", "--degree", "3", "--points", "6", "--osculate", "2,2_0,0"],
    ["contact", "--degree", "3", "--curve", "2,2,０"],
    ["contact", "--degree", "3", "--plucker", "3,1_0,0"],
])
def test_a_curve_field_takes_ascii_digits_only(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: bad curve triple {argv[-1]!r}\n"


def test_integers_keep_their_signs_and_surrounding_spaces(capsys):
    code, out, _ = run(capsys, "count", "--degree", " +2 ", "--points", "4 ",
                       "--tangent", " 2, +2 ,0 ")
    assert (code, out) == (0, "6\n")


def test_chow_eval_product_vanishes(capsys):
    code, out, _ = run(capsys, "chow-eval", "i*z")
    assert code == 0
    assert out == "0\n"


def test_chow_eval_integrate(capsys):
    code, out, _ = run(capsys, "chow-eval", "h^2*hd*z", "--integrate")
    assert code == 0
    assert out == "1\n"


def test_chow_eval_integrate_json(capsys):
    code, out, _ = run(capsys, "chow-eval", "h^2*hd*z", "--integrate", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"expression": "h^2*hd*z", "basis": "z", "coords": {"211": "1"},
                               "normal_form": "h^2*hd*z", "integral": "1"}


def test_chow_eval_i_basis(capsys):
    code, out, _ = run(capsys, "chow-eval", "hz - 3*hd^2", "--basis", "i")
    assert code == 0
    assert out == "h*i\n"


def test_chow_eval_json(capsys):
    code, out, _ = run(capsys, "chow-eval", "z*z", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["coords"] == {"101": "-3", "011": "3"}
    assert data["normal_form"] == "-3*h*z + 3*hd*z"


def test_chow_eval_parse_error(capsys):
    code, _, err = run(capsys, "chow-eval", "h +")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("expr", ["(" * 3000 + "h" + ")" * 3000, "-" * 3000 + "h"])
def test_chow_eval_deep_nesting_is_a_parse_error(capsys, expr):
    code, out, err = run(capsys, "chow-eval", "--", expr)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "nested deeper" in err


@pytest.mark.parametrize("expr, message", [
    ("1" + "0" * 400000 + "*h", "longer than 4300 digits"),
    ("2^999999", "more than 4300 digits"),
    ("(1+h)^" + "9" * 4300, "exponent above"),
])
def test_chow_eval_refuses_numbers_past_the_bounds(capsys, expr, message):
    code, out, err = run(capsys, "chow-eval", expr, "--integrate")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and message in err


def test_verify_passes(capsys):
    code, out, err = run(capsys, "verify", "--max-degree", "2")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 9
    assert all(r["status"] == "pass" for r in reports)
    assert err.count("PASS") == 9


def test_verify_corrupt_cache(tmp_path, capsys):
    path = tmp_path / "cache.json"
    path.write_text('{"1": {"h2hd": "7"}}', encoding="utf-8")
    code, out, _ = run(capsys, "verify", "--max-degree", "1", "--cache", str(path))
    assert code == 4
    reports = json.loads(out)
    assert reports[-1]["name"] == "cache-validation"
    assert reports[-1]["status"] == "fail"


def test_verify_compares_the_cache_with_the_computed_table(tmp_path, capsys, table8):
    # hd2z is in no 3:1 identity and is not the point row, so loading passes
    path = tmp_path / "bad.json"
    save_table(table8, str(path))
    data = json.loads(path.read_text(encoding="utf-8"))
    data["5"]["hd2z"] = str(int(data["5"]["hd2z"]) + 1)
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    load_table(str(path))
    code, out, err = run(capsys, "verify", "--max-degree", "6", "--cache", str(path))
    assert code == 4
    report = json.loads(out)[-1]
    assert report["name"] == "cache-validation" and report["status"] == "fail"
    assert report["actual"] == "hd2z(d=5)=216181 computed 216180"
    assert report["degrees"] == "1..6"
    assert "FAIL cache-validation" in err


def test_verify_reads_no_cache_from_the_environment_and_writes_none(
        tmp_path, capsys, monkeypatch):
    # only the three computing subcommands take $SEMPLE2_CACHE and persist degrees
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path / "env.json"))
    code, out, _ = run(capsys, "verify", "--max-degree", "3")
    assert code == 0
    assert "cache-validation" not in [r["name"] for r in json.loads(out)]
    missing = tmp_path / "missing.json"
    code, out, _ = run(capsys, "verify", "--max-degree", "3", "--cache", str(missing))
    assert code == 4
    assert json.loads(out)[-1]["name"] == "cache-validation"
    assert list(tmp_path.iterdir()) == []


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main([])
    assert info.value.code == 2


def test_missing_required_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["table"])
    assert info.value.code == 2


def test_an_invariant_past_the_int_str_digit_limit_is_printed():
    # 5000 digits, past the 4300 that Python 3.11 and 3.10.7+ print by default
    body = ("import sys\n"
            "from semple2 import cli\n"
            "from semple2.recursion import INVARIANT_LABELS, InvariantTable\n"
            "table = InvariantTable({1: {lbl: 10 ** 4999 for lbl in INVARIANT_LABELS}})\n"
            "cli.compute_up_to = lambda dmax, cache_path=None: table\n"
            "sys.exit(cli.main(['table', '--max-degree', '1', '--format', 'json']))\n")
    src = str(Path(semple2.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", body], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    values = json.loads(proc.stdout)["values"]
    assert values == {label: ["1" + "0" * 4999] for label in INVARIANT_LABELS}


def test_main_puts_the_digit_limit_back(capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    before = limit()
    assert run(capsys, "table", "--max-degree", "2")[0] == 0
    assert run(capsys, "chow-eval", "h +")[0] == 2
    assert limit() == before


# the option grammar: `--opt value` and `--opt=value`, the last of a repeated
# option wins and a repeatable one keeps its order, `--` ends the options,
# `-h`/`--help` prints usage to stdout, and a usage error exits 2 with no stdout

HELP_OPTIONS = {
    "table": ("--max-degree", "--format", "--cache"),
    "contact": ("--degree", "--curve", "--plucker", "--format", "--cache"),
    "count": ("--degree", "--points", "--tangent", "--osculate", "--format", "--cache"),
    "chow-eval": ("expr", "--basis", "--integrate", "--format"),
    "verify": ("--max-degree", "--cache"),
}


def usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as info:
        cli.main(list(argv))
    out, err = capsys.readouterr()
    assert (info.value.code, out) == (2, ""), argv
    return err


def test_an_option_takes_its_value_after_an_equals_sign(capsys):
    code, out, _ = run(capsys, "table", "--max-degree=3", "--format=csv")
    assert code == 0
    assert out == "".join(",".join(row.split(",")[:4]) + "\n"
                          for row in TABLE6_CSV.splitlines())


def test_the_last_of_a_repeated_option_wins(capsys):
    assert run(capsys, "count", "--degree", "3", "--points", "5", "--points", "8") \
        == (0, "12\n", "")
    assert run(capsys, "count", "--degree=1", "--degree", "3", "--points", "8")[:2] \
        == (0, "12\n")


def test_repeated_curve_options_keep_their_order(capsys):
    code, out, _ = run(capsys, "count", "--degree", "2", "--points", "3",
                       "--tangent", "2,2,0", "--format", "json", "--tangent=3,6,0")
    assert code == 0
    assert json.loads(out)["tangent"] == [[2, 2, 0], [3, 6, 0]]


@pytest.mark.parametrize("argv", [
    ["chow-eval", "--integrate", "h^2*hd*z"],
    ["chow-eval", "--basis", "z", "h^2*hd*z", "--integrate"],
    ["chow-eval", "--integrate", "--", "h^2*hd*z"],
])
def test_options_go_before_or_after_the_expression(capsys, argv):
    assert run(capsys, *argv) == (0, "1\n", "")


def test_a_double_dash_ends_the_options(capsys):
    assert run(capsys, "chow-eval", "--", "-h") == (0, "-h\n", "")
    assert run(capsys, "chow-eval", "--basis", "i", "--", "-hd") == (0, "-hd\n", "")


def test_a_negative_number_is_a_value_and_a_dash_word_is_not(capsys):
    err = usage_error(capsys, "count", "--degree", "-1", "--points", "0")
    assert err.endswith("semple2 count: error: argument --degree: must be at least 1, got -1\n")
    err = usage_error(capsys, "table", "--max-degree", "2", "--cache", "-x")
    assert err.endswith("semple2 table: error: argument --cache: expected one argument\n")
    err = usage_error(capsys, "table", "--max-degree")
    assert err.endswith("semple2 table: error: argument --max-degree: expected one argument\n")


@pytest.mark.parametrize("argv", [[], ["bogus"], ["bogus", "--max-degree", "2"],
                                  ["--max-degree", "2"]])
def test_a_missing_or_unknown_subcommand_is_a_usage_error(capsys, argv):
    usage_error(capsys, *argv)


@pytest.mark.parametrize("argv, line", [
    ([], "semple2: error: the following arguments are required: command"),
    (["bogus"], "semple2: error: argument command: invalid choice: 'bogus' "
                "(choose from 'table', 'contact', 'count', 'chow-eval', 'verify')"),
])
def test_a_top_level_usage_error_ends_with_its_pinned_line(capsys, argv, line):
    err = usage_error(capsys, *argv)
    assert err.startswith("usage: semple2 [-h] ")
    assert err.splitlines()[-1] == line


def test_a_value_outside_the_choices_is_a_usage_error(capsys):
    err = usage_error(capsys, "table", "--max-degree", "2", "--format", "xml")
    assert err.endswith("semple2 table: error: argument --format: invalid choice: 'xml' "
                        "(choose from 'json', 'csv', 'pretty')\n")
    err = usage_error(capsys, "chow-eval", "h", "--basis=y")
    assert "semple2 chow-eval: error: argument --basis: invalid choice: 'y'" in err


@pytest.mark.parametrize("argv, message", [
    (["table"], "the following arguments are required: --max-degree"),
    (["count", "--points", "5"], "the following arguments are required: --degree"),
    (["chow-eval", "--integrate"], "the following arguments are required: expr"),
    (["chow-eval", "h", "z"], "unrecognized arguments: z"),
    (["table", "--max-degree", "2", "x"], "unrecognized arguments: x"),
    (["chow-eval", "h", "--integrate=yes"],
     "argument --integrate: ignored explicit argument 'yes'"),
])
def test_a_usage_error_names_what_is_wrong(capsys, argv, message):
    err = usage_error(capsys, *argv)
    assert err.startswith("usage: semple2") and message in err


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize("command", [None, *HELP_OPTIONS])
def test_help_prints_usage_to_stdout_and_exits_zero(capsys, command, flag):
    argv = [flag] if command is None else [command, flag]
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    out, err = capsys.readouterr()
    assert (info.value.code, err) == (0, "")
    assert out.startswith("usage: semple2")
    names = HELP_OPTIONS if command is None else HELP_OPTIONS[command]
    assert all(name in out for name in names), out


def help_text(capsys, *argv) -> str:
    """The help `argv` prints, its whitespace joined: argparse wraps it to the
    terminal width."""
    with pytest.raises(SystemExit) as info:
        cli.main(list(argv))
    out, err = capsys.readouterr()
    assert (info.value.code, err) == (0, "")
    return " ".join(out.split())


def test_the_top_level_help_shows_each_subcommand_and_its_help_line(capsys):
    out = help_text(capsys, "--help")
    for line in ("table emit the invariant table",
                 "contact triple-contact formula and counts",
                 "count count curves meeting a condition profile",
                 "chow-eval normalize a ring expression",
                 "verify run the self-test oracles"):
        assert line in out, line


HELP_METAVARS = {
    "table": ("--max-degree MAX_DEGREE", "--format {json,csv,pretty}", "--cache CACHE"),
    "contact": ("--degree DEGREE", "--curve C,CLASS,KAPPA", "--plucker C,NODES,CUSPS",
                "--format {json,pretty}", "--cache CACHE"),
    "count": ("--degree DEGREE", "--points POINTS", "--tangent C,CLASS,KAPPA",
              "--osculate C,CLASS,KAPPA", "--format {json,pretty}", "--cache CACHE"),
    "chow-eval": ("expr", "--basis {z,i}", "--integrate", "--format {json,pretty}"),
    "verify": ("--max-degree MAX_DEGREE", "--cache CACHE"),
}


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize("command", HELP_METAVARS)
def test_a_subcommand_help_shows_each_metavar_and_help_string(capsys, command, flag):
    out = help_text(capsys, command, flag)
    assert out.startswith(f"usage: semple2 {command} [-h] ")
    for invocation in HELP_METAVARS[command]:
        assert invocation in out, invocation
    texts = [arg[4] for arg in cli._arguments(command).values() if arg[4]]
    assert texts
    for text in texts:
        assert " ".join(text.split()) in out, text


def test_help_wins_over_a_missing_required_option(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["count", "--points", "5", "--help"])
    out, err = capsys.readouterr()
    assert (info.value.code, err) == (0, "")
    assert "--tangent" in out


#: strings json writes as they are, printable ASCII, and strings that mix
#: in what it escapes: quotes, backslashes, control characters, DEL,
#: non-ASCII and astral characters, and a lone surrogate
PRINTABLE_ASCII = st.characters(min_codepoint=0x20, max_codepoint=0x7e)
REPORT_TEXT = st.one_of(st.text(PRINTABLE_ASCII), st.text(st.one_of(
    PRINTABLE_ASCII,
    st.sampled_from('"\\\x00\x08\n\x1f\x7f\x80\xe9\u2028\ufeff\ud800\U0001f600'),
    st.characters())))


#: the values the subcommands print: ints and strings, and lists and dicts
#: with string keys of them, nested and empty ones included
PRINTED_VALUES = st.recursive(
    st.one_of(st.integers(), REPORT_TEXT),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(REPORT_TEXT, inner, max_size=4)),
    max_leaves=12)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(PRINTED_VALUES)
def test_the_json_writer_writes_the_bytes_of_json_dumps(value):
    assert cli._json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [True, None, 1.5, [0, False], {"key": None}, {1: "one"},
                                   ("a tuple",)])
def test_the_json_writer_refuses_any_other_type(value):
    # json.dumps writes each of these; no subcommand prints one
    with pytest.raises(TypeError):
        cli._json(value)


def test_verify_prints_the_bytes_of_json_dumps_also_where_a_report_needs_escaping(
        tmp_path, capsys):
    path = tmp_path / "cache.json"
    compute_up_to(8, cache_path=str(path))
    code, out, _ = run(capsys, "verify", "--max-degree", "8", "--cache", str(path))
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    # the cache-validation report quotes the unknown label with repr: a
    # non-ASCII letter, a quote and doubled backslashes
    label = "h\u00e9'\\\\"
    path.write_text(path.read_text(encoding="utf-8").replace('"h2hd"', f'"{label}"', 1),
                    encoding="utf-8")
    code, out, _ = run(capsys, "verify", "--max-degree", "2", "--cache", str(path))
    assert code == 4
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    assert json.loads(out)[-1]["actual"] == \
        "degree 1 of the cache reads \"h\u00e9'\\\\\\\\\" where semple2 writes 'h2hd'"


#: a 300,000-digit number, 300 KB that a message must not echo
HOSTILE_DIGITS = "1" + "0" * 299_999


#: how the message that refuses each hostile number starts
HOSTILE_REFUSAL = {"degree key": "error: degree 2 of the cache reads '1",
                   "value": "error: degree 2 fails the point count"}


@pytest.mark.parametrize("where", HOSTILE_REFUSAL)
def test_a_cache_with_a_300000_digit_number_is_refused_with_a_short_message(
        tmp_path, capsys, where):
    # the key, which is not the degree 2 that follows degree 1, is refused
    # unread; the value is degree 2's h2.h2, which the point count refuses
    path = tmp_path / "cache.json"
    compute_up_to(8, cache_path=str(path))
    text = path.read_text(encoding="utf-8")
    if where == "degree key":
        text = text.replace('"2": {', f'"{HOSTILE_DIGITS}": {{')
    else:
        data = json.loads(text)
        data["2"]["h2.h2"] = HOSTILE_DIGITS
        text = json.dumps(data, indent=2) + "\n"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "count", "--degree", "2", "--points", "5",
                         "--cache", str(path))
    assert (code, out) == (4, "")
    assert len(err.encode()) <= 300
    assert err.startswith(HOSTILE_REFUSAL[where]) and "(300000 characters)" in err


def test_verify_quotes_a_300000_digit_cached_value_in_a_short_report(tmp_path, capsys):
    # degree 2's h2.hdz is in no 3:1 identity and is not the point row, so
    # the cache loads, and cache-validation quotes it cut to its first 100
    # characters and its length
    path = tmp_path / "cache.json"
    compute_up_to(8, cache_path=str(path))
    data = json.loads(path.read_text(encoding="utf-8"))
    data["2"]["h2.hdz"] = HOSTILE_DIGITS
    path.write_text(json.dumps(data, indent=2), encoding="utf-8")
    code, out, err = run(capsys, "verify", "--max-degree", "2", "--cache", str(path))
    assert code == 4
    assert len(out.encode()) <= 3000 and len(err.encode()) <= 3000
    report = json.loads(out)[-1]
    assert report["name"] == "cache-validation" and report["status"] == "fail"
    assert report["actual"] == \
        f"h2.hdz(d=2)={HOSTILE_DIGITS[:100]}... (300000 characters) computed 0"


# run as the program (`main()` reading sys.argv), the CLI freezes its
# start-up heap; called with an explicit argv it leaves the collector alone,
# and either way it prints the same bytes

def test_main_run_as_the_program_freezes_the_start_up_heap():
    body = ("import contextlib, gc, io, sys\n"
            "from semple2 import cli\n"
            "sys.argv = ['semple2', 'count', '--degree', '3', '--points', '8']\n"
            "before = gc.get_freeze_count()\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main()\n"
            "print(before, gc.get_freeze_count(), code)\n")
    proc = subprocess.run([sys.executable, "-c", body], env=child_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    before, after, code = map(int, proc.stdout.split())
    assert (before, code) == (0, 0)
    assert after > 0


def test_main_with_an_explicit_argv_leaves_the_collector_as_it_found_it(capsys):
    def collector():
        return gc.get_freeze_count(), gc.isenabled(), gc.get_threshold()

    before = collector()
    assert run(capsys, "count", "--degree", "3", "--points", "8")[0] == 0
    assert run(capsys, "chow-eval", "h +")[0] == 2
    usage_error(capsys, "table", "--max-degree", "x")
    assert collector() == before


#: stands for the path of a cache that is refused at degree 1
REFUSED_CACHE = object()

#: (interpreter flags, argv, exit code): every subcommand, each exit code,
#: a refused cache, a `warning:` line, `-W error` and `-O`
PROGRAM_CASES = [
    pytest.param([], ["table", "--max-degree", "6", "--format", "csv"], 0, id="table"),
    pytest.param([], ["table", "--max-degree", "x"], 2, id="table-usage-error"),
    pytest.param([], [], 2, id="no-subcommand"),
    pytest.param([], ["--help"], 0, id="help"),
    pytest.param([], ["contact", "--degree", "3", "--curve", "2,2,0", "--format", "json"], 0,
                 id="contact"),
    pytest.param([], ["contact", "--degree", "3", "--curve", "1,0,0"], 0, id="contact-warning"),
    pytest.param(["-W", "error"], ["contact", "--degree", "3", "--curve", "1,0,0"], 2,
                 id="contact-warning-as-error"),
    pytest.param([], ["count", "--degree", "3", "--points", "8"], 0, id="count"),
    pytest.param([], ["count", "--degree", "3", "--points", "3",
                      "--osculate", "2,2,0", "--osculate", "2,2,0"], 3, id="count-unsupported"),
    pytest.param([], ["count", "--degree", "3", "--points", "8", "--cache", REFUSED_CACHE], 4,
                 id="count-refused-cache"),
    pytest.param([], ["chow-eval", "(1/2*i)^2", "--basis", "i"], 0, id="chow-eval"),
    pytest.param([], ["chow-eval", "h +"], 2, id="chow-eval-parse-error"),
    pytest.param([], ["verify", "--max-degree", "2"], 0, id="verify"),
    pytest.param([], ["verify", "--max-degree", "1", "--cache", REFUSED_CACHE], 4,
                 id="verify-refused-cache"),
    pytest.param(["-O"], ["verify", "--max-degree", "2"], 0, id="verify-O"),
    pytest.param(["-O"], ["table", "--max-degree", "12", "--format", "json"], 0, id="table-O"),
]


@pytest.mark.parametrize("flags, argv, code", PROGRAM_CASES)
def test_the_program_and_an_explicit_argv_print_the_same_bytes(tmp_path, flags, argv, code):
    cache = tmp_path / "refused.json"
    cache.write_text('{"1": {"h2hd": "7"}}', encoding="utf-8")
    argv = [str(cache) if arg is REFUSED_CACHE else arg for arg in argv]
    explicit = "import sys, semple2.cli as c; sys.exit(c.main(sys.argv[1:]))"
    results = []
    for entry in (["-m", "semple2.cli"], ["-c", explicit]):
        proc = subprocess.run([sys.executable, *flags, *entry, *argv], env=child_env(),
                              capture_output=True, timeout=120)
        results.append((proc.returncode, proc.stdout, proc.stderr))
    assert results[0] == results[1]
    assert results[0][0] == code, results[0][2]
    assert results[0][1] or results[0][2]
    assert cache.read_text(encoding="utf-8") == '{"1": {"h2hd": "7"}}'


def test_no_module_has_a_finalizer_a_frozen_heap_could_skip():
    # the collector never visits a frozen object, so a finalizer on a
    # start-up reference cycle of semple2's would not run at exit; semple2
    # defines none
    found = []
    for path in sorted(Path(semple2.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "__del__":
                found.append((path.name, "__del__"))
            elif isinstance(node, ast.Import):
                found += [(path.name, alias.name) for alias in node.names
                          if alias.name in ("atexit", "weakref")]
            elif isinstance(node, ast.ImportFrom) and node.module in ("atexit", "weakref"):
                found.append((path.name, node.module))
    assert found == []
