import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import semple2
from semple2 import cli, recursion
from semple2.recursion import INVARIANT_LABELS, load_table, save_table
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


def test_tiny_hostile_cache_fails_count_at_once(tmp_path, capsys, monkeypatch):
    # refused before the point row, which up to degree 3000 would take minutes
    def refuse():
        raise AssertionError("point row computed")

    monkeypatch.setattr(recursion, "_point_counts", refuse)
    path = tmp_path / "bad.json"
    path.write_text('{"3000": {}}', encoding="utf-8")
    code, out, err = run(capsys, "count", "--degree", "2", "--points", "5",
                         "--cache", str(path))
    assert (code, out) == (4, "")
    assert "13 labels" in err


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
    src = str(Path(semple2.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    env.pop("SEMPLE2_CACHE", None)
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
    src = str(Path(semple2.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    env.pop("SEMPLE2_CACHE", None)
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
    path.write_text(json.dumps(data), encoding="utf-8")
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
