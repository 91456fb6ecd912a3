import ast
import io
import json
import tokenize
from contextlib import contextmanager
from pathlib import Path

import pytest

from semple2 import _kernel, chow, cli, contact, potentials, recursion, verify
from semple2.poly import monomial
from semple2.recursion import kontsevich, save_table
from semple2.verify import (
    TABLE1_REFERENCE,
    TABLE2_REFERENCE,
    expand_cover_series,
    run_selftest,
)

# classical counts of rational plane curves through 3d-1 general points
KONTSEVICH_KNOWN = (1, 1, 12, 620, 87304, 26312976, 14616808192, 13525751027392)


def test_kontsevich_known_values():
    for d, want in enumerate(KONTSEVICH_KNOWN, start=1):
        assert kontsevich(d) == want


def test_kontsevich_rejects_nonpositive_degree():
    with pytest.raises(ValueError):
        kontsevich(0)


def test_reference_tables_are_consistent():
    # the coefficient rows are columns of the invariant table
    for d, (a, b, k) in TABLE2_REFERENCE.items():
        assert (a, b, k) == (TABLE1_REFERENCE["hd2z"][d - 1],
                             TABLE1_REFERENCE["h2z"][d - 1],
                             TABLE1_REFERENCE["h2hd"][d - 1])


def test_expander_unknown_kind():
    for build in (potentials.build_cover_potential, expand_cover_series):
        with pytest.raises(ValueError, match="unknown cover kind 'septuple_cover'"):
            build("septuple_cover")


def test_selftest_all_pass():
    reports = run_selftest(3)
    assert len(reports) == 9
    assert all(r["status"] == "pass" for r in reports)
    names = [r["name"] for r in reports]
    assert names == [
        "dual-pairing-matrix", "ring-relations", "degree1-seed",
        "invariant-table", "ratio-identities", "kontsevich-oracle",
        "contact-coefficients", "gluing-cap-independence", "stencil-derivation",
    ]


def test_selftest_degree_one():
    reports = run_selftest(1)
    assert all(r["status"] == "pass" for r in reports)


def test_selftest_reports_are_machine_readable():
    for r in run_selftest(2):
        assert r["status"] == "pass"
        assert list(r) == ["name", "status", "expected", "actual", "degrees"]
        json.dumps(r)


def test_selftest_flags_corrupt_cache(tmp_path):
    path = tmp_path / "cache.csv"
    path.write_text("[]", encoding="utf-8")
    reports = run_selftest(2, cache_path=str(path))
    assert len(reports) == 10
    cache_report = reports[-1]
    assert cache_report["name"] == "cache-validation"
    assert cache_report["status"] == "fail"
    assert cache_report["actual"]  # carries the failure detail


def test_selftest_accepts_valid_cache(tmp_path, table8):
    path = str(tmp_path / "cache.csv")
    save_table(table8, path)
    reports = run_selftest(2, cache_path=path)
    assert reports[-1]["name"] == "cache-validation"
    assert reports[-1]["status"] == "pass"


def test_failing_report_carries_both_values():
    data = verify._report("demo", ["2"], "1..1", "1")
    assert data == {"name": "demo", "status": "fail", "expected": "1", "actual": "2",
                    "degrees": "1..1"}


@pytest.mark.parametrize("key, check", [
    (("001", "001"), verify._check_relations),  # z*z: breaks i*z = 0
    (("211", "000"), verify._check_pairing),    # top class times 1
])
def test_a_broken_ring_table_is_caught_in_verify(monkeypatch, key, check):
    assert check()["status"] == "pass"
    monkeypatch.setitem(chow._MULT, key, (0,) * 12)
    report = check()
    assert report["status"] == "fail" and report["actual"] != "no mismatches"


#: the text of the shipped kernel module
KERNEL_TEXT = Path(_kernel.__file__).read_text(encoding="utf-8")


#: the weight 2 of N_s N_t in the row formula of h2hd made 3
WEIGHT_EDIT = (" + 2 * NN\n", " + 3 * NN\n")

#: an index past the end of the column: degree_forms raises IndexError
RAISING_EDIT = ("v[12]", "v[99]")


@contextmanager
def edited_kernel(text):
    """The two functions of the module `text` in place of the shipped kernel's."""
    namespace = {}
    exec(compile(text, "<edited kernel>", "exec"), namespace)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernel, "degree_forms", namespace["degree_forms"])
        patch.setattr(_kernel, "kernel", namespace["kernel"])
        yield


def edited_kernel_report(text, matrix):
    with edited_kernel(text):
        return verify._check_stencil(matrix)


def test_a_changed_stencil_weight_fails_the_derivation_check(matrix2):
    assert verify._check_stencil(matrix2)["status"] == "pass"
    assert KERNEL_TEXT.count(WEIGHT_EDIT[0]) == 1
    report = edited_kernel_report(KERNEL_TEXT.replace(*WEIGHT_EDIT), matrix2)
    assert report["status"] == "fail"
    # h2hd and h2z, which recursion_rhs fills as three times h2hd
    assert report["actual"] == "; ".join(f"d={d}: the kernel differs at h2hd, h2z"
                                         for d in range(2, 7))


def edits_that_pass(matrix, edits):
    """The (line, column) of each edit (line, column, end column, new text)
    of the shipped kernel's text that the stencil-derivation check passes."""
    lines = KERNEL_TEXT.splitlines(keepends=True)
    passed = []
    for row, col, end, new in edits:
        edited = list(lines)
        edited[row - 1] = edited[row - 1][:col] + new + edited[row - 1][end:]
        if edited_kernel_report("".join(edited), matrix)["status"] == "pass":
            passed.append((row, col))
    return passed


def test_every_integer_literal_of_the_kernel_is_checked(matrix2):
    # each literal of the shipped kernel, one at a time, one larger
    literals = [node for node in ast.walk(ast.parse(KERNEL_TEXT))
                if isinstance(node, ast.Constant) and type(node.value) is int]
    assert len(literals) == 53
    assert edits_that_pass(matrix2, [(n.lineno, n.col_offset, n.end_col_offset, str(n.value + 1))
                                     for n in literals]) == []


def test_every_sign_of_the_kernel_is_checked(matrix2):
    # each + or - of the shipped kernel, one at a time, flipped
    signs = [token for token in tokenize.generate_tokens(io.StringIO(KERNEL_TEXT).readline)
             if token.type == tokenize.OP and token.string in ("+", "-")]
    assert len(signs) == 77
    assert edits_that_pass(matrix2, [(*t.start, t.end[1], "-" if t.string == "+" else "+")
                                     for t in signs]) == []


def test_a_kernel_that_raises_fails_the_derivation_check(matrix2):
    assert KERNEL_TEXT.count(RAISING_EDIT[0]) == 1
    report = edited_kernel_report(KERNEL_TEXT.replace(*RAISING_EDIT), matrix2)
    assert report["status"] == "fail"
    assert report["actual"] == "d=2: the kernel raised IndexError('tuple index out of range')"


def test_an_asymmetric_derived_stencil_fails_the_derivation_check(monkeypatch, matrix2):
    # the shipped kernel reads the swapped orientation off stencil[2 - j1]
    stencil = verify.derive_stencil(matrix2)
    first = stencil[0][0]
    bumped = ((first[:5] + (first[5] + 1,),) + stencil[0][1:],) + stencil[1:]
    monkeypatch.setattr(verify, "derive_stencil", lambda matrix: bumped)
    report = verify._check_stencil(matrix2)
    assert report["status"] == "fail" and report["actual"].startswith("d=2: the kernel differs at")


@pytest.mark.parametrize("edit, max_degree", [
    (WEIGHT_EDIT, "1"),
    (WEIGHT_EDIT, "2"),
    (RAISING_EDIT, "1"),
    # from degree 2 on the table itself runs the kernel, which raises there
    (RAISING_EDIT, "2"),
    (RAISING_EDIT, "8"),
])
def test_verify_exits_4_on_an_edited_kernel(capsys, edit, max_degree):
    with edited_kernel(KERNEL_TEXT.replace(*edit)):
        code = cli.main(["verify", "--max-degree", max_degree])
    out, err = capsys.readouterr()
    assert code == 4
    assert "FAIL stencil-derivation [2..6]" in err.splitlines()
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    stencil = next(r for r in json.loads(out) if r["name"] == "stencil-derivation")
    assert stencil["actual"].startswith("d=2: the kernel ")


def test_an_edited_kernel_fails_the_golden_table_gate(capsys):
    # the release gate of tests/test_cli.py can fail: the edited kernel
    # prints a degree-40 table other than the golden file
    golden = Path(__file__).resolve().parent.parent / "bench" / "golden_table.json"
    with edited_kernel(KERNEL_TEXT.replace(*WEIGHT_EDIT)):
        code = cli.main(["table", "--max-degree", "40", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0 and out.encode("utf-8") != golden.read_bytes()


def test_a_kernel_that_raises_fails_every_check_that_reads_the_table(tmp_path, table8):
    path = str(tmp_path / "cache.csv")
    save_table(table8, path)
    with edited_kernel(KERNEL_TEXT.replace(*RAISING_EDIT)):
        reports = run_selftest(8, cache_path=path)
    assert [r["name"] for r in reports] == [r["name"] for r in SELFTEST8_REPORT]
    failed = {r["name"]: r["actual"] for r in reports if r["status"] == "fail"}
    raised = "the recursion raised IndexError('tuple index out of range')"
    assert failed == {
        "invariant-table": raised, "ratio-identities": raised, "kontsevich-oracle": raised,
        "contact-coefficients": raised, "cache-validation": raised,
        "stencil-derivation": "d=2: the kernel raised IndexError('tuple index out of range')",
    }


def test_a_fractional_stencil_weight_fails_the_derivation_check(matrix2):
    # the (h, h) gluing entry feeds a unit weight; over 1009 it is no
    # integer: every other entry is scaled up as the denominator is
    entries, den = matrix2
    entries = {key: p if key == ("100", "100") else {m: 1009 * c for m, c in p.items()}
               for key, p in entries.items()}
    report = verify._check_stencil((entries, 1009 * den))
    assert report["status"] == "fail" and "is not an integer" in report["actual"]


@pytest.mark.parametrize("key", [key for key, row in chow._MULT.items() if any(row)])
def test_every_zeroed_product_fails_a_ring_check(monkeypatch, key):
    monkeypatch.setitem(chow._MULT, key, (0,) * 12)
    assert chow.relation_failures() + chow.pairing_failures()


def test_the_kontsevich_check_computes_the_row_once(monkeypatch, table8):
    calls = []
    row = verify.kontsevich_row

    def counted(dmax):
        calls.append(dmax)
        return row(dmax)

    monkeypatch.setattr(verify, "kontsevich_row", counted)
    assert verify._check_kontsevich(table8, 8)["status"] == "pass"
    assert calls == [8]
    assert all(r["status"] == "pass" for r in run_selftest(8))
    assert calls == [8, 8]


def test_the_selftest_multiplies_polynomials_314_times(monkeypatch):
    # 80 for each of the two gluing matrices (20 products left * mid, one
    # per (s, s2, t2), then 60 times right) and 154 in derive_stencil (56
    # products f * entry, one per (j1, i1, left insertion, t, weight of g),
    # then 98 times g): 314, where forming each triple product in full took
    # 120 + 120 + 196 = 436
    calls = []
    real = verify.mul

    def counted(a, b):
        calls.append(1)
        return real(a, b)

    # both modules bind poly.mul at import; no other module multiplies
    monkeypatch.setattr(potentials, "mul", counted)
    monkeypatch.setattr(verify, "mul", counted)
    assert all(r["status"] == "pass" for r in run_selftest(8))
    assert len(calls) == 80 + 80 + 154 < 436


def test_a_wrong_point_count_is_reported_with_both_values(table8):
    values = {d: table8.column(d) for d in table8.degrees()}
    values[5]["h2.h2"] += 1
    report = verify._check_kontsevich(recursion.InvariantTable(values), 8)
    assert report == {
        "name": "kontsevich-oracle", "status": "fail",
        "expected": "point-condition row equals the classical recursion",
        "actual": "d=5: 87305 expected 87304", "degrees": "1..8"}


def test_a_wrong_table_value_fails_the_reference_checks_with_both_values(table8):
    # h2z is a reference integer, three times h2hd and the class coefficient
    values = {d: table8.column(d) for d in table8.degrees()}
    values[5]["h2z"] += 1
    table = recursion.InvariantTable(values)
    reports = [verify._check_table1(table, 8), verify._check_ratios(table, 8),
               verify._check_table2(table, 8)]
    assert reports == [
        {"name": "invariant-table", "status": "fail", "expected": "78 reference integers",
         "actual": "h2z(d=5)=153121 expected 153120", "degrees": "1..6"},
        {"name": "ratio-identities", "status": "fail",
         "expected": "five 3:1 row identities per degree",
         "actual": "d=5: h2z != 3*h2hd (153121 vs 3*51040)", "degrees": "1..8"},
        {"name": "contact-coefficients", "status": "fail",
         "expected": "reference coefficient rows",
         "actual": "d=5: (216180, 153121, 51040) expected (216180, 153120, 51040)",
         "degrees": "1..6"}]


#: the report of `run_selftest(8)` with a valid degree-8 cache; without a
#: cache it is the same list less the last entry
SELFTEST8_REPORT = [
    {"name": "dual-pairing-matrix", "status": "pass",
     "expected": "144 Kronecker pairings", "actual": "no mismatches", "degrees": "-"},
    {"name": "ring-relations", "status": "pass",
     "expected": "i^2 = 3(h-hd)i, i*z = 0, 1 a unit, commuting basis products",
     "actual": "no mismatches", "degrees": "-"},
    {"name": "degree1-seed", "status": "pass",
     "expected": "the 13 printed degree-1 values", "actual": "no mismatches", "degrees": "1"},
    {"name": "invariant-table", "status": "pass",
     "expected": "78 reference integers", "actual": "no mismatches", "degrees": "1..6"},
    {"name": "ratio-identities", "status": "pass",
     "expected": "five 3:1 row identities per degree", "actual": "no mismatches",
     "degrees": "1..8"},
    {"name": "kontsevich-oracle", "status": "pass",
     "expected": "point-condition row equals the classical recursion",
     "actual": "no mismatches", "degrees": "1..8"},
    {"name": "contact-coefficients", "status": "pass",
     "expected": "reference coefficient rows", "actual": "no mismatches", "degrees": "1..6"},
    {"name": "gluing-cap-independence", "status": "pass",
     "expected": "caps 2 and 3 agree at weight <= 2", "actual": "no mismatches",
     "degrees": "-"},
    {"name": "stencil-derivation", "status": "pass",
     "expected": "the shipped kernel computes the stencil derived from the gluing matrix",
     "actual": "no mismatches", "degrees": "2..6"},
    {"name": "cache-validation", "status": "pass",
     "expected": "a valid cache file equal to the computed table",
     "actual": "no mismatches", "degrees": "1..8"},
]


def test_the_selftest_report_is_pinned(tmp_path, table8):
    path = str(tmp_path / "cache.csv")
    save_table(table8, path)
    assert run_selftest(8) == SELFTEST8_REPORT[:-1]
    assert run_selftest(8, cache_path=path) == SELFTEST8_REPORT


@pytest.mark.parametrize("dmax", range(1, 9))
def test_the_stencil_check_is_the_same_at_every_max_degree(dmax):
    stencil = next(r for r in SELFTEST8_REPORT if r["name"] == "stencil-derivation")
    assert stencil in run_selftest(dmax)


def edited_copy(module, edit):
    """The namespace of the module's text with `edit` (old, new) made in it,
    run as a module of the package; `old` must occur exactly once."""
    text = Path(module.__file__).read_text(encoding="utf-8")
    assert text.count(edit[0]) == 1
    namespace = {"__name__": f"{module.__name__}_edited", "__package__": "semple2"}
    exec(compile(text.replace(*edit), f"<edited {module.__name__}>", "exec"), namespace)
    return namespace


#: for a check, a mutation of the code it guards: the module, the edit, the
#: name whose edited copy stands in for the shipped one, and how the check
#: then reports it
CHECK_MUTATIONS = {
    # cdual and kappa swap their rows
    "contact-coefficients": (contact, ('("cdual", "h2z"), ("kappa", "h2hd")',
                                       '("cdual", "h2hd"), ("kappa", "h2z")'), "_CONTACT_PARTS",
                             "d=1: (-3, 1, 3) expected (-3, 3, 1); "),
    # each degree reads the binomial row of 3d-5 in place of 3d-4
    "kontsevich-oracle": (recursion, ("binomial_row(3 * d - 4, ", "binomial_row(3 * d - 5, "),
                          "_point_counts", "d=2: 1 expected 0; "),
    # the 3:1 fill is one too large past degree 6, where no reference reads it
    "ratio-identities": (recursion, ("column[big] = 3 * column[small]",
                                     "column[big] = 3 * column[small] + (d > 6)"),
                         "recursion_rhs", "d=7: h2z != 3*h2hd (19494228577 vs 3*6498076192)"),
    # a degree-1 value of the seed
    "invariant-table": (recursion, ('"hdz.hdz": 9', '"hdz.hdz": 10'), "SEED",
                        "hdz.hdz(d=1)=10 expected 9"),
    # the i-basis coordinates read off the class below the top one
    "dual-pairing-matrix": (chow, ('top = _LABEL_INDEX["211"]', 'top = _LABEL_INDEX["210"]'),
                            "to_i_basis", "pair(000,210)=1 expected 0"),
    # a numerator of the integer seed polynomial
    "degree1-seed": (verify, ('monomial({"y011": 2}): 9', 'monomial({"y011": 2}): 10'),
                     "SEED_NUMERATORS", "hdz.hdz: 10 expected 9"),
    # a product of two coordinates is one too large when the left factor has
    # three or more terms, as i has
    "ring-relations": (chow, ("f = x1 * x2", "f = x1 * x2 + (len(left) > 2)"), "mul_classes",
                       "i^2 != 3(h-hd)i; i*z != 0"),
    # the reader adds one to a row that no check of the cache reads
    "cache-validation": (recursion, ("column[label] = int(number)",
                                     'column[label] = int(number) + (label == "hd2z" and d == 5)'),
                         "table_from_csv", "hd2z(d=5)=216181 computed 216180"),
}


@pytest.mark.parametrize("check", CHECK_MUTATIONS)
def test_a_named_mutation_fails_exactly_its_check(monkeypatch, tmp_path, table8, check):
    module, edit, name, actual = CHECK_MUTATIONS[check]
    # only cache-validation reads a cache, and then every check runs
    if check == "cache-validation":
        path = str(tmp_path / "cache.csv")
        save_table(table8, path)
        args, passing = (8, path), SELFTEST8_REPORT
    else:
        args, passing = (8,), SELFTEST8_REPORT[:-1]
    # a copy without the edit passes every check
    monkeypatch.setattr(module, name, edited_copy(module, (edit[0], edit[0]))[name])
    assert run_selftest(*args) == passing
    monkeypatch.setattr(module, name, edited_copy(module, edit)[name])
    reports = run_selftest(*args)
    failed = [r for r in reports if r["status"] == "fail"]
    assert [r["name"] for r in failed] == [check]
    assert failed[0]["actual"].startswith(actual)


@pytest.mark.parametrize("term", list(verify.SEED_NUMERATORS))
def test_changing_any_one_seed_numerator_fails_the_seed_check(monkeypatch, term):
    # one more over 2 either moves an invariant or leaves it a half
    numerators = dict(verify.SEED_NUMERATORS)
    numerators[term] += 1
    monkeypatch.setattr(verify, "SEED_NUMERATORS", numerators)
    report = verify._check_seed()
    assert (report["name"], report["status"]) == ("degree1-seed", "fail")


def test_a_half_integral_seed_value_is_reported_not_raised(monkeypatch):
    numerators = dict(verify.SEED_NUMERATORS)
    numerators[monomial({"y210": 1})] = 3
    monkeypatch.setattr(verify, "SEED_NUMERATORS", numerators)
    assert verify._check_seed()["actual"] == \
        "invariant h2hd at degree 1 is not an integer: 3/2"


@pytest.mark.parametrize("label_term, stray", [
    ({"y011": 2}, {"y011": 3}),  # of weight 3
    ({"y210": 1}, {"y210": 1, "w001": 1}),  # of weight 2, times a gluing slot
], ids=["y011^3", "y210*w001"])
def test_a_seed_term_outside_the_labels_is_reported_not_raised(monkeypatch, capsys,
                                                                label_term, stray):
    numerators = dict(verify.SEED_NUMERATORS)
    numerators[monomial(stray)] = numerators.pop(monomial(label_term))
    monkeypatch.setattr(verify, "SEED_NUMERATORS", numerators)
    report = verify._check_seed()
    assert (report["name"], report["status"]) == ("degree1-seed", "fail")
    assert report["actual"] == \
        f"the degree-1 seed has terms outside the 13 labels: {[monomial(stray)]}"
    assert cli.main(["verify", "--max-degree", "2"]) == cli.EXIT_VERIFY == 4
    assert "FAIL degree1-seed [1]" in capsys.readouterr().err.splitlines()


def test_the_seed_numerators_are_ints():
    assert all(type(n) is int for n in verify.SEED_NUMERATORS.values())


def test_cap_independence_compares_values_not_numerators(matrix2):
    # the same entries over a doubled denominator are the same matrix, and
    # a changed denominator is a different one
    entries, den = matrix2
    doubled = {key: {m: 2 * n for m, n in p.items()} for key, p in entries.items()}
    assert verify._check_cap_independence((doubled, 2 * den))["status"] == "pass"
    report = verify._check_cap_independence((entries, 2 * den))
    assert report["status"] == "fail" and "entry(100,100) differs" in report["actual"]
