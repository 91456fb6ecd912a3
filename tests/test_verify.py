import json

import pytest

from semple2 import chow, potentials, recursion, verify
from semple2.recursion import kontsevich, save_table
from semple2.verify import (
    OracleReport,
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
    assert all(r.passed for r in reports)
    names = [r.name for r in reports]
    assert names == [
        "dual-pairing-matrix", "ring-relations", "degree1-seed",
        "invariant-table", "ratio-identities", "kontsevich-oracle",
        "contact-coefficients", "gluing-cap-independence", "stencil-derivation",
    ]


def test_selftest_degree_one():
    reports = run_selftest(1)
    assert all(r.passed for r in reports)


def test_selftest_reports_are_machine_readable():
    for r in run_selftest(2):
        d = r.to_dict()
        assert d["status"] == "pass"
        assert set(d) == {"name", "status", "expected", "actual", "degrees"}
        json.dumps(d)


def test_selftest_flags_corrupt_cache(tmp_path):
    path = tmp_path / "cache.json"
    path.write_text("[]", encoding="utf-8")
    reports = run_selftest(2, cache_path=str(path))
    assert len(reports) == 10
    cache_report = reports[-1]
    assert cache_report.name == "cache-validation"
    assert not cache_report.passed
    assert cache_report.actual  # carries the failure detail


def test_selftest_accepts_valid_cache(tmp_path, table8):
    path = str(tmp_path / "cache.json")
    save_table(table8, path)
    reports = run_selftest(2, cache_path=path)
    assert reports[-1].name == "cache-validation"
    assert reports[-1].passed


def test_failing_report_carries_both_values():
    report = OracleReport("demo", False, "1", "2", "1..1")
    data = report.to_dict()
    assert data["expected"] == "1" and data["actual"] == "2"


@pytest.mark.parametrize("key, check", [
    (("001", "001"), verify._check_relations),  # z*z: breaks i*z = 0
    (("211", "000"), verify._check_pairing),    # top class times 1
])
def test_a_broken_ring_table_is_caught_in_verify(monkeypatch, key, check):
    assert check().passed
    monkeypatch.setitem(chow._MULT, key, (0,) * 12)
    report = check()
    assert not report.passed and report.actual != "no mismatches"


def test_a_changed_stencil_weight_fails_the_derivation_check(monkeypatch, tmp_path, matrix2):
    assert verify._check_stencil(matrix2).passed
    with open(verify._KERNEL_PATH, encoding="utf-8") as handle:
        lines = handle.read().splitlines(keepends=True)
    n = next(k for k, line in enumerate(lines, 1) if line.startswith("        o0 += "))
    shipped = lines[n - 1]
    changed = shipped.replace("c1*(2*p3_3)", "c1*(3*p3_3)")
    assert changed != shipped
    lines[n - 1] = changed
    copy = tmp_path / "_kernel.py"
    copy.write_text("".join(lines), encoding="utf-8")
    monkeypatch.setattr(verify, "_KERNEL_PATH", str(copy))
    report = verify._check_stencil(matrix2)
    assert not report.passed
    assert report.actual == f"line {n}: {changed.rstrip()!r} generated {shipped.rstrip()!r}"


def test_a_kernel_without_its_final_newline_fails_the_derivation_check(monkeypatch, tmp_path, matrix2):
    with open(verify._KERNEL_PATH, encoding="utf-8") as handle:
        text = handle.read()
    copy = tmp_path / "_kernel.py"
    copy.write_text(text.removesuffix("\n"), encoding="utf-8")
    monkeypatch.setattr(verify, "_KERNEL_PATH", str(copy))
    last = text.count("\n") + 1
    assert verify._check_stencil(matrix2).actual == f"line {last}: '(end of file)' generated ''"


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
    assert verify._check_kontsevich(table8, 8).passed
    assert calls == [8]
    assert all(r.passed for r in run_selftest(8))
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
    assert all(r.passed for r in run_selftest(8))
    assert len(calls) == 80 + 80 + 154 < 436


def test_a_wrong_point_count_is_reported_with_both_values(table8):
    values = {d: table8.column(d) for d in table8.degrees()}
    values[5]["h2.h2"] += 1
    report = verify._check_kontsevich(recursion.InvariantTable(values), 8)
    assert report.to_dict() == {
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
    assert [r.to_dict() for r in reports] == [
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
     "expected": "the shipped _kernel.py equals the text generated from the derived stencil",
     "actual": "no mismatches", "degrees": "-"},
    {"name": "cache-validation", "status": "pass",
     "expected": "a valid cache file equal to the computed table",
     "actual": "no mismatches", "degrees": "1..8"},
]


def test_the_selftest_report_is_pinned(tmp_path, table8):
    path = str(tmp_path / "cache.json")
    save_table(table8, path)
    assert [r.to_dict() for r in run_selftest(8)] == SELFTEST8_REPORT[:-1]
    assert [r.to_dict() for r in run_selftest(8, cache_path=path)] == SELFTEST8_REPORT
