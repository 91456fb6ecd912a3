import json

import pytest

from semple2 import chow, recursion, verify
from semple2.recursion import save_table
from semple2.verify import (
    OracleReport,
    TABLE1_REFERENCE,
    TABLE2_REFERENCE,
    expand_cover_series,
    kontsevich,
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
    with pytest.raises(ValueError):
        expand_cover_series("septuple_cover", 2)


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
def test_a_broken_ring_table_is_caught_on_import_and_in_verify(monkeypatch, key, check):
    chow._startup_checks()
    assert check().passed
    monkeypatch.setitem(chow._MULT, key, (0,) * 12)
    with pytest.raises(AssertionError, match="Chow ring tables are inconsistent"):
        chow._startup_checks()
    report = check()
    assert not report.passed and report.actual != "no mismatches"


def test_a_changed_stencil_weight_fails_the_derivation_check(monkeypatch):
    assert verify._check_stencil().passed
    j1, n = 1, 7
    row = recursion.STENCIL[j1][n]
    changed = list(recursion.STENCIL)
    changed[j1] = changed[j1][:n] + (row[:5] + (row[5] + 1,),) + changed[j1][n + 1:]
    monkeypatch.setattr(recursion, "STENCIL", tuple(changed))
    report = verify._check_stencil()
    assert not report.passed
    assert report.actual == f"j1=1 row 7: {changed[j1][n]} derived {row}"


@pytest.mark.parametrize("key", [key for key, row in chow._MULT.items() if any(row)])
def test_every_zeroed_product_fails_a_ring_check(monkeypatch, key):
    monkeypatch.setitem(chow._MULT, key, (0,) * 12)
    assert chow.relation_failures() + chow.pairing_failures()
