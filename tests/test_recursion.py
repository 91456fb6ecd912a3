import ast
import hashlib
import os
import random
import re
import stat
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

import semple2
from semple2 import cli, recursion, verify
from semple2._kernel import degree_forms, kernel
from semple2.poly import monomial
from semple2.recursion import (
    CacheError,
    INVARIANT_LABELS,
    InvariantTable,
    SEED,
    binomial_row,
    compute_up_to,
    kontsevich,
    kontsevich_row,
    load_table,
    ratio_failures,
    recursion_rhs,
    rows_to_csv,
    save_table,
    table_from_csv,
    table_rows,
)
from semple2.verify import (
    SEED_NUMERATORS,
    TABLE1_REFERENCE,
    derive_stencil,
    seed_invariants,
    stencil_rhs,
)

SEED_COLUMN = {
    "h2hd": 1, "h2z": 3, "hd2z": -3,
    "h2.h2": 1, "h2.hd2": 0, "h2.hz": 0, "h2.hdz": -3,
    "hd2.hd2": 0, "hd2.hz": 0, "hd2.hdz": 0,
    "hz.hz": 0, "hz.hdz": 0, "hdz.hdz": 9,
}

D2_COLUMN = {
    "h2hd": 1, "h2z": 3, "hd2z": 0,
    "h2.h2": 1, "h2.hd2": 2, "h2.hz": 6, "h2.hdz": 0,
    "hd2.hd2": 4, "hd2.hz": 12, "hd2.hdz": 0,
    "hz.hz": 36, "hz.hdz": 0, "hdz.hdz": 0,
}

D3_COLUMN = dict(zip(INVARIANT_LABELS,
                     (10, 30, 21, 12, 36, 108, 54, 100, 300, 150, 900, 450, 63)))


def test_seed_invariants():
    assert seed_invariants() == SEED_COLUMN == SEED


def test_degree2_from_gluing_matrix(matrix2):
    seed = tuple(seed_invariants().values())
    column = stencil_rhs(2, {1: seed}, derive_stencil(matrix2))
    assert dict(zip(INVARIANT_LABELS, column)) == D2_COLUMN


def test_degree3_column(table8):
    assert table8.column(3) == D3_COLUMN


def test_reference_table_through_degree6(table8):
    for label in INVARIANT_LABELS:
        for d in range(1, 7):
            assert table8.get(d, label) == TABLE1_REFERENCE[label][d - 1], (label, d)


def test_spot_values(table8):
    assert table8.get(4, "hd2z") == 1452
    assert table8.get(5, "h2.h2") == 87304
    assert table8.get(6, "hdz.hdz") == 2948122440


def test_ratio_identities_through_degree8(table8):
    for d in range(1, 9):
        assert ratio_failures(table8.column(d)) == []


def test_kontsevich_row_through_degree8(table8):
    for d in range(1, 9):
        assert table8.get(d, "h2.h2") == kontsevich(d)


def test_tail_shape_is_enforced(monkeypatch):
    # at degree 1 the tail is the seed, and its shape is that each term is
    # one of the thirteen label monomials
    for stray in ({"y200": 3},  # of weight 3, not 2
                  {"y011": 3},  # of weight 3, in a label's variable
                  {"y210": 1, "w001": 1}):  # a label's monomial times a weight-0 slot
        numerators = {**SEED_NUMERATORS, monomial(stray): 1}
        monkeypatch.setattr(verify, "SEED_NUMERATORS", numerators)
        with pytest.raises(ArithmeticError, match=re.escape(
                f"the degree-1 seed has terms outside the 13 labels: {[monomial(stray)]}")):
            seed_invariants()


def test_non_integral_invariant_is_a_hard_failure(monkeypatch):
    numerators = {**SEED_NUMERATORS, monomial({"y210": 1}): Fraction(1, 3)}
    monkeypatch.setattr(verify, "SEED_NUMERATORS", numerators)
    with pytest.raises(ArithmeticError,
                       match="^invariant h2hd at degree 1 is not an integer: 1/6$"):
        seed_invariants()


def test_recursion_requires_all_lower_tails():
    forms = {1: degree_forms(1, tuple(SEED.values()))}
    with pytest.raises(ValueError, match="^the recursion starts at degree 2$"):
        recursion_rhs(1, forms)
    with pytest.raises(ValueError, match="^missing forms for degree 2$"):
        recursion_rhs(3, forms)
    forms[2] = degree_forms(2, tuple(compute_up_to(2).column(2).values()))
    with pytest.raises(ValueError, match="^missing forms for degree 1$"):
        recursion_rhs(3, {2: forms[2]})
    assert recursion_rhs(3, forms) == tuple(D3_COLUMN.values())


def test_compute_up_to_starts_at_degree_1():
    with pytest.raises(ValueError, match="^dmax must be at least 1$"):
        compute_up_to(0)
    assert compute_up_to(1).degrees() == (1,)


def test_determinism():
    a = compute_up_to(4)
    b = compute_up_to(4)
    assert a == b


def test_compute_up_to_one():
    table = compute_up_to(1)
    assert table.degrees() == (1,)
    assert table.column(1) == SEED_COLUMN


def test_cache_roundtrip(tmp_path):
    path = str(tmp_path / "cache.csv")
    direct = compute_up_to(5)
    first = compute_up_to(3, cache_path=path)
    resumed = compute_up_to(5, cache_path=path)
    assert first.values == {d: direct.column(d) for d in (1, 2, 3)}
    assert resumed == direct
    assert load_table(path).values == direct.values


def test_cache_rejects_garbage(tmp_path):
    path = tmp_path / "cache.csv"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(CacheError):
        load_table(str(path))


def _data(table):
    """The cache of `table` as a dict of decimal strings by degree key, to
    put a defect in."""
    return {str(d): {label: str(n) for label, n in column.items()}
            for d, column in table.values.items()}


def _cache(data):
    """`data` in the layout `save_table` writes, its keys in the header and
    each label's values in its row: a cache whose only defect is the one a
    test put in `data`."""
    return "\n".join([",".join(["invariant", *data]), *(
        ",".join([label, *(str(column[label]) for column in data.values())])
        for label in INVARIANT_LABELS)]) + "\n"


def _csv(table):
    """The cache semple2 writes for `table`, without its final newline."""
    return rows_to_csv(table_rows(table))


def test_cache_rejects_bad_seed(tmp_path, table8):
    data = _data(table8)
    data["1"]["h2hd"] = "2"  # also breaks h2z = 3*h2hd
    path = tmp_path / "cache.csv"
    path.write_text(_cache(data), encoding="utf-8")
    with pytest.raises(CacheError, match="^cached degree-1 column disagrees with the seed$"):
        load_table(str(path))


def test_cache_rejects_ratio_violation(tmp_path, table8):
    data = _data(table8)
    data["3"]["hz.hz"] = str(int(data["3"]["hz.hz"]) + 1)
    path = tmp_path / "cache.csv"
    path.write_text(_cache(data), encoding="utf-8")
    with pytest.raises(CacheError, match="^degree 3 fails ratio identities: hz.hz != 3"):
        load_table(str(path))


def test_cache_rejects_missing_labels():
    text = _cache(_data(compute_up_to(2))).replace("h2hd,1,1\n", "", 1)
    with pytest.raises(CacheError) as info:
        table_from_csv(text.removesuffix("\n"))
    assert str(info.value) == "the cache ends at line 13 of the 14 semple2 writes"
    # the final newline is read as a 14th line, which is empty
    for edited in (text, text + "hdz.hdz,9,0\n"):
        with pytest.raises(CacheError) as info:
            table_from_csv(edited)
        assert str(info.value) == \
            "a line of the cache opens with 'h2z' where semple2 writes 'h2hd'"


def test_cache_save_is_loadable(tmp_path, table8):
    path = str(tmp_path / "cache.csv")
    save_table(table8, path)
    assert load_table(path).values == table8.values


def _value(d, label, value):
    def mutate(data):
        data[str(d)][label] = value
        return _cache(data)
    return mutate


def _key(key):
    def mutate(data):
        return _cache(data).replace("invariant,1,2,", f"invariant,1,{key},", 1)
    return mutate


def _repeated_key(data):
    return _cache(data).replace("invariant,1,2,3,", "invariant,1,2,2,", 1)


#: spellings of a degree-6 cache that `save_table` never writes, each of
#: which an integer parse alone would read as the written value
FOREIGN_SPELLINGS = {
    "true for 1": _value(2, "h2hd", True),
    "float 1.9 for 1": _value(2, "h2hd", 1.9),
    "float 428.7": _value(4, "h2hd", 428.7),
    "padded value": _value(4, "h2hd", " 428 "),
    "underscored value": _value(4, "h2hd", "4_28"),
    "full-width digits": _value(4, "h2hd", "\uff14\uff12\uff18"),
    "padded key": _key(" 2"),
    "underscored key": _key("0_2"),
    "zero-led key": _key("02"),
    "repeated key": _repeated_key,
}


def test_a_cache_written_by_semple2_loads():
    table = compute_up_to(6)
    assert table_from_csv(_csv(table)) == table


@pytest.mark.parametrize("dmax", [0, 1, 2, 6, 40])
def test_the_cache_writer_writes_the_bytes_of_table_format_csv(capsys, dmax):
    # the header of the degrees, then a row per label; dmax 0 is the empty
    # table, which no CLI call prints
    table = compute_up_to(dmax) if dmax else InvariantTable({})
    text = _csv(table)
    assert text == "\n".join([",".join(["invariant", *map(str, range(1, dmax + 1))]), *(
        ",".join([label, *(str(table.get(d, label)) for d in range(1, dmax + 1))])
        for label in INVARIANT_LABELS)])
    assert table_from_csv(text) == table
    if dmax:
        assert cli.main(["table", "--max-degree", str(dmax), "--format", "csv"]) == 0
        assert capsys.readouterr().out == text + "\n"


@pytest.mark.parametrize("name", FOREIGN_SPELLINGS)
def test_the_cache_reader_accepts_only_what_the_writer_writes(name):
    text = FOREIGN_SPELLINGS[name](_data(compute_up_to(6)))
    with pytest.raises(CacheError):
        table_from_csv(text)


#: a valid degree-2 cache, as semple2 writes it
D2_CACHE = _cache(_data(InvariantTable({1: SEED_COLUMN, 2: D2_COLUMN})))


@pytest.mark.parametrize("old, new, message", [
    pytest.param("invariant,1,", "invariant,x,",
                 "degree 1 of the cache reads 'x' where semple2 writes '1'", id="x for 1"),
    pytest.param("invariant,1,", "invariant,0,",
                 "degree 1 of the cache reads '0' where semple2 writes '1'", id="0 for 1"),
    pytest.param(",2\n", ",3\n",
                 "degree 2 of the cache reads '3' where semple2 writes '2'", id="3 for 2"),
    pytest.param(",2\n", ",1\n",
                 "degree 2 of the cache reads '1' where semple2 writes '2'", id="1 for 2"),
    pytest.param(",2\n", ",02\n",
                 "degree 2 of the cache reads '02' where semple2 writes '2'", id="02 for 2"),
    pytest.param(",2\n", ",+2\n",
                 "degree 2 of the cache reads '+2' where semple2 writes '2'", id="+2 for 2"),
    pytest.param(",2\n", ",2 \n",
                 "degree 2 of the cache reads '2 ' where semple2 writes '2'", id="2 space for 2"),
    pytest.param(",2\n", ",\uff12\n",
                 "degree 2 of the cache reads '\uff12' where semple2 writes '2'",
                 id="full-width 2 for 2"),
    pytest.param("invariant,", "degree,",
                 "a line of the cache opens with 'degree' where semple2 writes 'invariant'",
                 id="degree for invariant"),
    pytest.param("h2hd,", "h3,",
                 "a line of the cache opens with 'h3' where semple2 writes 'h2hd'",
                 id="h3 for h2hd"),
    pytest.param("h2hd,1,1\n", "h2hd,1,1,\n",
                 "the row of h2hd and the header end at different degrees", id="trailing comma"),
    pytest.param("h2hd,1,1\n", "h2hd,1\n",
                 "the row of h2hd and the header end at different degrees", id="short row"),
    pytest.param("hdz.hdz,9,0\n", "hdz.hdz,9,0\n\n",
                 "the cache goes on past the 14 lines semple2 writes: '\\n'", id="blank line"),
    pytest.param("h2hd,1,1\n", "h2hd,1,1\r\n",
                 "the cache holds a '\\r', which semple2 never writes", id="crlf"),
])
def test_the_cache_reader_names_a_bad_degree_or_label(old, new, message):
    with pytest.raises(CacheError) as info:
        table_from_csv(D2_CACHE.replace(old, new, 1))
    assert str(info.value) == message


def _message(text):
    with pytest.raises(CacheError) as info:
        table_from_csv(text)
    return str(info.value)


@pytest.mark.parametrize("old, new, message", [
    # up to 100 characters a degree, label or number shows whole
    pytest.param("h2hd,", "%s," % ("x" * 100),
                 "a line of the cache opens with '%s' where semple2 writes 'h2hd'" % ("x" * 100),
                 id="100-character label"),
    pytest.param("invariant,1,", "invariant,%s," % ("9" * 100),
                 "degree 1 of the cache reads '%s' where semple2 writes '1'" % ("9" * 100),
                 id="100-digit degree"),
    pytest.param("h2hd,1,", "h2hd,%s," % ("0" * 100),
                 "bad integer for h2hd at degree 1: '%s'" % ("0" * 100), id="100-digit value"),
    # past that, its first 100 characters and its length
    pytest.param("h2hd,", "%s," % ("x" * 101),
                 "a line of the cache opens with '%s'... (101 characters) where semple2 writes "
                 "'h2hd'" % ("x" * 100), id="101-character label"),
    pytest.param("invariant,1,", "invariant,%s," % ("9" * 101),
                 "degree 1 of the cache reads '%s'... (101 characters) where semple2 writes '1'"
                 % ("9" * 100), id="101-digit degree"),
    pytest.param("invariant,1,", "invariant,%s," % ("x" * 5000),
                 "degree 1 of the cache reads '%s'... (5000 characters) where semple2 writes '1'"
                 % ("x" * 100), id="5000-character degree"),
    pytest.param("h2hd,1,", "h2hd,%s," % ("0" * 101),
                 "bad integer for h2hd at degree 1: '%s'... (101 characters)" % ("0" * 100),
                 id="101-digit value"),
    pytest.param("hdz.hdz,9,0\n", "hdz.hdz,9,0\n%s" % ("x" * 5000),
                 "the cache goes on past the 14 lines semple2 writes: '%s'... (5000 characters)"
                 % ("x" * 100), id="5000 characters past the last line"),
])
def test_a_cache_error_shows_at_most_100_characters_of_a_key_or_number(old, new, message):
    assert _message(D2_CACHE.replace(old, new, 1)) == message


def test_a_cache_error_shows_numbers_of_normal_size_whole(table8):
    data = _data(table8)
    data["5"]["h2z"] = "153121"
    assert _message(_cache(data)) == \
        "degree 5 fails ratio identities: h2z != 3*h2hd (153121 vs 3*51040)"
    data["5"]["h2z"], data["5"]["h2.h2"] = "153120", "87305"
    assert _message(_cache(data)) == \
        "degree 5 fails the point count: h2.h2 = 87305, the classical recursion gives 87304"
    long = "1" + "0" * 150
    data["5"]["h2.h2"] = long
    assert _message(_cache(data)) == (
        f"degree 5 fails the point count: h2.h2 = {long[:100]}... (151 characters), "
        "the classical recursion gives 87304")


def _excerpt_cases():
    """Ints whose decimal text is at and around every length from 1 to 1001
    characters, of both signs, and 0."""
    rng = random.Random(28)
    for k in range(1, 1001):
        for n in (10 ** k, 10 ** k - 1, rng.randrange(10 ** (k - 1), 10 ** k)):
            yield n
            yield -n
    yield 0


def test_an_int_is_excerpted_as_its_text_is():
    for n in _excerpt_cases():
        assert recursion._excerpt_int(n) == recursion._excerpt(str(n)), n


@pytest.fixture
def digit_limit_4300():
    """The interpreter's int/str digit limit at its default, 4300, for one
    test: past it a whole `str()` or `int()` raises."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int/str digit limit")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(before)


#: a 300,000-digit number and the excerpt of it that a message shows
HOSTILE = 10 ** 299_999
HOSTILE_EXCERPT = "1" + "0" * 99 + "... (300000 characters)"


def test_a_300000_digit_ratio_failure_is_reported_without_its_text(digit_limit_4300):
    column = dict(SEED, h2z=HOSTILE, **{"hz.hdz": -HOSTILE})
    assert ratio_failures(column) == [
        f"h2z != 3*h2hd ({HOSTILE_EXCERPT} vs 3*1)",
        f"hz.hdz != 3*hd2.hdz (-1{'0' * 98}... (300001 characters) vs 3*0)",
    ]


def test_a_300000_digit_cached_value_is_quoted_without_its_text(monkeypatch, digit_limit_4300):
    table = compute_up_to(2)
    cached = InvariantTable({1: dict(SEED), 2: dict(table.column(2), **{"h2.hdz": HOSTILE})})
    monkeypatch.setattr(verify, "load_table", lambda path: cached)
    report = verify._check_cache("cache.csv", table, 2)
    assert report["status"] == "fail"
    assert report["actual"] == f"h2.hdz(d=2)={HOSTILE_EXCERPT} computed 0"


def test_a_300000_digit_degree_key_is_refused_before_it_is_read(digit_limit_4300):
    key = "1" + "0" * 299_999
    with pytest.raises(CacheError) as info:
        table_from_csv(D2_CACHE.replace("invariant,1,2\n", "invariant,1,%s\n" % key))
    assert str(info.value) == \
        f"degree 2 of the cache reads '{key[:100]}'... (300000 characters) where semple2 writes '2'"


def test_a_zero_led_300000_digit_value_is_refused_before_int_reads_it(digit_limit_4300):
    # under the digit limit, an int() of it would raise "more digits than"
    value = "0" + "1" * 299_999
    data = _data(InvariantTable({1: SEED_COLUMN, 2: D2_COLUMN}))
    data["2"]["h2.h2"] = value
    with pytest.raises(CacheError) as info:
        table_from_csv(_cache(data))
    assert str(info.value) == \
        f"bad integer for h2.h2 at degree 2: '{value[:100]}'... (300000 characters)"


def test_a_degree_k_read_converts_no_value_past_degree_k(digit_limit_4300):
    data = _data(compute_up_to(3))
    data["3"]["h2.hdz"] = "1" + "0" * 299_999
    text = _cache(data)
    assert table_from_csv(text, 2) == compute_up_to(2)
    # the whole read converts it, and the digit limit refuses that
    with pytest.raises(CacheError, match="^h2.hdz at degree 3 has more digits than"):
        table_from_csv(text)


def test_a_cache_is_refused_at_its_first_bad_degree_before_a_later_value_is_converted(
        digit_limit_4300):
    # degree 2 fails the point count; under the digit limit an int() of
    # degree 3's 300,000-digit value would raise "more digits than"
    data = _data(compute_up_to(3))
    data["2"]["h2.h2"] = "2"
    data["3"]["h2.hdz"] = "1" + "0" * 299_999
    text = _cache(data)
    for dmax in (None, 3):
        with pytest.raises(CacheError) as info:
            table_from_csv(text, dmax)
        assert str(info.value) == \
            "degree 2 fails the point count: h2.h2 = 2, the classical recursion gives 1"


def test_a_point_count_defect_is_refused_before_a_ratio_defect_at_a_higher_degree(table8):
    data = _data(table8)
    data["5"]["h2z"] = str(int(data["5"]["h2z"]) + 1)
    data["3"]["h2.h2"] = str(int(data["3"]["h2.h2"]) + 1)
    with pytest.raises(CacheError) as info:
        table_from_csv(_cache(data))
    assert str(info.value) == \
        "degree 3 fails the point count: h2.h2 = 13, the classical recursion gives 12"


@pytest.mark.parametrize("dmax", [0, -1])
@pytest.mark.parametrize("text", [_csv(InvariantTable({})), _csv(compute_up_to(3))],
                         ids=["empty", "degree 3"])
def test_a_read_of_fewer_than_one_degree_is_a_value_error(tmp_path, text, dmax):
    path = tmp_path / "cache.csv"
    path.write_text(text + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="^dmax must be at least 1$"):
        table_from_csv(text, dmax)
    with pytest.raises(ValueError, match="^dmax must be at least 1$"):
        load_table(str(path), dmax)


def test_the_stencil_read_term_by_term_gives_the_table_through_degree20(matrix2):
    table = compute_up_to(20)
    columns = {d: tuple(table.get(d, lbl) for lbl in INVARIANT_LABELS) for d in table.degrees()}
    stencil = derive_stencil(matrix2)
    for d in range(2, 21):
        assert stencil_rhs(d, columns, stencil) == columns[d], d


def test_degree100_table_is_pinned(capsys, monkeypatch):
    # sha256 of `table --max-degree 100 --format json` as printed before the
    # literal stencil and the product-sharing kernel replaced the derived one
    monkeypatch.delenv("SEMPLE2_CACHE", raising=False)
    assert cli.main(["table", "--max-degree", "100", "--format", "json"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == "6d4e05870ceceda9559f5386f404751070f4edbd8ba69a0e66cb5e324d6debda"


def test_stencil_derivation_rejects_a_fractional_weight(matrix2):
    # the (h, h) gluing entry feeds a unit weight; over 1009 it is no
    # integer: every other entry is scaled up as the denominator is
    entries, den = matrix2
    entries = {key: p if key == ("100", "100") else {m: 1009 * c for m, c in p.items()}
               for key, p in entries.items()}
    with pytest.raises(ArithmeticError, match="not an integer"):
        derive_stencil((entries, 1009 * den))


def test_kontsevich_row_is_the_classical_sequence():
    assert kontsevich_row(6) == [0, 1, 1, 12, 620, 87304, 26312976]
    assert kontsevich_row(0) == [0]


def comb_per_term_point_counts(dmax):
    """N_d for d = 0..dmax by the classical recursion as first written,
    with two `comb` calls per term: the oracle for `kontsevich_row`, which
    reads one binomial row per degree and factors out d1^2 d2."""
    row = [0, 1]
    for d in range(2, dmax + 1):
        row.append(sum(
            row[d1] * row[d - d1] * (
                d1 * d1 * (d - d1) ** 2 * comb(3 * d - 4, 3 * d1 - 2)
                - d1 ** 3 * (d - d1) * comb(3 * d - 4, 3 * d1 - 1))
            for d1 in range(1, d)))
    return row


def test_kontsevich_row_equals_the_comb_per_term_recursion_through_degree400():
    assert kontsevich_row(400) == comb_per_term_point_counts(400)


def kernel_split_loop_operations():
    """The Mult, Add and Sub nodes in the split loop of the shipped kernel."""
    text = Path(recursion.__file__).with_name("_kernel.py").read_text(encoding="utf-8")
    tree = ast.parse(text)
    kernel = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "kernel")
    loop = next(node for node in kernel.body if isinstance(node, ast.For))
    counts = Counter(type(node).__name__ for node in ast.walk(loop))
    return counts["Mult"], counts["Add"], counts["Sub"]


def test_the_kernel_split_loop_keeps_its_operation_count():
    # the linear work of the stencil runs once per degree, in degree_forms;
    # an edit that moves it back into the loop fails here
    assert kernel_split_loop_operations() == (92, 55, 14)


def test_the_kernel_reads_only_the_first_half_of_the_binomial_row():
    # the splits d1 <= d/2 read comb(3d-6, k) for k < 3*(d//2) only
    rng = random.Random(0)
    table = compute_up_to(59)
    forms = {d: degree_forms(d, tuple(table.column(d).values())) for d in table.degrees()}
    for d in range(2, 61):
        half = binomial_row(3 * d - 6, 3 * (d // 2))
        junk = [rng.randrange(1, 10 ** 20) for _ in range(3 * d)]
        assert kernel(d, forms, half + junk) == kernel(d, forms, half), d


#: the rows of lower degrees that each row the kernel computes reads, as
#: the README states them: a triangular system
KERNEL_READS = {
    "h2.h2": {"h2.h2"},
    "h2hd": {"h2.h2", "h2hd"},
    "h2.hd2": {"h2.h2", "h2.hd2"},
    "hd2.hd2": {"h2.h2", "h2.hd2", "hd2.hd2"},
    "hd2z": {"h2.h2", "h2.hd2", "h2hd", "hd2z"},
    "h2.hdz": {"h2.h2", "h2.hd2", "h2.hdz"},
    "hd2.hdz": {"h2.h2", "h2.hd2", "h2hd", "hd2.hd2", "h2.hdz", "hd2.hdz"},
    "hdz.hdz": {"h2.h2", "h2.hd2", "h2hd", "h2.hdz", "hd2.hdz", "hdz.hdz"},
}


def test_every_weight_of_a_computed_row_reads_two_computed_rows(matrix2):
    # the recursion closes on the eight rows that no 3:1 identity fills
    filled = {INVARIANT_LABELS.index(big) for big, _ in recursion.RATIO_IDENTITIES}
    terms = [t for terms in derive_stencil(matrix2) for t in terms if t[4] not in filled]
    assert len(terms) == 92
    assert [t for t in terms if {t[2], t[3]} & filled] == []


def _kernel_row(label, columns, d):
    forms = {dd: degree_forms(dd, c) for dd, c in columns.items()}
    return recursion_rhs(d, forms)[INVARIANT_LABELS.index(label)]


@pytest.mark.parametrize("label", KERNEL_READS)
def test_each_computed_row_reads_exactly_the_rows_the_readme_names(label):
    rng = random.Random(label)
    columns = {dd: [rng.randrange(-10 ** 20, 10 ** 20) for _ in INVARIANT_LABELS]
               for dd in range(1, 12)}
    want = _kernel_row(label, columns, 12)
    # junk in every row it does not read leaves it unchanged...
    junk = {dd: [rng.randrange(10 ** 20) if lbl not in KERNEL_READS[label] else n
                 for lbl, n in zip(INVARIANT_LABELS, c)] for dd, c in columns.items()}
    assert _kernel_row(label, junk, 12) == want
    # ...and a change in any row it reads changes it
    for read in KERNEL_READS[label]:
        i = INVARIANT_LABELS.index(read)
        changed = {dd: c[:i] + [c[i] + 1] + c[i + 1:] for dd, c in columns.items()}
        assert _kernel_row(label, changed, 12) != want, read


def test_cache_rejects_wrong_point_count(tmp_path, table8):
    # h2.h2 enters no 3:1 identity: only the classical recursion catches it
    data = _data(table8)
    data["5"]["h2.h2"] = str(int(data["5"]["h2.h2"]) + 1)
    path = tmp_path / "cache.csv"
    path.write_text(_cache(data), encoding="utf-8")
    with pytest.raises(CacheError, match="point count"):
        load_table(str(path))
    with pytest.raises(CacheError):
        compute_up_to(5, cache_path=str(path))


def test_cache_with_a_gap_in_its_degrees_is_refused_before_the_point_row(point_draws, table8):
    # degrees 1..6 are read and checked in full, then degree 7 reads '8'
    data = _data(table8)
    del data["7"]
    with pytest.raises(CacheError, match="^degree 7 of the cache reads '8' where semple2 writes '7'$"):
        table_from_csv(_cache(data))
    assert point_draws[0] == 6


def test_zero_filled_cache_is_refused_at_its_first_wrong_degree(tmp_path):
    # the seed, then zero columns through degree 1200 (236 KB): every check
    # before the point count passes, and degree 2 is already wrong, both
    # when the whole cache is read and when only degrees 1..2 are
    data = {"1": {label: str(n) for label, n in recursion.SEED.items()}}
    data.update({str(d): dict.fromkeys(INVARIANT_LABELS, "0") for d in range(2, 1201)})
    path = tmp_path / "zeros.csv"
    path.write_text(_cache(data), encoding="utf-8")
    start = time.monotonic()
    with pytest.raises(CacheError, match="^degree 2 fails the point count"):
        table_from_csv(path.read_text(encoding="utf-8"))
    for dmax in (2, 1200):
        with pytest.raises(CacheError, match="^degree 2 fails the point count"):
            compute_up_to(dmax, cache_path=str(path))
    assert time.monotonic() - start < 2


@pytest.mark.parametrize("k", [1, 5, 39, 40])
def test_a_degree_k_read_validates_degrees_1_to_k(tmp_path, point_draws, k):
    path = str(tmp_path / "cache.csv")
    save_table(compute_up_to(40), path)
    assert compute_up_to(k, cache_path=path) == compute_up_to(k)
    assert point_draws[0] == k
    assert load_table(path, k).degrees() == tuple(range(1, k + 1))


def test_a_read_past_the_cache_validates_all_of_it_before_the_rewrite(tmp_path, point_draws):
    path = str(tmp_path / "cache.csv")
    save_table(compute_up_to(6), path)
    assert compute_up_to(8, cache_path=path) == compute_up_to(8)
    assert point_draws[0] == 6
    assert load_table(path).degrees() == tuple(range(1, 9))


def test_an_out_of_order_cache_is_refused(tmp_path, point_draws, table8):
    path = tmp_path / "cache.csv"
    path.write_text(_cache(dict(reversed(_data(table8).items()))), encoding="utf-8")
    for dmax in (3, 8, 9):
        with pytest.raises(CacheError, match="^degree 1 of the cache reads '8' where semple2 "
                                             "writes '1'$"):
            compute_up_to(dmax, cache_path=str(path))
    assert point_draws[0] == 0


def test_a_degree_k_read_ignores_a_wrong_degree_past_k(table8):
    data = _data(table8)
    data["7"]["h2.h2"] = str(int(data["7"]["h2.h2"]) + 1)
    data["8"]["hdz.hdz"] = "nothing a reader reads"
    text = _cache(data)
    assert table_from_csv(text, 6) == InvariantTable({d: table8.column(d) for d in range(1, 7)})
    for dmax in (7, 8, None):
        with pytest.raises(CacheError):
            table_from_csv(text, dmax)


@pytest.mark.parametrize("old, new, message", [
    pytest.param("h2hd,1,", "h2hd,\\u0031,", "bad integer for h2hd at degree 1: '\\\\u0031'",
                 id="escaped value"),
    pytest.param("h2hd,", "h2\\u0068d,",
                 "a line of the cache opens with 'h2\\\\u0068d' where semple2 writes 'h2hd'",
                 id="escaped label"),
    pytest.param("invariant,1,", "invariant,\\u0031,",
                 "degree 1 of the cache reads '\\\\u0031' where semple2 writes '1'",
                 id="escaped degree"),
    # the csv module reads a quoted cell as its text; the cache reader does not
    pytest.param("h2hd,1,", 'h2hd,"1",', "bad integer for h2hd at degree 1: '\"1\"'",
                 id="quoted value"),
])
def test_the_cache_reader_refuses_escapes_and_quotes(old, new, message):
    with pytest.raises(CacheError) as info:
        table_from_csv(D2_CACHE.replace(old, new, 1))
    assert str(info.value) == message


def test_a_cache_that_is_not_utf8_is_a_cache_error(tmp_path):
    path = tmp_path / "cache.csv"
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(CacheError, match="^cannot read cache"):
        load_table(str(path))


def test_save_leaves_no_temporary_file(tmp_path, table8):
    path = tmp_path / "cache.csv"
    save_table(table8, str(path))
    save_table(table8, str(path))
    assert os.listdir(tmp_path) == ["cache.csv"]


def test_failed_save_removes_its_temporary_file(tmp_path, table8, monkeypatch):
    path = tmp_path / "cache.csv"
    save_table(table8, str(path))
    before = path.read_bytes()

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(CacheError, match="cannot write cache") as info:
        save_table(compute_up_to(2), str(path))
    assert isinstance(info.value.__cause__, OSError)
    assert os.listdir(tmp_path) == ["cache.csv"]
    assert path.read_bytes() == before


def test_cache_in_a_missing_directory_is_a_cache_error(tmp_path):
    path = tmp_path / "missing" / "cache.csv"
    with pytest.raises(CacheError, match="cannot write cache"):
        compute_up_to(3, cache_path=str(path))
    assert os.listdir(tmp_path) == []


def mode(path) -> int:
    return stat.S_IMODE(os.stat(path).st_mode)


def test_a_rewrite_keeps_the_mode_of_the_cache(tmp_path):
    path = tmp_path / "cache.csv"
    compute_up_to(3, cache_path=str(path))
    os.chmod(path, 0o640)
    compute_up_to(5, cache_path=str(path))
    assert mode(path) == 0o640
    assert load_table(str(path)).degrees() == tuple(range(1, 6))


def test_a_new_cache_gets_the_mode_of_a_plain_open(tmp_path):
    path = tmp_path / "cache.csv"
    compute_up_to(3, cache_path=str(path))
    with open(tmp_path / "sibling", "w", encoding="utf-8"):
        pass
    assert mode(path) == mode(tmp_path / "sibling")


@pytest.fixture
def small_digit_limit():
    """The interpreter's int/str digit limit at its minimum, 640, for one test."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int/str digit limit")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(before)


def test_an_invariant_past_the_digit_limit_is_a_cache_error_naming_it(tmp_path,
                                                                      small_digit_limit):
    table = InvariantTable({1: {label: 10 ** 700 for label in INVARIANT_LABELS}})
    with pytest.raises(ValueError, match="limit"):
        table_rows(table)
    with pytest.raises(CacheError, match="int/str conversion limit"):
        save_table(table, str(tmp_path / "cache.csv"))
    assert os.listdir(tmp_path) == []
    with pytest.raises(CacheError, match="h2hd at degree 1 has more digits than the "
                                         "interpreter's int/str conversion limit"):
        table_from_csv(_cache({"1": dict(_data(compute_up_to(1))["1"], h2hd="-1" + "0" * 700)}))
    # only a canonical ASCII decimal is reported as past the limit
    for text in ("1e" + "0" * 700, "\uff11" * 700, "0" * 700 + "1"):
        with pytest.raises(CacheError, match="^bad integer for h2hd at degree 1"):
            table_from_csv(_cache({"1": dict(_data(compute_up_to(1))["1"], h2hd=text)}))


def test_warm_compute_does_not_rewrite_the_cache(tmp_path):
    path = tmp_path / "cache.csv"
    compute_up_to(6, cache_path=str(path))
    before = (path.read_bytes(), path.stat().st_mtime_ns)
    os.utime(path, ns=(0, 0))
    compute_up_to(6, cache_path=str(path))
    compute_up_to(4, cache_path=str(path))
    assert (path.read_bytes(), path.stat().st_mtime_ns) == (before[0], 0)
    compute_up_to(7, cache_path=str(path))
    assert path.stat().st_mtime_ns != 0
    assert load_table(str(path)).degrees() == tuple(range(1, 8))


def test_optimized_interpreter_prints_the_same_table():
    src = str(Path(semple2.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    env.pop("SEMPLE2_CACHE", None)
    argv = ["-m", "semple2.cli", "table", "--max-degree", "8", "--format", "json"]
    plain = subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                           check=True, timeout=60)
    optimized = subprocess.run([sys.executable, "-O", *argv], env=env,
                               capture_output=True, check=True, timeout=60)
    assert plain.stdout and optimized.stdout == plain.stdout
