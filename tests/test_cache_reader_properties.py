"""The cache reader: every text semple2 writes is read back, any other is
refused, and a reader on the `csv` module is the reference for what a cache
holds.  A cache in the JSON layout that earlier versions wrote, which a
json-based reader reads, is refused like any other."""

import csv
import io
import json
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from semple2 import recursion
from semple2.recursion import (
    RATIO_IDENTITIES,
    SEED,
    CacheError,
    INVARIANT_LABELS,
    InvariantTable,
    compute_up_to,
    kontsevich_row,
    rows_to_csv,
    table_from_csv,
    table_rows,
)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=400,
                    phases=[phase for phase in Phase if phase is not Phase.explain])


def _checked(values):
    """The table of `values`, {degree: {label: int}} over degrees 1..N, or a
    CacheError: the checks, written here on the whole table rather than
    degree by degree, so that the oracles share none of them with semple2's
    reader."""
    for d, column in values.items():
        if set(column) != set(INVARIANT_LABELS):
            raise CacheError(f"degree {d} does not carry exactly the 13 labels")
        if d == 1 and column != SEED:
            raise CacheError("cached degree-1 column disagrees with the seed")
        if any(column[big] != 3 * column[small] for big, small in RATIO_IDENTITIES):
            raise CacheError(f"degree {d} fails ratio identities")
    if sorted(values) != list(range(1, len(values) + 1)):
        raise CacheError("cached degrees are not exactly 1..N")
    points = kontsevich_row(len(values))
    for d, column in values.items():
        if column["h2.h2"] != points[d]:
            raise CacheError(f"degree {d} fails the point count")
    return InvariantTable(values)


def _canonical_int(text, where):
    """The int whose str() is `text`, or a CacheError."""
    try:
        n = int(text)
    except ValueError as exc:
        raise CacheError(f"bad integer at {where}") from exc
    if str(n) != text:
        raise CacheError(f"bad integer at {where}")
    return n


def csv_reader(text):
    """The oracle: the cache read with the csv module, which also reads
    quoted cells and '\\r\\n' line ends, and checked on the whole table."""
    try:
        header, *rows = csv.reader(io.StringIO(text), strict=True)
    except (csv.Error, ValueError) as exc:  # ValueError: no header at all
        raise CacheError(f"cache is not CSV: {exc}") from exc
    if header[:1] != ["invariant"] or [row[:1] for row in rows] != [[l] for l in INVARIANT_LABELS]:
        raise CacheError("cache does not hold the header and the 13 labels in order")
    if header[1:] != [str(d) for d in range(1, len(header))]:
        raise CacheError("the header does not name the degrees 1..N")
    if any(len(row) != len(header) for row in rows):
        raise CacheError("a row and the header differ in length")
    values = {d: {} for d in range(1, len(header))}
    for label, *cells in rows:
        for d, cell in enumerate(cells, 1):
            values[d][label] = _canonical_int(cell, f"{label}, degree {d}")
    return _checked(values)


def _unique_keys(pairs):
    """A JSON object as a dict, refusing a key that appears twice."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise CacheError(f"cache repeats the key {key!r}")
        obj[key] = value
    return obj


def json_reader(text):
    """The reader of the JSON layout that earlier versions wrote, on
    `json.loads`: what such a cache holds."""
    try:
        raw = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise CacheError(f"cache is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise CacheError("cache must be a JSON object keyed by degree")
    values = {}
    for key, column in raw.items():
        if not isinstance(column, dict):
            raise CacheError(f"bad entry for degree {key!r}")
        d = _canonical_int(key, "a degree key")
        if d < 1:
            raise CacheError(f"bad entry for degree {key!r}")
        for label, value in column.items():
            if label not in INVARIANT_LABELS or not isinstance(value, str):
                raise CacheError(f"bad entry {label!r} at degree {d}")
            values.setdefault(d, {})[label] = _canonical_int(value, f"{label}, degree {d}")
    return _checked(values)


def _data(table):
    return {str(d): {label: str(table.get(d, label)) for label in INVARIANT_LABELS}
            for d in table.degrees()}


def _csv(data, **options):
    """`data` written by the csv module with `options`: one row per label."""
    out = io.StringIO()
    csv.writer(out, **options).writerows(
        [["invariant", *data], *([label, *(column[label] for column in data.values())]
                                 for label in INVARIANT_LABELS)])
    return out.getvalue()


#: valid caches of degrees 0, 1, 2, 6 and 40 as semple2 writes them, which
#: the reader reads; and, each with the reader of its layout that reads the
#: same table from it, what the csv module writes by default ('\r\n' line
#: ends) and with every cell quoted, and the JSON that earlier versions
#: wrote, compact, in their own layout, and in tab-indented CRLF lines with
#: every key order reversed: all of which the reader refuses
TEXTS, FOREIGN = {}, {}
for _dmax in (0, 1, 2, 6, 40):
    _table = compute_up_to(_dmax) if _dmax else InvariantTable({})
    _d = _data(_table)
    TEXTS[f"csv {_dmax}"] = rows_to_csv(table_rows(_table))
    FOREIGN[f"crlf {_dmax}"] = (csv_reader, _csv(_d))
    FOREIGN[f"quoted {_dmax}"] = (csv_reader, _csv(_d, quoting=csv.QUOTE_ALL))
    FOREIGN[f"compact {_dmax}"] = (json_reader, json.dumps(_d))
    FOREIGN[f"indent {_dmax}"] = (json_reader, json.dumps(_d, indent=2) + "\n")
    FOREIGN[f"reversed {_dmax}"] = (json_reader, json.dumps(
        {key: dict(reversed(column.items())) for key, column in reversed(_d.items())},
        indent="\t").replace("\n", "\r\n"))

#: what an edit inserts or substitutes: CSV punctuation and whitespace,
#: quotes, escapes, JSON punctuation, and the characters of a spelling of an
#: integer or label that semple2 never writes
CHARACTERS = st.sampled_from([*' \t\n\r\x0b\x0c\xa0\x00\ufeff",\\{}[]:0123456789-+_.eEh2zd\uff11',
                              "\r\n", "true", "null", "\\u0031", '"1"'])

#: the places where the punctuation of each text is: before and after
#: each ',' and newline
PUNCTUATION = {name: sorted({at + shift for at, c in enumerate(text) if c in ",\n"
                             for shift in (0, 1)})
               for name, text in TEXTS.items()}


@st.composite
def edited_texts(draw):
    name = draw(st.sampled_from(sorted(TEXTS)))
    text = TEXTS[name] + draw(st.sampled_from(("", "\n")))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.one_of(st.integers(0, len(text)), st.sampled_from(PUNCTUATION[name])))
        kind = draw(st.sampled_from(("insert", "delete", "substitute", "cut")))
        if kind == "cut":
            text = text[:at]
        elif kind == "insert":
            text = text[:at] + draw(CHARACTERS) + text[at:]
        elif kind == "delete":
            text = text[:at] + text[at + 1:]
        else:
            text = text[:at] + draw(CHARACTERS) + text[at + 1:]
    return text


def read(reader, text):
    """The table `reader` reads from `text`, or None if it raises CacheError."""
    try:
        return reader(text)
    except CacheError:
        return None


#: a valid degree-2 cache in the JSON layout of earlier versions
_D2_JSON = json.dumps(_data(compute_up_to(2)), indent=2) + "\n"

#: texts next to a valid degree-2 cache in that JSON layout that the json
#: reader refuses: not JSON, or a key or value that is not the str() of its
#: int.  The reader refuses them, as it refuses the valid one
REFUSED = {
    "truncated": _D2_JSON.rstrip()[:-1],
    "cut in a value": _D2_JSON[:_D2_JSON.index('"1"') + 2],
    "cut after a degree": _D2_JSON[:_D2_JSON.index("},") + 2],
    "closed after degree 1": _D2_JSON.replace("},", "}}", 1),
    "text after the object": _D2_JSON + "{}",
    "a string opened after the object": _D2_JSON + '"',
    "a second object": _D2_JSON + _D2_JSON,
    "trailing comma": _D2_JSON.replace('"9"\n  }', '"9",\n  }'),
    "missing colon": _D2_JSON.replace('"h2z": ', '"h2z" '),
    "missing comma": _D2_JSON.replace('"3",', '"3"'),
    "repeated label": _D2_JSON.replace('"h2hd": "1",', '"h2hd": "1",\n    "h2hd": "1",', 1),
    "repeated degree": _D2_JSON.rstrip()[:-1] + ', "2": {}}',
    "array of degrees": "[" + _D2_JSON + "]",
    "form feed": _D2_JSON.replace(": ", ":\f", 1),
    "cut before the next degree": _D2_JSON[:_D2_JSON.index('"2"')],
    "zero-led key": _D2_JSON.replace('"2": {', '"02": {'),
    "zero-led value": _D2_JSON.replace('"h2hd": "1"', '"h2hd": "01"', 1),
    "negative zero": _D2_JSON.replace('"hd2z": "0"', '"hd2z": "-0"'),
    "full-width digit": _D2_JSON.replace('"h2hd": "1"', '"h2hd": "\uff11"', 1),
}


@pytest.mark.parametrize("name", REFUSED)
def test_the_reader_refuses_what_the_json_reader_refuses(name):
    assert REFUSED[name] != _D2_JSON and read(json_reader, REFUSED[name]) is None
    with pytest.raises(CacheError):
        table_from_csv(REFUSED[name])


_C2 = TEXTS["csv 2"] + "\n"

#: texts next to a valid degree-2 cache as semple2 writes it that the csv
#: reader refuses: not the header and the 13 labels, a row and the header
#: of different lengths, or a degree or value that is not the str() of its int
REFUSED_CSV = {
    "empty": "",
    "the empty JSON object": "{}\n",
    "truncated": _C2[:_C2.index("hdz.hdz")],
    "cut in a row": _C2[:_C2.index("hz.hz,0,36") + len("hz.hz,0")],
    "text after the table": _C2 + "x",
    "a second table": _C2 + _C2,
    "blank line": _C2.replace("\nh2z,", "\n\nh2z,"),
    "header renamed": _C2.replace("invariant,", "degree,"),
    "trailing comma": _C2.replace("h2hd,1,1\n", "h2hd,1,1,\n"),
    "missing value": _C2.replace("h2hd,1,1\n", "h2hd,1\n"),
    "missing degree": _C2.replace("invariant,1,2\n", "invariant,1\n"),
    "repeated label": _C2.replace("h2z,3,3\n", "h2hd,3,3\n"),
    "repeated degree": _C2.replace("invariant,1,2\n", "invariant,1,1\n"),
    "zero-led degree": _C2.replace("invariant,1,2\n", "invariant,1,02\n"),
    "zero-led value": _C2.replace("h2hd,1,1\n", "h2hd,1,01\n"),
    "negative zero": _C2.replace("hd2z,-3,0\n", "hd2z,-3,-0\n"),
    "plus sign": _C2.replace("h2hd,1,1\n", "h2hd,+1,1\n"),
    "full-width digit": _C2.replace("h2hd,1,1\n", "h2hd,\uff11,1\n"),
    "space after a comma": _C2.replace(",", ", "),
    "wrong point count": _C2.replace("h2.h2,1,1\n", "h2.h2,1,2\n"),
}


@pytest.mark.parametrize("name", REFUSED_CSV)
def test_the_reader_refuses_what_the_csv_reader_refuses(name):
    assert REFUSED_CSV[name] != _C2 and read(csv_reader, REFUSED_CSV[name]) is None
    with pytest.raises(CacheError):
        table_from_csv(REFUSED_CSV[name])


@pytest.mark.parametrize("name", TEXTS)
def test_the_reader_reads_every_cache_semple2_writes_as_the_csv_reader_does(name):
    for text in (TEXTS[name], TEXTS[name] + "\n"):
        table = table_from_csv(text)
        assert table == csv_reader(text)
        assert len(table.degrees()) == int(name.split()[1])


@pytest.mark.parametrize("name", FOREIGN)
def test_the_reader_refuses_a_valid_cache_in_another_layout(name):
    # the reader of its layout reads the same table as from the text
    # semple2 writes
    reader, text = FOREIGN[name]
    assert reader(text) == table_from_csv(TEXTS["csv " + name.split()[1]])
    with pytest.raises(CacheError):
        table_from_csv(text)


#: an invariant as a table may hold one: of either sign, or 0, with up to
#: 1000 digits
INTEGERS = st.one_of(st.integers(-10 ** 6, 10 ** 6),
                     st.integers(-(10 ** 1000 - 1), 10 ** 1000 - 1))


@st.composite
def tables(draw):
    """A table over degrees 1..N, N <= 8, that the reader's checks pass:
    the seed at degree 1, and past it the classical point count in h2.h2,
    three times its partner in each 3:1 row, and any value in the other
    seven rows."""
    n = draw(st.integers(0, 8))
    points = kontsevich_row(n)
    values = {}
    for d in range(1, n + 1):
        column = dict(SEED) if d == 1 else {label: draw(INTEGERS) for label in INVARIANT_LABELS}
        column["h2.h2"] = points[d]
        for big, small in RATIO_IDENTITIES:
            column[big] = 3 * column[small]
        values[d] = column
    return InvariantTable(values)


@PROPERTY
@given(tables())
def test_every_text_the_writer_writes_is_read_back_also_in_part(table):
    n = len(table.values)
    for end in ("", "\n"):
        text = rows_to_csv(table_rows(table)) + end
        for dmax in (None, *range(1, n + 2)):
            top = n if dmax is None else min(n, dmax)
            assert table_from_csv(text, dmax).values == \
                {d: table.values[d] for d in range(1, top + 1)}


@PROPERTY
@given(edited_texts())
def test_an_edited_cache_is_refused_or_is_the_text_of_what_was_read(text):
    got = read(table_from_csv, text)
    if got is not None:
        assert text == rows_to_csv(table_rows(got)) + ("\n" if text.endswith("\n") else "")
        # the csv module reads the same table from it
        assert got == csv_reader(text)


#: the text of the shipped recursion module, whose reader the mutants edit
RECURSION_TEXT = Path(recursion.__file__).read_text(encoding="utf-8")

#: the degree-3 cache as semple2 writes it
_D3 = rows_to_csv(table_rows(compute_up_to(3))) + "\n"

#: each check of the reader, disabled by one edit of its code, one edit of
#: the degree-3 cache that this check alone refuses, and the degree the
#: edited cache is read to (None: all of it)
READER_MUTANTS = {
    "line count": (("if len(lines) > len(_LINE_HEADS):", "if False:"),
                   ("hdz.hdz,9,0,63\n", "hdz.hdz,9,0,63\nx"), None),
    # a '\r' ends a line, and so its last cell, past what a degree-2 read reads
    "separators": (('"\\r" in text', "False"), ("h2hd,1,1,10\n", "h2hd,1,1,10\r\n"), 2),
    "labels": (("if line[0] != want:", "if False:"), ("h2.hdz,", "h2.hdx,"), None),
    "key": (("header[d] != str(d)", "False"), ("invariant,1,2,3", "invariant,1,2,x"), None),
    "leading zero": ((' and (digits[0] != "0" or number == "0")', ""),
                     ("h2.hdz,-3,0,54", "h2.hdz,-3,0,054"), None),
    "ascii digits": (("digits.isascii() and ", ""), ("h2.hdz,-3,0,54", "h2.hdz,-3,0,５4"), None),
    "seed": (("d == 1 and column != SEED", "False"), ("hdz.hdz,9,0,63", "hdz.hdz,8,0,63"), None),
    "ratio identities": (("bad = ratio_failures(column)", "bad = []"),
                         ("h2z,3,3,30", "h2z,3,3,31"), None),
    "point count": (('column["h2.h2"] != want', "False"), ("h2.h2,1,1,12", "h2.h2,1,1,13"), None),
    "trailer": (("if len(line) != len(header):", "if False:"),
                ("hdz.hdz,9,0,63", "hdz.hdz,9,0,63,1"), None),
}


@pytest.mark.parametrize("check", READER_MUTANTS)
def test_each_check_of_the_reader_alone_refuses_an_edited_cache(check):
    # the reader refuses the edited cache, and a copy of the module without
    # that one check reads it, so the check can fail and no other catches
    # the edit
    (code, disabled), (cached, edited), dmax = READER_MUTANTS[check]
    assert RECURSION_TEXT.count(code) == 1 and _D3.count(cached) == 1
    text = _D3.replace(cached, edited)
    with pytest.raises(CacheError):
        table_from_csv(text, dmax)
    mutant = {"__name__": "edited_recursion"}
    exec(compile(RECURSION_TEXT.replace(code, disabled), "<edited reader>", "exec"), mutant)
    assert mutant["table_from_csv"](text, dmax).degrees() == tuple(range(1, (dmax or 3) + 1))
