"""The cache reader: every text semple2 writes is read back, any other is
refused, and a json-based reader is the reference for what a cache holds."""

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
    table_from_json,
    table_to_json,
)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=400,
                    phases=[phase for phase in Phase if phase is not Phase.explain])


def _unique_keys(pairs):
    """A JSON object as a dict, refusing a key that appears twice."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise CacheError(f"cache repeats the key {key!r}")
        obj[key] = value
    return obj


def json_reader(text):
    """The oracle: the cache reader as it was written on `json.loads`."""
    try:
        raw = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise CacheError(f"cache is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise CacheError("cache must be a JSON object keyed by degree")
    values = {}
    for key, column in raw.items():
        try:
            d = int(key)
        except ValueError as exc:
            raise CacheError(f"bad degree key {key!r}") from exc
        if str(d) != key:
            raise CacheError(f"bad degree key {key!r}")
        if d < 1 or not isinstance(column, dict):
            raise CacheError(f"bad entry for degree {key!r}")
        parsed = {}
        for label, text_value in column.items():
            if label not in INVARIANT_LABELS:
                raise CacheError(f"unknown invariant label {label!r}")
            if not isinstance(text_value, str):
                raise CacheError(f"bad integer for {label} at degree {d}")
            try:
                n = int(text_value)
            except ValueError as exc:
                # int() refuses a canonical decimal only past the digit limit
                digits = text_value.removeprefix("-")
                if digits.isascii() and digits.isdecimal() and digits[0] != "0":
                    raise CacheError(f"{label} at degree {d} has more digits than the "
                                     f"interpreter's int/str conversion limit: {exc}") from exc
                raise CacheError(f"bad integer for {label} at degree {d}") from exc
            if str(n) != text_value:
                raise CacheError(f"bad integer for {label} at degree {d}")
            parsed[label] = n
        values[d] = parsed
    # the checks, written here on the whole table rather than degree by
    # degree, so that this reader shares none of them with semple2's
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


def _data(dmax):
    table = compute_up_to(dmax) if dmax else InvariantTable({})
    return {str(d): {label: str(table.get(d, label)) for label in INVARIANT_LABELS}
            for d in table.degrees()}


#: valid caches of degrees 0, 1, 2, 6 and 40 as semple2 writes them, which
#: the reader reads; and those past degree 0 as compact `json.dumps` writes
#: them and in tab-indented CRLF lines with every key order reversed, which
#: hold the same table for the json reader and which the reader refuses
TEXTS, FOREIGN = {}, {}
for _dmax in (0, 1, 2, 6, 40):
    _d = _data(_dmax)
    TEXTS[f"indent {_dmax}"] = json.dumps(_d, indent=2) + "\n"
    if _dmax:  # both write the empty cache as semple2 does
        FOREIGN[f"compact {_dmax}"] = json.dumps(_d)
        FOREIGN[f"reversed {_dmax}"] = json.dumps(
            {key: dict(reversed(column.items())) for key, column in reversed(_d.items())},
            indent="\t").replace("\n", "\r\n")

#: what an edit inserts or substitutes: JSON punctuation and whitespace,
#: whitespace JSON does not allow, escapes, and the characters of a spelling
#: of an integer or label that semple2 never writes
CHARACTERS = st.sampled_from([*' \t\n\r\x0b\x0c\xa0\x00\ufeff"\\{}[]:,0123456789-+_.eEh2zd\uff11',
                              "true", "null", "\\u0031", '"1"'])

#: the places where the punctuation of each text is: before and after
#: each '"', ':', ',', '{', '}' and newline
PUNCTUATION = {name: sorted({at + shift for at, c in enumerate(text) if c in '":,{}\n'
                             for shift in (0, 1)})
               for name, text in TEXTS.items()}


@st.composite
def edited_texts(draw):
    name = draw(st.sampled_from(sorted(TEXTS)))
    text = TEXTS[name]
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


_D2 = TEXTS["indent 2"]

#: texts next to a valid degree-2 cache that the json reader refuses: not
#: JSON, or a key or value that is not the str() of its int
REFUSED = {
    "truncated": _D2.rstrip()[:-1],
    "cut in a value": _D2[:_D2.index('"1"') + 2],
    "cut after a degree": _D2[:_D2.index("},") + 2],
    "closed after degree 1": _D2.replace("},", "}}", 1),
    "text after the object": _D2 + "{}",
    "a string opened after the object": _D2 + '"',
    "a second object": _D2 + _D2,
    "trailing comma": _D2.replace('"9"\n  }', '"9",\n  }'),
    "missing colon": _D2.replace('"h2z": ', '"h2z" '),
    "missing comma": _D2.replace('"3",', '"3"'),
    "repeated label": _D2.replace('"h2hd": "1",', '"h2hd": "1",\n    "h2hd": "1",', 1),
    "repeated degree": _D2.rstrip()[:-1] + ', "2": {}}',
    "array of degrees": "[" + _D2 + "]",
    "form feed": _D2.replace(": ", ":\f", 1),
    "cut before the next degree": _D2[:_D2.index('"2"')],
    "zero-led key": _D2.replace('"2": {', '"02": {'),
    "zero-led value": _D2.replace('"h2hd": "1"', '"h2hd": "01"', 1),
    "negative zero": _D2.replace('"hd2z": "0"', '"hd2z": "-0"'),
    "full-width digit": _D2.replace('"h2hd": "1"', '"h2hd": "\uff11"', 1),
}


@pytest.mark.parametrize("name", REFUSED)
def test_the_reader_refuses_what_the_json_reader_refuses(name):
    assert REFUSED[name] != _D2 and read(json_reader, REFUSED[name]) is None
    with pytest.raises(CacheError):
        table_from_json(REFUSED[name])


@pytest.mark.parametrize("name", TEXTS)
def test_the_reader_reads_every_cache_semple2_writes_as_the_json_reader_does(name):
    for text in (TEXTS[name], TEXTS[name][:-1]):
        table = table_from_json(text)
        assert table == json_reader(text)
        assert len(table.degrees()) == int(name.split()[1])


@pytest.mark.parametrize("name", FOREIGN)
def test_the_reader_refuses_a_valid_cache_in_another_layout(name):
    # the json reader reads the same table as from the layout semple2 writes
    text = FOREIGN[name]
    assert json_reader(text) == json_reader(TEXTS["indent " + name.split()[1]])
    with pytest.raises(CacheError):
        table_from_json(text)


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
        text = table_to_json(table) + end
        for dmax in (None, *range(1, n + 2)):
            top = n if dmax is None else min(n, dmax)
            assert table_from_json(text, dmax).values == \
                {d: table.values[d] for d in range(1, top + 1)}


@PROPERTY
@given(edited_texts())
def test_an_edited_cache_is_refused_or_is_the_text_of_what_was_read(text):
    got = read(table_from_json, text)
    if got is not None:
        assert text == table_to_json(got) + ("\n" if text.endswith("\n") else "")
        # json.loads reads the same table from it
        assert got == json_reader(text)


#: the text of the shipped recursion module, whose reader the mutants edit
RECURSION_TEXT = Path(recursion.__file__).read_text(encoding="utf-8")

#: the degree-3 cache as semple2 writes it
_D3 = table_to_json(compute_up_to(3)) + "\n"

#: each check of the reader, disabled by one edit of its code, and one edit
#: of the degree-3 cache that this check alone refuses
READER_MUTANTS = {
    "key": (("block[0] != str(d)", "False"), ('"3": {', '"x": {')),
    "separators": (("block[1:-1:2] != _SEPARATORS", "False"),
                   ('"h2.h2": "12"', '"h2.h2":"12"')),
    "labels": (("block[2::4] != _LABELS", "False"), ('"h2.hdz": "54"', '"h2.hdx": "54"')),
    "leading zero": ((' and (digits[0] != "0" or number == "0")', ""),
                     ('"h2.hdz": "54"', '"h2.hdz": "054"')),
    "ascii digits": (("digits.isascii() and ", ""), ('"h2.hdz": "54"', '"h2.hdz": "５4"')),
    "trailer": (("if not (after == _NEXT", "if False and (after == _NEXT"),
                ('},\n  "2"', '}, \n  "2"')),
    "seed": (("d == 1 and column != SEED", "False"), ('"hdz.hdz": "9"', '"hdz.hdz": "8"')),
    "ratio identities": (("bad = ratio_failures(column)", "bad = []"),
                         ('"h2z": "30"', '"h2z": "31"')),
    "point count": (('column["h2.h2"] != want', "False"), ('"h2.h2": "12"', '"h2.h2": "13"')),
}


@pytest.mark.parametrize("check", READER_MUTANTS)
def test_each_check_of_the_reader_alone_refuses_an_edited_cache(check):
    # the reader refuses the edited cache, and a copy of the module without
    # that one check reads it, so the check can fail and no other catches
    # the edit
    (code, disabled), (cached, edited) = READER_MUTANTS[check]
    assert RECURSION_TEXT.count(code) == 1 and _D3.count(cached) == 1
    text = _D3.replace(cached, edited)
    with pytest.raises(CacheError):
        table_from_json(text)
    mutant = {"__name__": "edited_recursion"}
    exec(compile(RECURSION_TEXT.replace(code, disabled), "<edited reader>", "exec"), mutant)
    assert mutant["table_from_json"](text).degrees() == (1, 2, 3)
