"""The cache reader against a json-based reader of the same caches."""

import json

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from semple2.recursion import (
    CacheError,
    INVARIANT_LABELS,
    InvariantTable,
    compute_up_to,
    table_from_json,
    validate_table,
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
    validate_table(values)
    return InvariantTable(values)


def _data(dmax):
    table = compute_up_to(dmax) if dmax else InvariantTable({})
    return {str(d): {label: str(table.get(d, label)) for label in INVARIANT_LABELS}
            for d in table.degrees()}


#: valid caches of degrees 0, 1, 2, 6 and 40: as semple2 writes them, as
#: compact `json.dumps` writes them, and in tab-indented CRLF lines with
#: every key order reversed
TEXTS = {}
for _dmax in (0, 1, 2, 6, 40):
    _d = _data(_dmax)
    TEXTS[f"indent {_dmax}"] = json.dumps(_d, indent=2) + "\n"
    TEXTS[f"compact {_dmax}"] = json.dumps(_d)
    TEXTS[f"reversed {_dmax}"] = json.dumps(
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


def assert_agrees_with_the_json_reader(text):
    got, want = read(table_from_json, text), read(json_reader, text)
    if got is not None:
        # json.loads accepted the text, and both read the same table
        assert got == want
    if want is not None and "\\" not in text:
        assert got == want


_D2 = TEXTS["indent 2"]

#: texts next to a valid degree-2 cache that the json reader refuses
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
}


@pytest.mark.parametrize("name", REFUSED)
def test_the_reader_refuses_what_the_json_reader_refuses(name):
    assert REFUSED[name] != _D2 and read(json_reader, REFUSED[name]) is None
    with pytest.raises(CacheError):
        table_from_json(REFUSED[name])


@pytest.mark.parametrize("name", TEXTS)
def test_the_reader_reads_every_valid_layout_as_the_json_reader_does(name):
    table = table_from_json(TEXTS[name])
    assert table == json_reader(TEXTS[name])
    assert len(table.degrees()) == int(name.split()[1])


@PROPERTY
@given(edited_texts())
def test_an_edited_cache_is_read_as_the_json_reader_reads_it_or_refused(text):
    assert_agrees_with_the_json_reader(text)
