"""JSON serialization: floats read back bit for bit from their shortest
round-trip text, canonical hashing, and validated round-trips for every
exchanged structure."""

import json
import math
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _gen import personas, random_decomposition, random_dist, random_strict_weights
from _subproc import child_env
from logpool import (
    Dist,
    NotAPoolWitness,
    OutcomeSpace,
    ParseError,
    config_hash,
    decomposition_from_json,
    decomposition_to_json,
    dist_from_json,
    dist_to_json,
    dumps,
    dumps_canonical,
    loads,
    rng_from,
    weights_from_json,
)
from logpool import jsonio
from logpool.cli import _write_json, main

LAYOUT_GOLDEN = Path(__file__).parent / "golden" / "jsonio_layout.json"


def layout_object():
    """Every kind of value the encoder writes, in the nestings that decide
    its layout.  ``golden/jsonio_layout.json`` holds what ``dumps`` and
    ``dumps_canonical`` write for it: the layout of the stdlib's private
    ``json.encoder._make_iterencode``, which they were first built on, with
    each float as its shortest round-trip text.  The bytes change only on
    purpose, with the change recorded in CHANGES.md."""
    floats = [0.1, 2.0 / 3.0, -0.0, 0.0, 5e-324, 1e300, -1.5e-310, 1.0, 123456789.0]
    return {
        "z_first": {"nested": {"deeper": [[], {}, [1, [2.5, "x"]], {"k": None}]}},
        "floats": floats,
        "specials": [float("nan"), float("inf"), -float("inf"), 0.25],
        "special_scalars": {"nan": float("nan"), "inf": float("inf"), "ninf": -float("inf")},
        "zeros": {"neg": -0.0, "pos": 0.0},
        "extremes": [5e-324, 1e300, -1e300, 2.2250738585072014e-308],
        "mixed": [1, 2.5, "three", True, False, None, [], {}, -0.0],
        "strings": ["a", "b\"q", "tab\t", "é", "\u2603 snow", ""],
        "empty_list": [],
        "empty_dict": {},
        "numpy": {
            "int64": np.int64(-7),
            "float64": np.float64(0.1),
            "float32": np.float32(0.5),
            "bool": np.bool_(False),
            "array": np.array([0.25, -0.0, 1e-300]),
            "int_array": np.array([[1, 2], [3, 4]]),
            "in_list": [np.float64(1.0 / 3.0), np.int64(3), np.bool_(True)],
        },
        "none": None,
        "big_int": 2**70 + 1,
        "negative_int": -12,
        "non_ascii": "Gödel’s λ → ∞",
        7: "int key",
        0.1: "float key",
        True: "bool key",
        None: "none key",
        "tuple": (1.5, 2.5),
        "a_last": [0.5],
    }


def test_dumps_layout_matches_the_golden_bytes():
    golden = json.loads(LAYOUT_GOLDEN.read_text())
    assert dumps(layout_object()) == golden["dumps"]


def _written(obj, tmp_dir) -> str:
    """The CLI's file writer: the bytes of the document, then a newline."""
    path = Path(tmp_dir) / "written.json"
    _write_json(str(path), obj)
    return path.read_text()


def test_streamed_layout_matches_the_golden_bytes(tmp_path):
    golden = json.loads(LAYOUT_GOLDEN.read_text())
    assert _written(layout_object(), tmp_path) == golden["dumps"] + "\n"


def canonical_object():
    """``layout_object`` with its non-str keys replaced by a dict of int
    keys, since ``sort_keys`` cannot order mixed key types."""
    obj = layout_object()
    for key in (7, 0.1, True, None):
        del obj[key]
    obj["int_keys"] = {10: "ten", 2: "two", -1: "minus one"}
    return obj


def test_dumps_canonical_layout_matches_the_golden_bytes():
    golden = json.loads(LAYOUT_GOLDEN.read_text())
    assert dumps_canonical(canonical_object()) == golden["dumps_canonical"]


_bits = struct.Struct("<d")
_finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [5e-324, -5e-324, 2.2250738585072009e-308, -2.2250738585072014e-308]
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_finite, max_size=40))
def test_float_lists_round_trip_bit_for_bit(values):
    """Every finite double, -0.0 included, comes back as a float with the
    same bits."""
    back = loads(dumps({"v": values}))["v"]
    assert len(back) == len(values)
    for got, want in zip(back, values):
        assert type(got) is float
        assert _bits.pack(got) == _bits.pack(want)


def _assert_same_text(got: str, want: str) -> None:
    """Report where two texts first differ: an ``assert got == want`` on
    megabytes of float text makes pytest's diff run for minutes."""
    if got != want:
        i = len(os.path.commonprefix([got, want]))
        raise AssertionError(f"first mismatch at {i} of {len(got)}/{len(want)}: "
                             f"{got[i:i + 40]!r} != {want[i:i + 40]!r}")


def _assert_same_floats(back, values: np.ndarray) -> None:
    """``back`` holds Python floats with exactly the bits of ``values``."""
    kinds = set(map(type, back))
    assert kinds <= {float}, kinds
    got = np.array(back, dtype=np.float64).view(np.uint64)
    want = values.view(np.uint64)
    assert len(got) == len(want), (len(got), len(want))
    bad = np.flatnonzero(got != want)
    assert not bad.size, f"{bad.size} moved, first at {bad[0]}: {values[bad[0]]!r} as {back[bad[0]]!r}"


def _powers_of_ten_and_neighbours():
    powers = np.array([float(f"1e{q}") for q in range(-323, 309)])
    near = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    return np.concatenate([near, -near])


def _round_trip_cases():
    rng = rng_from(806)
    bits = rng.integers(0, 2**64, size=200_000, dtype=np.uint64).view(np.float64)
    subnormal = rng.integers(1, 2**52, size=10_000, dtype=np.uint64).view(np.float64)
    odd = rng.integers(2 * 10**15, 2**52, size=50_000) * 2 + 1  # odd M in [4e15, 2^53)
    return {
        "random bit patterns": bits[np.isfinite(bits)],
        "exact decimal ties M/4": odd / 4.0,
        "10^q and both neighbours": _powers_of_ten_and_neighbours(),
        "subnormals, negatives and signed zeros": np.concatenate(
            [subnormal, -subnormal, [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308] * 1000]
        ),
        "a long list": rng.random(12295),
    }


@pytest.mark.parametrize("case", list(_round_trip_cases()))
def test_floats_read_back_with_the_same_bits(case):
    """A list of plain floats, a 1-D float64 array and each float alone read
    back as floats with the same bits."""
    values = _round_trip_cases()[case]
    _assert_same_floats(loads(dumps(values.tolist())), values)
    _assert_same_floats(loads(dumps({"p": values}))["p"], values)
    head = values[:2000]
    _assert_same_floats([loads(dumps(x)) for x in head.tolist()], head)


_FLOAT_EDGES = [5e-324, 2.2250738585072014e-308, 1e-5, 1e16, 1e17, 1.7976931348623157e308, -0.0]


def test_the_float_list_pass_writes_each_float_as_its_scalar_text():
    """A list of plain floats is written by one orjson call; each entry must
    read as the float alone is written, ``orjson.dumps(x)``."""
    rng = rng_from(805)
    bits = rng.integers(0, 2**64, size=20_000, dtype=np.uint64, endpoint=False)
    drawn = [x for x in bits.view(np.float64).tolist() if math.isfinite(x)]
    for values in (_FLOAT_EDGES, [-x for x in _FLOAT_EDGES], drawn):
        want = "[\n  " + ",\n  ".join(orjson.dumps(x).decode() for x in values) + "\n]"
        _assert_same_text(dumps(values), want)


def _counting(monkeypatch, name):
    """Count the calls of ``jsonio.<name>``, which still does its work."""
    calls = []
    real = getattr(jsonio, name)
    monkeypatch.setattr(jsonio, name, lambda *a, **k: calls.append(a) or real(*a, **k))
    return calls


def test_every_row_falling_back_gives_the_same_bytes(monkeypatch):
    """orjson writes NaN as ``null``, so a document holding one is written
    float by float through ``_scalar_text``.  With a NaN after every 4095
    floats, the finite ones keep the bytes of the one-call path."""
    drawn = _round_trip_cases()["random bit patterns"][:9000]
    values = np.concatenate([drawn, _powers_of_ten_and_neighbours()])
    calls = _counting(monkeypatch, "_scalar_text")
    texts = dumps(values)[4:-2].split(",\n  ")
    assert calls == []
    step = 4095
    spiked, want = [], []
    for start in range(0, len(values), step):
        spiked += values[start:start + step].tolist() + [math.nan]
        want += texts[start:start + step] + ["NaN"]
    for given_as in (spiked, np.array(spiked)):
        calls.clear()
        _assert_same_text(dumps(given_as), "[\n  " + ",\n  ".join(want) + "\n]")
        assert len(calls) == len(spiked)


def test_few_persona_floats_fall_back_to_dtoa(monkeypatch):
    """A persona distribution over m = 32768 outcomes: at most 5 % of its
    floats may be left to ``_scalar_text``, the per-float dtoa the one-call
    writer exists to avoid."""
    m = 32768
    p = personas(1, m, 1)[0]
    calls = _counting(monkeypatch, "_scalar_text")
    for given_as in (p.tolist(), p):
        calls.clear()
        text = dumps({"p": given_as})
        assert loads(text)["p"] == p.tolist()
        assert len(calls) <= 0.05 * m, len(calls) / m


def test_a_vocabulary_sized_distribution_takes_no_per_item_path(monkeypatch):
    """``dist_to_json`` of a persona distribution at m = 32768 is one orjson
    call: neither ``_str_text`` nor ``_scalar_text`` runs, not even for the
    two keys."""
    p = personas(1, 32768, 1)[0]
    dist = Dist(OutcomeSpace(len(p)), p)
    floats = _counting(monkeypatch, "_scalar_text")
    strings = _counting(monkeypatch, "_str_text")
    text = dumps(dist_to_json(dist))
    assert floats == [] and strings == [], (len(floats), len(strings))
    assert loads(text) == {"labels": dist.space.all_labels(), "p": p.tolist()}


def test_a_vocabulary_sized_pool_reads_each_list_in_one_pass(tmp_path, monkeypatch):
    """A ``pool`` over four persona distributions at m = 32768 is parsed by
    orjson alone, and each number list becomes an array without the
    per-entry type scan."""
    agents = personas(1, 32768, 4)
    src = tmp_path / "family.json"
    src.write_text(json.dumps({"agents": [{"p": p.tolist()} for p in agents], "weights": [0.1, 0.2, 0.3, 0.4]}))
    parsed = []
    real = json.loads
    monkeypatch.setattr(json, "loads", lambda *a, **k: parsed.append(a) or real(*a, **k))
    scans = _counting(monkeypatch, "_array_of")
    assert main(["pool", str(src), "--out", str(tmp_path / "out.json")]) == 0
    assert parsed == [] and scans == [], (len(parsed), len(scans))


@pytest.mark.parametrize("label", ["caf\u00e9", "\x7f", "\ud800"], ids=ascii)
def test_a_pool_with_a_label_orjson_cannot_write_as_json_does(tmp_path, label):
    """A non-ASCII label (orjson writes UTF-8) and DEL (orjson writes it
    raw) are escaped after orjson's call, and a lone surrogate (orjson
    refuses it) sends the document to ``_serialize``: the artifact holds the
    stdlib's escapes either way."""
    labels = ["a", label, "o2"]
    family = tmp_path / "family.json"
    family.write_text(json.dumps({"agents": [{"labels": labels, "p": [0.2, 0.3, 0.5]},
                                             {"labels": labels, "p": [0.6, 0.3, 0.1]}],
                                  "weights": [0.5, 0.5]}))
    out = tmp_path / "pool.json"
    assert main(["pool", str(family), "--out", str(out)]) == 0
    text = out.read_text()
    assert json.loads(text)["pool"]["labels"] == labels
    assert text == reference_dumps(json.loads(text)) + "\n"


_TEXT_PIECES = st.one_of(
    st.characters(),
    st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF, categories=["Cs"]),
    st.characters(max_codepoint=0x1F),
    st.sampled_from(["\x7f", '"', "\\", ",", "\n", '","', ",\n  ", "\u2028"]),
)
_TEXTS = st.lists(_TEXT_PIECES, max_size=6).map("".join)
_STR_LISTS = st.lists(_TEXTS, min_size=1, max_size=6)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_STR_LISTS, st.lists(_STR_LISTS, max_size=3),
                 st.lists(st.lists(_STR_LISTS, max_size=3), max_size=3)))
@example(['u_","a",', ""])
@example(["\ud800"])
@example(["\x7f"])
def test_string_lists_write_as_json_writes_them(obj):
    """Any text, lone surrogates, DEL, controls, quotes, backslashes, commas
    and newlines included, nested 0-2 lists deep, in both layouts."""
    assert dumps(obj) == json.dumps(obj, indent=2)
    assert dumps_canonical(obj) == json.dumps(obj, separators=(",", ":"), sort_keys=True)


def test_nan_and_infinities_write_as_the_stdlib_writes_them():
    """orjson writes them as ``null``; in a long list or an array, and as
    scalars, they are ``NaN``, ``Infinity`` and ``-Infinity``."""
    values = rng_from(807).random(12288)
    at = [17, 4101, 8191]
    values[at] = [math.nan, math.inf, -math.inf]
    for given_as in (values, values.tolist()):
        texts = dumps(given_as)[4:-2].split(",\n  ")
        assert [texts[i] for i in at] == ["NaN", "Infinity", "-Infinity"]
        _assert_same_floats(list(map(float, texts)), values)
    assert [dumps(x) for x in (math.nan, math.inf, -math.inf)] == ["NaN", "Infinity", "-Infinity"]


def test_a_strided_array_writes_as_its_list():
    """A strided or reversed view writes as its values in view order."""
    x = rng_from(808).random(8195)
    for view in (x[::2], x[::-1]):
        _assert_same_text(dumps(view), dumps(view.tolist()))


def reference_dumps(o, pad="\n"):
    """A per-element encoder independent of ``jsonio``: every value's text
    built whole and joined, finite floats one ``orjson.dumps`` call each."""
    if isinstance(o, (np.ndarray, np.generic)):
        o = o.tolist()
    if isinstance(o, str) or o is None or isinstance(o, bool):
        return json.dumps(o)
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return orjson.dumps(o).decode() if math.isfinite(o) else json.dumps(o)
    inner = pad + "  "
    if isinstance(o, dict):
        body = ("," + inner).join(json.dumps(k) + ": " + reference_dumps(v, inner) for k, v in o.items())
        return "{" + inner + body + pad + "}" if o else "{}"
    body = ("," + inner).join(reference_dumps(x, inner) for x in o)
    return "[" + inner + body + pad + "]" if o else "[]"


_SPECIAL_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324])
_FLOATS = st.floats() | _SPECIAL_FLOATS
_NUMPY = st.one_of(
    _FLOATS.map(np.float64),
    st.integers(-(2**62), 2**62).map(np.int64),
    st.booleans().map(np.bool_),
    st.lists(_FLOATS, max_size=5).map(np.array),
    st.lists(st.integers(-9, 9), max_size=5).map(np.array),
)
_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(), _FLOATS, st.text(max_size=4), _NUMPY)
_DOCUMENTS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.lists(_FLOATS, max_size=6),
        st.lists(st.text(max_size=3), max_size=4),
        st.dictionaries(st.text(max_size=3), inner, max_size=4),
    ),
    max_leaves=16,
)


@settings(max_examples=100, deadline=None)
@given(_DOCUMENTS)
def test_streamed_text_equals_dumps_and_the_per_element_encoder(obj):
    """NaN, infinities, -0.0, empty containers, tuples and numpy values, in
    any nesting: the file the CLI writes holds ``dumps`` text, which is the
    per-element encoder's text."""
    with tempfile.TemporaryDirectory() as tmp:
        written = _written(obj, tmp)
    assert written == dumps(obj) + "\n"
    assert dumps(obj) == reference_dumps(obj)


_FALLBACK_LEAVES = st.one_of(
    st.sampled_from([2**64, -(2**63) - 1, 2**70, -(2**70), None, "null", " null ", "[null]",
                     "\x7f", "\ud800", "caf\u00e9 \u2603"]),
    st.lists(st.floats(width=32), max_size=4).map(lambda x: np.array(x, dtype=np.float32)),
    st.lists(_SPECIAL_FLOATS, max_size=4).map(np.array),
    st.sampled_from([object(), b"bytes", {1}, np.datetime64(0, "s")]),
)
_KEYS = st.text(max_size=3) | st.sampled_from(["null", "\x7f", "\u00e9", "\udc00", 7, 0.5, True, None])


def _nested(obj, depth):
    for _ in range(depth):
        obj = [obj]
    return obj


_FALLBACK_DOCUMENTS = st.builds(
    _nested,
    st.recursive(
        _LEAVES | _FALLBACK_LEAVES,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_KEYS, inner, max_size=4),
        max_leaves=16,
    ),
    st.sampled_from([0, 0, 0, 1, 260]),
)


def _text_or_error(write, obj):
    try:
        return write(obj)
    except TypeError as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(_FALLBACK_DOCUMENTS)
@example(math.nan)
@example({"p": [0.5, -math.inf], "k": None})
@example(["null", " null ", {"null": "[null]"}])
@example({"caf\u00e9": ["\x7f", "\u2603"]})
@example([2**64 - 1, -(2**63)])
@example([2**64, "\ud800"])
@example({7: 0.5})
@example(_nested({"a": 1}, 260))
@example(np.array([0.1, 2.5], dtype=np.float32))
@example([object()])
def test_one_call_text_equals_the_per_value_writer(obj):
    """Whether orjson writes a document or refuses it (an int beyond 64
    bits, a lone surrogate, a non-str key, nesting past 254, a type it
    cannot write), and whether its text holds ``null`` or a word "null":
    ``dumps`` and ``dumps_canonical`` give ``_serialize``'s text or error."""
    assert _text_or_error(dumps, obj) == _text_or_error(jsonio._serialize, obj)
    canonical = _text_or_error(lambda o: jsonio._serialize(o, canonical=True), obj)
    assert _text_or_error(dumps_canonical, obj) == canonical


@pytest.mark.parametrize("labels", ["default", "non-ASCII", "DEL", "null"])
def test_a_vocabulary_sized_factor_never_reaches_the_per_value_writer(tmp_path, monkeypatch, labels):
    """A ``factor`` artifact at m = 32768 is one orjson call, whatever its
    labels: non-ASCII and DEL are escaped after it, and a label "null" is
    not a ``null`` value."""
    m = 32768
    names = [f"o{i}" for i in range(m)]
    if labels == "non-ASCII":
        names = [f"\u00e9{i}\u2603" for i in range(m)]
    elif labels != "default":
        names[7] = {"DEL": "o7\x7f", "null": "null"}[labels]
    parent = {"p": personas(23, m, 1)[0].tolist()}
    if labels != "default":
        parent["labels"] = names
    src, out = tmp_path / "input.json", tmp_path / "out.json"
    src.write_text(json.dumps({"parent": parent, "weights": [0.5, 0.3, 0.2]}))
    calls = _counting(monkeypatch, "_serialize")
    assert main(["factor", str(src), "--out", str(out)]) == 0
    assert calls == []
    monkeypatch.undo()
    text = out.read_text()
    _assert_same_text(text, jsonio._serialize(json.loads(text)) + "\n")
    assert json.loads(text)["decomposition"]["parent"]["labels"] == names


def test_float_round_trip_through_dumps():
    rng = rng_from(801)
    values = list(rng.random(200)) + [1e-300, 1e300, 0.1, 2.0 / 3.0]
    text = dumps({"values": values})
    back = loads(text)["values"]
    assert back == [float(v) for v in values]


def test_dumps_writes_the_shortest_round_trip_text():
    text = dumps({"x": 0.1})
    assert "0.1" in text and "0.10000000000000001" not in text


def test_dumps_handles_numpy_scalars_and_arrays():
    obj = {
        "arr": np.array([0.25, 0.75]),
        "i": np.int64(7),
        "f": np.float64(0.5),
        "b": np.bool_(True),
    }
    back = loads(dumps(obj))
    assert back == {"arr": [0.25, 0.75], "i": 7, "f": 0.5, "b": True}


def test_loads_rejects_malformed_documents():
    with pytest.raises(ParseError) as info:
        loads("{not json")
    assert str(info.value) == (
        "invalid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
    )


def _same(got, want) -> bool:
    """Equal in value and in type at every level, floats bit for bit (so
    ``1.8446744073709552e19`` is not ``2**64``, nor ``-0.0`` the int 0)."""
    if type(got) is not type(want):
        return False
    if isinstance(got, float):
        return _bits.pack(got) == _bits.pack(want)
    if isinstance(got, list):
        return len(got) == len(want) and all(map(_same, got, want))
    if isinstance(got, dict):
        return list(got) == list(want) and all(_same(got[k], want[k]) for k in got)
    return got == want


def _assert_reads_as_json(text):
    """As text and as its UTF-8 bytes, lone surrogates included (the bytes
    ``json.loads`` reads back to the same text)."""
    want = json.loads(text)
    assert _same(loads(text), want), text
    assert _same(loads(text.encode("utf-8", "surrogatepass")), want), text


@st.composite
def _decimal_texts(draw):
    """A JSON number of 1 to 25 digits: an integer, a fraction, or either
    with an exponent in -345..315, in each of the spellings JSON allows."""
    digits = draw(st.text("0123456789", min_size=1, max_size=25))
    point = draw(st.integers(0, len(digits)))
    text = draw(st.sampled_from(["", "-"])) + (digits[:point].lstrip("0") or "0")
    if point < len(digits):
        text += "." + digits[point:]
    if draw(st.booleans()):
        exponent = draw(st.integers(-345, 315))
        mark = draw(st.sampled_from(["e", "E"]))
        text += mark + ("-" if exponent < 0 else draw(st.sampled_from(["", "+"]))) + str(abs(exponent))
    return text


_any_double = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, -0.0, 1.7976931348623157e308]
)
_number_texts = st.one_of(
    _any_double.map(repr),
    _any_double.map(lambda x: "%.17g" % x),
    _decimal_texts(),
    st.integers(-(2**80), 2**80).map(str),
    st.sampled_from([2**63 - 1, 2**63, 2**64 - 1, 2**64, -(2**63), -(2**63) - 1]).map(str),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_number_texts, min_size=1, max_size=30))
def test_loads_reads_numbers_as_the_stdlib_does(tokens):
    """The stdlib parser is the oracle: the same value, type and float bits,
    for each number alone and for all of them in one array."""
    for token in tokens:
        _assert_reads_as_json(token)
    _assert_reads_as_json("[" + ", ".join(tokens) + "]")
    _assert_reads_as_json('{"agents": [{"p": [' + ",".join(tokens) + ']}], "weights": [1]}')


def _short_id(text):
    return ascii(text) if len(text) <= 40 else f"{text[:8]}...{len(text)}chars"


@pytest.mark.parametrize(
    "text",
    [
        "NaN", "Infinity", "-Infinity", "[0.5, NaN, Infinity, -Infinity]",
        "1e400", "[-1e400, 0.5]",
        "18446744073709551616", "-9223372036854775809", '{"p": [0.5, 18446744073709551616]}',
        "[[0.25, 1e19], -0.0, -0]",
        '"\\ud800"', '["\ud800"]',
        '{"a": 1, "b": 2, "a": 3}',
        "2.2250738585072011e-308", "9007199254740993", "1e23",
        "2.4703282292062327e-324", "2.4703282292062328e-324", "7.4109846876186982e-324",
        "1.7976931348623158e308", "1.7976931348623159e308",
        "[" + ", ".join(["[]"] * 1500) + "]",
        "[9223372036854775808, 1e-300, 0.5]", "[-9223372036854775809, 0.5]",
        "[" + ", ".join(["1e16"] * 10_000) + "]", "[" + ", ".join(["1e17"] * 10_000) + "]",
        "[1e200, 1e200]", "[1.5e308, 1.5e308, -18446744073709551617]",
        '[0.5, "a", 18446744073709551616]', "[18446744073709551616, [0.5]]",
    ],
    ids=_short_id,
)
def test_loads_gives_the_stdlib_result_where_orjson_differs(text):
    """Each text orjson rejects, or would read otherwise, or that holds more
    brackets than it may nest, and the floats hardest to round.  The number
    lists probe the 2-norm bound on wide integers: 2^63 stays an int in
    orjson and -2^63 - 1 does not; 10,000 copies of 1e16 have a norm below
    2^62 and of 1e17 one above it with no entry at 2^63; ``1.5e308`` twice
    overflows the norm to inf; a string or a list in the list makes
    ``math.hypot`` raise."""
    _assert_reads_as_json(text)


def test_a_plain_document_does_not_reach_the_stdlib_parser(monkeypatch):
    """orjson reads it; the stdlib's parser is several times slower on float
    arrays and is only a fallback."""
    text = dumps({"agents": [{"labels": ["a", "b"], "p": [0.25, 0.75]}], "weights": [1, 2**63 - 1]})
    want = json.loads(text)

    def refuse(text):
        raise AssertionError("json.loads called")

    monkeypatch.setattr(json, "loads", refuse)
    assert _same(loads(text), want)


def test_importing_the_cli_leaves_orjson_unimported():
    """Its import costs ~8 ms of start-up, which ``verify`` never needs."""
    code = "import sys, logpool.cli; print('orjson' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env())
    assert out.stdout == "False\n", out.stderr


def test_duplicate_keys_keep_the_first_position_and_the_last_value():
    assert list(loads('{"a": 1, "b": 2, "a": 3}').items()) == [("a", 3), ("b", 2)]


def test_a_document_1000_deep_parses():
    """The stdlib's parser overflows the recursion limit on it."""
    obj = loads("[" * 1000 + "]" * 1000)
    for _ in range(999):
        (obj,) = obj
    assert obj == []


@pytest.mark.parametrize(
    "text",
    [
        "[" * 100_000 + "]" * 100_000,
        '{"agents": ' + "[" * 3000 + "]" * 3000 + ', "weights": [1]}',
        "1" * 5000,
    ],
    ids=_short_id,
)
def test_a_document_too_deep_or_an_integer_too_long_is_a_parse_error(text):
    with pytest.raises(ParseError, match="^invalid JSON: "):
        loads(text)


def test_canonical_form_and_config_hash_are_order_insensitive():
    a = {"x": 1, "y": [1, 2], "z": 0.5}
    b = {"z": 0.5, "y": [1, 2], "x": 1}
    assert dumps_canonical(a) == dumps_canonical(b)
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash({**a, "x": 2})
    assert len(config_hash(a)) == 64


def test_dist_round_trip_is_bit_exact():
    rng = rng_from(802)
    d = random_dist(rng, OutcomeSpace(5, tuple("abcde")))
    doc = dist_to_json(d)
    assert doc["p"].dtype == np.float64 and not doc["p"].flags.writeable
    back = dist_from_json(loads(dumps(doc)))
    assert np.array_equal(back.p, d.p)
    assert back.space.labels == d.space.labels


def test_dist_from_json_validation():
    with pytest.raises(ParseError):
        dist_from_json({"labels": ["a"]})
    with pytest.raises(ParseError):
        dist_from_json({"p": "not an array"})
    with pytest.raises(ParseError):
        dist_from_json({"p": [0.5, True]})
    with pytest.raises(ParseError):
        dist_from_json({"p": [0.5, 0.5], "labels": [1, 2]})
    # pinning a space: wrong length or wrong labels are parse errors
    space = OutcomeSpace(3)
    with pytest.raises(ParseError):
        dist_from_json({"p": [0.5, 0.5]}, space=space)
    with pytest.raises(ParseError):
        dist_from_json(
            {"p": [0.2, 0.3, 0.5], "labels": ["x", "y", "z"]}, space=space
        )
    ok = dist_from_json({"p": [0.2, 0.3, 0.5], "labels": ["o0", "o1", "o2"]}, space=space)
    assert ok.space == space


def test_an_integer_entry_too_large_for_a_float_is_a_parse_error():
    huge = 10**400
    with pytest.raises(ParseError, match='"p"'):
        dist_from_json({"p": [huge, 0.5]})
    with pytest.raises(ParseError, match="weights"):
        weights_from_json({"beta": [0.5, huge]})
    with pytest.raises(ParseError, match="weights"):
        weights_from_json([-huge, 1])


def test_dist_from_json_does_not_renormalize():
    from logpool import NotNormalized

    with pytest.raises(NotNormalized):
        dist_from_json({"p": [0.5, 0.4]})


def test_weights_round_trip_and_bare_arrays():
    rng = rng_from(803)
    w = random_strict_weights(rng, 4)
    back = weights_from_json(loads(dumps({"beta": w.beta.tolist()})))
    assert np.array_equal(back.beta, w.beta)
    bare = weights_from_json([0.5, 0.5])
    assert np.array_equal(bare.beta, [0.5, 0.5])
    with pytest.raises(ParseError):
        weights_from_json({"betas": [0.5, 0.5]})
    with pytest.raises(ParseError):
        weights_from_json("nope")


def test_decomposition_round_trip_revalidates_the_witness():
    rng = rng_from(804)
    decomp = random_decomposition(rng, 6, 3)
    doc = loads(dumps(decomposition_to_json(decomp)))
    back = decomposition_from_json(doc)
    assert np.array_equal(back.parent.p, decomp.parent.p)
    for b, c in zip(back.children, decomp.children):
        assert np.array_equal(b.p, c.p)
    # corrupt the parent: the reconstruction must refuse the witness
    bad = json.loads(json.dumps(doc))
    bad["parent"]["p"] = list(np.roll(bad["parent"]["p"], 1))
    with pytest.raises(NotAPoolWitness):
        decomposition_from_json(bad)
