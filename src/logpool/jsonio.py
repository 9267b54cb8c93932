"""JSON round-tripping with full float precision.

Serialization is deliberately boring and deterministic: each float is
written as orjson writes it, the shortest text that reads back to the same
double (``0.1``, ``2.0``, ``-0.0``, ``1e-9``), and NaN and the infinities as
the stdlib writes them (``NaN``, ``Infinity``, ``-Infinity``).  Keys keep
insertion order unless a canonical form is requested, nothing carries
wall-clock or filesystem state, and equal inputs give byte-identical text.
The encoder uses public APIs only and writes the stdlib's layout.  A
document is written by one orjson call, so a vocabulary-sized distribution
costs no Python work per entry; one that orjson cannot write as ``json``
would (NaN, an int beyond 64 bits, a non-str key) is written value by value.

Parsing gives exactly what ``json.loads`` gives: the same objects, the same
float bits and the same error text.  orjson parses; the stdlib reads again
only the documents orjson rejects or may read differently (see
:func:`loads`).

Deserialization never repairs data.  A distribution parsed from JSON goes
straight through the :class:`~logpool.core.Dist` constructor, so an entry
that is zero, negative, or off-normalization raises the same errors a
directly constructed distribution would.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from array import array
from json.encoder import encode_basestring_ascii as _str_text
from typing import Any

import numpy as np

from .core import Dist, OutcomeSpace, Weights, default_labels
from .errors import ParseError
from .pooling import Decomposition

__all__ = [
    "dumps",
    "dumps_canonical",
    "loads",
    "config_hash",
    "dist_to_json",
    "dist_from_json",
    "weights_from_json",
    "decomposition_to_json",
    "decomposition_from_json",
]


def _scalar_text(o: None | bool | int | float) -> str:
    if o is None or o is True or o is False:
        return "null" if o is None else "true" if o else "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if not math.isfinite(o):
        return "NaN" if o != o else "Infinity" if o > 0 else "-Infinity"
    import orjson

    return orjson.dumps(float(o)).decode()


def _plain(o: Any) -> Any:
    """orjson's ``default``: a numpy value as the Python value it holds, so a
    float32 or int array writes as its ``tolist()``."""
    if isinstance(o, (np.ndarray, np.generic)):
        return o.tolist()
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


#: A ``null`` value in orjson's text, which is how it writes NaN, the
#: infinities and None.  The literal comes first so the search runs at memchr
#: speed; a string holding `` null `` also matches, which only costs the
#: fallback.
_NULL = re.compile(rb"null(?<![^\[,:\s]null)(?![^,\]}\s])")

#: DEL and the UTF-8 of every non-ASCII character, which ``json`` escapes.
_HIGH = re.compile(rb"[\x7f-\xff]+")


def _document(obj: Any, canonical: bool = False) -> bytes:
    """The text of :func:`dumps`, or of :func:`dumps_canonical` if
    ``canonical``, as ASCII bytes from one orjson call.  orjson escapes every
    ASCII character but DEL as ``json`` does, and each run of DEL and
    non-ASCII bytes, which only a string can hold, is escaped afterwards.  A
    document orjson refuses (an int beyond 64 bits, a lone surrogate, a
    non-str key, nesting past 254, a type it cannot write) or whose text
    holds a ``null`` value goes to :func:`_serialize`."""
    import orjson

    option = orjson.OPT_PASSTHROUGH_DATACLASS | orjson.OPT_PASSTHROUGH_DATETIME
    option |= orjson.OPT_SORT_KEYS if canonical else orjson.OPT_INDENT_2
    try:
        text = orjson.dumps(obj, default=_plain, option=option)
    except orjson.JSONEncodeError:
        text = None
    if text is None or _NULL.search(text):
        return _serialize(obj, canonical).encode()
    if not text.isascii() or b"\x7f" in text:
        text = _HIGH.sub(lambda run: _str_text(run[0].decode())[1:-1].encode(), text)
    return text


def _serialize(obj: Any, canonical: bool = False) -> str:
    """The text of :func:`_document`, one value at a time: the stdlib's
    layout and key rules (two-space indent, or compact and key-sorted if
    ``canonical``), floats as their shortest round-trip text and numpy values
    as the Python values they hold."""
    step, colon = ("", ":") if canonical else ("  ", ": ")

    def encode(o: Any, pad: str) -> str:
        if isinstance(o, (np.ndarray, np.generic)):
            o = o.tolist()
        if o is None or isinstance(o, (str, int, float)):
            return _str_text(o) if isinstance(o, str) else _scalar_text(o)
        if not isinstance(o, (dict, list, tuple)):
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
        if not o:
            return "{}" if isinstance(o, dict) else "[]"
        inner = pad + step
        if isinstance(o, dict):
            items = []
            for k, v in sorted(o.items()) if canonical else o.items():
                if not (k is None or isinstance(k, (str, int, float))):
                    raise TypeError(f"keys must be str, int, float, bool or None, not {k!r}")
                key = _str_text(k if isinstance(k, str) else _scalar_text(k))
                items.append(key + colon + encode(v, inner))
            return "{" + inner + ("," + inner).join(items) + pad + "}"
        return "[" + inner + ("," + inner).join(encode(x, inner) for x in o) + pad + "]"

    return encode(obj, "" if canonical else "\n")


def dumps(obj: Any) -> str:
    """Serialize with full float precision, stable across equal inputs."""
    return _document(obj).decode()


def dumps_canonical(obj: Any) -> str:
    """Compact, key-sorted form used for hashing configurations."""
    return _document(obj, canonical=True).decode()


#: orjson reads an integer outside [-2**63, 2**64) as a float, where ``json``
#: keeps the int; a float at least this large may be such an integer.
_WIDE = 2.0**63

#: orjson 3.8.3 parses nesting by native recursion with no depth limit, and
#: overflows the C stack (a segfault) near 150,000 levels on an 8 MB stack
#: and 20,000 on a 256 kB one.  A text with at most this many ``[`` and
#: ``{`` nests no deeper; any other goes to ``json``, which raises
#: ``RecursionError`` near ``sys.getrecursionlimit()`` levels.
_MAX_OPENERS = 1024


def _openers(text: str | bytes) -> int:
    """How many ``[`` and ``{`` ``text`` holds, a bound on its depth.  UTF-8
    writes every other character with bytes above 0x7f; NumPy counts ~3x
    faster than ``bytes.count``."""
    if isinstance(text, str):
        text = text.encode("utf-8", "surrogatepass")
    raw = np.frombuffer(text, np.uint8)
    return int(np.count_nonzero(raw == ord("[")) + np.count_nonzero(raw == ord("{")))


def _holds_wide_float(obj: Any) -> bool:
    """True if ``obj`` holds a float of magnitude at least ``_WIDE``.  A list
    of numbers costs one C pass: its 2-norm bounds every magnitude, so only a
    list whose norm reaches ``_WIDE / 2`` (a margin far beyond the norm's
    rounding), or that ``math.hypot`` refuses, is tested entry by entry.
    Walks with a stack, not recursion: documents ``_MAX_OPENERS`` deep reach
    it."""
    stack = [[obj]]
    while stack:
        items = stack.pop()
        if items and type(items[0]) in (float, int):
            try:  # anything but a number, or an int beyond a float, raises
                if math.hypot(*items) < _WIDE / 2:
                    continue
            except (TypeError, OverflowError):
                pass
        for x in items:
            if type(x) is float and abs(x) >= _WIDE:
                return True
            if type(x) is list:
                stack.append(x)
            elif type(x) is dict:
                stack.append(list(x.values()))
    return False


def loads(text: str | bytes) -> Any:
    """Parse a JSON document into what ``json.loads`` returns, float bits
    included, or raise :class:`ParseError` with its message.  ``text`` may
    be bytes, read as ``json.loads`` reads bytes.

    orjson parses a text with at most ``_MAX_OPENERS`` brackets and braces.
    ``json`` reads every other text, each one orjson rejects (NaN and
    infinities, lone surrogates, a BOM, malformed text), and each one it may
    read differently (an integer beyond 64 bits, which orjson reads as a
    float; :func:`_holds_wide_float` looks for one), so the result or the
    error is always the stdlib's.  A document too deep or an integer too
    long for the stdlib is a :class:`ParseError` too."""
    # Imported here, as by the writers: orjson imports zoneinfo (~8 ms), which
    # ``import logpool.cli`` should not pay.
    import orjson

    if _openers(text) <= _MAX_OPENERS:
        try:
            obj = orjson.loads(text)
        except orjson.JSONDecodeError:
            pass
        else:
            if not _holds_wide_float(obj):
                return obj
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc


def config_hash(config: Any) -> str:
    """SHA-256 of the canonical serialization of a configuration object."""
    return hashlib.sha256(dumps_canonical(config).encode("utf-8")).hexdigest()


def _array_of(values: Any, *kinds: type) -> bool:
    """True for a list or tuple of ``kinds`` values; a bool is not a number."""
    return isinstance(values, (list, tuple)) and all(
        issubclass(t, kinds) and not issubclass(t, bool) for t in set(map(type, values))
    )


def _float_array(values: Any) -> np.ndarray | None:
    """``values`` as float64 from one C pass, or None where that pass cannot
    tell that it is a list or tuple of numbers.  ``array("d")`` refuses a
    string, ``null``, a list, an object and an int too large for a float,
    and reads a bool as exactly 0.0 or 1.0, so a list it refuses or one
    holding either value is left to :func:`_array_of` and :func:`_floats`.
    It also reads a number of any other type that converts to a float, such
    as a NumPy scalar, which :func:`loads` never returns."""
    if not isinstance(values, (list, tuple)):
        return None
    try:
        out = np.frombuffer(array("d", values))
    except (TypeError, OverflowError):
        return None
    return None if ((out == 0.0) | (out == 1.0)).any() else out


def _floats(values: list, what: str) -> np.ndarray:
    """A list of numbers as float64; an int too large for a float is a
    :class:`ParseError` naming ``what``."""
    try:
        return np.asarray(values, dtype=float)
    except OverflowError as exc:
        raise ParseError(f"an entry of {what} is too large for a float") from exc


def dist_to_json(dist: Dist) -> dict:
    """``{"labels": [...], "p": array}``: ``p`` is the distribution's own
    read-only float64 array, which the encoder writes as a float list."""
    return {"labels": dist.space.all_labels(), "p": dist.p}


def dist_from_json(obj: Any, space: OutcomeSpace | None = None) -> Dist:
    """Parse ``{"labels": [...], "p": [...]}``; labels optional.

    Passing ``space`` pins the outcome space: provided labels must match it.
    Validation is the constructor's — nothing is renormalized.
    """
    if not isinstance(obj, dict) or "p" not in obj:
        raise ParseError('a distribution is an object with a "p" array')
    p = obj["p"]
    floats = _float_array(p)
    if floats is None and not _array_of(p, int, float):
        raise ParseError('"p" must be an array of numbers')
    labels = obj.get("labels")
    if labels is not None:
        if not _array_of(labels, str):
            raise ParseError('"labels" must be an array of strings')
        labels = tuple(labels)
    if space is not None:
        if len(p) != space.size:
            raise ParseError(f"expected {space.size} probability entries, got {len(p)}")
        if labels is not None and labels != (space.labels or default_labels(space.size)):
            raise ParseError("labels do not match the expected outcome space")
    else:
        space = OutcomeSpace(len(p), labels)
    return Dist(space, _floats(p, '"p"') if floats is None else floats)


def weights_from_json(obj: Any) -> Weights:
    """Parse ``{"beta": [...]}`` or a bare array of numbers."""
    if isinstance(obj, dict):
        obj = obj.get("beta")
    floats = _float_array(obj)
    if floats is None and not _array_of(obj, int, float):
        raise ParseError('weights are {"beta": [...]} or a bare array of numbers')
    return Weights(_floats(obj, "the weights") if floats is None else floats)


def _family_from_json(obj: dict, key: str) -> list[Dist]:
    """``obj[key]``: a non-empty array of distributions, all on the first
    one's outcome space."""
    raw = obj[key]
    if not isinstance(raw, list) or not raw:
        raise ParseError(f'"{key}" must be a non-empty array')
    first = dist_from_json(raw[0])
    return [first] + [dist_from_json(d, space=first.space) for d in raw[1:]]


def decomposition_to_json(decomp: Decomposition) -> dict:
    return {
        "pool_kind": decomp.pool_kind,
        "weights": decomp.weights.beta.tolist(),
        "parent": dist_to_json(decomp.parent),
        "children": [dist_to_json(c) for c in decomp.children],
    }


def decomposition_from_json(obj: Any) -> Decomposition:
    """Rebuild a decomposition; the pool identity is re-verified on entry."""
    if not isinstance(obj, dict):
        raise ParseError("a decomposition is a JSON object")
    for key in ("weights", "parent", "children"):
        if key not in obj:
            raise ParseError(f'decomposition is missing "{key}"')
    kind = obj.get("pool_kind", "log")
    children = _family_from_json(obj, "children")
    parent = dist_from_json(obj["parent"], space=children[0].space)
    weights = weights_from_json(obj["weights"])
    return Decomposition(
        parent=parent, children=tuple(children), weights=weights, pool_kind=kind
    )
