"""JSON round-tripping with full float precision.

Serialization here is deliberately boring and deterministic: floats are
written with ``%.17g``, enough digits to round-trip IEEE doubles exactly,
with one exception: ``-0.0`` is written as ``-0`` and reads back as the
integer 0, losing the sign of zero.  Keys keep insertion order unless a
canonical form is requested, and nothing machine-generated carries
wall-clock or filesystem state.  Two calls with equal inputs produce
byte-identical text.  The encoder is built on public APIs only and writes
the stdlib's layout; a list of plain floats or strings is written in one
``join``.

Deserialization never repairs data.  A distribution parsed from JSON goes
straight through the :class:`~logpool.core.Dist` constructor, so an entry
that is zero, negative, or off-normalization raises the same errors a
directly constructed distribution would.
"""

from __future__ import annotations

import hashlib
import json
from itertools import repeat
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

#: How the stdlib writes the floats that have no ``%.17g`` number form.
_SPECIAL = {"nan": "NaN", "-nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _scalar_text(o: None | bool | int | float) -> str:
    if o is None or o is True or o is False:
        return "null" if o is None else "true" if o else "false"
    if isinstance(o, int):
        return int.__repr__(o)
    text = format(o, ".17g")
    return _SPECIAL.get(text, text)


def _serialize(obj: Any, indent: int | None, sep: str, colon: str, sort_keys: bool) -> str:
    """JSON text in the stdlib's layout and key rules, floats as ``%.17g`` and
    numpy values as the Python values they hold.  A list of plain floats or
    plain strings is written in one ``join``; anything else recurses."""
    step = "" if indent is None else " " * indent

    def key_text(key: Any) -> str:
        if not (key is None or isinstance(key, (str, int, float))):
            raise TypeError(f"keys must be str, int, float, bool or None, not {key!r}")
        return _str_text(key if isinstance(key, str) else _scalar_text(key))

    def encode(o: Any, pad: str) -> str:
        if isinstance(o, str):
            return _str_text(o)
        if o is None or isinstance(o, (int, float)):
            return _scalar_text(o)
        inner = pad + step
        if isinstance(o, dict):
            items = sorted(o.items()) if sort_keys else o.items()
            pairs = (key_text(k) + colon + encode(v, inner) for k, v in items)
            body = (sep + inner).join(pairs)
            return "{" + inner + body + pad + "}" if o else "{}"
        if isinstance(o, (list, tuple)):
            kinds = set(map(type, o))
            if kinds == {float}:
                body = (sep + inner).join(map(format, o, repeat(".17g")))
                if "n" in body:  # nan or inf: no finite %.17g text has an "n"
                    body = (sep + inner).join(map(_scalar_text, o))
            elif kinds == {str}:
                body = (sep + inner).join(map(_str_text, o))
            else:
                body = (sep + inner).join(encode(x, inner) for x in o)
            return "[" + inner + body + pad + "]" if o else "[]"
        if isinstance(o, (np.ndarray, np.generic)):
            return encode(o.tolist(), pad)
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")

    return encode(obj, "" if indent is None else "\n")


def dumps(obj: Any, indent: int | None = 2) -> str:
    """Serialize with full float precision, stable across equal inputs."""
    return _serialize(obj, indent, ", " if indent is None else ",", ": ", sort_keys=False)


def dumps_canonical(obj: Any) -> str:
    """Compact, key-sorted form used for hashing configurations."""
    return _serialize(obj, None, ",", ":", sort_keys=True)


def loads(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc


def config_hash(config: Any) -> str:
    """SHA-256 of the canonical serialization of a configuration object."""
    return hashlib.sha256(dumps_canonical(config).encode("utf-8")).hexdigest()


def _array_of(values: Any, *kinds: type) -> bool:
    """True for a list or tuple of ``kinds`` values; a bool is not a number."""
    return isinstance(values, (list, tuple)) and all(
        issubclass(t, kinds) and not issubclass(t, bool) for t in set(map(type, values))
    )


def dist_to_json(dist: Dist) -> dict:
    return {"labels": dist.space.all_labels(), "p": dist.p.tolist()}


def dist_from_json(obj: Any, space: OutcomeSpace | None = None) -> Dist:
    """Parse ``{"labels": [...], "p": [...]}``; labels optional.

    Passing ``space`` pins the outcome space: provided labels must match it.
    Validation is the constructor's — nothing is renormalized.
    """
    if not isinstance(obj, dict) or "p" not in obj:
        raise ParseError('a distribution is an object with a "p" array')
    p = obj["p"]
    if not _array_of(p, int, float):
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
    return Dist(space, np.asarray(p, dtype=float))


def weights_from_json(obj: Any) -> Weights:
    """Parse ``{"beta": [...]}`` or a bare array of numbers."""
    if isinstance(obj, dict):
        obj = obj.get("beta")
    if not _array_of(obj, int, float):
        raise ParseError('weights are {"beta": [...]} or a bare array of numbers')
    return Weights(np.asarray(obj, dtype=float))


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
    children_raw = obj["children"]
    if not isinstance(children_raw, list) or not children_raw:
        raise ParseError('"children" must be a non-empty array')
    first = dist_from_json(children_raw[0])
    children = [first] + [dist_from_json(c, space=first.space) for c in children_raw[1:]]
    parent = dist_from_json(obj["parent"], space=first.space)
    weights = weights_from_json(obj["weights"])
    return Decomposition(
        parent=parent, children=tuple(children), weights=weights, pool_kind=kind
    )
