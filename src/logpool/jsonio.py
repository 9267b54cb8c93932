"""JSON round-tripping with full float precision.

Serialization is deliberately boring and deterministic: floats are written
with ``%.17g``, enough digits to round-trip IEEE doubles exactly, except
``-0.0``, written ``-0`` and read back as the integer 0.  Keys keep insertion
order unless a canonical form is requested, nothing carries wall-clock or
filesystem state, and equal inputs give byte-identical text.  The encoder
uses public APIs only, writes the stdlib's layout, and streams the text in
document order without ever holding the whole document: a list of plain
floats is one ``%.17g`` pass and a list of strings one ``join``.

Deserialization never repairs data.  A distribution parsed from JSON goes
straight through the :class:`~logpool.core.Dist` constructor, so an entry
that is zero, negative, or off-normalization raises the same errors a
directly constructed distribution would.
"""

from __future__ import annotations

import hashlib
import json
from json.encoder import encode_basestring_ascii as _str_text
from typing import Any, Callable

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


def _serialize(obj: Any, write: Callable[[str], object], indent: int | None = 2,
               sep: str = ",", colon: str = ": ", sort_keys: bool = False) -> None:
    """Pass JSON text to ``write`` in document order: the stdlib's layout and
    key rules, floats as ``%.17g``, numpy values as the Python values they hold
    and the defaults :func:`dumps`'s.  No container's text is built whole; a
    list of plain floats or strings is one ``%`` pass or ``join``, one ``write``."""
    step = "" if indent is None else " " * indent

    def encode(o: Any, pad: str) -> None:
        if isinstance(o, (np.ndarray, np.generic)):
            o = o.tolist()
        inner = pad + step
        glue = sep + inner
        if o is None or isinstance(o, (str, int, float)):
            write(_str_text(o) if isinstance(o, str) else _scalar_text(o))
        elif not isinstance(o, (dict, list, tuple)):
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
        elif not o:
            write("{}" if isinstance(o, dict) else "[]")
        elif isinstance(o, dict):
            for i, (k, v) in enumerate(sorted(o.items()) if sort_keys else o.items()):
                if not (k is None or isinstance(k, (str, int, float))):
                    raise TypeError(f"keys must be str, int, float, bool or None, not {k!r}")
                key = _str_text(k if isinstance(k, str) else _scalar_text(k))
                write((glue if i else "{" + inner) + key + colon)
                encode(v, inner)
            write(pad + "}")
        else:
            write("[" + inner)
            kinds = set(map(type, o))
            if kinds == {float}:
                body = glue.join(["%.17g"] * len(o)) % tuple(o)  # only nan/inf have an "n"
                write(glue.join(map(_scalar_text, o)) if "n" in body else body)
            elif kinds == {str}:
                write(glue.join(map(_str_text, o)))
            else:
                for i, x in enumerate(o):
                    if i:
                        write(glue)
                    encode(x, inner)
            write(pad + "]")

    encode(obj, "" if indent is None else "\n")


def dumps(obj: Any, indent: int | None = 2) -> str:
    """Serialize with full float precision, stable across equal inputs."""
    chunks: list[str] = []
    _serialize(obj, chunks.append, indent, ", " if indent is None else ",")
    return "".join(chunks)


def dumps_canonical(obj: Any) -> str:
    """Compact, key-sorted form used for hashing configurations."""
    chunks: list[str] = []
    _serialize(obj, chunks.append, None, ",", ":", sort_keys=True)
    return "".join(chunks)


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
