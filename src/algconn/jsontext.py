"""JSON text as json.dumps(value, indent=2, sort_keys=True) writes it.

Any indent sends the json module to its pure-Python encoder: a generator
per container and a yield per token. Reports and certificates hold only
dicts, lists and scalars, and their dicts come in a few fixed schemas: a
sweep row, a report header, a certificate. json_text writes the same
bytes with less work per record. A dict's schema (its keys in their
order, and its indent) becomes a %-template once, with the keys sorted
and escaped. Strings go through json's C escaper, ints and floats
through the reprs json uses, and a list of ints, such as a
certificate's vertex sequences, is one join.
"""

from __future__ import annotations

from functools import lru_cache
from json.encoder import encode_basestring_ascii

# json's spelling of the floats that have no JSON literal
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(value: float) -> str:
    text = float.__repr__(value)
    return _NONFINITE.get(text, text)


# scalars by exact type; bool is not int here, as in json
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def json_text(value, pad: str = "\n") -> str:
    """json.dumps(value, indent=2, sort_keys=True) for dicts with str keys,
    lists, tuples, str, int, float, bool and None; every line after the
    first starts with pad, less its leading newline."""
    scalar = _SCALARS.get(type(value))
    if scalar is not None:
        return scalar(value)
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        keys, template = _object_template(tuple(value), pad)
        texts = []
        for k in keys:
            v = value[k]
            scalar = _SCALARS.get(type(v))
            texts.append(scalar(v) if scalar is not None else json_text(v, inner))
        return template % tuple(texts)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if all(type(v) is int for v in value):
            return "[" + inner + ("," + inner).join(map(int.__repr__, value)) + pad + "]"
        return "[" + ",".join([inner + json_text(v, inner) for v in value]) + pad + "]"
    # subclasses, numpy's float64 among them, as json checks them
    for kind in (str, int, float):
        if isinstance(value, kind):
            return _SCALARS[kind](value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


@lru_cache(maxsize=64)
def _object_template(keys: tuple[str, ...], pad: str) -> tuple[list[str], str]:
    """The sorted keys of a dict schema and its %-template at this pad."""
    inner = pad + "  "
    ordered = sorted(keys)
    items = [inner + encode_basestring_ascii(k).replace("%", "%%") + ": %s" for k in ordered]
    return ordered, "{" + ",".join(items) + pad + "}"
