"""The artifact formats: one deterministic JSON writer, one strict reader.

Models, scenes, reports and label maps are JSON objects whose first key is
"version". This module owns that number and the byte layout; the modules
that own the types only say which fields a document has.

dump_doc lays a document out for diffing: a dict goes one key per line, and
a dict-valued key opens "{" on the next line. A Rows value is a 2-D float
array written flat, one row per line, or [] when it has no entries; a Lines
value is written one item per line; anything else is written inline. Floats
take their shortest round-trip form, so equal documents give equal bytes.
JSON has no NaN or infinity, so writing one raises ContractViolation.

parse_doc and parse_vector reject the NaN/Infinity constants the stdlib
parser would accept, and the typed accessors turn structural surprises into
FormatError with a usable path string.
"""

from __future__ import annotations

import json
from typing import NamedTuple

import numpy as np

from .errors import ContractViolation, FormatError

FORMAT_VERSION = 1


class Rows(NamedTuple):
    """A 2-D float array to write flat, one row per line."""

    array: np.ndarray


class Lines(list):
    """A list to write one item per line."""


# -- writing ------------------------------------------------------------------


def _check_finite(a, key: str) -> None:
    if not np.isfinite(a).all():
        raise ContractViolation(f"cannot write non-finite {key!r}: JSON has no NaN or infinity")


def _inline(v, key: str) -> str:
    if v is None or isinstance(v, (str, bool)):
        return json.dumps(v)
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, float):
        _check_finite(v, key)
        return repr(float(v))
    if isinstance(v, np.ndarray):
        _check_finite(v, key)
        return "[" + ", ".join(map(repr, v.tolist())) + "]"
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_inline(x, key) for x in v) + "]"
    if isinstance(v, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_inline(x, k)}" for k, x in v.items()) + "}"
    raise TypeError(f"cannot write {type(v).__name__} for {key!r}")


def _bracket(open_: str, parts: list[list[str]], close: str) -> list[str]:
    """Lines of open_, each part followed by a comma but the last, close."""
    for part in parts[:-1]:
        part[-1] += ","
    return [open_, *(line for part in parts for line in part), close]


def _lines(v, key: str) -> list[str]:
    if isinstance(v, dict):
        return _bracket("{", [_field(k, x) for k, x in v.items()], "}")
    if isinstance(v, Lines):
        return _bracket("[", [_lines(x, key) for x in v], "]")
    if isinstance(v, Rows):
        if v.array.size == 0:
            return ["[]"]
        _check_finite(v.array, key)
        return ["[", ",\n".join(", ".join(map(repr, row.tolist())) for row in v.array), "]"]
    return [_inline(v, key)]


def _field(key: str, v) -> list[str]:
    name, lines = json.dumps(key) + ":", _lines(v, key)
    return [name, *lines] if isinstance(v, dict) else [f"{name} {lines[0]}", *lines[1:]]


def dump_doc(fields: dict) -> bytes:
    """Serialize a document, "version" first; equal fields give equal bytes."""
    lines = _lines({"version": FORMAT_VERSION, **fields}, "")
    return ("\n".join(lines) + "\n").encode("utf-8")


def dump_line(fields: dict) -> str:
    """One-line JSON object, without a version (eval's stdout)."""
    return _inline(fields, "")


# -- reading ------------------------------------------------------------------


def _loads(data: bytes | str, what: str):
    text = data.decode("utf-8") if isinstance(data, (bytes, bytearray)) else data

    def reject(name: str):
        raise FormatError(f"non-finite constant {name!r} is not allowed in {what} files")

    try:
        return json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as e:
        raise FormatError(f"{what} parse error at line {e.lineno} column {e.colno}: {e.msg}") from e


def parse_doc(data: bytes | str, what: str) -> dict:
    """Parse a versioned top-level JSON object, rejecting NaN/Infinity."""
    doc = _loads(data, what)
    if not isinstance(doc, dict):
        raise FormatError(f"{what}: expected a top-level object")
    version = get(doc, "version", int, what)
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported {what} format version {version}")
    return doc


def parse_vector(data: bytes | str, what: str) -> np.ndarray:
    """Parse a bare JSON array of numbers (probe inputs, class scores)."""
    doc = _loads(data, what)
    if not isinstance(doc, list) or any(
        isinstance(v, bool) or not isinstance(v, (int, float)) for v in doc
    ):
        raise FormatError(f"{what} file must be a JSON array of numbers")
    return np.asarray([float(v) for v in doc], dtype=np.float64)


def get(obj, key: str, kind, where: str):
    """Fetch obj[key] checked against kind; bools never pass as numbers."""
    if not isinstance(obj, dict):
        raise FormatError(f"{where}: expected an object")
    if key not in obj:
        raise FormatError(f"{where}: missing key {key!r}")
    val = obj[key]
    if kind is float:
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise FormatError(f"{where}: key {key!r} must be a number")
        return float(val)
    if kind is int:
        if isinstance(val, bool) or not isinstance(val, int):
            raise FormatError(f"{where}: key {key!r} must be an integer")
        return val
    if not isinstance(val, kind):
        raise FormatError(f"{where}: key {key!r} has wrong type {type(val).__name__}")
    return val


def number_list(val, where: str) -> list[float]:
    if not isinstance(val, list):
        raise FormatError(f"{where}: expected an array of numbers")
    out = []
    for v in val:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise FormatError(f"{where}: expected numbers, found {type(v).__name__}")
        out.append(float(v))
    return out


def labels(obj: dict, where: str) -> tuple[str, ...] | None:
    """obj["labels"]: None when absent or null, else an array of strings."""
    val = obj.get("labels")
    if val is None:
        return None
    if not isinstance(val, list) or not all(isinstance(s, str) for s in val):
        raise FormatError(f"{where}: labels must be null or an array of strings")
    return tuple(val)


def int_list(val, where: str) -> list[int]:
    if not isinstance(val, list):
        raise FormatError(f"{where}: expected an array of integers")
    out = []
    for v in val:
        if isinstance(v, bool) or not isinstance(v, int):
            raise FormatError(f"{where}: expected integers, found {type(v).__name__}")
        out.append(v)
    return out
