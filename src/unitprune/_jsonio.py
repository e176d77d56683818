"""The artifact formats: one deterministic JSON writer, one strict reader.

Models, scenes, reports and label maps are JSON objects whose first key is
"version". This module owns that number and the byte layout; the modules
that own the types only say which fields a document has.

dump_doc lays a document out for diffing: a dict goes one key per line, and
a dict-valued key opens "{" on the next line. A Rows value is a 2-D float
array written flat, one row per line, or [] when it has no entries; a Lines
value or a 2-D array goes one item per line; anything else is inline. Floats
take their shortest round-trip form, so equal documents give equal bytes.
JSON has no NaN or infinity, so writing one raises ContractViolation.

dump_chunks gives the same bytes as a stream, and dump_doc is their join.
Checks are eager and formatting is lazy: the walk over the fields runs every
finiteness and type check before dump_chunks returns, so a refused document
raises before its first chunk exists. The stream then formats and encodes a
Rows value a block of rows at a time (about _CHUNK_VALUES floats), so a
writer holds one block's text, not the whole document.

parse_doc and parse_vector reject the NaN/Infinity constants the stdlib
parser would accept, and the typed accessors turn structural surprises (and
a number past the float range) into FormatError with a usable path string.
Bytes that are not UTF-8 are a FormatError too.

A caller of parse_doc names its numeric-array fields (a model's "weights"
and "bias", a scene's "data"), and each comes back as a float64 array. The
writer lays such a field out as a block: a line that is exactly
"<name>": [, then one row of numbers per line, each but the last ending in
a comma, then a line that starts with ]. parse_doc first reads the input in
that layout a line at a time: text held in memory, or a binary file from
where it stands to its end (an unbuffered one through a buffer of its own);
bytes held in memory are read as a file, with the same line loop and size
count. Bytes are decoded as UTF-8 a line at a time, never through json's
own encoding detection; byte 0x0A occurs in no multi-byte sequence, so no
character spans two lines. A block's row lines are parsed with the same
strict json decoder once they hold _CHUNK_BYTES of text and the last ends
in a comma (a row without one waits, so the parse that holds it fails),
converted to float64 as np.array(list) would, and copied into the field's
array. The array is sized from the density of the text read so far and the
length of the input left, then trimmed, so no pass counts the values
first. The text outside the blocks, a few hundred bytes, is kept and goes
through json.loads with each block replaced by a number token no writer
emits (_SENTINEL), which parse_float swaps for the block's array in
document order. So duplicate keys and nested objects keep json's
semantics, and no string, escaped or not, can pass for a block. A load
from a file holds a line, one chunk's rows as text and Python floats and
the arrays, never the file's text; a load from bytes or text also holds
its input. A file that cannot seek (a pipe or a device) is read whole
first, since it cannot be read twice.

On any doubt that path gives up, and the whole document is parsed as before
(a file is read again from where it stood, whole), which stays the one
reference and the one source of error messages: a row that is not all
numbers, a missing comma, an integer too large for a float, bytes that are
not UTF-8, CRLF line ends (no line then matches an opener), the sentinel
already outside the blocks, or any parse error. In that parse json.loads
calls an object hook as it closes each object, and the hook turns each
named field whose entries are all JSON numbers into a float64 array, so one
layer's Python floats are freed before the next layer is parsed. The hook
never raises: it sees fields in the parser's order, so an error raised
there would come before a syntax error further on in the file, or before a
fault in a field the loader checks first (layer 0's "rows", say). A field
it cannot convert (not a list, a non-number entry, an integer too large for
a float) stays as parsed, and number_list reports it in its turn, so a
malformed file fails with the same message as when every check ran after
parsing.
"""

from __future__ import annotations

import io
import json
import math
import os
from collections.abc import Iterator
from contextlib import contextmanager
from itertools import islice
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import ContractViolation, FormatError

FORMAT_VERSION = 1

# json.loads makes exactly these for JSON numbers; bool, a subclass of int, is not one
_NUMBER_TYPES = frozenset({int, float})

# the kind get() checks for a field parse_doc may have made an array
NUMBERS = (list, np.ndarray)

# Floats a Rows chunk holds (at least one row): bounds the text a write holds at once.
_CHUNK_VALUES = 32768

# Row text parsed at once, give or take a row (about 6k floats at 21 bytes a
# value): bounds the text and Python floats a load holds.
_CHUNK_BYTES = 1 << 17

# Stands in for a block while the rest of a document is parsed: a JSON number
# repr never writes (it writes no "E"), so parse_float alone sees it.
_SENTINEL = "-0.0E-0000"


class Rows(NamedTuple):
    """A 2-D float array to write flat, one row per line.

    text, when given, is an iterator of each row's line as the writer formats
    the array, without its comma or newline, written in place of the formatted rows.
    """

    array: np.ndarray
    text: Iterator[bytes] | None = None


class Stale(Exception):
    """A stream found the text it copies changed; chunks is the document formatted instead."""

    def __init__(self, chunks: Iterator[bytes]):
        super().__init__("copied text changed")
        self.chunks = chunks


class Lines(list):
    """A list to write one item per line."""


# -- writing ------------------------------------------------------------------


def _check_finite(a, key: str) -> None:
    """Refuse a NaN or infinity in a, read a block of rows at a time as a load checks it."""
    if not linalg._all_finite(a):
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


def _lines(v, key: str) -> list:
    """The lines of v; a checked Rows body stays a Rows, written by _chunks."""
    if isinstance(v, dict):
        return _bracket("{", [_field(k, x) for k, x in v.items()], "}")
    if isinstance(v, Lines) or isinstance(v, np.ndarray) and v.ndim == 2:
        return _bracket("[", [_lines(x, key) for x in v], "]")
    if isinstance(v, Rows):
        if v.array.size == 0:
            return ["[]"]
        _check_finite(v.array, key)
        return ["[", v, "]"]
    return [_inline(v, key)]


def _field(key: str, v) -> list:
    name, lines = json.dumps(key) + ":", _lines(v, key)
    return [name, *lines] if isinstance(v, dict) else [f"{name} {lines[0]}", *lines[1:]]


def _row_block(rows: np.ndarray, end: str) -> bytes:
    """rows one per line, comma-separated, then end; its text is freed as it returns."""
    lines = [", ".join(map(repr, row)) for row in rows.tolist()]
    lines[-1] += end
    return ",\n".join(lines).encode("utf-8")


def _chunks(lines: list) -> Iterator[bytes]:
    """Each line and its newline, with a Rows body one row per line, a block at a time."""
    pending: list[str] = []
    for line in lines:
        if isinstance(line, str):
            pending.append(line + "\n")
            continue
        yield "".join(pending).encode("utf-8")
        pending = []
        rows, text = line
        step = max(1, _CHUNK_VALUES // rows.shape[1])
        for lo in range(0, len(rows), step):
            hi = min(lo + step, len(rows))
            end = ",\n" if hi < len(rows) else "\n"
            if text is None:
                yield _row_block(rows[lo:hi], end)
            else:
                yield b",\n".join(islice(text, hi - lo)) + end.encode("ascii")
    yield "".join(pending).encode("utf-8")


def dump_chunks(fields: dict) -> Iterator[bytes]:
    """The bytes of dump_doc(fields) in chunks; every check runs before this returns."""
    return _chunks(_lines({"version": FORMAT_VERSION, **fields}, ""))


def dump_doc(fields: dict) -> bytes:
    """Serialize a document, "version" first; equal fields give equal bytes."""
    return b"".join(dump_chunks(fields))


def dump_line(fields: dict) -> str:
    """One-line JSON object, without a version (eval's stdout)."""
    return _inline(fields, "")


# -- reading ------------------------------------------------------------------


def decode(data: bytes | str, what: str) -> str:
    """data as text: bytes are decoded as UTF-8, and a bad byte is a FormatError."""
    if not isinstance(data, (bytes, bytearray)):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"{what} file is not UTF-8: {e.reason} at byte {e.start}") from None


def _array_hook(fields: tuple[str, ...]):
    """json.loads object_hook: each named all-number list becomes a float64 array."""

    def hook(obj: dict) -> dict:
        for key in fields:
            val = obj.get(key)
            if type(val) is list and _numbers(val):
                try:
                    obj[key] = np.array(val, dtype=np.float64)
                except OverflowError:
                    pass  # stays a list; number_list reports it in its turn
        return obj

    return hook


def _loads(data: bytes | str, what: str, arrays: tuple[str, ...] = ()):
    text = decode(data, what)

    def reject(name: str):
        raise FormatError(f"non-finite constant {name!r} is not allowed in {what} files")

    hook = _array_hook(arrays) if arrays else None
    try:
        return json.loads(text, parse_constant=reject, object_hook=hook)
    except json.JSONDecodeError as e:
        raise FormatError(f"{what} parse error at line {e.lineno} column {e.colno}: {e.msg}") from e


def _doubt(name: str):
    """parse_constant of the block path: a NaN or infinity goes to the whole parse."""
    raise ValueError(name)


class _Block:
    """One block's numbers, parsed a chunk of whole rows at a time into one float64 array."""

    def __init__(self):
        self.out, self.n, self.used = np.empty(0), 0, 0

    def add(self, rows: str, rest: int) -> None:
        """Parse whole rows in brackets; rest, the input left after them, sizes the array."""
        vals = json.loads(rows, parse_constant=_doubt)
        if not vals or not _numbers(vals):
            raise ValueError("not a block of numbers")
        self.used += len(rows)
        part = np.array(vals, dtype=np.float64)
        del vals  # before the array grows
        seen = self.n + part.size
        if seen > self.out.size:
            # room for the rest of the input at the density read so far, and an eighth more;
            # the first guess is left unwritten, so the pages it overshoots are never touched,
            # where resize would zero them
            room = seen + seen * max(rest, 0) * 9 // (8 * self.used)
            if self.n:
                self.out.resize(room, refcheck=False)
            else:
                self.out = np.empty(room)
        self.out[self.n : seen] = part
        self.n = seen

    def array(self) -> np.ndarray:
        self.out.resize(self.n, refcheck=False)
        return self.out


def _split(text: str) -> Iterator[str]:
    """Each line of text with its newline; the last may have none."""
    start = 0
    while start < len(text):
        end = text.find("\n", start) + 1 or len(text)
        yield text[start:end]
        start = end


def _block_doc(data, arrays: tuple[str, ...]):
    """parse_doc's document read in the writer's block layout, or None on any doubt.

    data is bytes, text, or a seekable binary file, read a line at a time from
    where it stands to its end; bytes are read as a file, through io.BytesIO.
    An unbuffered file (the CLI's FileIO) is read through a buffer of
    _CHUNK_BYTES that is detached before this returns, so it stays open, a
    read is not a system call per byte, and a row of a wide layer (about 66
    KB of text in the README head's layer 0) takes one or two. A block's row
    lines go to _Block.add about _CHUNK_BYTES at a time, a whole row with its
    comma last.
    """
    openers = {json.dumps(name) + ": [\n" for name in arrays}
    buffered = None
    if isinstance(data, str):
        unread, lines = len(data), _split(data)
    else:
        data = io.BytesIO(data) if isinstance(data, (bytes, bytearray)) else data
        here = data.tell()
        unread = data.seek(0, os.SEEK_END) - here
        data.seek(here)
        if isinstance(data, io.RawIOBase):
            data = buffered = io.BufferedReader(data, _CHUNK_BYTES)
        lines = (line.decode("utf-8") for line in data)
    outside, blocks = [], []  # the text outside the blocks, a sentinel for each; the arrays
    rows, size, block = [], 0, None  # the open block's row lines not parsed yet, their length
    try:
        for line in lines:
            unread -= len(line)
            if block is None:
                if line in openers:
                    line, block = f"{line[:-2]} {_SENTINEL} ", _Block()  # through '": '
                outside.append(line)
            elif line.startswith("]"):
                if not rows:
                    return None  # no rows
                text, rows, size = "".join(["[", *rows, "]"]), [], 0
                block.add(text, 0)
                blocks.append(block.array())
                outside.append(line[1:])
                block = None
            else:
                rows.append(line)
                size += len(line)
                # whole rows; a row without its comma waits, so the parse that holds it fails
                if size >= _CHUNK_BYTES and line.endswith(",\n"):
                    rows[-1] = line[:-2]  # without its comma
                    text, rows, size = "".join(["[", *rows, "]"]), [], 0
                    block.add(text, unread)
        if block is not None or not blocks:
            return None  # the input ends inside a block, or has none
        rest = "".join(outside)
        if rest.count(_SENTINEL) != len(blocks):
            return None  # the sentinel already occurs outside the blocks
        left = iter(blocks)

        def number(s: str):
            return next(left) if s == _SENTINEL else float(s)

        return json.loads(
            rest, parse_float=number, parse_constant=_doubt, object_hook=_array_hook(arrays)
        )
    except (ValueError, OverflowError, RecursionError):
        # not the writer's layout, or not valid: the whole-document parse judges it
        return None
    finally:
        if buffered is not None:
            buffered.detach()


def parse_doc(data, what: str, arrays: tuple[str, ...] = ()) -> dict:
    """Parse a versioned top-level JSON object, rejecting NaN/Infinity.

    data is bytes, text or a binary file. A file is read from where it stands
    to its end; one that cannot seek (a pipe) is read whole first.

    Every object's fields named in arrays that hold only numbers come back
    as float64 arrays; read them with number_list. The input is first read a
    line at a time in the writer's block layout (_block_doc); on any doubt it
    is parsed whole, a file read again from where it stood.
    """
    held = isinstance(data, (bytes, bytearray, str))
    if not held and not data.seekable():
        data, held = data.read(), True
    start = None if held else data.tell()
    doc = _block_doc(data, arrays) if arrays else None
    if doc is None:
        if start is not None:
            data.seek(start)
            data = data.read()
        doc = _loads(data, what, arrays)
    if not isinstance(doc, dict):
        raise FormatError(f"{what}: expected a top-level object")
    version = get(doc, "version", int, what)
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported {what} format version {version}")
    return doc


def _numbers(val: list) -> bool:
    """Every item is a JSON number: one C-level scan, and bool is not int."""
    return set(map(type, val)) <= _NUMBER_TYPES


def _floats(val: list, where: str) -> np.ndarray:
    """A list of JSON numbers as float64, each value rounded as float(v) would."""
    try:
        return np.array(val, dtype=np.float64)
    except OverflowError:
        raise FormatError(f"{where}: integer too large for a float") from None


def parse_vector(data: bytes | str, what: str) -> np.ndarray:
    """Parse a bare JSON array of numbers (probe inputs, class scores)."""
    doc = _loads(data, what)
    if not isinstance(doc, list) or not _numbers(doc):
        raise FormatError(f"{what} file must be a JSON array of numbers")
    v = _floats(doc, f"{what} file")
    if not linalg._all_finite(v):  # json reads a float literal past the range as ±inf
        raise FormatError(f"{what} file: number too large for a float")
    return v


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
        try:
            val = float(val)  # json reads a float literal past the range as ±inf
        except OverflowError:
            val = math.inf
        if math.isinf(val):
            raise FormatError(f"{where}: key {key!r} is too large for a float")
        return val
    if kind is int:
        if isinstance(val, bool) or not isinstance(val, int):
            raise FormatError(f"{where}: key {key!r} must be an integer")
        return val
    if not isinstance(val, kind):
        raise FormatError(f"{where}: key {key!r} has wrong type {type(val).__name__}")
    return val


def number_list(val, where: str) -> np.ndarray:
    """A JSON array of numbers as a float64 array (parse_doc's arrays pass through)."""
    if isinstance(val, np.ndarray):
        return val
    if not isinstance(val, list):
        raise FormatError(f"{where}: expected an array of numbers")
    if not _numbers(val):
        bad = next(v for v in val if type(v) not in _NUMBER_TYPES)
        raise FormatError(f"{where}: expected numbers, found {type(bad).__name__}")
    return _floats(val, where)


@contextmanager
def building(where: str):
    """Re-raise a ContractViolation from building a loaded object as FormatError "where: ..."."""
    try:
        yield
    except ContractViolation as e:
        raise FormatError(f"{where}: {e}") from e


def labels(obj: dict, where: str) -> tuple[str, ...] | None:
    """obj["labels"]: None when absent or null, else an array of strings."""
    val = obj.get("labels")
    if val is None:
        return None
    if not isinstance(val, list) or not all(isinstance(s, str) for s in val):
        raise FormatError(f"{where}: labels must be null or an array of strings")
    return tuple(val)


def int_list(val, where: str) -> list[int]:
    """A JSON array of integers, checked in one pass as number_list does; bool is not int."""
    if not isinstance(val, list):
        raise FormatError(f"{where}: expected an array of integers")
    if not set(map(type, val)) <= {int}:
        bad = next(v for v in val if type(v) is not int)
        raise FormatError(f"{where}: expected integers, found {type(bad).__name__}")
    return val
