"""A pruned model's document copied from its source file's text.

A model the CLI loaded from a parse-cache hit is, byte for byte, the text
the writer made of it, and a prune only selects its values (prune._narrow),
so every number of the pruned model is already a token of that text. Its
weight rows are copied instead of formatted: a layer the prune leaves alone
and the rows it keeps line for line, and a layer that loses input columns
through its kept tokens, joined again. The rest of the document (the bias
vectors, labels and shapes) is formatted, as every other document is.

The source is opened only once the stream reaches its first copied row,
and every byte of it is hashed as it is read, on to its end. A digest
other than the one the cache lookup saw, or text not laid out as the
writer lays out that model (a file rewritten in between), raises
_jsonio.Stale with the document formatted from the arrays, which the
caller writes in its place. The file is closed however the stream ends.

The CLI imports this module on first use, so a command that writes no
pruned model loads nothing for it.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator
from itertools import compress

import numpy as np

from . import _cache, _jsonio
from .model import Network, _network_fields

# the line that opens a layer's weights: rows follow it, or none
_OPENERS = (b'"weights": [\n', b'"weights": [],\n')


class _Source:
    """The source's lines in order, each hashed as it is read; opened on the first read."""

    def __init__(self, path: str):
        self.path, self.file, self.hash = path, None, _cache.hasher()
        self.layer = -1  # the layer whose weights line was read last

    def line(self) -> bytes:
        if self.file is None:
            # a row of a layer as wide as the README head's is about 66 KB of text
            self.file = open(self.path, "rb", buffering=_cache._READ)
        line = self.file.readline()
        if not line:
            raise ValueError("the source ends early")
        self.hash.update(line)
        return line

    def rows(self, k: int) -> Iterator[bytes]:
        """Layer k's weight rows, each without its comma and newline."""
        opener = None
        while self.layer < k:
            opener = self.line()
            self.layer += opener in _OPENERS
        if opener != _OPENERS[0]:
            raise ValueError(f"layer {k} of the source has no rows")
        while (line := self.line())[:1] != b"]":
            yield line.rstrip(b",\n")

    def digest(self) -> bytes | None:
        """The digest of the whole source, or None if nothing of it was read."""
        return None if self.file is None else _cache._digest_of(self.file, self.hash)

    def close(self) -> None:
        if self.file is not None:
            self.file.close()


def _columns(rows: Iterator[bytes], keep: list[int]) -> Iterator[bytes]:
    """Each row keeping the tokens at keep, ascending."""
    pick = operator.itemgetter(*keep)
    if len(keep) == 1:  # itemgetter of one index gives the token, not a tuple
        yield from (pick(row.split(b", ")) for row in rows)
    else:
        yield from (b", ".join(pick(row.split(b", "))) for row in rows)


def chunks(net: Network, path: str, digest: bytes, width: int, keep: np.ndarray):
    """The bytes of dump_chunks(_network_fields(net)), copied from the model at path.

    net is _narrow(source, width, keep) of the model the file at path held
    when its bytes hashed to digest. Every check runs before this returns.
    """
    src = _Source(path)
    fields = _network_fields(net)
    for k, layer in enumerate(fields["layers"]):
        text = src.rows(k)
        if k == width - 1:
            # the rows at keep: a mask as long as the last kept index, ending the rows there
            text = compress(text, np.bincount(keep).astype(bool).tolist())
        elif k == width:
            text = _columns(text, keep.tolist())
        layer["weights"] = layer["weights"]._replace(text=text)
    return _checked(_jsonio.dump_chunks(fields), src, net, digest)


def _checked(doc: Iterator[bytes], src: _Source, net: Network, digest: bytes):
    """doc, then Stale with net's formatted document if the source was not the one hashed."""
    try:
        yield from doc
        if src.digest() not in (None, digest):
            raise ValueError("the source changed")
    # the source is read as doc streams: a file gone or unreadable, text not laid
    # out as the writer lays out this model (a row too short for a kept column), or
    # another digest
    except (OSError, ValueError, IndexError):
        raise _jsonio.Stale(_jsonio.dump_chunks(_network_fields(net))) from None
    finally:
        src.close()
