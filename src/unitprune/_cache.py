"""The CLI's cache of the models and scenes it wrote, as documents keyed by content.

A command that writes a model or a scene to a regular file hashes the bytes
as it streams them (BLAKE2b, 32 bytes). Once every output of the command is
in place, store keeps the object's document in an entry named by that
digest, under $XDG_CACHE_HOME/unitprune (~/.cache/unitprune when the
variable is unset or not an absolute path): a header line, the document
with each number array described by its dtype and shape, then the arrays
raw. Loading a regular file hashes its bytes first, and fetch puts the
arrays of the entry of that name back into its document, which the
loader's own document step (_network_doc or _scene_doc) builds. Entries
come only from the writer, and the strict parse of written bytes gives back
the written arrays bit for bit, so a hit returns the object the parse would
have returned.

An entry is used only when the directory and the entry are owned by the
user and not writable by group or others, the entry is a regular file (it
is opened without following a symlink), its header names the kind the
caller loads and the digest it is filed under, its size matches its header,
the BLAKE2b checksum at its end matches what precedes it, and the loader
accepts its document. Anything else is a miss, and the caller parses the
file as if there were no cache. The entries together stay under _CAP bytes:
after each store the least recently used entries go first, and a hit
refreshes its entry's time.

Nothing here prints or raises: a cache that cannot be used is silent. To
clear it, remove the directory; to turn it off, leave no directory it can
make or trust (XDG_CACHE_HOME=/dev/null does that).
"""

from __future__ import annotations

import json
import os
import stat

import numpy as np

from . import _jsonio
from .model import Network, _network_doc, _network_fields
from .scene import _scene_doc, _scene_fields

# The most bytes all entries together take; the least recently used go first.
_CAP = 256 << 20

_MAGIC = b"unitprune parse cache 2\n"
_DIGEST = 32
# Input hashed at a time on a lookup, into one reused buffer: below malloc's
# 128 KiB mmap threshold, which freeing a larger buffer would raise for the
# writer's blocks of text that follow.
_READ = 1 << 16
# The longest header line read (a model's labels are in it).
_HEAD = 1 << 24
_F8, _I8 = np.dtype("<f8"), np.dtype("<i8")
# the dtypes an entry may name: bytes read into another (an object array) could crash
_DTYPES = {_F8.str: _F8, _I8.str: _I8}


def hasher():
    """A new hash of the kind entries are named by.

    Its module is imported on first use, so a command that cannot use the
    cache loads nothing for it. It is CPython's own BLAKE2: hashlib's would
    load OpenSSL, which adds megabytes to a command's memory.
    """
    try:
        from _blake2 import blake2b
    except ImportError:  # a Python built without it
        from hashlib import blake2b
    return blake2b(digest_size=_DIGEST)


def directory() -> str | None:
    """The cache directory, made if missing, or None when it is not one the user can trust."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    root = os.path.join(base, "unitprune")
    if not os.path.isabs(root):
        return None  # no home directory to put it in
    try:
        os.makedirs(root, mode=0o700, exist_ok=True)
        return root if _trusted(os.lstat(root), stat.S_ISDIR) else None
    except OSError:
        return None


def _trusted(st: os.stat_result, is_kind) -> bool:
    return is_kind(st.st_mode) and st.st_uid == os.geteuid() and not st.st_mode & 0o022


def _taken_out(v, arrays: list):
    """Document value v with each number array moved to arrays, described in its place."""
    if isinstance(v, dict):
        return {key: _taken_out(x, arrays) for key, x in v.items()}
    if isinstance(v, list):
        return [_taken_out(x, arrays) for x in v]
    if isinstance(v, _jsonio.Rows):
        v = v.array.reshape(-1)  # flat, as parse_doc reads a block
    if isinstance(v, np.ndarray):
        arrays.append(np.ascontiguousarray(v, _I8 if v.dtype.kind in "iu" else _F8))
        return {"dtype": arrays[-1].dtype.str, "shape": list(v.shape)}
    return v


def store(root: str, digest: bytes, obj) -> None:
    """Keep obj, a Network or Scene just written to a file whose bytes hash to digest.

    A trusted entry of the right size is only marked as used: the same bytes
    give the same entry, and one damaged since is removed by the fetch that
    finds it.
    """
    name = digest.hex()
    path = os.path.join(root, name)
    tmp = os.path.join(root, f".{name}.{os.urandom(4).hex()}.tmp")
    try:
        kind = "model" if isinstance(obj, Network) else "scene"
        fields = _network_fields(obj) if kind == "model" else _scene_fields(obj)
        # "version" as parse_doc gives it; it also makes every header longer than layout 1's
        doc = {"kind": kind, "source": name, "version": _jsonio.FORMAT_VERSION, **fields}
        arrays = []
        head = _taken_out(doc, arrays)
        text = _MAGIC + json.dumps(head).encode("ascii") + b"\n"
        size = len(text) + sum(a.nbytes for a in arrays) + _DIGEST
        if size > _CAP:
            return
        try:
            old = os.lstat(path)
        except FileNotFoundError:
            old = None
        if old is not None and _trusted(old, stat.S_ISREG) and old.st_size == size:
            os.utime(path)
            return
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_NOFOLLOW, 0o600)
        h = hasher()
        with open(fd, "wb") as f:
            for part in (text, *arrays):
                f.write(part)
                h.update(part)
            f.write(h.digest())
        os.replace(tmp, path)
        _evict(root)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass


def _evict(root: str) -> None:
    """Remove the least recently used files until the directory holds at most _CAP bytes."""
    files = []
    with os.scandir(root) as it:
        for e in it:
            st = e.stat(follow_symlinks=False)
            if stat.S_ISREG(st.st_mode):
                files.append((st.st_mtime_ns, st.st_size, e.path))
    total = sum(size for _, size, _ in files)
    for _, size, path in sorted(files):
        if total <= _CAP:
            break
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass
        total -= size


def fetch(f, kind: str):
    """The "model" or "scene" held for the bytes of f from where it stands, and their digest.

    f is an open binary file; only a regular file is looked up, and it is
    left where it stood. None when there is no usable entry.
    """
    try:
        if not stat.S_ISREG(os.fstat(f.fileno()).st_mode):
            return None
        root = directory()
        if root is None:
            return None
        here = f.tell()
        try:
            digest = _digest_of(f)
        finally:
            f.seek(here)
        got = _entry(os.path.join(root, digest.hex()), digest.hex(), kind)
        return None if got is None else (got, digest)
    except (OSError, ValueError, LookupError, TypeError, MemoryError):
        # unreadable, or an entry not as store writes it (its header asks for more
        # memory than there is, or the loader refuses it): the caller parses the file
        return None


def _digest_of(f, h=None) -> bytes:
    """The digest of f's bytes from where it stands to its end, fed to h (a new hash by default)."""
    h, buf = hasher() if h is None else h, bytearray(_READ)
    with memoryview(buf) as view:
        while n := f.readinto(buf):
            h.update(view[:n])
    return h.digest()


def _entry(path: str, name: str, kind: str):
    """The object in the entry at path if every check passes, else None."""
    with open(os.open(path, os.O_RDONLY | os.O_NOFOLLOW), "rb") as f:
        st = os.fstat(f.fileno())
        if not _trusted(st, stat.S_ISREG) or f.read(len(_MAGIC)) != _MAGIC:
            return None
        line = f.readline(_HEAD)
        arrays = []

        def array(obj: dict):
            """An array the header describes, unfilled; no document field is named "dtype"."""
            if "dtype" not in obj:
                return obj
            arrays.append(np.empty(obj["shape"], _DTYPES[obj["dtype"]]))
            return arrays[-1]

        doc = json.loads(line, object_hook=array)
        if doc["kind"] != kind or doc["source"] != name or not line.endswith(b"\n"):
            return None
        if len(_MAGIC) + len(line) + sum(a.nbytes for a in arrays) + _DIGEST != st.st_size:
            return None  # truncated, or a header that does not fit the file
        check = hasher()
        check.update(_MAGIC)
        check.update(line)
        for a in arrays:
            if f.readinto(a) != a.nbytes:
                return None
            check.update(a)
        if f.read(_DIGEST) != check.digest():
            os.unlink(path)  # damaged: the next store of these bytes writes it anew
            return None
        built = (_network_doc if kind == "model" else _scene_doc)(doc)
        os.utime(f.fileno())  # used now: the last to be evicted
        return built
