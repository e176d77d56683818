"""Scenes: a nonnegative feature map plus regions pooled to fixed-size inputs.

A scene stands in for one image as seen by a convolutional trunk: a (C, H, W)
feature map that is nonnegative because it sits after a relu, and its
regions of interest: one read-only (n, 4) intp array of [x0, y0, x1, y1]
rows, each the half-open box of columns [x0, x1) and rows [y0, y1). Scene
and pool_regions check regions the same way, all at once. Each region is
max-pooled per channel onto a fixed pool_h x pool_w grid and flattened
channel-major, giving the fixed-width vectors a dense head network consumes.

The property everything downstream leans on: max over a sub-rectangle never
exceeds max over the whole channel, and a channel that is zero everywhere
pools to exact zeros for every region. Whole-channel statistics are therefore
valid certificates for all regions at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _jsonio
from .errors import ContractViolation, FormatError, ValidationError

__all__ = [
    "FeatureMap",
    "Scene",
    "pool_regions",
    "roi_pool",
    "channel_sums",
    "gen_scene",
    "save_scene",
    "load_scene",
]

@dataclass(frozen=True, eq=False)
class FeatureMap:
    """Read-only (channels, height, width) float64 array, all entries >= 0."""

    data: np.ndarray

    def __post_init__(self):
        a = np.array(self.data, dtype=np.float64, order="C", copy=True)
        if a.ndim != 3:
            raise ContractViolation(f"feature map must be 3-dimensional, got shape {a.shape}")
        if a.shape[0] < 1 or a.shape[1] < 1 or a.shape[2] < 1:
            raise ContractViolation(f"feature map dimensions must be >= 1, got {a.shape}")
        if not np.isfinite(a).all():
            raise ContractViolation("feature map contains non-finite values")
        if (a < 0.0).any():
            raise ContractViolation("feature map contains negative values")
        a.setflags(write=False)
        object.__setattr__(self, "data", a)

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    def __eq__(self, other):
        if not isinstance(other, FeatureMap):
            return NotImplemented
        return self.data.shape == other.data.shape and self.data.tobytes() == other.data.tobytes()


def _boxes(rois, fmap: FeatureMap) -> np.ndarray:
    """rois as a new read-only (n, 4) intp array of [x0, y0, x1, y1] rows within fmap.

    Anything but a numpy array is read entry by entry into an object array, so
    a bool or a float is rejected rather than cast, and an integer of any size
    is compared before it is narrowed. Each message names the first bad region.
    """
    try:
        a = rois if isinstance(rois, np.ndarray) else np.array(rois, dtype=object)
    except ValueError:
        raise ContractViolation("rois must be rows of four integers [x0, y0, x1, y1]") from None
    a = a.reshape(0, 4) if a.shape == (0,) else a
    if a.ndim != 2 or a.shape[1] != 4:
        rows = a if a.ndim == 1 else ()
        i = next((i for i, r in enumerate(rows)
                  if not isinstance(r, (list, tuple, np.ndarray)) or len(r) != 4), 0)
        raise ContractViolation(f"roi {i} must be a row of four integers [x0, y0, x1, y1]")
    flat = a.ravel().tolist() if a.dtype.kind not in "iu" else ()
    if not set(map(type, flat)) <= {int}:
        # numpy integers pass too; search entry by entry only off the Python-int path
        k = next((k for k, v in enumerate(flat)
                  if isinstance(v, bool) or not isinstance(v, (int, np.integer))), None)
        if k is not None:
            raise ContractViolation(f"roi {k // 4} coordinates must be integers, got {flat[k]!r}")
    x0, y0, x1, y1 = a.T
    degenerate = (x0 < 0) | (y0 < 0) | (x1 <= x0) | (y1 <= y0)
    outside = (x1 > fmap.width) | (y1 > fmap.height)
    for bad, rule in ((degenerate, "must satisfy 0 <= x0 < x1 and 0 <= y0 < y1"),
                      (outside, f"exceeds feature map extent {fmap.height}x{fmap.width}")):
        if bad.any():
            i = int(bad.argmax())
            raise ContractViolation(f"roi {i} {tuple(map(int, a[i].tolist()))} {rule}")
    a = a.astype(np.intp)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class Scene:
    """A feature map, its regions as one (n, 4) intp array, and the pooling grid they share."""

    fmap: FeatureMap
    rois: np.ndarray
    pool_h: int
    pool_w: int

    def __post_init__(self):
        if not isinstance(self.fmap, FeatureMap):
            raise ValidationError("scene fmap must be a FeatureMap")
        if self.pool_h < 1 or self.pool_w < 1:
            raise ValidationError(
                f"pool grid must be at least 1x1, got {self.pool_h}x{self.pool_w}"
            )
        object.__setattr__(self, "rois", _boxes(self.rois, self.fmap))
        object.__setattr__(self, "pool_h", int(self.pool_h))
        object.__setattr__(self, "pool_w", int(self.pool_w))

    @property
    def pooled_width(self) -> int:
        """Length of each pooled vector: channels * pool_h * pool_w."""
        return self.fmap.channels * self.pool_h * self.pool_w


# Floats a pooling pass gathers at a time (512 KiB): five channels of a
# 256-region block at 7x7, small next to the block itself, yet enough values
# per call that the overhead of each take and maximum call stays small.
_GATHER_VALUES = 65536


def _cell_spans(lo: np.ndarray, hi: np.ndarray, cells: int) -> tuple[np.ndarray, np.ndarray]:
    """Half-open cell spans of each region extent [lo, hi), shape (regions, cells).

    Boundaries are floor(i * extent / cells) from the region's start. When a
    region is smaller than the grid some spans would be empty; those are
    clamped to reuse the nearest position, so every cell pools over at least
    one entry.
    """
    extent = (hi - lo)[:, None]
    i = np.arange(cells)
    start = np.minimum(i * extent // cells, extent - 1)
    stop = np.maximum((i + 1) * extent // cells, start + 1)
    return lo[:, None] + start, lo[:, None] + stop


def pool_regions(fmap: FeatureMap, rois, pool_h: int, pool_w: int) -> np.ndarray:
    """Max-pool a batch of regions, one row each: shape (len(rois), C * pool_h * pool_w).

    Row r is the region's grid flattened channel-major: index
    c * pool_h * pool_w + i * pool_w + j holds the max of channel c over grid
    cell (i, j). Channel c therefore owns the slice [c * pool_h * pool_w,
    (c + 1) * pool_h * pool_w) of every row, which is what lets channel
    statistics be mapped onto head-network input columns. The rows are laid
    out column-major, the layout linalg.matmat reads in place.

    All regions are pooled together, one pass per (row, column) offset into
    a cell: each pass takes the entry at that offset in every cell of every
    region, clamped to the cell's last row and column, and folds it into a
    running max. The tallest and the widest cell set the number of passes.
    The first pass's gather is the result. Each later pass gathers a few
    channels at a time into one reused buffer of _GATHER_VALUES floats (one
    channel's entries, when those are more), and of at most an eighth of the
    channels, and folds them in, so pooling holds the result and that
    buffer, not a second result-sized gather.
    """
    if pool_h < 1 or pool_w < 1:
        raise ContractViolation(f"pool grid must be at least 1x1, got {pool_h}x{pool_w}")
    box = _boxes(rois, fmap)
    ylo, yhi = _cell_spans(box[:, 1], box[:, 3], pool_h)
    xlo, xhi = _cell_spans(box[:, 0], box[:, 2], pool_w)
    # index arrays shaped (pool_h, pool_w, regions), flattened over the map's
    # rows and columns: taking them from each channel gives the transposed
    # (C * pool_h * pool_w, regions) result, one region per column
    ylo, yhi = ylo.T[:, None, :], yhi.T[:, None, :]
    xlo, xhi = xlo.T[None, :, :], xhi.T[None, :, :]
    c, w = fmap.channels, fmap.width
    flat = fmap.data.reshape(c, -1)
    # _boxes and _cell_spans keep every index inside the map, so "clip" never
    # clips; with out= given, it also spares take the copy "raise" makes of out
    out = np.take(flat, (ylo * w + xlo).ravel(), axis=1, mode="clip")
    # a few channels at a time, and at most an eighth of them, so a small result
    # (a 1x1 grid, say) is not matched by a buffer as large as itself
    step = max(1, min(_GATHER_VALUES // max(out.shape[1], 1), c // 8))
    buf = np.empty((step, out.shape[1]))
    for dy in range(int((yhi - ylo).max(initial=1))):
        y = np.minimum(ylo + dy, yhi - 1) * w
        for dx in range(int((xhi - xlo).max(initial=1))):
            if dy or dx:
                idx = (y + np.minimum(xlo + dx, xhi - 1)).ravel()
                for lo in range(0, c, step):
                    part = out[lo : lo + step]
                    into = buf[: len(part)]
                    np.take(flat[lo : lo + step], idx, axis=1, out=into, mode="clip")
                    np.maximum(part, into, out=part)
    return out.reshape(c * pool_h * pool_w, len(box)).T


def roi_pool(fmap: FeatureMap, roi, pool_h: int, pool_w: int) -> np.ndarray:
    """Max-pool one [x0, y0, x1, y1] region: pool_regions for it alone, as a 1-D vector."""
    return pool_regions(fmap, [roi], pool_h, pool_w)[0]


def channel_sums(fmap: FeatureMap) -> np.ndarray:
    """Sum of each channel over all spatial positions.

    Zero sum is equivalent to an all-zero channel because entries are
    nonnegative, and it upper-bounds the channel max, hence every pooled
    value the channel can produce for any region.
    """
    return fmap.data.sum(axis=(1, 2))


def gen_scene(
    channels: int,
    height: int,
    width: int,
    zero_channels: int = 0,
    n_rois: int = 0,
    pool_h: int = 7,
    pool_w: int = 7,
    seed: int = 0,
) -> Scene:
    """Deterministic random scene with exactly `zero_channels` all-zero channels.

    Chosen zero channels are forced to 0 everywhere; every other channel is
    guaranteed at least one positive entry. Regions are uniform random
    nonempty rectangles within the map. Same seed, same bytes.
    """
    channels, height, width = int(channels), int(height), int(width)
    if channels < 1 or height < 1 or width < 1:
        raise ContractViolation(
            f"scene dimensions must be >= 1, got {channels}x{height}x{width}"
        )
    if not 0 <= int(zero_channels) <= channels:
        raise ContractViolation(
            f"zero_channels must be in 0..{channels}, got {zero_channels}"
        )
    if n_rois < 0:
        raise ContractViolation(f"n_rois must be nonnegative, got {n_rois}")
    if seed < 0:
        raise ContractViolation(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    data = rng.uniform(0.0, 1.0, size=(channels, height, width))
    # thin the maps out so thresholded pruning has something to bite on
    mask = rng.uniform(0.0, 1.0, size=data.shape) < 0.5
    data[mask] = 0.0
    dead = np.sort(rng.choice(channels, size=int(zero_channels), replace=False))
    data[dead, :, :] = 0.0
    alive = np.setdiff1d(np.arange(channels), dead)
    for c in alive:
        if not data[c].any():
            # masking can kill a live channel; give it one positive entry back
            y = int(rng.integers(0, height))
            x = int(rng.integers(0, width))
            data[c, y, x] = float(rng.uniform(0.5, 1.0))
    rois = []
    for _ in range(int(n_rois)):
        x0 = int(rng.integers(0, width))
        x1 = int(rng.integers(x0 + 1, width + 1))
        y0 = int(rng.integers(0, height))
        y1 = int(rng.integers(y0 + 1, height + 1))
        rois.append((x0, y0, x1, y1))
    return Scene(FeatureMap(data), rois, pool_h, pool_w)


# -- serialization ----------------------------------------------------------


def save_scene(scene: Scene) -> bytes:
    """Serialize to the version-1 scene format; byte-deterministic valid JSON.

    Feature map data is written one (channel, row) per line; rois one per line
    as [x0, y0, x1, y1].
    """
    return _jsonio.dump_doc(_scene_fields(scene))


def _scene_fields(scene: Scene) -> dict:
    """The fields of scene's document (the CLI streams them to a file)."""
    fm = scene.fmap
    return {
        "C": fm.channels,
        "H": fm.height,
        "W": fm.width,
        "pool_h": scene.pool_h,
        "pool_w": scene.pool_w,
        "data": _jsonio.Rows(fm.data.reshape(-1, fm.width)),
        "rois": _jsonio.Lines(scene.rois),
    }


def load_scene(data: bytes | str) -> Scene:
    """Parse the version-1 scene format."""
    doc = _jsonio.parse_doc(data, "scene", arrays=("data",))
    del data  # parsed: the input can go before the map is copied
    c = _jsonio.get(doc, "C", int, "scene")
    h = _jsonio.get(doc, "H", int, "scene")
    w = _jsonio.get(doc, "W", int, "scene")
    pool_h = _jsonio.get(doc, "pool_h", int, "scene")
    pool_w = _jsonio.get(doc, "pool_w", int, "scene")
    flat = _jsonio.number_list(_jsonio.get(doc, "data", _jsonio.NUMBERS, "scene"), "scene data")
    if c < 1 or h < 1 or w < 1:
        raise FormatError(f"scene dimensions must be >= 1, got {c}x{h}x{w}")
    if len(flat) != c * h * w:
        raise FormatError(f"scene data: expected {c * h * w} values, got {len(flat)}")
    raw_rois = _jsonio.get(doc, "rois", list, "scene")
    for i, entry in enumerate(raw_rois):
        if len(_jsonio.int_list(entry, f"roi {i}")) != 4:
            raise FormatError(f"roi {i}: expected four integers [x0, y0, x1, y1]")
    with _jsonio.building("scene"):
        return Scene(FeatureMap(flat.reshape(c, h, w)), raw_rois, pool_h, pool_w)
