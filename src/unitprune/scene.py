"""Scenes: a nonnegative feature map plus regions pooled to fixed-size inputs.

A scene stands in for one image as seen by a convolutional trunk: a (C, H, W)
feature map that is nonnegative because it sits after a relu, and a list of
regions of interest. Each region is max-pooled per channel onto a fixed
pool_h x pool_w grid and flattened channel-major, giving the fixed-width
vectors a dense head network consumes.

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
    "Roi",
    "Scene",
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


@dataclass(frozen=True)
class Roi:
    """Rectangle in feature map cells: columns [x0, x1), rows [y0, y1)."""

    x0: int
    y0: int
    x1: int
    y1: int

    def __post_init__(self):
        for name in ("x0", "y0", "x1", "y1"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise ContractViolation(f"roi {name} must be an integer, got {v!r}")
            object.__setattr__(self, name, int(v))
        if self.x0 < 0 or self.y0 < 0 or self.x1 <= self.x0 or self.y1 <= self.y0:
            raise ContractViolation(
                f"roi must satisfy 0 <= x0 < x1 and 0 <= y0 < y1, "
                f"got ({self.x0}, {self.y0}, {self.x1}, {self.y1})"
            )

    @property
    def width(self) -> int:
        return self.x1 - self.x0

    @property
    def height(self) -> int:
        return self.y1 - self.y0


def _check_roi(roi: Roi, fmap: FeatureMap) -> None:
    if roi.x1 > fmap.width or roi.y1 > fmap.height:
        raise ContractViolation(
            f"roi ({roi.x0}, {roi.y0}, {roi.x1}, {roi.y1}) exceeds "
            f"feature map extent {fmap.height}x{fmap.width}"
        )


@dataclass(frozen=True, eq=False)
class Scene:
    """A feature map, its regions, and the pooling grid they share."""

    fmap: FeatureMap
    rois: tuple[Roi, ...]
    pool_h: int
    pool_w: int

    def __post_init__(self):
        if not isinstance(self.fmap, FeatureMap):
            raise ValidationError("scene fmap must be a FeatureMap")
        if self.pool_h < 1 or self.pool_w < 1:
            raise ValidationError(
                f"pool grid must be at least 1x1, got {self.pool_h}x{self.pool_w}"
            )
        rois = tuple(self.rois)
        for r in rois:
            if not isinstance(r, Roi):
                raise ValidationError(f"rois must be Roi, got {type(r).__name__}")
            _check_roi(r, self.fmap)
        object.__setattr__(self, "rois", rois)
        object.__setattr__(self, "pool_h", int(self.pool_h))
        object.__setattr__(self, "pool_w", int(self.pool_w))

    @property
    def pooled_width(self) -> int:
        """Length of each pooled vector: channels * pool_h * pool_w."""
        return self.fmap.channels * self.pool_h * self.pool_w


def _cell_spans(extent: int, cells: int) -> list[tuple[int, int]]:
    """Half-open spans assigning `extent` positions to `cells` pool cells.

    Boundaries are floor(i * extent / cells). When the region is smaller than
    the grid some spans would be empty; those are clamped to reuse the nearest
    position, so every cell pools over at least one entry.
    """
    spans = []
    for i in range(cells):
        lo = min(i * extent // cells, extent - 1)
        hi = (i + 1) * extent // cells
        if hi <= lo:
            hi = lo + 1
        spans.append((lo, hi))
    return spans


def roi_pool(fmap: FeatureMap, roi: Roi, pool_h: int, pool_w: int) -> np.ndarray:
    """Max-pool one region onto a pool_h x pool_w grid, flattened channel-major.

    Output index c * pool_h * pool_w + i * pool_w + j holds the max of
    channel c over grid cell (i, j). Channel c therefore owns the output
    slice [c * pool_h * pool_w, (c + 1) * pool_h * pool_w), which is what
    lets channel statistics be mapped onto head-network input columns.
    """
    if pool_h < 1 or pool_w < 1:
        raise ContractViolation(f"pool grid must be at least 1x1, got {pool_h}x{pool_w}")
    _check_roi(roi, fmap)
    window = fmap.data[:, roi.y0 : roi.y1, roi.x0 : roi.x1]
    out = np.empty((fmap.channels, pool_h, pool_w))
    for i, (ylo, yhi) in enumerate(_cell_spans(roi.height, pool_h)):
        for j, (xlo, xhi) in enumerate(_cell_spans(roi.width, pool_w)):
            cell = window[:, ylo:yhi, xlo:xhi]
            out[:, i, j] = cell.max(axis=(1, 2))
    return out.reshape(-1)


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
        rois.append(Roi(x0, y0, x1, y1))
    return Scene(FeatureMap(data), tuple(rois), pool_h, pool_w)


# -- serialization ----------------------------------------------------------


def save_scene(scene: Scene) -> bytes:
    """Serialize to the version-1 scene format; byte-deterministic valid JSON.

    Feature map data is written one (channel, row) per line; rois one per line
    as [x0, y0, x1, y1].
    """
    fm = scene.fmap
    return _jsonio.dump_doc(
        {
            "C": fm.channels,
            "H": fm.height,
            "W": fm.width,
            "pool_h": scene.pool_h,
            "pool_w": scene.pool_w,
            "data": _jsonio.Rows(fm.data.reshape(-1, fm.width)),
            "rois": _jsonio.Lines([[r.x0, r.y0, r.x1, r.y1] for r in scene.rois]),
        }
    )


def load_scene(data: bytes | str) -> Scene:
    """Parse the version-1 scene format."""
    doc = _jsonio.parse_doc(data, "scene")
    c = _jsonio.get(doc, "C", int, "scene")
    h = _jsonio.get(doc, "H", int, "scene")
    w = _jsonio.get(doc, "W", int, "scene")
    pool_h = _jsonio.get(doc, "pool_h", int, "scene")
    pool_w = _jsonio.get(doc, "pool_w", int, "scene")
    flat = _jsonio.number_list(_jsonio.get(doc, "data", list, "scene"), "scene data")
    if c < 1 or h < 1 or w < 1:
        raise FormatError(f"scene dimensions must be >= 1, got {c}x{h}x{w}")
    if len(flat) != c * h * w:
        raise FormatError(f"scene data: expected {c * h * w} values, got {len(flat)}")
    raw_rois = _jsonio.get(doc, "rois", list, "scene")
    rois = []
    for i, entry in enumerate(raw_rois):
        coords = _jsonio.int_list(entry, f"roi {i}")
        if len(coords) != 4:
            raise FormatError(f"roi {i}: expected four integers [x0, y0, x1, y1]")
        try:
            rois.append(Roi(coords[0], coords[1], coords[2], coords[3]))
        except ContractViolation as e:
            raise FormatError(f"roi {i}: {e}") from e
    try:
        fmap = FeatureMap(np.asarray(flat, dtype=np.float64).reshape(c, h, w))
        return Scene(fmap, tuple(rois), pool_h, pool_w)
    except ContractViolation as e:
        raise FormatError(f"scene: {e}") from e
