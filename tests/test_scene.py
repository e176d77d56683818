"""scene tests: ROI max pooling, channel sums, generation, serialization."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unitprune.errors import ContractViolation, FormatError
from unitprune.scene import (
    FeatureMap,
    Scene,
    channel_sums,
    gen_scene,
    load_scene,
    pool_regions,
    roi_pool,
    save_scene,
)


def ref_roi_pool(data, roi, pool_h, pool_w):
    """Reference pooling: enumerate every cell's span and take the max by hand.

    Spans follow the floor-divided boundary rule with clamping for regions
    smaller than the grid, mirroring the documented cell partition.
    """
    c, _, _ = data.shape
    x0, y0, x1, y1 = roi
    rh, rw = y1 - y0, x1 - x0

    def spans(extent, cells):
        out = []
        for i in range(cells):
            lo = min(i * extent // cells, extent - 1)
            hi = (i + 1) * extent // cells
            if hi <= lo:
                hi = lo + 1
            out.append((lo, hi))
        return out

    out = []
    for ch in range(c):
        for ylo, yhi in spans(rh, pool_h):
            for xlo, xhi in spans(rw, pool_w):
                best = None
                for y in range(ylo, yhi):
                    for x in range(xlo, xhi):
                        v = data[ch, y0 + y, x0 + x]
                        best = v if best is None or v > best else best
                out.append(best)
    return np.array(out)


def one_channel(rows):
    return FeatureMap(np.array([rows], dtype=float))


class TestRoiPool:
    def test_global_max(self):
        fm = one_channel([[1, 2], [3, 4]])
        assert roi_pool(fm, (0, 0, 2, 2), 1, 1).tolist() == [4.0]

    def test_all_zero_channel(self):
        data = np.zeros((2, 3, 3))
        data[1] = 5.0
        fm = FeatureMap(data)
        got = roi_pool(fm, (0, 1, 3, 3), 2, 2)
        assert got[:4].tolist() == [0.0, 0.0, 0.0, 0.0]
        assert got[4:].tolist() == [5.0] * 4

    def test_2x2_partition(self):
        fm = one_channel([[1, 2], [3, 4]])
        assert roi_pool(fm, (0, 0, 2, 2), 2, 2).tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_1x1_roi_pool_1x1_exact_value(self):
        fm = one_channel([[1, 2], [3, 4]])
        assert roi_pool(fm, (1, 0, 2, 1), 1, 1).tolist() == [2.0]

    def test_small_roi_replicates(self):
        fm = one_channel([[1, 2], [3, 4]])
        # a single cell pooled onto 2x2 repeats that cell's value
        assert roi_pool(fm, (0, 1, 1, 2), 2, 2).tolist() == [3.0] * 4

    def test_channel_major_flatten(self):
        data = np.arange(8.0).reshape(2, 2, 2)
        fm = FeatureMap(data)
        got = roi_pool(fm, (0, 0, 2, 2), 2, 2)
        assert got.tolist() == data.reshape(-1).tolist()

    def test_invalid_roi_rejected(self):
        fm = one_channel([[1, 2], [3, 4]])
        with pytest.raises(ContractViolation):
            roi_pool(fm, (0, 0, 3, 1), 1, 1)

    def test_matches_reference(self):
        rng = np.random.default_rng(12)
        data = rng.uniform(0, 1, size=(3, 9, 11))
        data[rng.uniform(size=data.shape) < 0.5] = 0.0
        fm = FeatureMap(data)
        for x0, y0, x1, y1, ph, pw in [
            (0, 0, 11, 9, 3, 3),
            (2, 1, 5, 8, 4, 2),
            (10, 8, 11, 9, 2, 3),
            (3, 3, 4, 4, 1, 1),
        ]:
            roi = (x0, y0, x1, y1)
            got = roi_pool(fm, roi, ph, pw)
            want = ref_roi_pool(data, roi, ph, pw)
            assert got.tobytes() == want.tobytes()

    @settings(deadline=None, max_examples=100)
    @given(st.integers(0, 2**32 - 1))
    def test_bounds_and_subset_property(self, seed):
        rng = np.random.default_rng(seed)
        c, h, w = int(rng.integers(1, 4)), int(rng.integers(1, 7)), int(rng.integers(1, 7))
        sc = gen_scene(
            c, h, w,
            zero_channels=int(rng.integers(0, c + 1)),
            n_rois=4,
            pool_h=int(rng.integers(1, 4)),
            pool_w=int(rng.integers(1, 4)),
            seed=seed,
        )
        sums = channel_sums(sc.fmap)
        ch_max = sc.fmap.data.max(axis=(1, 2))
        cells = sc.pool_h * sc.pool_w
        for roi in sc.rois:
            pooled = roi_pool(sc.fmap, roi, sc.pool_h, sc.pool_w)
            assert (pooled >= 0.0).all()
            for ch in range(c):
                block = pooled[ch * cells : (ch + 1) * cells]
                assert (block <= ch_max[ch]).all()
                if sums[ch] == 0.0:
                    # zero-sum channel can never contribute to any region
                    assert (block == 0.0).all()
                    assert block.tobytes() == np.zeros(cells).tobytes()


class TestChannelSums:
    def test_two_channels(self):
        data = np.zeros((2, 2, 2))
        data[1] = [[1, 2], [3, 4]]
        assert channel_sums(FeatureMap(data)).tolist() == [0.0, 10.0]

    def test_all_zero(self):
        assert channel_sums(FeatureMap(np.zeros((3, 2, 2)))).tolist() == [0.0] * 3

    def test_singleton(self):
        assert channel_sums(FeatureMap(np.full((1, 1, 1), 5.0))).tolist() == [5.0]


class TestFeatureMap:
    def test_rejects_negative(self):
        with pytest.raises(ContractViolation):
            FeatureMap(np.array([[[-1.0]]]))

    def test_rejects_wrong_rank(self):
        with pytest.raises(ContractViolation):
            FeatureMap(np.zeros((2, 2)))

    def test_read_only(self):
        fm = FeatureMap(np.zeros((1, 1, 1)))
        with pytest.raises(ValueError):
            fm.data[0, 0, 0] = 1.0


class TestRoi:
    def test_degenerate_rejected(self):
        fm = FeatureMap(np.zeros((1, 3, 3)))
        with pytest.raises(ContractViolation, match="must satisfy"):
            Scene(fm, [(2, 0, 2, 1)], 1, 1)
        with pytest.raises(ContractViolation, match="must satisfy"):
            Scene(fm, [(-1, 0, 1, 1)], 1, 1)

    def test_scene_rejects_out_of_bounds_roi(self):
        fm = FeatureMap(np.zeros((1, 2, 2)))
        with pytest.raises(ContractViolation):
            Scene(fm, ((0, 0, 3, 1),), 1, 1)


def scene_doc(*rois):
    """A 1x3x3 scene file with the given regions."""
    return json.dumps({"version": 1, "C": 1, "H": 3, "W": 3, "pool_h": 1, "pool_w": 1,
                       "data": [0.0] * 9, "rois": list(rois)})


@pytest.mark.parametrize("build, error, match", [
    (lambda fm: Scene(fm, [(0, 0, 1, 1), (True, 0, 1, 1)], 1, 1),
     ContractViolation, "roi 1 coordinates must be integers, got True"),
    (lambda fm: Scene(fm, np.array([[0, 0, 1, 1]], dtype=bool), 1, 1),
     ContractViolation, "roi 0 coordinates must be integers, got False"),
    (lambda fm: Scene(fm, [(0, 0, 1, 1), (0, 0, 1)], 1, 1),
     ContractViolation, r"roi 1 must be a row of four integers \[x0, y0, x1, y1\]"),
    (lambda fm: Scene(fm, [(0, 0, 1, 1, 1)], 1, 1),
     ContractViolation, "roi 0 must be a row of four integers"),
    (lambda fm: Scene(fm, [0, 0, 1, 1], 1, 1),
     ContractViolation, "roi 0 must be a row of four integers"),
    (lambda fm: pool_regions(fm, [np.zeros((4, 2)), np.zeros(4)], 1, 1),
     ContractViolation, "rois must be rows of four integers"),
    (lambda fm: Scene(fm, [(0, 0, 1, 1), (0, 0, 1.0, 1)], 1, 1),
     ContractViolation, "roi 1 coordinates must be integers, got 1.0"),
    (lambda fm: roi_pool(fm, np.array([0.0, 0.0, 1.0, 1.0]), 1, 1),
     ContractViolation, "roi 0 coordinates must be integers, got 0.0"),
    (lambda fm: load_scene(scene_doc([0, 0, 1, 1], [0, 0, 1, 1], [2, 0, 10**30, 1])),
     FormatError, r"^scene: roi 2 \(2, 0, 10{30}, 1\) exceeds feature map extent 3x3$"),
], ids=["bool", "bool-array", "ragged", "five-wide", "flat", "ragged-arrays", "float",
        "float-array", "beyond-int64-in-file"])
def test_what_is_not_a_region_is_rejected(build, error, match):
    with pytest.raises(error, match=match):
        build(FeatureMap(np.zeros((1, 3, 3))))


@st.composite
def rows_in_a_map(draw):
    """A map height and width, and rows of Python ints inside it."""
    h, w = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        x0, y0 = draw(st.integers(0, w - 1)), draw(st.integers(0, h - 1))
        rows.append([x0, y0, draw(st.integers(x0 + 1, w)), draw(st.integers(y0 + 1, h))])
    return h, w, rows


class TestRegionForms:
    @settings(deadline=None, max_examples=100)
    @given(rows_in_a_map(), st.sampled_from(["int32", "int64", "uint64"]))
    def test_every_form_saves_the_same_bytes(self, case, dtype):
        h, w, rows = case
        fm = FeatureMap(np.ones((1, h, w)))
        want = save_scene(Scene(fm, rows, 1, 1))
        array = np.array(rows, dtype=dtype).reshape(-1, 4)
        before = array.copy()
        forms = [list(map(tuple, rows)), tuple(map(tuple, rows)),
                 [list(map(np.int64, r)) for r in rows], array]
        for form in forms:
            sc = Scene(fm, form, 1, 1)
            assert save_scene(sc) == want
            assert sc.rois.dtype == np.intp and sc.rois.shape == (len(rows), 4)
            assert not sc.rois.flags.writeable
        assert array.flags.writeable
        assert array.dtype == dtype and array.tobytes() == before.tobytes()

    def test_rois_are_read_only(self):
        sc = gen_scene(1, 4, 4, n_rois=2, seed=0)
        with pytest.raises(ValueError):
            sc.rois[0, 0] = 1


class TestGenScene:
    def test_determinism(self):
        a = save_scene(gen_scene(6, 5, 4, zero_channels=2, n_rois=7, seed=3))
        b = save_scene(gen_scene(6, 5, 4, zero_channels=2, n_rois=7, seed=3))
        assert a == b

    def test_zero_channel_count_exact(self):
        sc = gen_scene(64, 8, 8, zero_channels=30, n_rois=0, seed=1)
        sums = channel_sums(sc.fmap)
        assert int((sums == 0.0).sum()) == 30

    def test_all_channels_zero(self):
        sc = gen_scene(5, 3, 3, zero_channels=5, seed=0)
        assert channel_sums(sc.fmap).tolist() == [0.0] * 5

    def test_live_channels_have_support(self):
        # every non-zeroed channel keeps at least one positive entry
        for seed in range(10):
            sc = gen_scene(12, 2, 2, zero_channels=4, seed=seed)
            sums = channel_sums(sc.fmap)
            assert int((sums == 0.0).sum()) == 4

    def test_rois_valid_and_counted(self):
        sc = gen_scene(2, 6, 9, n_rois=50, seed=5)
        assert len(sc.rois) == 50
        for x0, y0, x1, y1 in sc.rois.tolist():
            assert 0 <= x0 < x1 <= 9
            assert 0 <= y0 < y1 <= 6

    def test_bad_args(self):
        with pytest.raises(ContractViolation):
            gen_scene(4, 2, 2, zero_channels=5)
        with pytest.raises(ContractViolation):
            gen_scene(0, 2, 2)
        with pytest.raises(ContractViolation):
            gen_scene(2, 2, 2, n_rois=-1)
        with pytest.raises(ContractViolation, match="^seed must be nonnegative, got -1$"):
            gen_scene(2, 2, 2, seed=-1)


class TestSceneSerialization:
    def test_round_trip_bytes(self):
        sc = gen_scene(3, 4, 5, zero_channels=1, n_rois=6, pool_h=2, pool_w=3, seed=2)
        blob = save_scene(sc)
        assert save_scene(load_scene(blob)) == blob

    def test_round_trip_preserves_geometry(self):
        sc = load_scene(save_scene(gen_scene(2, 3, 3, n_rois=2, pool_h=4, pool_w=5, seed=1)))
        assert (sc.fmap.channels, sc.fmap.height, sc.fmap.width) == (2, 3, 3)
        assert (sc.pool_h, sc.pool_w) == (4, 5)
        assert len(sc.rois) == 2

    def test_data_length_mismatch(self):
        doc = '{"version": 1, "C": 1, "H": 2, "W": 2, "pool_h": 1, "pool_w": 1, "data": [1, 2, 3], "rois": []}'
        with pytest.raises(FormatError, match="expected 4"):
            load_scene(doc)

    def test_negative_entry_rejected(self):
        doc = '{"version": 1, "C": 1, "H": 1, "W": 1, "pool_h": 1, "pool_w": 1, "data": [-1.0], "rois": []}'
        with pytest.raises(FormatError):
            load_scene(doc)

    def test_bad_roi_rejected(self):
        doc = '{"version": 1, "C": 1, "H": 1, "W": 1, "pool_h": 1, "pool_w": 1, "data": [1.0], "rois": [[0, 0, 2, 1]]}'
        with pytest.raises(FormatError, match="roi"):
            load_scene(doc)
        doc2 = doc.replace("[[0, 0, 2, 1]]", "[[1, 0, 0, 1]]")
        with pytest.raises(FormatError, match="roi 0"):
            load_scene(doc2)

    def test_truncated(self):
        blob = save_scene(gen_scene(2, 2, 2, seed=0))
        with pytest.raises(FormatError):
            load_scene(blob[:30])


@st.composite
def map_and_regions(draw):
    """A map from 1x1 up, regions anywhere in it, grids up to twice the map."""
    c, h, w = draw(st.integers(1, 3)), draw(st.integers(1, 9)), draw(st.integers(1, 9))
    value = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.0, 1e6, width=64))
    data = np.array(draw(st.lists(value, min_size=c * h * w, max_size=c * h * w)))
    rois = []
    for _ in range(draw(st.integers(0, 6))):
        x0, y0 = draw(st.integers(0, w - 1)), draw(st.integers(0, h - 1))
        rois.append((x0, y0, draw(st.integers(x0 + 1, w)), draw(st.integers(y0 + 1, h))))
    grid = st.integers(1, 2 * max(h, w))
    return data.reshape(c, h, w), tuple(rois), draw(grid), draw(grid)


class TestPoolRegions:
    @settings(deadline=None, max_examples=300)
    @given(map_and_regions())
    def test_rows_match_reference(self, case):
        # max is exact; only the sign of a zero may depend on the reduction order
        data, rois, ph, pw = case
        got = pool_regions(FeatureMap(data), rois, ph, pw)
        assert got.shape == (len(rois), data.shape[0] * ph * pw)
        for row, roi in zip(got, rois):
            assert (row == ref_roi_pool(data, roi, ph, pw)).all()

    def test_roi_pool_is_one_region_row(self):
        sc = gen_scene(4, 9, 7, zero_channels=1, n_rois=30, pool_h=3, pool_w=2, seed=5)
        got = pool_regions(sc.fmap, sc.rois, 3, 2)
        for row, roi in zip(got, sc.rois):
            assert row.tobytes() == roi_pool(sc.fmap, roi, 3, 2).tobytes()

    def test_no_regions(self):
        assert pool_regions(one_channel([[1.0]]), (), 2, 3).shape == (0, 6)

    def test_one_by_one_map(self):
        got = pool_regions(one_channel([[7.0]]), ((0, 0, 1, 1),) * 2, 3, 2)
        assert got.tolist() == [[7.0] * 6] * 2

    @pytest.mark.parametrize("grid", [(7, 7), (1, 1), (2, 3)])
    def test_rows_are_column_major(self, grid):
        sc = gen_scene(3, 8, 8, n_rois=20, pool_h=grid[0], pool_w=grid[1], seed=2)
        assert pool_regions(sc.fmap, sc.rois, *grid).flags.f_contiguous

    def test_pooling_holds_little_more_than_its_result(self):
        # one 256-region block at 7x7: the passes gather into one small buffer,
        # not into a second result-sized array
        sc = gen_scene(64, 14, 14, n_rois=256, pool_h=7, pool_w=7, seed=3)
        tracemalloc.start()
        try:
            got = pool_regions(sc.fmap, sc.rois, 7, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * got.nbytes

    def test_pooling_a_1x1_grid_holds_little_more_than_its_result(self):
        # a 1x1 result is small next to 64k floats: the buffer holds at most an
        # eighth of the channels, not as many values as the result
        sc = gen_scene(64, 14, 14, n_rois=256, pool_h=1, pool_w=1, seed=3)
        tracemalloc.start()
        try:
            got = pool_regions(sc.fmap, sc.rois, 1, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * got.nbytes

    def test_invalid_arguments_rejected(self):
        fm = one_channel([[1, 2], [3, 4]])
        with pytest.raises(ContractViolation, match="exceeds"):
            pool_regions(fm, ((0, 0, 1, 1), (0, 0, 3, 1)), 1, 1)
        with pytest.raises(ContractViolation, match="1x1"):
            pool_regions(fm, ((0, 0, 1, 1),), 0, 1)
