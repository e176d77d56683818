"""linalg tests: the pinned accumulation order and index-set transforms.

ref_matvec below is the independent oracle: a plain Python double loop whose
accumulation order is left-to-right by construction. matvec must match it
bit for bit, and the zero-drop property must hold bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unitprune.errors import ContractViolation
from unitprune.linalg import (
    complement,
    fmt_float,
    index_array,
    matmat,
    matrix,
    matvec,
    nested_matmat,
    relu,
    vector,
)
from unitprune.prune import PruneSelection


def ref_matvec(m, v):
    """Reference: scalar left-to-right accumulation, no numpy reductions."""
    rows, cols = m.shape
    out = np.empty(rows)
    for i in range(rows):
        acc = 0.0
        for j in range(cols):
            acc = acc + float(m[i, j]) * float(v[j])
        out[i] = acc
    return out


finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False, width=64
)


@st.composite
def matrix_and_vector(draw):
    rows = draw(st.integers(0, 6))
    cols = draw(st.integers(1, 7))
    m = np.array(
        draw(st.lists(finite, min_size=rows * cols, max_size=rows * cols))
    ).reshape(rows, cols)
    v = np.array(draw(st.lists(finite, min_size=cols, max_size=cols)))
    return m, v


class TestMatvec:
    def test_small_example(self):
        # expected values recomputed with ref_matvec at the bottom of this test
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        v = np.array([1.0, 1.0])
        got = matvec(m, v)
        assert got.tolist() == [3.0, 7.0]
        assert got.tobytes() == ref_matvec(m, v).tobytes()

    def test_zero_columns_matrix(self):
        got = matvec(np.zeros((3, 0)), np.zeros(0))
        assert got.shape == (3,)
        assert got.tolist() == [0.0, 0.0, 0.0]

    def test_zero_rows_matrix(self):
        assert matvec(np.zeros((0, 4)), np.ones(4)).shape == (0,)

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolation, match="2x3"):
            matvec(np.zeros((2, 3)), np.zeros(4))

    def test_repeated_calls_bit_identical(self):
        rng = np.random.default_rng(11)
        m = rng.uniform(-1, 1, size=(9, 17))
        v = rng.uniform(-1, 1, size=17)
        assert matvec(m, v).tobytes() == matvec(m, v).tobytes()

    @settings(deadline=None, max_examples=200)
    @given(matrix_and_vector())
    def test_matches_reference_bitwise(self, mv):
        m, v = mv
        assert matvec(m, v).tobytes() == ref_matvec(m, v).tobytes()

    @settings(deadline=None, max_examples=200)
    @given(matrix_and_vector(), st.data())
    def test_zero_drop_bit_identity(self, mv, data):
        # dropping columns that multiply exact zeros must not move a single bit
        m, v = mv
        cols = m.shape[1]
        zero_at = data.draw(st.sets(st.integers(0, cols - 1)))
        v = v.copy()
        for j in zero_at:
            v[j] = 0.0
        keep = complement(sorted(zero_at), cols)
        full = matvec(m, v)
        compact = matvec(m[:, keep], v[keep])
        assert compact.tobytes() == full.tobytes()


@st.composite
def weights_and_batch(draw, scale=1.0, x_max=1e6):
    """(m, xs) with ±0.0 entries, all-zero columns and empty dimensions."""
    units = draw(st.integers(0, 5))
    cols = draw(st.integers(0, 7))
    n = draw(st.integers(0, 5))
    w = st.floats(-1.0, 1.0, allow_nan=False, width=64).map(lambda t: t * scale)
    m = np.array(draw(st.lists(w, min_size=units * cols, max_size=units * cols)))
    x = st.one_of(
        st.sampled_from([0.0, -0.0]),
        st.floats(-x_max, x_max, allow_nan=False, allow_infinity=False, width=64),
    )
    xs = np.array(draw(st.lists(x, min_size=n * cols, max_size=n * cols))).reshape(n, cols)
    for j in draw(st.sets(st.integers(0, max(cols - 1, 0)), max_size=cols)):
        xs[:, j] = draw(st.sampled_from([0.0, -0.0]))
    return m.reshape(units, cols), xs


def assert_rows_match(m, xs):
    got = matmat(m, xs)
    assert got.shape == (xs.shape[0], m.shape[0])
    for r in range(xs.shape[0]):
        assert got[r].tobytes() == matvec(m, xs[r]).tobytes()
        assert got[r].tobytes() == ref_matvec(m, xs[r]).tobytes()


class TestMatmat:
    @settings(deadline=None, max_examples=300)
    @given(weights_and_batch())
    def test_rows_match_matvec_and_reference_bitwise(self, mx):
        assert_rows_match(*mx)

    @settings(deadline=None, max_examples=200)
    @given(weights_and_batch(scale=1.7e308, x_max=1e10))
    def test_overflow_to_inf_and_nan_bitwise(self, mx):
        # finite weights near 1e308: products overflow and inf - inf gives NaN
        with np.errstate(over="ignore", invalid="ignore"):
            assert_rows_match(*mx)

    def test_overflow_example_has_nan(self):
        m = np.array([[1e300, -1e300]])
        xs = np.array([[1e10, 1e10], [1e10, 0.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            got = matmat(m, xs)
            assert np.isnan(got[0, 0]) and got[1, 0] == np.inf
            assert_rows_match(m, xs)

    def test_empty_dimensions(self):
        assert matmat(np.zeros((3, 4)), np.zeros((0, 4))).shape == (0, 3)
        assert matmat(np.zeros((0, 4)), np.ones((2, 4))).shape == (2, 0)
        got = matmat(np.zeros((3, 0)), np.zeros((2, 0)))
        assert got.tobytes() == np.zeros((2, 3)).tobytes()

    def test_column_major_batch(self):
        rng = np.random.default_rng(5)
        m = rng.uniform(-1, 1, size=(4, 9))
        xs = np.asfortranarray(rng.uniform(-1, 1, size=(6, 9)))
        assert_rows_match(m, xs)

    def test_shape_errors(self):
        with pytest.raises(ContractViolation, match="2x3"):
            matmat(np.zeros((2, 3)), np.zeros((1, 4)))
        with pytest.raises(ContractViolation, match="2-dimensional"):
            matmat(np.zeros((2, 3)), np.zeros(3))


class TestZeroSkip:
    @settings(deadline=None, max_examples=200)
    @given(weights_and_batch(), st.data())
    def test_signed_zero_vector_gives_positive_zero(self, mx, data):
        m, _ = mx
        cols = m.shape[1]
        v = np.array(data.draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=cols, max_size=cols)))
        zeros = np.zeros(m.shape[0]).tobytes()
        assert matvec(m, v).tobytes() == zeros
        assert matmat(m, v.reshape(1, cols)).tobytes() == zeros

    def test_negative_zero_product_after_skipped_columns(self):
        # 5.0 * -0.0 is -0.0 in a live column; the +0.0 seed absorbs it
        m = np.array([[5.0, -1.0, 2.0]])
        v = np.array([0.0, 0.0, 3.0])
        xs = np.array([[-0.0, 0.0, 3.0], [0.0, -0.0, -0.0]])
        assert matvec(m, v).tobytes() == ref_matvec(m, v).tobytes()
        assert_rows_match(m, xs)
        assert matmat(m, xs)[1].tobytes() == np.zeros(1).tobytes()


class TestDrops:
    # the prune transforms drop rows and columns by indexing with a checked set
    def test_drop_rows_example(self):
        m = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
        assert m[index_array((1, 2), 3)].tolist() == [[0.0, 1.0], [2.0, 2.0]]

    def test_drop_rows_identity(self):
        m = np.arange(6.0).reshape(3, 2)
        assert m[index_array((0, 1, 2), 3)].tobytes() == m.tobytes()

    def test_drop_rows_empty(self):
        assert np.ones((3, 2))[index_array((), 3)].shape == (0, 2)

    def test_drop_cols_example(self):
        m = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert m[:, index_array((1,), 3)].tolist() == [[2.0], [5.0]]

    def test_drop_cols_identity(self):
        m = np.arange(6.0).reshape(2, 3)
        assert m[:, index_array((0, 1, 2), 3)].tobytes() == m.tobytes()

    def test_drop_cols_empty(self):
        assert np.ones((2, 3))[:, index_array((), 3)].shape == (2, 0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ContractViolation, match="row keep set has index outside range 0..1: 2"):
            index_array((0, 2), 2, "row keep set")
        with pytest.raises(ContractViolation, match="outside range 0..1: -1"):
            index_array((-1,), 2, "column keep set")

    def test_unsorted_and_duplicates_rejected(self):
        with pytest.raises(ContractViolation):
            index_array((1, 0), 3)
        with pytest.raises(ContractViolation):
            index_array((1, 1), 3)

    def test_complement(self):
        assert complement((0, 2), 4).tolist() == [1, 3]
        assert complement((), 3).tolist() == [0, 1, 2]
        assert complement((0, 1, 2), 3).tolist() == []


class TestRelu:
    def test_mixed(self):
        assert relu(np.array([-1.0, 0.5])).tolist() == [0.0, 0.5]

    def test_zeros(self):
        assert relu(np.array([0.0, 0.0])).tolist() == [0.0, 0.0]

    def test_positives(self):
        assert relu(np.array([3.5])).tolist() == [3.5]

    def test_negative_zero_canonicalized(self):
        got = relu(np.array([-0.0]))
        # sign bit must be cleared: -0.0 and 0.0 compare equal but differ bitwise
        assert got.tobytes() == np.array([0.0]).tobytes()


class TestConstructors:
    def test_vector_rejects_nan(self):
        with pytest.raises(ContractViolation):
            vector([1.0, float("nan")])

    def test_vector_rejects_2d(self):
        with pytest.raises(ContractViolation):
            vector([[1.0]])

    def test_matrix_rejects_inf(self):
        with pytest.raises(ContractViolation):
            matrix([[float("inf")]])


class TestFmtFloat:
    @settings(deadline=None, max_examples=300)
    @given(st.floats(allow_nan=False, allow_infinity=False, width=64))
    def test_round_trips_bit_exactly(self, x):
        s = fmt_float(x)
        back = float(s)
        assert np.float64(back).tobytes() == np.float64(x).tobytes()

    def test_negative_zero(self):
        assert fmt_float(-0.0) == "-0.0"

    def test_numpy_scalar_input(self):
        assert fmt_float(np.float64(0.1)) == "0.1"


# -- nested column subsets ----------------------------------------------------


@st.composite
def nested_family(draw, scale=1.0, x_max=1e6):
    """(m, xs, depth, members): members 1..4, depth values anywhere in 0..members.

    Depth values that no column takes give repeated members (equal keep
    sets); a member above every depth keeps no column at all.
    """
    m, xs = draw(weights_and_batch(scale=scale, x_max=x_max))
    members = draw(st.integers(1, 4))
    cols = m.shape[1]
    depth = np.array(
        draw(st.lists(st.integers(0, members), min_size=cols, max_size=cols)), dtype=np.intp
    )
    return m, xs, depth, members


def assert_members_match(m, xs, depth, members):
    got = nested_matmat(m, xs, depth, members)
    assert len(got) == members
    for i, acc in enumerate(got):
        keep = np.flatnonzero(depth > i)
        want = matmat(np.ascontiguousarray(m[:, keep]), np.ascontiguousarray(xs[:, keep]))
        assert acc.shape == want.shape
        assert acc.tobytes() == want.tobytes()


class TestNestedMatmat:
    @settings(deadline=None, max_examples=300)
    @given(nested_family())
    def test_each_member_matches_matmat_on_its_columns(self, family):
        assert_members_match(*family)

    @settings(deadline=None, max_examples=200)
    @given(nested_family(scale=1.7e308, x_max=1e10))
    def test_overflowing_weights_bitwise(self, family):
        with np.errstate(over="ignore", invalid="ignore"):
            assert_members_match(*family)

    @settings(deadline=None, max_examples=100)
    @given(weights_and_batch())
    def test_one_member_is_matmat(self, mx):
        m, xs = mx
        (got,) = nested_matmat(m, xs, np.ones(m.shape[1], dtype=np.intp), 1)
        assert got.tobytes() == matmat(m, xs).tobytes()

    @settings(deadline=None, max_examples=100)
    @given(nested_family())
    def test_column_major_weights_give_the_same_bytes(self, family):
        # a column-major matrix is read in place when every column is live
        m, xs, depth, members = family
        got = nested_matmat(np.asfortranarray(m), xs, depth, members)
        for acc, want in zip(got, nested_matmat(m, xs, depth, members)):
            assert acc.tobytes() == want.tobytes()
        ones = np.ones_like(depth)
        (acc,) = nested_matmat(np.asfortranarray(m), xs + 1.0, ones, 1)
        assert acc.tobytes() == matmat(m, xs + 1.0).tobytes()

    def test_members_part_at_first_dropped_live_column(self):
        m = np.array([[1.0, 2.0, 3.0, 4.0]])
        xs = np.array([[1.0, 0.0, 1.0, 1.0]])
        # column 1 is zero in every row, so members 2 and 3 dropping it changes
        # nothing; member 3 parts at column 3, the first live one it drops
        a, b, c, d = nested_matmat(m, xs, np.array([4, 2, 4, 3]), 4)
        assert a is b and b is c
        assert c is not d
        assert [a[0, 0], d[0, 0]] == [8.0, 4.0]

    def test_empty_keep_sets_and_zero_rows(self):
        m = np.arange(6.0).reshape(2, 3)
        xs = np.ones((2, 3))
        got = nested_matmat(m, xs, np.array([1, 1, 0]), 3)
        assert [g.tobytes() for g in got[1:]] == [np.zeros((2, 2)).tobytes()] * 2
        assert nested_matmat(m, np.zeros((0, 3)), np.array([1, 2, 0]), 2)[1].shape == (0, 2)
        assert nested_matmat(m, xs, np.array([0, 0, 0]), 0) == []

    def test_signed_zero_columns_are_skipped(self):
        m = np.array([[5.0, -1.0]])
        xs = np.array([[-0.0, 0.0], [0.0, -0.0]])
        for acc in nested_matmat(m, xs, np.array([2, 1]), 2):
            assert acc.tobytes() == np.zeros((2, 1)).tobytes()

    def test_depth_errors(self):
        m, xs = np.zeros((2, 3)), np.zeros((1, 3))
        with pytest.raises(ContractViolation, match="0..2"):
            nested_matmat(m, xs, np.array([0, 3, 1]), 2)
        with pytest.raises(ContractViolation, match="0..2"):
            nested_matmat(m, xs, np.array([0, -1, 1]), 2)
        with pytest.raises(ContractViolation, match="2 depths for 3 columns"):
            nested_matmat(m, xs, np.array([1, 1]), 2)
        with pytest.raises(ContractViolation, match="integer"):
            nested_matmat(m, xs, np.array([1.0, 1.0, 1.0]), 2)
        with pytest.raises(ContractViolation, match="2x3"):
            nested_matmat(m, np.zeros((1, 4)), np.array([1, 1, 1, 1]), 2)


# -- vectorized index-set checks ------------------------------------------------
# The per-entry checks as they were before the numpy path: the vectorized
# index_array and complement must accept the same sets, return the same
# indices (as intp arrays) and raise the same messages.


def ref_check_index_set(indices, size, what="index set"):
    try:
        idx = tuple(indices)
    except TypeError as e:
        raise ContractViolation(f"{what} must contain integers") from e
    # a bool or a float is refused, not cast
    if any(isinstance(i, bool) or not isinstance(i, (int, np.integer)) for i in idx):
        raise ContractViolation(f"{what} must contain integers")
    idx = tuple(int(i) for i in idx)
    for a, b in zip(idx, idx[1:]):
        if b <= a:
            raise ContractViolation(
                f"{what} must be strictly ascending without duplicates, got {a} followed by {b}"
            )
    if idx and (idx[0] < 0 or idx[-1] >= size):
        raise ContractViolation(
            f"{what} has index outside range 0..{size - 1}: {idx[0] if idx[0] < 0 else idx[-1]}"
        )
    return idx


def ref_complement(indices, size):
    idx = set(ref_check_index_set(indices, size))
    return tuple(i for i in range(size) if i not in idx)


def outcome(fn, *args):
    try:
        got = fn(*args)
    except ContractViolation as e:
        return ("error", str(e))
    if isinstance(got, np.ndarray):
        assert got.dtype == np.intp and got.ndim == 1
        got = tuple(got.tolist())
    assert isinstance(got, tuple) and all(type(i) is int for i in got)
    return ("ok", got)


@st.composite
def index_inputs(draw):
    """Index sets as lists, tuples or numpy integer arrays; sorted or not."""
    size = draw(st.integers(0, 12))
    values = draw(st.lists(st.integers(-3, 15), max_size=14))
    shape = draw(st.sampled_from(["raw", "sorted", "ascending"]))
    if shape == "sorted":
        values = sorted(values)  # keeps duplicates
    elif shape == "ascending":
        values = sorted(set(values))
    elif draw(st.booleans()):
        values = sorted(values, reverse=True)
    kinds = ["list", "tuple", "int8", "int32", "int64", "intp"]
    if all(v >= 0 for v in values):
        kinds += ["uint16", "uint64"]
    kind = draw(st.sampled_from(kinds))
    if kind == "list":
        return values, size
    if kind == "tuple":
        return tuple(values), size
    return np.array(values, dtype=kind), size


class TestIndexSetPaths:
    @settings(max_examples=300, deadline=None)
    @given(index_inputs())
    def test_check_index_set_matches_per_entry_code(self, case):
        indices, size = case
        assert outcome(index_array, indices, size, "kept set") == outcome(
            ref_check_index_set, indices, size, "kept set"
        )

    @settings(max_examples=300, deadline=None)
    @given(index_inputs())
    def test_complement_matches_per_entry_code(self, case):
        indices, size = case
        assert outcome(complement, indices, size) == outcome(ref_complement, indices, size)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: [], lambda: (), lambda: np.array([], dtype=np.int64), lambda: np.array([]),
            lambda: [1.9, 3.2], lambda: ["1", "2"], lambda: [True, 2], lambda: (np.int64(1), 3),
            lambda: [1, "x"], lambda: [None], lambda: [[1], [2]], lambda: iter([0, 2]),
            lambda: [2**70], lambda: [-1, 2**63], lambda: np.array([True, False]),
            lambda: np.array([[0, 1]]), lambda: np.array(2),
        ],
    )
    def test_odd_inputs_match_per_entry_code(self, make):
        assert outcome(index_array, make(), 4) == outcome(ref_check_index_set, make(), 4)

    @pytest.mark.parametrize(
        "indices", [[1.9, 3.2], ["1", "2"], [True, 2], np.array([True, False]), "12"]
    )
    def test_non_integer_entries_are_refused_not_cast(self, indices):
        assert outcome(index_array, indices, 4) == ("error", "index set must contain integers")
        with pytest.raises(ContractViolation, match="^pruned set must contain integers$"):
            PruneSelection.from_pruned(indices, 4)
