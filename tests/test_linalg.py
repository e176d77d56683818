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
    check_index_set,
    complement,
    drop_cols,
    drop_rows,
    fmt_float,
    matmat,
    matrix,
    matvec,
    relu,
    subvector,
    vector,
)


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
        compact = matvec(drop_cols(m, keep), subvector(v, keep))
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
    def test_drop_rows_example(self):
        m = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
        assert drop_rows(m, (1, 2)).tolist() == [[0.0, 1.0], [2.0, 2.0]]

    def test_drop_rows_identity(self):
        m = np.arange(6.0).reshape(3, 2)
        assert drop_rows(m, (0, 1, 2)).tobytes() == m.tobytes()

    def test_drop_rows_empty(self):
        assert drop_rows(np.ones((3, 2)), ()).shape == (0, 2)

    def test_drop_cols_example(self):
        m = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert drop_cols(m, (1,)).tolist() == [[2.0], [5.0]]

    def test_drop_cols_identity(self):
        m = np.arange(6.0).reshape(2, 3)
        assert drop_cols(m, (0, 1, 2)).tobytes() == m.tobytes()

    def test_drop_cols_empty(self):
        assert drop_cols(np.ones((2, 3)), ()).shape == (2, 0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ContractViolation):
            drop_rows(np.ones((2, 2)), (0, 2))
        with pytest.raises(ContractViolation):
            drop_cols(np.ones((2, 2)), (-1,))

    def test_unsorted_and_duplicates_rejected(self):
        with pytest.raises(ContractViolation):
            check_index_set((1, 0), 3)
        with pytest.raises(ContractViolation):
            check_index_set((1, 1), 3)

    def test_complement(self):
        assert complement((0, 2), 4) == (1, 3)
        assert complement((), 3) == (0, 1, 2)
        assert complement((0, 1, 2), 3) == ()


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

    def test_matrix_reshape(self):
        m = matrix([1, 2, 3, 4, 5, 6], 2, 3)
        assert m.shape == (2, 3)
        assert m[1, 0] == 4.0

    def test_matrix_reshape_mismatch(self):
        with pytest.raises(ContractViolation, match="expected 6"):
            matrix([1, 2, 3], 2, 3)

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
