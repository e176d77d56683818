"""Dense float64 vector/matrix primitives with a pinned accumulation order.

The one unusual thing here is matvec: every dot product accumulates strictly
left to right instead of going through BLAS. BLAS kernels block and reorder
the sum, which changes the floating point result depending on which columns
are present. With a pinned order, removing columns that multiply exact zeros
removes terms that are added as +0.0 and (once any nonzero term has been
absorbed) cannot change the running value, so the pruning transforms in
prune.py are bit-identical operations rather than merely close ones.

matmat is the batched form: for an (n, d) batch it seeds an (n, units)
accumulator at +0.0 and adds one column's products at a time, in ascending
column order, so every entry sees exactly the additions its matvec row does.
It skips each column that is zero in every row of the batch. That skip is
exact for the same reason pruning is: with finite weights the skipped
products are all ±0.0, a sum seeded at +0.0 never becomes -0.0, and adding
±0.0 to any other value returns it unchanged. matvec skips the zero entries
of its vector the same way.

nested_matmat runs one such column pass for a family of nested column
subsets at once: member i keeps column j when depth[j] > i, so each member
keeps a subset of the columns of the member before it. Each live column's
product is computed once and added to every accumulator whose members keep
it. Sharing is exact because a member's accumulator receives exactly the
additions its own matmat would, in the same order: until the first live
column that a member drops and its parent keeps, the two have seen the same
products and hold the same bytes, so they can share one array. At that
column the shared array is copied, the dropping members keep the copy and
the others add the product. matmat is the one-member case of the same loop.

matvec is not the one-row case of that loop, on purpose: np.add.accumulate
makes the same left-to-right additions along a row in one C call per block,
where the loop takes one Python step per live column. One vector at a time
is how probe mode and column_drop_bound call it (256x3136 layer, 852 live
entries, 2-CPU VM: 1.9 ms per call, against 3.7 ms as a one-row column pass).

Both work on _BLOCK live columns at a time, so neither holds a copy of more
than one block of its matrix. matvec multiplies one block's columns and
carries each row's running sum, seeded at +0.0, into every block's first
column before accumulating it: carry + p is the addition accumulate itself
makes, with the running sum as the first operand, so even a NaN keeps its
payload. The column pass reads windows of at most _BLOCK live columns in
ascending order, gathering each window's rows of xs.T and m.T (or reading
consecutive rows of a C-ordered array in place). xs may also be a block of
regions pooled as it is read (scene._PooledBlock): it yields a few live
channels' columns at a time, whose live columns are windowed before the next
channels are pooled, so no pooled batch is held whole. A dead channel it
leaves out is a column the pass would skip, so the arithmetic is one whole
pass's.

The loop forms each column's products in place, tmp[...] = w_j then
tmp *= x_j, rather than as one broadcast multiply(x_j, w_j): every entry is
still the single IEEE product of the same two operands, and multiplication
is commutative bit for bit (with finite weights at most one operand is NaN,
and that NaN is what comes out either way), so the bytes do not change; only
numpy's slower three-operand broadcast loop is avoided.

An index set is checked once, by index_array, which returns it as a new
read-only intp array; callers keep that array and index with it directly.
A 1-D integer array is compared as it is. Anything else must hold only
Python or numpy integers, never a bool or a float, so no entry is cast: the
entries become an integer array, or an object array of Python ints when no
one integer dtype holds them all. The same vectorized comparisons then check
every form, so all accept the same sets and raise the same messages.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence

import numpy as np

from .errors import ContractViolation

__all__ = [
    "vector",
    "matrix",
    "matvec",
    "matmat",
    "nested_matmat",
    "relu",
    "index_array",
    "complement",
    "fmt_float",
]

# Columns or rows of a layer an exact pass takes at a time: matvec's live
# columns, a column pass's windows of live rows of xs.T and m.T, the row
# blocks of prune._inf_op_norm, and the rows a finiteness check reads at once
# (_all_finite). No pass copies a whole layer.
_BLOCK = 64


def _all_finite(a) -> bool:
    """Whether every entry of a is finite, read _BLOCK rows at a time when a has rows.

    np.isfinite(a).all() would build a bool array an eighth of a's bytes (a
    layer as it loads); a block's is an eighth of one block. A scalar or a
    vector is checked at once.
    """
    a = np.asarray(a)
    if a.ndim < 2:
        return bool(np.isfinite(a).all())
    return all(np.isfinite(a[lo : lo + _BLOCK]).all() for lo in range(0, a.shape[0], _BLOCK))


def vector(data) -> np.ndarray:
    """Coerce to a finite 1-D float64 array."""
    v = np.asarray(data, dtype=np.float64)
    if v.ndim != 1:
        raise ContractViolation(f"vector must be 1-dimensional, got shape {v.shape}")
    if not _all_finite(v):
        raise ContractViolation("vector contains non-finite values")
    return v


def matrix(data) -> np.ndarray:
    """Coerce to a finite 2-D float64 array, checked _BLOCK rows at a time (_all_finite)."""
    m = np.asarray(data, dtype=np.float64)
    if m.ndim != 2:
        raise ContractViolation(f"matrix must be 2-dimensional, got shape {m.shape}")
    if not _all_finite(m):
        raise ContractViolation("matrix contains non-finite values")
    return m


def matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Matrix-vector product, each row summed strictly left to right from +0.0.

    Row i evaluates as ((0.0 + m[i,0]*v[0]) + m[i,1]*v[1]) + ..., the same
    sequence of IEEE additions a scalar loop would perform. Seeding at +0.0
    matters: it keeps the running sum off -0.0, so absorbing a ±0.0 product
    never changes it, and dropping columns whose v entries are exact zeros
    is bit-identical even when a whole row's kept set is empty. Only the
    nonzero entries of v are multiplied, by that same argument; m must be
    finite (every DenseLayer is), so a skipped product is ±0.0, never NaN.
    The live columns are multiplied _BLOCK at a time, each row's running sum
    carried from its +0.0 seed into every block (module docstring).
    Do not replace this with m @ v: the BLAS path reassociates the sum and
    breaks that guarantee.
    """
    if m.ndim != 2:
        raise ContractViolation(f"matvec: matrix must be 2-dimensional, got shape {m.shape}")
    if v.ndim != 1:
        raise ContractViolation(f"matvec: vector must be 1-dimensional, got shape {v.shape}")
    rows, cols = m.shape
    if cols != v.shape[0]:
        raise ContractViolation(
            f"matvec: matrix is {rows}x{cols} but vector has length {v.shape[0]}"
        )
    carry = np.zeros(rows)
    live = np.flatnonzero(v)
    for lo in range(0, live.size, _BLOCK):
        cols = live[lo : lo + _BLOCK]
        prod = m[:, cols]
        prod *= v[cols]
        # the running sum is the first operand, as accumulate has it
        np.add(carry, prod[:, 0], out=prod[:, 0])
        np.add.accumulate(prod, axis=1, out=prod)
        carry = prod[:, -1].copy()
    return carry


def matmat(m: np.ndarray, xs) -> np.ndarray:
    """Batched matvec: row r of the (n, units) result is matvec(m, xs[r]) byte for byte.

    xs is an (n, d) array or a pooled block of regions (module docstring).
    Adds the column products xs[:, j] * m[:, j] to a +0.0 accumulator for j
    in ascending order, skipping columns that are zero (or -0.0) in every
    row; the module docstring gives the argument. m must be finite.
    """
    return _column_pass("matmat", m, xs, None, 1)[0]


def nested_matmat(m: np.ndarray, xs, depth, members: int) -> list[np.ndarray]:
    """matmat for `members` nested column subsets of m, in one column pass over xs.

    Member i keeps the columns j with depth[j] > i, so depth holds one
    integer in 0..members per column. Result i is byte-identical to
    matmat(m[:, K], xs[:, K]) for K = flatnonzero(depth > i). Members whose
    sums never part share one array, so modify no result in place. m must be
    finite.
    """
    d = np.asarray(depth)
    if d.ndim != 1 or not np.issubdtype(d.dtype, np.integer):
        raise ContractViolation("nested_matmat: depth must be a 1-D integer array")
    if members < 0 or (d.size and (d.min() < 0 or d.max() > members)):
        raise ContractViolation(f"nested_matmat: depth values must lie in 0..{members}")
    return _column_pass("nested_matmat", m, xs, d, members)


def _column_pass(name: str, m: np.ndarray, xs, depth, members: int, keep=None) -> list:
    """The one column loop behind matmat and nested_matmat (depth None: all ones).

    xs is an (n, d) array or a block of regions pooled as it is read
    (scene._PooledBlock). With keep, an ascending index array, m holds only
    the columns keep of xs, and depth is 1 on keep alone: the sums are
    matmat(m, xs[:, keep]) byte for byte, with xs read in place.
    """
    if m.ndim != 2:
        raise ContractViolation(f"{name}: matrix must be 2-dimensional, got shape {m.shape}")
    if xs.ndim != 2:
        raise ContractViolation(f"{name}: batch must be 2-dimensional, got shape {xs.shape}")
    units, cols = m.shape
    width = xs.shape[1]
    if cols != (width if keep is None else keep.size):
        raise ContractViolation(
            f"{name}: matrix is {units}x{cols} but batch rows have length {width}"
        )
    if depth is not None and depth.shape[0] != width:
        raise ContractViolation(f"{name}: {depth.shape[0]} depths for {width} columns")
    if keep is not None:
        depth = np.zeros(width, dtype=np.intp)
        depth[keep] = 1
    elif depth is None:
        depth = np.ones(width, dtype=np.intp)
    acc = np.zeros((xs.shape[0], units))
    if acc.size == 0:
        return [acc] * members
    # sums[g] serves members firsts[g] .. firsts[g + 1] - 1; the last first is a bound
    firsts, sums = [0, members], [acc]
    tmp = np.empty_like(acc)
    # an array is one group over all its columns; a pooled block yields its
    # channel groups (ascending columns, those columns as rows of xs.T) in turn
    groups = [(np.arange(width), xs.T)] if isinstance(xs, np.ndarray) else xs
    # finite weights can still overflow; the inf/NaN is the result, not a fault
    with np.errstate(over="ignore", invalid="ignore"):
        for span, rows in groups:
            # a column is live when some row is nonzero there and some member keeps it
            live = np.flatnonzero(rows.any(axis=1) & (depth[span] > 0))
            for lo in range(0, live.size, _BLOCK):
                # a window of live columns; each step reads one contiguous row of xt and wt
                at = span[live[lo : lo + _BLOCK]]
                xt = _live_rows(rows, live, lo)
                wt = _live_rows(m.T, at if keep is None else np.searchsorted(keep, at), 0)
                for xj, wj, d in zip(xt[:, :, None], wt, depth[at].tolist()):
                    tmp[...] = wj
                    tmp *= xj
                    k = bisect_left(firsts, d)  # groups 0..k-1 start below d and keep column j
                    if d < firsts[k]:
                        # members d.. of group k-1 drop column j: they part here with a copy
                        firsts.insert(k, d)
                        sums.insert(k, sums[k - 1].copy())
                    for s in sums[:k]:
                        s += tmp
    return [s for s, lo, hi in zip(sums, firsts, firsts[1:]) for _ in range(lo, hi)]


def _live_rows(at: np.ndarray, live: np.ndarray, lo: int) -> np.ndarray:
    """at[live[lo:lo + _BLOCK]], a view of at when at is C-contiguous and those rows are a run.

    live is ascending, so its first and last entries tell whether it is a run.
    """
    rows = live[lo : lo + _BLOCK]
    if at.flags.c_contiguous and rows[-1] - rows[0] == rows.size - 1:
        return at[rows[0] : rows[-1] + 1]
    return at[rows]


def relu(v: np.ndarray) -> np.ndarray:
    """Elementwise max(x, 0). Maps -0.0 to +0.0, so outputs are canonical."""
    return np.maximum(v, 0.0)


def _integers(indices: Sequence[int], what: str) -> np.ndarray:
    """indices as a 1-D integer array, or an object array of Python ints; nothing is cast."""
    if isinstance(indices, np.ndarray) and indices.ndim == 1 and indices.dtype.kind in "iu":
        return indices
    try:
        entries = list(indices)
    except TypeError:
        raise ContractViolation(f"{what} must contain integers") from None
    # a list of Python ints passes on its types; np.array([True, 2]) would be int64
    if not set(map(type, entries)) <= {int} and not all(
        isinstance(i, (int, np.integer)) and not isinstance(i, bool) for i in entries
    ):
        raise ContractViolation(f"{what} must contain integers")
    a = np.array(entries)
    if a.dtype.kind not in "iu":
        # empty, or too wide for one integer dtype: compare them as Python ints
        a = np.array(entries, dtype=object)
    return a


def index_array(indices: Sequence[int], size: int, what: str = "index set") -> np.ndarray:
    """A strictly ascending index set in range(size), as a new read-only intp array."""
    a = _integers(indices, what)
    down = np.flatnonzero(a[1:] <= a[:-1])
    if down.size:
        k = int(down[0])
        raise ContractViolation(
            f"{what} must be strictly ascending without duplicates, "
            f"got {int(a[k])} followed by {int(a[k + 1])}"
        )
    if a.size and (a[0] < 0 or a[-1] >= size):
        raise ContractViolation(
            f"{what} has index outside range 0..{size - 1}: {int(a[0] if a[0] < 0 else a[-1])}"
        )
    a = a.astype(np.intp)
    a.flags.writeable = False
    return a


def complement(indices: Sequence[int], size: int) -> np.ndarray:
    """Ascending indices in range(size) not present in `indices`, as an intp array."""
    mask = np.ones(size, dtype=bool)
    mask[index_array(indices, size)] = False
    return np.flatnonzero(mask)


def fmt_float(x: float) -> str:
    """Shortest decimal string that parses back to exactly the same float.

    repr of a Python float is the shortest round-tripping form; going through
    float() first avoids the verbose repr of numpy scalar types.
    """
    return repr(float(x))
