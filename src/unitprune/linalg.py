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
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .errors import ContractViolation

__all__ = [
    "vector",
    "matrix",
    "matvec",
    "matmat",
    "relu",
    "drop_rows",
    "drop_cols",
    "subvector",
    "check_index_set",
    "complement",
    "fmt_float",
]


def vector(data) -> np.ndarray:
    """Coerce to a finite 1-D float64 array."""
    v = np.asarray(data, dtype=np.float64)
    if v.ndim != 1:
        raise ContractViolation(f"vector must be 1-dimensional, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ContractViolation("vector contains non-finite values")
    return v


def matrix(data, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Coerce to a finite 2-D float64 array.

    When rows/cols are given, data may be a flat row-major sequence and is
    reshaped; a length mismatch raises ContractViolation.
    """
    m = np.asarray(data, dtype=np.float64)
    if rows is not None or cols is not None:
        if rows is None or cols is None or rows < 0 or cols < 0:
            raise ContractViolation("matrix: rows and cols must both be given and nonnegative")
        if m.size != rows * cols:
            raise ContractViolation(
                f"matrix: expected {rows * cols} values for {rows}x{cols}, got {m.size}"
            )
        m = m.reshape(rows, cols)
    if m.ndim != 2:
        raise ContractViolation(f"matrix must be 2-dimensional, got shape {m.shape}")
    if not np.isfinite(m).all():
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
    live = np.flatnonzero(v)
    if live.size == 0:
        # nothing to add to the +0.0 seed; accumulate needs a column to read
        return np.zeros(rows)
    prod = m[:, live]
    prod *= v[live]
    # 0.0 + x == x for every x except -0.0; this is the accumulator seed
    prod[:, 0] += 0.0
    np.add.accumulate(prod, axis=1, out=prod)
    return np.ascontiguousarray(prod[:, -1])


def matmat(m: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Batched matvec: row r of the (n, units) result is matvec(m, xs[r]) byte for byte.

    Adds the column products xs[:, j] * m[:, j] to a +0.0 accumulator for j
    in ascending order, skipping columns that are zero (or -0.0) in every
    row; the module docstring gives the argument. m must be finite.
    """
    if m.ndim != 2:
        raise ContractViolation(f"matmat: matrix must be 2-dimensional, got shape {m.shape}")
    if xs.ndim != 2:
        raise ContractViolation(f"matmat: batch must be 2-dimensional, got shape {xs.shape}")
    units, cols = m.shape
    if cols != xs.shape[1]:
        raise ContractViolation(
            f"matmat: matrix is {units}x{cols} but batch rows have length {xs.shape[1]}"
        )
    acc = np.zeros((xs.shape[0], units))
    live = np.flatnonzero(xs.any(axis=0))
    if acc.size == 0 or live.size == 0:
        return acc
    # one gather per call, so each step reads one contiguous row of xt and wt;
    # a column-major xs without zero columns is read in place
    xt = xs.T
    if live.size < cols or not xt.flags.c_contiguous:
        xt = xt[live]
    xt = xt[:, :, None]
    wt = m.T[live]
    tmp = np.empty_like(acc)
    for xj, wj in zip(xt, wt):
        np.multiply(xj, wj, out=tmp)
        acc += tmp
    return acc


def relu(v: np.ndarray) -> np.ndarray:
    """Elementwise max(x, 0). Maps -0.0 to +0.0, so outputs are canonical."""
    return np.maximum(v, 0.0)


def check_index_set(indices: Sequence[int], size: int, what: str = "index set") -> tuple[int, ...]:
    """Validate a strictly ascending, in-range index tuple and return it."""
    try:
        idx = tuple(int(i) for i in indices)
    except (TypeError, ValueError) as e:
        raise ContractViolation(f"{what} must contain integers") from e
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


def complement(indices: Sequence[int], size: int) -> tuple[int, ...]:
    """Ascending indices in range(size) not present in `indices`."""
    idx = set(check_index_set(indices, size))
    return tuple(i for i in range(size) if i not in idx)


def drop_rows(m: np.ndarray, keep: Sequence[int]) -> np.ndarray:
    """New matrix containing only the kept rows, in their original order."""
    keep = check_index_set(keep, m.shape[0], "row keep set")
    return m[list(keep), :]


def drop_cols(m: np.ndarray, keep: Sequence[int]) -> np.ndarray:
    """New matrix containing only the kept columns, in their original order."""
    keep = check_index_set(keep, m.shape[1], "column keep set")
    return np.ascontiguousarray(m[:, list(keep)])


def subvector(v: np.ndarray, keep: Sequence[int]) -> np.ndarray:
    """New vector containing only the kept entries, in their original order."""
    keep = check_index_set(keep, v.shape[0], "keep set")
    return v[list(keep)]


def fmt_float(x: float) -> str:
    """Shortest decimal string that parses back to exactly the same float.

    repr of a Python float is the shortest round-tripping form; going through
    float() first avoids the verbose repr of numpy scalar types.
    """
    return repr(float(x))
