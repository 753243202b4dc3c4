"""Real Euclidean vectors, block product spaces, and dense linear maps.

All solver state lives in finite-dimensional real Euclidean spaces or block
products of them.  Vectors are 1-D float64 numpy arrays validated (finite
entries, fixed dimension) and frozen at the public construction points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NonFiniteEntryError


def vector(coords) -> np.ndarray:
    """Validate ``coords`` as a finite 1-D real vector; return a frozen copy."""
    arr = np.array(coords, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise DimensionMismatchError(f"expected a 1-D vector, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteEntryError("vector entries must be finite (no NaN/Inf)")
    arr.setflags(write=False)
    return arr


def check_finite(arr, what="value"):
    """Reject NaN/Inf before it enters solver state."""
    if not np.isfinite(arr).all():
        raise NonFiniteEntryError(f"{what} contains NaN or Inf")
    return arr


def check_dim(x, dim, what="vector", *args):
    """Check ``x.shape == (dim,)``; ``what % args`` names x, formatted only on failure."""
    if x.shape != (dim,):
        what = what % args if args else what
        raise DimensionMismatchError(f"{what}: expected dimension {dim}, got shape {x.shape}")
    return x


CACHE_LINE = 64  # bytes


def aligned(m) -> np.ndarray:
    """The array ``m`` read-only, its data on a 64-byte boundary when a row is wider than 64 bytes.

    The speed of a dense product ``m @ x`` depends on where m's data starts:
    a 200 x 200 matvec takes about a third longer at 16 mod 32 than at
    0 mod 32.  A wider matrix is copied, in its own memory order, into a
    buffer that starts on a cache line, so products read the same values
    in the same order and give the same bits.  A row of at most 8 float64
    entries fits in one line; such an m is only frozen, not copied.
    """
    if m.shape[-1] * m.itemsize > CACHE_LINE:
        buf = np.empty(m.nbytes + CACHE_LINE, np.uint8)
        order = "F" if m.flags.f_contiguous and not m.flags.c_contiguous else "C"
        out = np.ndarray(m.shape, m.dtype, buf, -buf.ctypes.data % CACHE_LINE, order=order)
        out[...] = m
        m = out
    m.setflags(write=False)
    return m


def inner(x, y) -> float:
    """Euclidean scalar product; hard error on dimension mismatch."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise DimensionMismatchError(f"inner product needs equal 1-D shapes, got {x.shape} and {y.shape}")
    return float(np.dot(x, y))


@dataclass(frozen=True)
class BlockLayout:
    """Dimensions of the blocks of a product space, in order."""

    dims: tuple

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d <= 0 for d in dims):
            raise DimensionMismatchError(f"block dimensions must be positive, got {dims}")
        object.__setattr__(self, "dims", dims)
        offsets = [0]
        for d in dims:
            offsets.append(offsets[-1] + d)
        object.__setattr__(self, "_offsets", tuple(offsets))

    @property
    def total(self) -> int:
        return self._offsets[-1]

    @property
    def offsets(self):
        return self._offsets

    def split(self, v):
        """Cut a flat vector into its blocks."""
        v = np.asarray(v, dtype=float)
        check_dim(v, self.total, "product vector")
        offs = self.offsets
        return [v[offs[k]:offs[k + 1]] for k in range(len(self.dims))]

    def join(self, blocks) -> np.ndarray:
        """Concatenate blocks back into a flat vector."""
        blocks = list(blocks)
        if len(blocks) != len(self.dims):
            raise DimensionMismatchError(
                f"layout has {len(self.dims)} blocks, got {len(blocks)}")
        for b, d in zip(blocks, self.dims):
            check_dim(np.asarray(b, dtype=float), d, "block")
        return np.concatenate([np.asarray(b, dtype=float) for b in blocks])


class LinearMap:
    """A bounded linear map given by a dense real matrix (rows = codomain)."""

    def __init__(self, matrix):
        m = np.array(matrix, dtype=float)
        if m.ndim != 2:
            raise DimensionMismatchError(f"matrix must be 2-D, got shape {m.shape}")
        check_finite(m, "matrix")
        m.setflags(write=False)
        self.matrix = m

    @property
    def domain_dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def codomain_dim(self) -> int:
        return self.matrix.shape[0]

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        check_dim(x, self.domain_dim, "LinearMap argument")
        return self.matrix @ x

    def adjoint_apply(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        check_dim(v, self.codomain_dim, "LinearMap adjoint argument")
        return self.matrix.T @ v

    def __repr__(self):
        return f"LinearMap(shape={self.matrix.shape})"
