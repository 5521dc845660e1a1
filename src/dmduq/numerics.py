"""Dense symmetric linear-algebra kernels with log-domain safety.

These are the shared primitives for the moment computations: stacked
Cholesky factors and SPD inverses (of every Gram matrix and of the noise
covariance), eigenvalue extraction with a deterministic total order (rank-n
products through their n x n factor product), Gauss-Laguerre rules
for semi-infinite integrals weighted by ``exp(-p)`` and a composite
Gauss-Legendre rule for truncated ones.  All functions are pure
and safe to call concurrently.  ``_one_blas_thread`` holds OpenBLAS at one
thread around the calls whose bits would otherwise depend on the BLAS thread
setting; nested and concurrent calls share one pin.  ``slice_workers`` spreads
such calls over one slice per BLAS thread, the first in the calling thread, for
the jobs that split: Monte Carlo trials and spectra.  A ``RowTable`` is an m x m
table read from its row source by ``row_blocks``, in order in the calling thread
at one BLAS thread, so it has the same bits whether it is built whole or written
out block by block.

The Gauss-Laguerre rule is built in house (Golub & Welsch, Math. Comp. 23,
1969): Jacobi-matrix eigenvalues polished by two Newton steps, and weights
``1 / (x L_n'(x)^2)`` formed in the log domain.  Each weight is within 1e-13
of the reference library rule the tests compare it with.
"""

from __future__ import annotations

import ctypes
import functools
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, ConvergenceFailure, DimensionMismatch

# (getter, setter) of the thread count in the OpenBLAS builds the numpy wheels ship.
_OPENBLAS_THREADS = [
    (f"{lib}_get_num_threads{tail}", f"{lib}_set_num_threads{tail}")
    for lib in ("scipy_openblas", "openblas") for tail in ("64_", "")
]
# Process-wide, as the OpenBLAS settings are: the callers inside _one_blas_thread, the
# (setter, count) saved of each OpenBLAS, and the (getter, setter) pairs found by the last
# scan with the number of imported modules it saw; changed only under _PIN.
_PIN = threading.Lock()
_pin = {"entries": 0, "saved": [], "setters": [], "modules": -1}


def _openblas_setters() -> list:
    """The (getter, setter) of the thread count of every OpenBLAS mapped into this process,
    found in ``/proc/self/maps``; none without ``/proc`` or a mapped path that opens."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line})
        libraries = [ctypes.CDLL(path) for path in paths]
    except OSError:
        libraries = []
    found = []
    for lib in libraries:
        for get, set_ in _OPENBLAS_THREADS:
            if hasattr(lib, get) and hasattr(lib, set_):
                getter, setter = getattr(lib, get), getattr(lib, set_)
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                found.append((getter, setter))
                break
    return found


@contextmanager
def _one_blas_thread():
    """Hold every OpenBLAS loaded in this process at one thread; yield the most one had.

    Yields 1 and changes nothing where no OpenBLAS thread setter is found
    (another BLAS, or no ``/proc``).  Nested and concurrent calls, from any
    thread, share one pin: the first entry saves each count and sets it to 1,
    and the last exit restores them.  The setters are found by one scan of the
    process's mapped libraries, made again only by a first entry that sees a
    different number of imported modules than the last scan did, since an
    import may have loaded another OpenBLAS.  That count is the only sign
    read: an OpenBLAS loaded by ``ctypes`` alone, or by imports that leave the
    count as it was (a module removed and another imported, an extension
    reloaded), is left unpinned until the count next changes, and until then
    its bits may depend on its thread count.
    """
    with _PIN:
        if not _pin["entries"]:
            if len(sys.modules) != _pin["modules"]:
                _pin["setters"], _pin["modules"] = _openblas_setters(), len(sys.modules)
            _pin["saved"] = [(setter, getter()) for getter, setter in _pin["setters"]]
            for setter, _ in _pin["saved"]:
                setter(1)
        _pin["entries"] += 1
    try:  # _pin["saved"] is replaced only while no caller is inside
        yield max((count for _, count in _pin["saved"]), default=1)
    finally:
        with _PIN:
            _pin["entries"] -= 1
            if not _pin["entries"]:
                for setter, count in _pin["saved"]:
                    setter(count)


@contextmanager
def slice_workers():
    """Hold BLAS at one thread and yield ``map_slices(fn, count)``, which runs
    ``fn(lo, hi)`` on one contiguous slice of ``range(count)`` per BLAS thread and
    returns the results in slice order.  The calling thread runs the first slice and a
    pool that lives as long as the context runs the rest, so one BLAS thread starts no
    thread.  The first failing slice's exception is raised.  Calls inside ``fn`` that
    pin BLAS share the context's pin."""
    with _one_blas_thread() as threads, ThreadPoolExecutor(max(1, threads - 1)) as pool:
        def map_slices(fn, count):
            workers = max(1, min(threads, count))
            cuts = [count * k // workers for k in range(workers + 1)]
            rest = [pool.submit(fn, lo, hi) for lo, hi in zip(cuts[1:-1], cuts[2:])]
            try:
                return [fn(cuts[0], cuts[1]), *(future.result() for future in rest)]
            except BaseException:  # as pool.map does: slices not yet started never start
                for future in rest:
                    future.cancel()
                raise

        yield map_slices


_CHUNK_SCALARS = 4_000_000  # per Monte Carlo chunk; a row_blocks block holds 1/32 (1 MB)
_MAX_TABLE_VALUES = 2**28  # floats in any table whose size a user's number sets (2 GiB)


def check_table_size(values: float, request: str) -> None:
    """ConfigError ``"<request> values, more than <bound>"`` when a table sized by a user's
    number would hold more than ``_MAX_TABLE_VALUES`` floats (an infinite count too)."""
    if not values <= _MAX_TABLE_VALUES:
        raise ConfigError(f"{request} values, more than {_MAX_TABLE_VALUES}")


def row_blocks(count: int, width: int, least: int = 1) -> list[tuple[int, int]]:
    """The row blocks ``(a, b)`` of a ``count`` x ``width`` table, in order: near-equal,
    of at least ``least`` rows (or the whole table), and of at most as many rows as hold
    ``_CHUNK_SCALARS / 32`` elements or ``2 * least - 1`` rows, whichever is more, cut by the
    shape alone.  The bounded loops are cut so, each ``width`` scaled by the temporaries a
    row holds."""
    most = max(least, _CHUNK_SCALARS // 32 // max(1, width))
    n_blocks = min(-(-count // most), max(1, count // least))
    cuts = [count * k // n_blocks for k in range(n_blocks + 1)]
    return list(zip(cuts[:-1], cuts[1:]))


# OpenBLAS (its AVX-512 builds) sends a gemm of at most this many multiply-adds to a
# small-matrix kernel that rounds unlike its blocked gemm, so a row block of a larger
# product keeps the product's bits only when it too is larger.
_SMALL_PRODUCT = 100**3


def product_rows(left: np.ndarray, right: np.ndarray, a: int, b: int, out=None) -> np.ndarray:
    """Rows a:b of ``left @ right`` (over the last two axes), into ``out`` when given, rounded
    as in the whole product when both take one gemm kernel: numpy sends a product of one row
    through gemv, which rounds unlike gemm, so a lone row is taken from the product of it and
    a neighbour."""
    if b - a > 1 or left.shape[-2] < 2:
        return np.matmul(left[..., a:b, :], right, out=out)
    lo = min(a, left.shape[-2] - 2)
    row = np.matmul(left[..., lo : lo + 2, :], right)[..., a - lo : b - lo, :]
    if out is not None:
        out[...] = row
    return row if out is None else out


class RowTable(NamedTuple):
    """A ``shape`` table whose rows a:b are ``rows(a, b, out=None)`` (written into ``out`` when
    given), read by :func:`row_blocks` at ``block_width`` (the row width when None), each
    block at one BLAS thread.  Every reader takes the table's one cut: a product's rows round
    by the size of the block they are made in (see ``_SMALL_PRODUCT``)."""

    shape: tuple
    rows: Callable
    block_width: int | None = None

    def _cuts(self) -> list[tuple[int, int]]:
        # A block read holds its rows alone: 1.00 rows of floats measured per row.
        return row_blocks(self.shape[0], self.block_width or self.shape[1])

    def blocks(self):
        """The row blocks in order, one at a time; BLAS is pinned while each is made, never
        across a ``yield``, so a consumer that stops or raises leaves no pin held."""
        for a, b in self._cuts():
            with _one_blas_thread():
                block = self.rows(a, b)
            yield block
            del block  # so a consumer that drops it holds one block, not two

    def __array__(self, dtype=None, copy=None):
        table = np.empty(self.shape)
        with _one_blas_thread():
            for a, b in self._cuts():
                self.rows(a, b, table[a:b])
        return table


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues sorted by descending magnitude.

    Ties on magnitude are broken by descending imaginary part, then
    descending real part, which places the positive-imaginary member of
    each conjugate pair first.
    """

    eigenvalues: np.ndarray


def spd_factors(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cholesky factors ``(lower, inverse_lower, positive)`` of a stack (B, n, n) of symmetric
    positive definite matrices, read from their lower triangles.  ``positive[i]`` is False
    where matrix i has no factor; both its factors are NaN.  Each ``inverse_lower[i]`` comes
    from forward substitution on its own, so its bits do not depend on the rest of the stack.
    ``inverse_lower`` is written over a writable float64 ``stack``, which the factorization
    no longer needs, so a call holds one new stack, not two; pass a copy to keep it.
    """
    a = np.require(stack, dtype=float, requirements="W")
    positive = np.ones(a.shape[0], dtype=bool)
    try:
        lower = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        lower = np.full_like(a, np.nan)
        for i, matrix in enumerate(a):
            try:
                lower[i] = np.linalg.cholesky(matrix)
            except np.linalg.LinAlgError:
                positive[i] = False
    # Row i is written whole from rows < i, so the stack's old entries are never read.
    eye, inverse = np.eye(a.shape[-1]), a
    for i in range(a.shape[-1]):
        row = eye[i] - (lower[:, i : i + 1, :i] @ inverse[:, :i])[:, 0]
        inverse[:, i] = row / lower[:, i, i, None]
    return lower, inverse, positive


def spd_inverses(stack: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Inverses of a stack of symmetric positive definite matrices, shape (B, n, n), written
    into ``out`` when given, and the ``positive`` flags of :func:`spd_factors` (the inverse is
    NaN where False), which writes over ``stack``.  Each inverse is ``inv(L).T @ inv(L)``,
    so rounding grows with cond(L) = sqrt(cond(V)), not with cond(V) as in an LU solve of V
    itself; numpy forms a product of a matrix with its own transpose exactly symmetric.
    """
    _, inv_lower, positive = spd_factors(stack)
    return np.matmul(inv_lower.transpose(0, 2, 1), inv_lower, out=out), positive


def finite_stack(stack: np.ndarray, first_index: int = 0) -> np.ndarray:
    """``stack`` as a float (N, m, m) array of finite entries, else DimensionMismatch."""
    a = np.asarray(stack, dtype=float)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise DimensionMismatch(f"expected (N, m, m) matrices, got {a.shape}")
    finite = np.isfinite(a).all(axis=(1, 2))
    if not finite.all():
        bad = first_index + int(np.argmin(finite))
        raise DimensionMismatch(f"non-finite entries in instance {bad}")
    return a


def eigenvalue_rows(stack: np.ndarray, first_index: int = 0) -> np.ndarray:
    """Eigenvalues of a stack (N, m, m) of real matrices, one sorted row per matrix.

    Non-finite entries raise DimensionMismatch and a failed eigendecomposition
    raises ConvergenceFailure.  Both name the matrix as ``first_index`` plus
    its position in the stack, so a caller working through a longer sequence
    in chunks reports the index in the whole sequence.
    """
    stack = finite_stack(stack, first_index)
    try:
        values = np.linalg.eigvals(stack)
    except np.linalg.LinAlgError as exc:
        # The QR iteration cap lives inside LAPACK; locate the matrix that
        # did not converge within it.
        for idx, matrix in enumerate(stack):
            try:
                np.linalg.eigvals(matrix)
            except np.linalg.LinAlgError as single:
                raise ConvergenceFailure(
                    f"eigendecomposition failed at instance {first_index + idx}: {single}"
                ) from single
        raise ConvergenceFailure(f"eigendecomposition failed: {exc}") from exc
    return sort_eigenvalue_rows(values)


def product_eigenvalues(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Sorted eigenvalues of ``left @ right``, factors of shape (..., m, n) and (..., n, m).

    For n < m, ``det(lam I_m - left right) = lam^(m-n) det(lam I_n - right left)``,
    so the spectrum is the n eigenvalues of the n x n product plus m - n
    exact zeros; only the small product is eigendecomposed.  Otherwise the
    m x m product is.  Returns shape (..., m), each row in the order of
    :func:`sort_eigenvalue_rows` (the zeros sort last, so appending them
    after sorting keeps that order).
    """
    a = np.asarray(left, dtype=float)
    b = np.asarray(right, dtype=float)
    if a.ndim < 2:
        raise DimensionMismatch(f"left factor must be (..., m, n), got {a.shape}")
    m, n = a.shape[-2:]
    if b.shape != a.shape[:-2] + (n, m):
        raise DimensionMismatch(f"factor shapes {a.shape} and {b.shape} do not chain")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise DimensionMismatch("product_eigenvalues requires finite entries")
    k = min(m, n)
    product = b @ a if n < m else a @ b
    rows = eigenvalue_rows(product.reshape(-1, k, k))
    rows = np.concatenate([rows, np.zeros((rows.shape[0], m - k))], axis=1)
    return rows.reshape(a.shape[:-2] + (m,))


def sort_eigenvalue_rows(values: np.ndarray) -> np.ndarray:
    """Each row of stacked spectra (N, m) in order: |z| desc, then Im desc, then Re desc."""
    v = np.asarray(values, dtype=complex)
    order = np.lexsort((-v.real, -v.imag, -np.abs(v)), axis=-1)
    return np.take_along_axis(v, order, axis=-1)


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def gauss_laguerre_nodes(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for the rule ``integral f(p) exp(-p) dp ~ sum w_i f(p_i)``.

    Exact for polynomials up to degree ``2 * count - 1``.  Each rule is
    computed once per process and returned as read-only arrays.
    """
    if not isinstance(count, (int, np.integer)) or not 1 <= count <= 256:
        raise ConfigError(f"node count must be in [1, 256], got {count!r}")
    return _laguerre_rule(int(count))


def _laguerre_and_step(count: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``L_n(x)`` and ``L_n(x) - L_{n-1}(x)`` for n = ``count``.

    The recurrence ``(k+1) L_{k+1} = (2k+1-x) L_k - k L_{k-1}`` is carried
    in difference form, ``d_k = L_k - L_{k-1}``, which keeps ``L_n`` near
    its roots accurate to a few ulps where the plain form loses digits.
    """
    value, step = 1.0 - x, -x
    for k in range(1, count):
        step = (k * step - x * value) / (k + 1)
        value = value + step
    return value, step


@functools.cache
def _laguerre_rule(count: int) -> tuple[np.ndarray, np.ndarray]:
    # One node gives ([1.0], [1.0]) exactly: the Newton step is zero.
    off = -np.arange(1.0, count)
    jacobi = np.diag(2.0 * np.arange(count) + 1.0) + np.diag(off, 1) + np.diag(off, -1)
    nodes = np.linalg.eigvalsh(jacobi)
    # x L_n'(x) = n (L_n - L_{n-1}), so a Newton step is x -= L_n x / (n step).
    for _ in range(2):
        value, step = _laguerre_and_step(count, nodes)
        nodes = nodes - value * nodes / (count * step)
    _, step = _laguerre_and_step(count, nodes)
    log_weights = np.log(nodes) - 2.0 * np.log(count * np.abs(step))
    weights = np.exp(log_weights - log_weights.max())
    weights /= weights.sum()
    return _readonly(nodes), _readonly(weights)


@functools.cache
def composite_legendre_nodes(upper: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of ``integral_0^upper f(u) du ~ sum w_i f(u_i)``, read-only: 24
    Gauss-Legendre nodes per panel, panel edges doubling from 0.5, the last at ``upper``."""
    x, w = np.polynomial.legendre.leggauss(24)
    edges = np.r_[0.0, np.exp2(np.arange(-1.0, np.log2(upper))), upper]
    half = np.diff(edges)[:, None] / 2.0
    return _readonly((edges[:-1, None] + half * (1.0 + x)).ravel()), _readonly((half * w).ravel())
