"""Exact element-wise first and second moments of the snapshot pseudoinverse.

Each element of the right pseudoinverse ``X^+ = X.T @ inv(X @ X.T)`` is the
ratio ``s1 / s2`` of two quadratic-ish forms in one noisy snapshot column:
with ``V`` the Gram matrix of the remaining columns and ``R = inv(V)``,

    s1 = r.T @ x,      s2 = 1 + x.T @ R @ x,      x ~ N(mu, Sigma),

where ``r`` is the relevant column of ``R``.  The moments of ``s1 / s2``
reduce to semi-infinite integrals of a closed-form conditional moment
generating function; the first moment integrates

    c * |S|^(-1/2) * exp(-p2) * exp(b.T S^-1 b / 4) * (r.T S^-1 b / 2)

over p2 in (0, inf), with ``S = Sigma^-1 / 2 + p2 R``, ``b = Sigma^-1 mu``
and ``c = exp(-mu.T Sigma^-1 mu / 2) / (2^(n/2) |Sigma|^(1/2))``; the second
moment carries an extra ``p2`` factor and the kernel
``r.T S^-1 r / 2 + (r.T S^-1 b)^2 / 4``.

Numerical core: the factors of the integrand overflow/underflow separately
(``c`` alone underflows for small variances), but combine exactly.  With
``Sigma = L L.T`` and ``G = L.T R L`` (SPD), everything contracts through
``K(p2) = I + 2 p2 G``:

    log(c) - log|S|/2 + b.T S^-1 b / 4  ==  -log|K|/2 - p2 * a.T K^-1 bt
    r.T S^-1 b / 2  ==  g.T K^-1 a          (sign-carrying factor)
    r.T S^-1 r / 2  ==  g.T K^-1 g          (strictly positive)

with ``a = L^-1 mu``, ``bt = L.T R mu``, ``g = L.T r``.  One symmetric
eigendecomposition of ``G`` per column turns every quadrature node into O(n)
work, cancellation-free for any noise scale.  The envelope (the first line)
is exponentiated once per column, shifted by its largest node value, so
nothing overflows; only a column whose whole integral is below about 1e-308
underflows.

All of this is computed per snapshot column t, for every k at once: within a
column only ``g`` depends on k, so the decay rate, the envelope and the
weights ``1 / (1 + 2 p2 lambda)`` are shared.  ``pinv_moments`` runs one
batched kernel over the columns (X X.T is formed once per call), cut by
``numerics.row_blocks``: a stacked Cholesky of each group's Gram complements,
then, per block of the group, a stacked whitening ``eigh`` and per column two
matrix products and the node sums for all k.  The element-level functions run
the same kernel on a block of one column, so they equal the tables bit for
bit.  Each column is computed from its own data only, so no bit depends on the
block size or on scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import NoiseModel, SnapshotSet
from .errors import (
    ConfigError,
    DimensionMismatch,
    DmduqError,
    MomentComputationError,
    QuadratureNotConverged,
    SingularGram,
)
from .numerics import composite_legendre_nodes, gauss_laguerre_nodes, row_blocks, spd_inverses

JENSEN_SLACK = 1e-12

GAUSS_LAGUERRE = "gauss_laguerre"
ADAPTIVE_TRUNCATED = "adaptive_truncated"


@dataclass(frozen=True)
class QuadratureConfig:
    """Discretization of the semi-infinite moment integrals.

    ``gauss_laguerre`` absorbs the exp(-p2) weight into the rule; ``adaptive_truncated``
    is composite Gauss-Legendre on the truncated axis u = rho * p2 in [0, p2_max] (rho >= 1,
    see ``_decay_rate``), so the p2 integral stops at p2_max / rho.  With ``cross_check``
    both are evaluated and a disagreement beyond ``100 * rel_tol`` relative raises.
    """

    method: str = GAUSS_LAGUERRE
    node_count: int = 64
    p2_max: float = 400.0
    rel_tol: float = 1e-8
    cross_check: bool = False

    def __post_init__(self):
        if self.method not in (GAUSS_LAGUERRE, ADAPTIVE_TRUNCATED):
            raise ConfigError(f"unknown quadrature method {self.method!r}")
        if not 1 <= self.node_count <= 256:
            raise ConfigError(f"node_count must be in [1, 256], got {self.node_count}")
        if not 0 < self.rel_tol <= 1e-2:
            raise ConfigError(f"rel_tol must be in (0, 1e-2], got {self.rel_tol}")
        if not 0 < self.p2_max < np.inf:
            raise ConfigError(f"p2_max must be positive and finite, got {self.p2_max}")


def _whiten(R: np.ndarray, mu: np.ndarray, noise: NoiseModel) -> tuple[np.ndarray, ...]:
    """Whitened quadrature pieces of a block of columns, stacked on axis 0.

    For Gram-complement inverses R (B, n, n) and means mu (B, n), with
    Sigma = L L.T and G = L.T R L, returns the eigenvalues of G (B, n), the
    eigenbasis projections of L^-1 mu and L.T R mu (B, n), and (B, n, n)
    whose column k is the projection of L.T R[:, k].
    """
    # Per-column products, never one solve with the block as right-hand
    # sides, so a column's bits do not depend on the block it is in.
    L, inv_L = noise.covariance_factor, noise.inverse_factor
    G = L.T @ R @ L
    lam, Q = np.linalg.eigh(0.5 * (G + G.transpose(0, 2, 1)))
    Qt = Q.transpose(0, 2, 1)
    proj_mu = (Qt @ (inv_L @ mu[:, :, None]))[:, :, 0]
    proj_rmu = (Qt @ (L.T @ (R @ mu[:, :, None])))[:, :, 0]
    return np.maximum(lam, 0.0), proj_mu, proj_rmu, Qt @ (L.T @ R)


@dataclass(frozen=True, eq=False)
class MgfContext:
    """Quadrature context for one pseudoinverse element (t, k): column t's ``_whiten``
    output as a block of one, and the state index ``k``."""

    pieces: tuple[np.ndarray, ...]
    k: int


@dataclass(frozen=True, eq=False)
class PinvMoments:
    """Element-wise moment tables for the pseudoinverse: first and raw second."""

    first: np.ndarray
    second_raw: np.ndarray

    def __post_init__(self):
        first = np.asarray(self.first, dtype=float)
        second = np.asarray(self.second_raw, dtype=float)
        if first.shape != second.shape:
            raise DimensionMismatch("moment tables must share a shape")
        for name, table in (("first", first), ("second_raw", second)):
            if not np.isfinite(table).all():
                t, k = np.argwhere(~np.isfinite(table))[0]
                raise DimensionMismatch(f"pseudoinverse moments must be finite: {name} at "
                                        f"(t={t}, k={k}) = {table[t, k]}")
        gap = second - first**2
        if gap.min() < -JENSEN_SLACK:
            t, k = np.unravel_index(int(gap.argmin()), gap.shape)
            raise QuadratureNotConverged(
                f"second moment below squared first at (t={t}, k={k}): gap {gap.min():.3e}"
            )
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "second_raw", second)


def _check_inputs(X: np.ndarray, noise: NoiseModel, ridge: float) -> None:
    if noise.state_count != X.shape[0]:
        raise DimensionMismatch("noise model does not match state count")
    if ridge < 0:
        raise ConfigError(f"ridge must be >= 0, got {ridge}")


def gram_complement_inverses(
    X: np.ndarray, ridge: float, columns: np.ndarray, gram: np.ndarray | None = None
) -> tuple[np.ndarray, list[tuple[int, SingularGram]]]:
    """``R_t = inv(X X.T - x_t x_t.T + ridge I)`` for each column index t given.

    ``gram`` is ``X @ X.T`` when the caller has it.  Returns the stack (len(columns), n, n),
    filled by ``row_blocks`` groups (its bits do not depend on them), and a
    ``(t, SingularGram)`` pair for every column whose complement has no Cholesky factor
    (its R is NaN).
    """
    n, columns = X.shape[0], np.asarray(columns)
    gram = X @ X.T if gram is None else gram
    R, positive = np.empty((len(columns), n, n)), np.empty(len(columns), dtype=bool)
    for a, b in row_blocks(len(columns), n * n):
        x = X.T[columns[a:b]]
        V = gram - x[:, :, None] * x[:, None, :]
        V += ridge * np.eye(n)
        R[a:b], positive[a:b] = spd_inverses(0.5 * (V + V.transpose(0, 2, 1)))
    singular = columns[~positive]
    if singular.size == 0:
        return R, []
    # V_t is a rank-one downdate of X X.T + ridge I, singular exactly when the
    # leverage h_t = x_t.T inv(X X.T + ridge I) x_t reaches 1 (or when
    # X X.T + ridge I is singular itself).
    ridged = gram + ridge * np.eye(n)
    rank = np.linalg.matrix_rank(ridged, hermitian=True)
    inverse = np.linalg.pinv(ridged, hermitian=True)
    errors = []
    for t in singular:
        h = float(X[:, t] @ inverse @ X[:, t])
        errors.append((int(t), SingularGram(
            f"Gram complement singular at column t={t} with ridge={ridge}: leverage "
            f"h_t = {h:.6g} (x_t.T inv(X X.T + ridge I) x_t; V_t is singular as "
            f"h_t -> 1), X X.T + ridge I has rank {rank} of {n}"
        )))
    return R, errors


def build_context(
    snapshots: SnapshotSet,
    noise: NoiseModel,
    t: int,
    k: int,
    ridge: float = 0.0,
) -> MgfContext:
    """Assemble the quadrature context for pseudoinverse element (t, k).

    The Gram complement V accumulates the recorded snapshot columns other
    than t (plus ``ridge * I`` when requested); R is its inverse, obtained
    through an SPD factorization.  Indices are 0-based.

    Raises SingularGram, naming the column's leverage, when V cannot be
    factored, which happens whenever m - 1 < n or the remaining columns are
    collinear.
    """
    X = snapshots.states
    n, m = X.shape
    if not 0 <= t < m:
        raise DimensionMismatch(f"column index t={t} outside [0, {m})")
    if not 0 <= k < n:
        raise DimensionMismatch(f"state index k={k} outside [0, {n})")
    _check_inputs(X, noise, ridge)
    R, singular = gram_complement_inverses(X, ridge, np.array([t]))
    if singular:
        raise singular[0][1]
    return MgfContext(_whiten(R, X.T[[t]], noise), k)


def _decay_rate(pieces) -> np.ndarray:
    """Initial decay rate of the weighted integrand, per column: 1 + tr(G) + mu.T R mu.

    The integrand falls like exp(-rate * p2) near the origin.  When the
    Gram complement is nearly singular the rate is enormous and all the
    integral's mass sits in a boundary layer no fixed rule can see; the
    quadratures therefore substitute p2 = u / rate, which flattens the
    layer to unit scale for any conditioning.
    """
    lam, qa, qb, _ = pieces
    return 1.0 + lam.sum(axis=1) + (qa * qb).sum(axis=1)


def _kernel(pieces, p2: np.ndarray):
    """Stable evaluation of the integrand pieces of a block, p2 of shape (B, N).

    Returns ``(core_log, t_rb, t_rr)`` with shapes (B, N), (B, n, N) and
    (B, n, N), row k of the last two belonging to element k.
    ``exp(core_log)`` is the positive envelope (always <= 1), ``t_rb =
    r.T S^-1 b / 2`` carries the sign of the first-moment integrand, and
    ``t_rr = r.T S^-1 r / 2 > 0``.
    """
    lam, qa, qb, qg = pieces
    scaled = 2.0 * lam[:, :, None] * p2[:, None, :]
    weight = 1.0 / (1.0 + scaled)
    mahal = ((qa * qb)[:, None, :] @ weight)[:, 0]
    core_log = -0.5 * np.log1p(scaled).sum(axis=1) - p2 * mahal
    t_rb = (qa[:, :, None] * qg).transpose(0, 2, 1) @ weight
    t_rr = (qg * qg).transpose(0, 2, 1) @ weight
    return core_log, t_rb, t_rr


def _rules(quad: QuadratureConfig) -> list[tuple]:
    """``(name, nodes, weights, laguerre)`` of the configured rule, then of the other
    one under ``cross_check``; ``laguerre`` rules carry exp(-u) in their weights."""
    methods = [quad.method, *{GAUSS_LAGUERRE, ADAPTIVE_TRUNCATED} - {quad.method}]
    return [("Gauss-Laguerre", *gauss_laguerre_nodes(quad.node_count), True) if m == GAUSS_LAGUERRE
            else ("composite Gauss-Legendre", *composite_legendre_nodes(quad.p2_max), False)
            for m in methods[: 1 + quad.cross_check]]


def _integrate(pieces, nodes: np.ndarray, weights: np.ndarray, laguerre: bool):
    """Both moment tables, (B, n) each, for a block of columns: (1/rho) * sum w_j g(u_j / rho)
    exp(-u_j / rho), times exp(u_j) for a ``laguerre`` rule.  The envelope is exponentiated once
    per column, over its largest node term; node sums are per-column einsums, never BLAS."""
    rate = _decay_rate(pieces)[:, None]
    p2 = nodes / rate
    core_log, t_rb, t_rr = _kernel(pieces, p2)
    shared = np.log(weights) + core_log + (nodes if laguerre else 0.0) - p2 - np.log(rate)
    shift = shared.max(axis=1, keepdims=True)
    shift[shift == -np.inf] = 0.0  # every node underflowed: both sums are 0
    envelope, positive = np.exp(shared - shift), np.maximum(t_rb, 0.0)
    first = np.einsum("bkj,bj->bk", positive, envelope)
    first -= np.einsum("bkj,bj->bk", positive - t_rb, envelope)  # negative terms apart
    second = np.einsum("bkj,bj->bk", t_rr + t_rb * t_rb, p2 * envelope)
    return np.exp(shift) * first, np.exp(shift) * second


def _tables(pieces, columns, rules: list[tuple], rel_tol: float):
    """``(first, second_raw, failures)`` of a block of columns by the first rule.  A
    second rule adds ``(t, k, QuadratureNotConverged)`` to ``failures`` for each element
    where a table of the two rules differs by more than ``100 * rel_tol`` relative."""
    (name, *rule), *check = rules
    first, second = _integrate(pieces, *rule)
    failures = []
    for other, *other_rule in check:
        ref, alt = np.array([first, second]), np.array(_integrate(pieces, *other_rule))
        off = np.abs(ref - alt) > 100.0 * rel_tol * np.maximum(np.abs(ref), np.abs(alt))
        for i, k in np.argwhere(off.any(axis=0)):
            failures.append((int(columns[i]), int(k), QuadratureNotConverged("; ".join(
                f"{table} table: {name} {ref[j, i, k]:.12e} vs {other} {alt[j, i, k]:.12e}"
                for j, table in enumerate(("first", "second_raw")) if off[j, i, k]))))
    return first, second, failures


def _moment_element(context: MgfContext, quad: QuadratureConfig | None, order: int) -> float:
    quad = quad or QuadratureConfig()
    *tables, failures = _tables(context.pieces, [0], _rules(quad), quad.rel_tol)
    for exc in (exc for _, k, exc in failures if k == context.k):
        raise exc
    return float(tables[order - 1][0, context.k])


def first_moment_element(context: MgfContext, quad: QuadratureConfig | None = None) -> float:
    """Mean of one pseudoinverse element under the context's noise model."""
    return _moment_element(context, quad, order=1)


def second_moment_element(context: MgfContext, quad: QuadratureConfig | None = None) -> float:
    """Raw second moment E[(x+)^2] of one pseudoinverse element."""
    return _moment_element(context, quad, order=2)


def pinv_moments(
    snapshots: SnapshotSet,
    noise: NoiseModel,
    quad: QuadratureConfig | None = None,
    ridge: float = 0.0,
) -> PinvMoments:
    """Both moment tables for every element of the m x n pseudoinverse.

    Columns are processed in blocks by one batched kernel, which runs both
    rules on each block under ``cross_check``.  Failures are aggregated with
    their (t, k) locations, k = None for a column whose Gram complement is
    singular.
    """
    quad = quad or QuadratureConfig()
    X = snapshots.states
    n, m = X.shape
    _check_inputs(X, noise, ridge)
    rules = _rules(quad)
    gram = X @ X.T
    first = np.empty((m, n))
    second = np.empty((m, n))
    failures: list[tuple[int, int | None, DmduqError]] = []
    nodes = max(rule[1].size for rule in rules)
    for a, b in row_blocks(m, n * n):  # one group of n x n inverses per call
        Rs, singular = gram_complement_inverses(X, ridge, np.arange(a, b), gram)
        failures.extend((t, None, err) for t, err in singular)
        ok = np.ones(b - a, dtype=bool)
        ok[[t - a for t, _ in singular]] = False
        # Kernel blocks: each column holds about 8 (n, nodes) temporaries.
        for c, d in row_blocks(b - a, 8 * n * nodes):
            columns, R = np.arange(a + c, a + d)[ok[c:d]], Rs[c:d][ok[c:d]]
            first[columns], second[columns], failed = _tables(
                _whiten(R, X.T[columns], noise), columns, rules, quad.rel_tol)
            failures.extend(failed)

    if failures:
        raise MomentComputationError(sorted(failures, key=lambda f: f[0]))
    return PinvMoments(first=first, second_raw=second)
