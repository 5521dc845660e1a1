"""Every ``numerics.row_blocks`` loop outside ``spectral.py`` keeps one block's temporaries
within a small multiple of the block budget, ``numerics._CHUNK_SCALARS // 32`` floats.

Each case runs the function that holds the loop at a shape where the loop cuts several
blocks, under tracemalloc, and subtracts what the call holds across all of its blocks (its
outputs and buffers sized by other rules, computed from the shapes).  What is left is the
largest block's transient peak.  The ``spectrum`` loops in ``spectral.py`` have a row floor
of their own and their own tests.
"""

import functools
import tracemalloc

import numpy as np
import pytest

from dmduq import numerics, operator_moments
from dmduq.data_model import NoiseModel, format_blocks
from dmduq.metrics import agreement
from dmduq.monte_carlo import McConfig, _add_trials, _chunk_size, _MomentAccumulator
from dmduq.numerics import RowTable, product_rows
from dmduq.operator_moments import PAPER_LITERAL, OperatorMoments, check_outliers, check_tables
from dmduq.pinv_moments import GRAM_FLOATS, PinvMoments, gram_complement_inverses, pinv_moments

from conftest import fixed_blas_workers, snapshots_from_trajectory_matrix

# A block may hold its budget of temporaries plus what is made beside it: a few n x n or
# row-sized arrays, and the Python objects and allocator slack of numpy temporaries.
BLOCK_MULTIPLE = 1.5
F = 8  # bytes per float


def _recording(n, m, seed=3):
    states = np.random.default_rng(seed).standard_normal((n, m + 1))
    return snapshots_from_trajectory_matrix(states), NoiseModel(variances=np.full(n, 1e-2))


def _gram(monkeypatch, n=34, m=400):
    X = np.random.default_rng(5).standard_normal((n, m))
    return lambda: gram_complement_inverses(X, 0.0, np.arange(m)), m * n * n * F


def _pinv_groups(monkeypatch, n=34, m=400):
    snaps, noise = _recording(n, m)
    # Held: the two (m, n) tables, and a group's n x n inverses, which its kernel blocks run
    # beside (a third of a budget, by the group's cut), so that what is left is one block's.
    group = max(b - a for a, b in numerics.row_blocks(m, (GRAM_FLOATS + 1) * n * n))
    return lambda: pinv_moments(snaps, noise), (2 * m * n + group * n * n) * F


def _pinv_kernel(monkeypatch, n=2, m=4000):
    snaps, noise = _recording(n, m)
    return lambda: pinv_moments(snaps, noise), 2 * m * n * F


def _operator_tables(n, m, seed=7):
    rng = np.random.default_rng(seed)
    first = rng.standard_normal((m, n))
    pinv = PinvMoments(first, first**2 + rng.random((m, n)))
    return pinv, rng.standard_normal((n, m)), np.full(n, 1e-2)


def _row_pass(monkeypatch, n=34, m=600):
    pinv, Y, var = _operator_tables(n, m)
    # Held: c = M2x @ var, M1x**2 and Y**2, formed once for every block.
    return lambda: OperatorMoments(pinv, Y, var, PAPER_LITERAL), (m + 2 * m * n) * F


def _check_tables(monkeypatch, m=600):
    # Negative variances, so each block is also counted below zero.
    rng = np.random.default_rng(9)
    first, second = rng.standard_normal((m, m)), rng.standard_normal((m, m))
    return lambda: check_tables(first, second, PAPER_LITERAL, clamp_negative=True), 0


def _check_outliers(monkeypatch, m=600):
    rng = np.random.default_rng(9)
    first, second = rng.standard_normal((m, m)), rng.standard_normal((m, m))
    # The mean operator's m x m eigenvalue solve is not a block loop: stubbed out here.
    monkeypatch.setattr(operator_moments, "eigenvalue_rows", lambda stack: np.ones((1, m)))
    return lambda: check_outliers(first, second), 0


def _drain(blocks):
    """Take every block, each dropped before the next is asked for."""
    for block in blocks:
        del block


def _row_table(monkeypatch, n=34, m=1000):
    rng = np.random.default_rng(2)
    table = RowTable((m, m), functools.partial(product_rows, rng.standard_normal((m, n)),
                                               rng.standard_normal((n, m))))
    return lambda: _drain(table.blocks()), 0


def _format_blocks(monkeypatch, m=4000, width=34):
    table = np.random.default_rng(4).standard_normal((m, width))
    return lambda: _drain(format_blocks(table)), 0


def _statistics(monkeypatch, n=34, m=400):
    rng = np.random.default_rng(6)
    left, right = rng.standard_normal((m, n)), rng.standard_normal((n, m))
    acc = _MomentAccumulator(RowTable((m, m), functools.partial(product_rows, left, right)))
    acc.sums[...] = rng.random(acc.sums.shape)
    return lambda: acc.statistics(50, raw_second=False), 0  # views of the sums


def _mc_trials(monkeypatch, n=34, m=400):
    # Independent mode: the Gram build, the draws' scratch by runs of trials and column
    # blocks, then the operator rows' power sums by row blocks, one slice.
    monkeypatch.setattr(numerics, "_one_blas_thread", fixed_blas_workers(1))
    snaps, noise = _recording(n, m)
    config = McConfig(trials=_chunk_size(m, n), compute_eigenvalues=False)
    pinv_acc = _MomentAccumulator(RowTable((m, n), lambda a, b, out=None: np.zeros((b - a, n))))
    op_acc = _MomentAccumulator(RowTable((m, m), lambda a, b, out=None: np.zeros((b - a, m))))
    # Held: the chunk's operator factors (2 chunk n m) and the m inverses R_t (m n^2).
    held = (2 * config.trials * n * m + m * n * n) * F
    return lambda: _add_trials(snaps, noise, config, 0.0, pinv_acc, op_acc, None), held


def _agreement(monkeypatch, m=600):
    rng = np.random.default_rng(8)
    est, ref = rng.standard_normal((m, m)), rng.standard_normal((m, m))
    se = np.abs(rng.standard_normal((m, m)))
    se[::7] = 0.0  # rows of zero SE, left out of |z|
    return lambda: agreement(est, ref, se), 0


SITES = {
    "pinv_moments.gram_complement_inverses": _gram,
    "pinv_moments.pinv_moments-groups": _pinv_groups,
    "pinv_moments.pinv_moments-kernel": _pinv_kernel,
    "operator_moments._row_pass": _row_pass,
    "operator_moments.check_tables": _check_tables,
    "operator_moments.check_outliers": _check_outliers,
    "numerics.RowTable": _row_table,
    "data_model.format_blocks": _format_blocks,
    "monte_carlo.statistics": _statistics,
    "monte_carlo._add_trials": _mc_trials,
    "metrics.agreement": _agreement,
}


def block_transient(run, held):
    """Bytes ``run()`` holds at its peak beyond what it held before and ``held``."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - base - held


@pytest.mark.parametrize("site", SITES)
def test_block_within_budget(site, monkeypatch):
    run, held = SITES[site](monkeypatch)
    budget = numerics._CHUNK_SCALARS // 32 * F
    transient = block_transient(run, held)
    assert transient <= BLOCK_MULTIPLE * budget, f"{transient / budget:.2f} budgets"
