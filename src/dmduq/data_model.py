"""Snapshot matrices, noise models, CSV ingestion, and noise-window estimation.

A recorded run is a RawTrajectory (uniformly sampled states over time).  A SnapshotSet
is one whose snapshot matrices X (columns 1..m) and Y (columns 2..m+1) are read-only
views of its samples.  Per-state measurement variances are estimated from a window where
the signal is steady.  All types are immutable and freely shareable across threads.
"""

from __future__ import annotations

import csv
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatch,
    NonUniformSampling,
    NotPositiveDefinite,
    ParseError,
    TooFewSnapshots,
    ZeroVariance,
)
from .numerics import RowTable, _readonly, row_blocks, spd_factors

UNIFORMITY_RTOL = 1e-9


@dataclass(frozen=True, eq=False)
class RawTrajectory:
    """Uniformly sampled recording: times (m+1,) and samples (n, m+1)."""

    times: np.ndarray
    samples: np.ndarray
    state_names: list[str] = field(default_factory=list)

    def __post_init__(self):
        times = _readonly(self.times).ravel()
        samples = _readonly(np.atleast_2d(self.samples))
        if times.size != samples.shape[1]:
            raise DimensionMismatch(
                f"{times.size} times but {samples.shape[1]} sample columns"
            )
        if times.size < 2:
            raise TooFewSnapshots("a trajectory needs at least 2 samples")
        if not np.all(np.isfinite(times)) or not np.all(np.isfinite(samples)):
            raise ParseError("trajectory contains non-finite values")
        steps = np.diff(times)
        if np.any(steps <= 0):
            raise NonUniformSampling("times must be strictly increasing")
        mean_step = (times[-1] - times[0]) / (times.size - 1)
        # Each time is rounded at its own magnitude: large offsets jitter by their spacing.
        jitter = max(UNIFORMITY_RTOL * abs(mean_step), 4 * np.spacing(np.abs(times).max()))
        if np.abs(steps - mean_step).max() > jitter:
            raise NonUniformSampling(f"sampling not uniform within {jitter:.3g} per step")
        names = list(self.state_names) or [f"x{i + 1}" for i in range(samples.shape[0])]
        if len(names) != samples.shape[0]:
            raise DimensionMismatch("state_names length does not match state count")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "state_names", names)

    @property
    def dt(self) -> float:
        return float((self.times[-1] - self.times[0]) / (self.times.size - 1))

    @property
    def state_count(self) -> int:
        return self.samples.shape[0]


@dataclass(frozen=True, eq=False)
class SnapshotSet(RawTrajectory):
    """A recording whose X = samples 0..m-1 (``states``) and Y = samples 1..m (``shifted``)
    are read-only views of its one stored ``samples``: Y is the one-step shift of X."""

    def __post_init__(self):
        super().__post_init__()
        n, cols = self.samples.shape
        if n < 1 or cols < 3:
            raise TooFewSnapshots(f"need 3 samples of a state for snapshot pairs, got {n} x {cols}")

    @property
    def states(self) -> np.ndarray:
        return self.samples[:, :-1]

    @property
    def shifted(self) -> np.ndarray:
        return self.samples[:, 1:]

    @property
    def snapshot_count(self) -> int:
        return self.samples.shape[1] - 1


@dataclass(frozen=True, eq=False)
class NoiseModel:
    """Per-state measurement variances, optionally with a full SPD covariance.

    Variances are homoscedastic in time: one sigma^2 per state, applied to
    every snapshot of that state.  ``covariance_factor`` is the lower Cholesky factor of
    :meth:`covariance` and ``inverse_factor`` its inverse, both by :func:`numerics.spd_factors`
    here; a full covariance asymmetric beyond 1e-9 of its largest entry, or not positive
    definite, raises NotPositiveDefinite.
    """

    variances: np.ndarray
    full_covariance: np.ndarray | None = None
    covariance_factor: np.ndarray = field(init=False, repr=False)
    inverse_factor: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        v = _readonly(self.variances).ravel()
        if v.size < 1 or np.any(~np.isfinite(v)) or np.any(v <= 0):
            raise ZeroVariance("variances must be strictly positive and finite")
        object.__setattr__(self, "variances", v)
        if self.full_covariance is not None:
            cov = _readonly(np.atleast_2d(self.full_covariance))
            if cov.shape != (v.size, v.size):
                raise DimensionMismatch(
                    f"covariance shape {cov.shape} does not match {v.size} states"
                )
            if np.abs(np.diag(cov) - v).max() > 1e-12 * max(1.0, v.max()):
                raise DimensionMismatch("covariance diagonal does not equal variances")
            scale, asym = np.abs(cov).max(), np.abs(cov - cov.T).max()
            if asym > 1e-9 * scale:
                raise NotPositiveDefinite(f"covariance asymmetry {asym:.3e} exceeds 1e-9 of "
                                          f"its scale {scale:.3e}: not symmetric")
            object.__setattr__(self, "full_covariance", cov)
        cov = self.covariance()  # any asymmetry left is rounding: averaged away
        (L,), (inv_L,), (positive,) = spd_factors(0.5 * (cov + cov.T)[None])
        if not positive:
            raise NotPositiveDefinite("covariance has no Cholesky factor: not positive definite")
        object.__setattr__(self, "covariance_factor", _readonly(L))
        object.__setattr__(self, "inverse_factor", _readonly(inv_L))

    def covariance(self) -> np.ndarray:
        if self.full_covariance is not None:
            return self.full_covariance
        return np.diag(self.variances)

    @property
    def state_count(self) -> int:
        return self.variances.size


def build_snapshots(trajectory: RawTrajectory) -> SnapshotSet:
    """The recording as X = columns 1..m and Y = columns 2..m+1."""
    return SnapshotSet(trajectory.times, trajectory.samples, trajectory.state_names)


def estimate_noise(trajectory: RawTrajectory, window: tuple[float, float]) -> NoiseModel:
    """Per-state unbiased sample variance over the time window [t_start, t_end].

    The window should cover a stretch where the signal is steady so the
    sample variance reflects measurement noise rather than dynamics.
    """
    t0, t1 = float(window[0]), float(window[1])
    mask = (trajectory.times >= t0) & (trajectory.times <= t1)
    count = int(mask.sum())
    if count < 2:
        raise ConfigError(
            f"window [{t0}, {t1}] contains {count} sample(s); need at least 2"
        )
    seg = trajectory.samples[:, mask]
    variances = seg.var(axis=1, ddof=1)
    if np.any(variances == 0.0):
        bad = [trajectory.state_names[i] for i in np.flatnonzero(variances == 0.0)]
        raise ZeroVariance(f"state(s) {bad} are exactly constant over the window")
    return NoiseModel(variances=variances)


def decimate_trajectory(trajectory: RawTrajectory, stride: int) -> RawTrajectory:
    """Keep every stride-th sample; the sampling interval scales by stride."""
    if stride < 1:
        raise ConfigError(f"stride must be >= 1, got {stride}")
    return RawTrajectory(
        times=trajectory.times[::stride],
        samples=trajectory.samples[:, ::stride],
        state_names=list(trajectory.state_names),
    )


def load_csv(path) -> RawTrajectory:
    """Read a trajectory from CSV with header ``time,<name1>,...,<nameN>``."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                raise ParseError("empty file") from None
            header = [h.strip() for h in header]
            if len(header) < 2 or header[0] != "time":
                raise ParseError(
                    f"expected header 'time,<name1>,...', got {','.join(header)!r}"
                )
            names = header[1:]
            times: list[float] = []
            rows: list[list[float]] = []
            for row_idx, row in enumerate(reader, start=2):
                if len(row) == 0 or (len(row) == 1 and row[0].strip() == ""):
                    continue  # tolerate a trailing blank line
                if len(row) != len(header):
                    raise ParseError(
                        f"row {row_idx}: expected {len(header)} fields, got {len(row)}",
                        row=row_idx,
                    )
                parsed = []
                for col_idx, cell in enumerate(row):
                    try:
                        parsed.append(float(cell))
                    except ValueError:
                        raise ParseError(
                            f"row {row_idx}, column {col_idx + 1}: not a number: {cell!r}",
                            row=row_idx,
                            column=col_idx + 1,
                        ) from None
                times.append(parsed[0])
                rows.append(parsed[1:])
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc

    if len(rows) < 2:
        raise TooFewSnapshots(f"need at least 2 data rows, got {len(rows)}")
    samples = np.array(rows, dtype=float).T
    return RawTrajectory(times=np.array(times), samples=samples, state_names=names)


def format_rows(table: np.ndarray, precision: int = 17) -> list[str]:
    """Each row (last axis) of a float array as comma-separated ``%.<precision>g`` values.

    One format string serves every row and one vectorized check covers the
    whole array, so the text equals formatting each value on its own.
    Non-finite values raise ConfigError.
    """
    a = np.asarray(table, dtype=float)
    if not np.isfinite(a).all():
        raise ConfigError("cannot serialize non-finite value")
    fmt = ("%.{}g,".format(precision) * a.shape[-1])[:-1]
    return [fmt % tuple(row) for row in a.reshape(-1, a.shape[-1]).tolist()]


TEXT_WIDTH = 16  # floats' worth of memory a formatted value holds (6.7 measured at 34 columns)


def format_blocks(table, precision: int = 17):
    """:func:`format_rows` of a float array (1-D as one row) or of a ``RowTable`` by its row
    blocks, yielded as lists of row texts per :func:`numerics.row_blocks` block at width
    ``TEXT_WIDTH * width``, so no whole table's text is held.  A ``RowTable`` whose own cut
    is at that width has each float block formed once and formatted whole."""
    for block in table.blocks() if isinstance(table, RowTable) else [np.atleast_2d(table)]:
        for a, b in row_blocks(len(block), TEXT_WIDTH * block.shape[1]):
            yield format_rows(block[a:b], precision)
        del block  # before the next block is made


@contextmanager
def replacing(path):
    """A text handle on a file beside ``path`` that replaces ``path`` only when the
    block completes; on any error the file is removed and ``path`` left as it was."""
    path = Path(path)
    part = path.with_name(f".{path.name}.{os.getpid()}.part")
    try:
        with open(part, "w", encoding="utf-8", newline="") as handle:
            yield handle
        os.replace(part, path)
    except BaseException as exc:  # no partial file; an OSError names the file asked for
        part.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename == str(part):
            exc.filename = str(path)
        raise


def write_csv(
    path, header: list[str], table, precision: int = 17, index: bool = False
) -> None:
    """Write a header line, then one :func:`format_rows` line per row of ``table`` (a float
    array or a ``RowTable``), by :func:`format_blocks` blocks, into a file that replaces
    ``path`` when complete.

    With ``index`` every row starts with its 0-based row number.
    """
    with replacing(path) as handle:
        handle.write(",".join(header) + "\n")
        done = 0
        for rows in format_blocks(table, precision):
            if index:
                rows = [f"{i},{row}" for i, row in enumerate(rows, done)]
                done += len(rows)
            handle.write("".join(row + "\n" for row in rows))


def save_csv(trajectory: RawTrajectory, path) -> None:
    """Write a trajectory as CSV; 17 significant digits round-trip bit-exactly."""
    table = np.column_stack([trajectory.times, trajectory.samples.T])
    write_csv(path, ["time", *trajectory.state_names], table)
