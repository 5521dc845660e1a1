"""Desk-scale data generators: a hanging spring-mass and a coupled-oscillator network.

Both are integrated with classic fixed-step fourth-order Runge-Kutta, whose
error on these linear systems is negligible against measurement noise.  On
y' = A y (the spring-mass carries a constant 1 as a third state for gravity)
an RK4 step is exactly y <- M y, M = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24,
so M is formed once and each step is one matrix-vector product.  The
oscillator network stands in for large multi-machine recordings: a seeded
linear second-order network with configurable state count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import RawTrajectory
from .errors import ConfigError, DimensionMismatch
from .numerics import check_table_size


@dataclass(frozen=True)
class SpringMassParams:
    """Hanging mass on a spring: states are displacement and velocity."""

    mass: float = 5.0
    stiffness: float = 20.0
    gravity: float = 9.81
    x0: tuple[float, float] = (0.03, 0.01)
    duration: float = 40.0
    dt: float = 0.01

    def __post_init__(self):
        for name, value in vars(self).items():
            if not np.isfinite(value).all():
                raise ConfigError(f"{name} must be finite")
        if min(self.mass, self.stiffness, self.dt, self.duration) <= 0:
            raise ConfigError("mass, stiffness, dt, and duration must be positive")

    @property
    def equilibrium(self) -> float:
        """Rest displacement -m g / k of the hanging mass."""
        return -self.mass * self.gravity / self.stiffness

    @property
    def angular_frequency(self) -> float:
        return float(np.sqrt(self.stiffness / self.mass))


@dataclass(frozen=True, eq=False)
class OscillatorNetworkParams:
    """Network of unit masses: coupling[i][j] is the spring between nodes i
    and j (off-diagonal) and the grounding spring of node i (diagonal)."""

    node_count: int
    coupling: np.ndarray
    damping: np.ndarray
    x0: np.ndarray | None = None
    duration: float = 120.0
    dt: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.node_count <= 32:
            raise ConfigError(f"node_count must be in [1, 32], got {self.node_count}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must fit in 64 unsigned bits, got {self.seed}")
        for name, value in vars(self).items():
            if value is not None and not np.isfinite(value).all():
                raise ConfigError(f"{name} must be finite")
        coupling = np.asarray(self.coupling, dtype=float)
        if coupling.shape != (self.node_count, self.node_count):
            raise DimensionMismatch("coupling must be node_count x node_count")
        if np.abs(coupling - coupling.T).max() > 0 or coupling.min() < 0:
            raise ConfigError("coupling must be symmetric and nonnegative")
        damping = np.asarray(self.damping, dtype=float).ravel()
        if damping.size != self.node_count or damping.min() < 0:
            raise ConfigError("damping must be per-node and nonnegative")
        if min(self.dt, self.duration) <= 0:
            raise ConfigError("dt and duration must be positive")
        object.__setattr__(self, "coupling", coupling)
        object.__setattr__(self, "damping", damping)
        if self.x0 is not None:
            x0 = np.asarray(self.x0, dtype=float).ravel()
            if x0.size != 2 * self.node_count:
                raise DimensionMismatch("x0 must stack positions then velocities")
            object.__setattr__(self, "x0", x0)

    def stiffness_matrix(self) -> np.ndarray:
        """Grounded graph Laplacian of the spring network."""
        off = self.coupling - np.diag(np.diag(self.coupling))
        return np.diag(np.diag(self.coupling) + off.sum(axis=1)) - off


def _rk4(A: np.ndarray, state: np.ndarray, duration: float, dt: float):
    """Times and states of classic RK4 on y' = A y, stepped by its exact propagator M."""
    ratio = duration / dt
    check_table_size(len(A) * (ratio + 1), f"duration {duration:g} / dt {dt:g} asks for "
                                           f"{len(A)} x {ratio + 1:.6g} simulated")
    steps = int(round(ratio))
    M = term = np.eye(len(A))
    for j in range(1, 5):
        term = term @ (dt * A) / j
        M = M + term
    out = np.empty((len(A), steps + 1))
    out[:, 0] = state
    for i in range(steps):
        np.matmul(M, out[:, i], out=out[:, i + 1])
    return np.arange(steps + 1) * dt, out


def simulate_spring_mass(params: SpringMassParams) -> RawTrajectory:
    """Integrate d(x1)/dt = x2, d(x2)/dt = -(k/m) x1 - g at uniform dt."""
    A = np.array([[0.0, 1.0, 0.0], [-params.stiffness / params.mass, 0.0, -params.gravity],
                  [0.0, 0.0, 0.0]])
    times, samples = _rk4(A, np.array([*params.x0, 1.0]), params.duration, params.dt)
    return RawTrajectory(times=times, samples=samples[:2], state_names=["x1", "x2"])


def spring_mass_energy(params: SpringMassParams, trajectory: RawTrajectory) -> np.ndarray:
    """Mechanical energy about the equilibrium point; conserved by the flow."""
    disp = trajectory.samples[0] - params.equilibrium
    vel = trajectory.samples[1]
    return 0.5 * params.mass * vel**2 + 0.5 * params.stiffness * disp**2


def simulate_oscillator_network(params: OscillatorNetworkParams) -> RawTrajectory:
    """Integrate q'' = -K q - D q'; states are positions then velocities."""
    K = params.stiffness_matrix()
    D = np.diag(params.damping)
    max_eig = float(np.linalg.eigvalsh(K).max())
    if max_eig > 0 and params.dt > 0.1 / np.sqrt(max_eig):
        raise ConfigError(
            f"dt={params.dt} exceeds 0.1/sqrt(max stiffness eigenvalue) = "
            f"{0.1 / np.sqrt(max_eig):.4g}"
        )
    nodes = params.node_count
    if params.x0 is not None:
        state0 = params.x0
    else:
        rng = np.random.Generator(np.random.Philox(key=np.uint64(params.seed)))
        state0 = np.concatenate([0.1 * rng.standard_normal(nodes), np.zeros(nodes)])

    A = np.block([[np.zeros((nodes, nodes)), np.eye(nodes)], [-K, -D]])
    times, samples = _rk4(A, state0, params.duration, params.dt)
    names = [f"q{i + 1}" for i in range(nodes)] + [f"v{i + 1}" for i in range(nodes)]
    return RawTrajectory(times=times, samples=samples, state_names=names)


def network_energy(params: OscillatorNetworkParams, trajectory: RawTrajectory) -> np.ndarray:
    K = params.stiffness_matrix()
    nodes = params.node_count
    q = trajectory.samples[:nodes]
    v = trajectory.samples[nodes:]
    return 0.5 * np.einsum("it,it->t", v, v) + 0.5 * np.einsum("it,ij,jt->t", q, K, q)


def random_network_params(
    node_count: int,
    seed: int = 0,
    duration: float = 120.0,
    dt: float = 0.01,
    coupling_strength: float = 1.0,
    damping: float = 0.0,
) -> OscillatorNetworkParams:
    """Ring-coupled network with seeded grounding-stiffness jitter."""
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must fit in 64 unsigned bits, got {seed}")
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    coupling = np.zeros((node_count, node_count))
    for i in range(node_count):
        coupling[i, i] = 1.0 + 0.5 * rng.random()
        if node_count > 1:
            j = (i + 1) % node_count
            w = coupling_strength * (0.5 + rng.random())
            coupling[i, j] = coupling[j, i] = w
    return OscillatorNetworkParams(
        node_count=node_count,
        coupling=coupling,
        damping=np.full(node_count, float(damping)),
        duration=duration,
        dt=dt,
        seed=seed,
    )
