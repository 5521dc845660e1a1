"""Desk-scale data generators: a hanging spring-mass and a coupled-oscillator network.

Both are integrated with classic fixed-step fourth-order Runge-Kutta, whose
error on these linear systems is negligible against measurement noise.  The
oscillator network stands in for large multi-machine recordings: a seeded
linear second-order network with configurable state count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import RawTrajectory
from .errors import ConfigError, DimensionMismatch, UnstableStep


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


def _rk4(derivative, state: np.ndarray, steps: int, dt: float) -> np.ndarray:
    out = np.empty((state.size, steps + 1))
    out[:, 0] = state
    y = state.astype(float)
    for i in range(steps):
        k1 = derivative(y)
        k2 = derivative(y + 0.5 * dt * k1)
        k3 = derivative(y + 0.5 * dt * k2)
        k4 = derivative(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[:, i + 1] = y
    return out


def simulate_spring_mass(params: SpringMassParams) -> RawTrajectory:
    """Integrate d(x1)/dt = x2, d(x2)/dt = -(k/m) x1 - g at uniform dt."""
    ratio = params.stiffness / params.mass
    g = params.gravity

    def deriv(s: np.ndarray) -> np.ndarray:
        return np.array([s[1], -ratio * s[0] - g])

    steps = int(round(params.duration / params.dt))
    samples = _rk4(deriv, np.array(params.x0, dtype=float), steps, params.dt)
    times = np.arange(steps + 1) * params.dt
    return RawTrajectory(times=times, samples=samples, state_names=["x1", "x2"])


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
        raise UnstableStep(
            f"dt={params.dt} exceeds 0.1/sqrt(max stiffness eigenvalue) = "
            f"{0.1 / np.sqrt(max_eig):.4g}"
        )
    nodes = params.node_count
    if params.x0 is not None:
        state0 = params.x0
    else:
        rng = np.random.Generator(np.random.Philox(key=np.uint64(params.seed)))
        state0 = np.concatenate([0.1 * rng.standard_normal(nodes), np.zeros(nodes)])

    def deriv(s: np.ndarray) -> np.ndarray:
        q, v = s[:nodes], s[nodes:]
        return np.concatenate([v, -K @ q - D @ v])

    steps = int(round(params.duration / params.dt))
    samples = _rk4(deriv, state0, steps, params.dt)
    times = np.arange(steps + 1) * params.dt
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
