import numpy as np
import pytest

from dmduq.errors import ConfigError
from dmduq.systems import (
    OscillatorNetworkParams,
    SpringMassParams,
    network_energy,
    random_network_params,
    simulate_oscillator_network,
    simulate_spring_mass,
    spring_mass_energy,
)


def analytic_spring_mass(params: SpringMassParams, times: np.ndarray) -> np.ndarray:
    w = params.angular_frequency
    eq = params.equilibrium
    c = params.x0[0] - eq
    s = params.x0[1] / w
    x1 = eq + c * np.cos(w * times) + s * np.sin(w * times)
    x2 = -c * w * np.sin(w * times) + s * w * np.cos(w * times)
    return np.vstack([x1, x2])


def stagewise_rk4(derivative, state: np.ndarray, steps: int, dt: float) -> np.ndarray:
    """Classic RK4 evaluated stage by stage: the reference for the propagator."""
    out = np.empty((len(state), steps + 1))
    out[:, 0] = y = np.asarray(state, dtype=float)
    for i in range(steps):
        k1 = derivative(y)
        k2 = derivative(y + 0.5 * dt * k1)
        k3 = derivative(y + 0.5 * dt * k2)
        k4 = derivative(y + dt * k3)
        out[:, i + 1] = y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return out


def relative_error(actual: np.ndarray, expected: np.ndarray) -> float:
    return float(np.abs(actual - expected).max() / np.abs(expected).max())


def zero_crossings(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    idx = np.flatnonzero(np.signbit(values[:-1]) != np.signbit(values[1:]))
    t0, t1 = times[idx], times[idx + 1]
    v0, v1 = values[idx], values[idx + 1]
    return t0 - v0 * (t1 - t0) / (v1 - v0)


class TestSpringMass:
    def test_equilibrium_fixed_point(self):
        params = SpringMassParams(x0=(-5.0 * 9.81 / 20.0, 0.0))
        traj = simulate_spring_mass(params)
        drift = np.abs(traj.samples - traj.samples[:, :1]).max()
        assert drift <= 1e-9

    def test_half_period_zero_crossings(self):
        params = SpringMassParams()
        traj = simulate_spring_mass(params)
        crossings = zero_crossings(traj.times, traj.samples[0] - params.equilibrium)
        spacing = np.diff(crossings)
        assert np.abs(spacing - np.pi / 2.0).max() <= 1e-3

    def test_energy_drift(self):
        params = SpringMassParams()
        traj = simulate_spring_mass(params)
        energy = spring_mass_energy(params, traj)
        assert np.abs(energy - energy[0]).max() / energy[0] <= 1e-6

    def test_rk4_order(self):
        # Halving dt should cut the max error against the analytic solution
        # by roughly 2^4.
        errors = []
        for dt in (0.04, 0.02):
            params = SpringMassParams(duration=10.0, dt=dt)
            traj = simulate_spring_mass(params)
            exact = analytic_spring_mass(params, traj.times)
            errors.append(np.abs(traj.samples - exact).max())
        ratio = errors[0] / errors[1]
        assert 12.0 <= ratio <= 20.0

    def test_propagator_matches_stagewise_rk4(self):
        # Off equilibrium with gravity on: the affine term rides in the third state.
        params = SpringMassParams(x0=(0.3, -0.2), duration=20.0, dt=0.01)
        ratio, g = params.stiffness / params.mass, params.gravity
        traj = simulate_spring_mass(params)
        expected = stagewise_rk4(lambda s: np.array([s[1], -ratio * s[0] - g]),
                                 np.array(params.x0), 2000, params.dt)
        assert relative_error(traj.samples, expected) <= 1e-12

    def test_row_count_default(self):
        traj = simulate_spring_mass(SpringMassParams())
        assert traj.samples.shape == (2, 4001)

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            SpringMassParams(dt=0.0)

    @pytest.mark.parametrize("field", ["mass", "stiffness", "gravity", "duration", "dt"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_field_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be finite$"):
            SpringMassParams(**{field: value})

    @pytest.mark.parametrize("x0", [(np.nan, 0.0), (0.0, np.inf)])
    def test_non_finite_x0_rejected(self, x0):
        with pytest.raises(ConfigError, match="^x0 must be finite$"):
            SpringMassParams(x0=x0)

    @pytest.mark.parametrize("params", [{"dt": 1e-320}, {"duration": 1e12}])
    def test_table_size_bounded(self, params):
        # Finite, but duration / dt overflows int() or asks np.empty for petabytes.
        with pytest.raises(ConfigError, match=r"^duration .* / dt .* asks for 3 x "):
            simulate_spring_mass(SpringMassParams(**params))


class TestOscillatorNetwork:
    def test_single_node_reduces_to_oscillator(self):
        k = 4.0
        params = OscillatorNetworkParams(
            node_count=1,
            coupling=np.array([[k]]),
            damping=np.array([0.0]),
            x0=np.array([1.0, 0.0]),
            duration=10.0,
            dt=0.005,
        )
        traj = simulate_oscillator_network(params)
        exact = np.cos(np.sqrt(k) * traj.times)
        assert np.abs(traj.samples[0] - exact).max() <= 1e-6

    def test_symmetric_pair_stays_symmetric(self):
        params = OscillatorNetworkParams(
            node_count=2,
            coupling=np.array([[1.0, 0.5], [0.5, 1.0]]),
            damping=np.array([0.1, 0.1]),
            x0=np.array([0.3, 0.3, 0.0, 0.0]),
            duration=20.0,
            dt=0.01,
        )
        traj = simulate_oscillator_network(params)
        assert np.abs(traj.samples[0] - traj.samples[1]).max() <= 1e-10

    def test_desk_scale_shape(self):
        params = random_network_params(node_count=17, seed=1, duration=120.0, dt=0.01)
        traj = simulate_oscillator_network(params)
        assert traj.samples.shape == (34, 12001)

    def test_energy_drift_zero_damping(self):
        params = random_network_params(node_count=4, seed=2, duration=40.0, dt=0.01)
        traj = simulate_oscillator_network(params)
        energy = network_energy(params, traj)
        assert np.abs(energy - energy[0]).max() / energy[0] <= 1e-6

    def test_propagator_matches_stagewise_rk4(self):
        params = random_network_params(node_count=4, seed=3, duration=40.0, damping=0.1)
        K, D = params.stiffness_matrix(), np.diag(params.damping)
        traj = simulate_oscillator_network(params)

        def derivative(s):
            return np.concatenate([s[4:], -K @ s[:4] - D @ s[4:]])

        expected = stagewise_rk4(derivative, traj.samples[:, 0], 4000, params.dt)
        assert relative_error(traj.samples, expected) <= 1e-12

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_range(self, seed):
        # Checked on the dataclass, not only in random_network_params: the
        # simulator keys its initial-state draw with it.
        with pytest.raises(ConfigError, match="64 unsigned bits"):
            OscillatorNetworkParams(node_count=1, coupling=np.array([[1.0]]),
                                    damping=np.zeros(1), seed=seed)

    def test_unstable_step_rejected(self):
        params = OscillatorNetworkParams(
            node_count=1,
            coupling=np.array([[100.0]]),
            damping=np.array([0.0]),
            x0=np.array([1.0, 0.0]),
            duration=1.0,
            dt=0.05,
        )
        with pytest.raises(ConfigError, match=r"dt=0.05 exceeds 0.1/sqrt\(max stiffness"):
            simulate_oscillator_network(params)

    @pytest.mark.parametrize("field", ["coupling", "damping", "x0", "duration", "dt"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_field_rejected(self, field, value):
        params = {"coupling": np.eye(2), "damping": np.zeros(2), "x0": np.zeros(4),
                  "duration": 1.0, "dt": 0.01}
        bad = np.array(params[field], dtype=float)
        bad.flat[-1] = value  # one entry is enough
        with pytest.raises(ConfigError, match=f"^{field} must be finite$"):
            OscillatorNetworkParams(node_count=2, **{**params, field: bad})

    def test_table_size_bounded(self):
        params = random_network_params(32, duration=1e6, dt=0.01)
        with pytest.raises(ConfigError, match=r"asks for 64 x 1e\+08 simulated values"):
            simulate_oscillator_network(params)

    def test_asymmetric_coupling_rejected(self):
        with pytest.raises(ConfigError):
            OscillatorNetworkParams(
                node_count=2,
                coupling=np.array([[1.0, 0.2], [0.3, 1.0]]),
                damping=np.zeros(2),
            )

    def test_seeded_generation_deterministic(self):
        a = simulate_oscillator_network(random_network_params(3, seed=5, duration=1.0))
        b = simulate_oscillator_network(random_network_params(3, seed=5, duration=1.0))
        assert np.array_equal(a.samples, b.samples)
