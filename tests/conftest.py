import numpy as np
import pytest

from curveflow import catalog, cli, curvekit, flowsim
from curveflow.minkowski import inner_many
from callcount import package_calls  # noqa: F401 (the tests' call budgets count with it)


def catalog_curve(name, samples):
    """The CurveSpec of a ``catalog.CURVES`` entry at ``samples`` points."""
    entry = catalog.CURVES[name]
    return curvekit.CurveSpec.from_strings(
        entry["components"], entry["domain"], entry["topology"], samples
    )


def catalog_flow(name, dimension):
    """The FlowSpec of a ``catalog.FLOWS`` entry in ``dimension``, built by the
    scenario loader's own ``cli.build_flow``."""
    entry = catalog.FLOWS[name]
    flow = {"mode": entry["mode"], "speeds": entry["speeds"](dimension)}
    return cli.build_flow({"curve": {"components": ["0"] * dimension}, "flow": flow})


def make_curve(name, samples):
    return curvekit.sample(catalog_curve(name, samples))


def run_flow(curve_name, flow_name, samples, dt, steps, frame_vectors=None):
    curve = make_curve(curve_name, samples)
    flow = catalog_flow(flow_name, curve.n)
    state = flowsim.initial_state(curve, flow, frame_vectors)
    return flowsim.evolve(state, flow, dt, steps)


def random_explicit_flow(dimension, seed):
    """Deterministic 'random' smooth flow: low-order Fourier speeds in s
    with a slow time modulation.  Coefficients are rounded so the
    expression text (and therefore everything downstream) is reproducible.
    """
    rng = np.random.default_rng(seed)
    speeds = []
    for _ in range(dimension):
        a, b, c = (round(float(x), 3) for x in 0.3 * rng.standard_normal(3))
        speeds.append(f"{a}*sin(s) + {b}*cos(2*s) + {c}*cos(t)")
    return flowsim.FlowSpec.explicit(speeds)


def orthonormality_residual(fd):
    """max |<V_i, V_j> - e_{i-1} delta_ij| over samples and index pairs."""
    m = fd.num_vectors
    worst = 0.0
    for i in range(m):
        for j in range(i, m):
            g = inner_many(fd.frame[i], fd.frame[j])
            target = float(fd.signs[i]) if i == j else 0.0
            worst = max(worst, float(np.max(np.abs(g - target))))
    return worst


@pytest.fixture(scope="session")
def circle_256():
    return make_curve("circle", 256)


@pytest.fixture(scope="session")
def hyperbola_256():
    return make_curve("hyperbola", 256)


@pytest.fixture(scope="session")
def rigid_traj_short():
    """Rigid rotation of the circle, t in [0, 0.1]."""
    return run_flow("circle", "rigid_rotation", 256, 1e-3, 100)


@pytest.fixture(scope="session")
def shrink_traj():
    """Unit normal speed on the circle, t in [0, 0.1]."""
    return run_flow("circle", "normal_shrink", 256, 1e-3, 100)


@pytest.fixture(scope="session")
def sine_traj_short():
    """Synthesized inextensible sine flow on the circle, t in [0, 0.1]."""
    return run_flow("circle", "inextensible_sine", 256, 1e-3, 100)


@pytest.fixture(scope="session")
def helix_traj():
    """Inextensible twist of the timelike helix (short window)."""
    return run_flow("timelike_helix", "helix_twist", 128, 5e-4, 8)


@pytest.fixture(scope="session")
def zero_traj():
    return run_flow("circle", "zero", 128, 1e-3, 10)
