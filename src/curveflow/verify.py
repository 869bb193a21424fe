"""Residual checks for every evolution identity the flow machinery relies on.

Each check takes a Trajectory, measures one identity by finite differences
in time (second-order central, matching the spatial order), and returns a
VerificationReport with named residuals, per-name convergence orders once
multiple resolutions are merged, and a pass flag.

Every time derivative is a central difference over (t-1, t, t+1), so the
checks walk a sliding window of three states in O(N) working memory.
Frame vectors are gauge-sensitive: the orthogonalization can flip a
vector's sign between steps when the last curvature changes sign, so each
state's frame is aligned pointwise with the previous aligned frame as it
enters the window (flips are counted in the report details).

Frames and their time differences are (m, n, N) stacks with the sample
axis last (see ``curvekit``), so products and s-derivatives run along
contiguous rows.

Two per-state inputs are formed for a block of up to BLOCK_STATES
consecutive states by one set of numpy calls, not one set per state: the
s-derivatives of each speed's jet (one ``eval_jet`` on the stacked (b, N)
arclength grids with a (b, 1) column of times), and the inextensibility gap
df1/ds - e0 e1 f2 k1 (``_pointwise_violation``).  The window's walk forms
each block of jets as the block's first step begins; if the block raises
DomainError, its states are evaluated one at a time, so a broken trajectory
raises the error a walk of single states meets first.  At N=256 most of a
numpy call's cost is its fixed overhead of about a microsecond, so the
calls, not the arithmetic, are what a block saves.  The arithmetic is
elementwise and unchanged, so every output byte is.  A block holds b rows
per derivative, a few frames' worth for b = 8; the working memory stays a
small multiple of one frame and does not grow with the trajectory, and
larger blocks bought too little speed for their memory.

Two of the identities expand frame velocities in the frame itself.  In an
indefinite frame the expansion coefficient of V_k is e_{k-1} <X, V_k>, not
the bare projection, so every projection-based residual is measured twice:
once with the coefficients in the classical (positive-definite) convention
("classical" / "bare") and once with the metric-consistent coefficients
("metric").  Pass/fail gates on the metric reading; both are reported.
``VerificationReport.gated`` states that gate rule once: every residual
except the ``*_classical`` and ``*_bare`` readings is gated, and a check
passes when each gated residual is within its tolerance (the iff check
alone passes its equivalence instead).  ``_tol`` looks up the default
tolerances and owns the shape a tolerance must have.

The right-hand sides are pure functions of 1-based, zero-padded arrays:
row i of k, f and their s-derivatives holds k_i, f_i, ... (row 0 and every
row past the frame or the dimension read as zero, so k_m = 0), psi[k, j]
holds psi_kj with a zero border, and e[i] is the sign e_i of V_{i+1},
1.0 outside the frame (e[-1] reads that padding too).

Residual maxima run over interior samples: on open curves the one-sided
stencil closures (chained up to the third derivative) occupy a boundary
layer whose error is amplified and of lower order, so a fixed margin of
samples is excluded at each end.  Closed curves use every sample.  Each
window check declares its residual rows once (``_Rows``), one name per row
in report order, and at each step writes every row of one (R, N) buffer
with ``out=``; one ``np.abs`` and one ``np.maximum`` call fold the buffer's
interior samples into a running pointwise maximum, and a name's value is
the maximum over its rows, taken once at the end.  A maximum is exact, so
this is the number a reduction at every step gives; NaN propagates, so one
NaN sample makes its residual NaN, which is within no tolerance.  A reading
whose signs are all +1 equals another one exactly (x * 1.0 is x), so it
reuses that reading's rows: ``speed_evolution_classical`` when e0 = +1, and
``reconstruction_bare`` of V_j when every e_{i-1}, i not 1 or j, is +1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import exprjet
from .curvekit import d_ds, d_du, d_du4
from .errors import ConfigError, CurveFlowError, DomainError, InsufficientStates, NotInextensible
from .flowsim import Trajectory, arclength_drift, dv_dt_rhs
from .minkowski import dot_many, inner_many

RESIDUAL_FLOOR = 1e-12

DEFAULT_TOLERANCES: dict[str, float | dict] = {
    "speed_evolution": 1e-3,
    "iff_condition": {"pointwise": 1e-4, "drift": 1e-3},
    "psi_antisymmetry": 1e-5,
    "frame_evolution": 1e-3,
    "curvature_pde": 5e-3,
}

INEXTENSIBILITY_PRECONDITION_TOL = 1e-2

OPEN_BOUNDARY_MARGIN = 8

# States whose speed jets and inextensibility gaps are formed by one set of
# numpy calls (see the module docstring).
BLOCK_STATES = 8


def _interior(curve) -> slice:
    """Sample range for residual maxima: trims stencil-closure layers on
    open curves, keeps everything on closed ones."""
    if curve.closed:
        return slice(None)
    margin = min(OPEN_BOUNDARY_MARGIN, curve.samples // 8)
    return slice(margin, curve.samples - margin)


@dataclass
class VerificationReport:
    """Named residuals of one identity at one or more resolutions."""

    identity: str
    resolutions: list[tuple[int, float]]  # (samples, dt) per row
    residuals: list[dict[str, float]]  # aligned with resolutions
    tolerance: dict
    passed: bool
    details: dict = field(default_factory=dict)

    @property
    def gated(self) -> list[str]:
        """Residual names that decide pass/fail: all but the classical and bare readings."""
        return [name for name in self.residuals[-1] if not name.endswith(("_classical", "_bare"))]

    @property
    def orders(self) -> dict[str, float | None]:
        """Per residual, the mean log2 ratio between successive resolutions;
        None at one resolution, or once values sit at the numerical floor."""
        orders: dict[str, float | None] = {}
        for name in self.residuals[-1]:
            vals = [row.get(name) for row in self.residuals]
            if len(vals) < 2 or any(v is None or v <= RESIDUAL_FLOOR for v in vals):
                orders[name] = None
            else:
                orders[name] = float(np.mean([np.log2(a / b) for a, b in zip(vals, vals[1:])]))
        return orders

    def to_json_dict(self) -> dict:
        return {
            "identity": self.identity,
            "resolutions": [[int(n), float(dt)] for n, dt in self.resolutions],
            "residuals": [
                {k: float(v) for k, v in row.items()} for row in self.residuals
            ],
            "order": {k: (None if v is None else float(v)) for k, v in self.orders.items()},
            "pass": bool(self.passed),
            "tolerance": {k: float(v) for k, v in self.tolerance.items()},
            "gated": list(self.gated),
            "details": self.details,
        }


# --------------------------------------------------------------------------
# Sliding three-state window


class _Window:
    """Walks t = 1..T-2 over a trajectory, holding states t-1, t, t+1.

    Each state's frame is sign-aligned against the previous aligned frame
    as it enters, so at most three frames are held at a time; ``flips``
    counts the flipped vectors so far.  The walk forms the jets of
    f_2, f_3, ... to the derivative ``orders`` for each block of states
    as the block's first step begins; a block that raised DomainError
    runs its states one at a time.
    """

    def __init__(self, traj: Trajectory, orders: tuple[int, ...] = ()):
        if len(traj.states) < 3:
            raise InsufficientStates(f"need at least 3 states, trajectory has {len(traj.states)}")
        first = traj.states[0]
        self.traj = traj
        self.dt = traj.dt
        self.m = first.frenet.num_vectors
        self.n = first.curve.n
        self.N = first.curve.samples
        self.signs = first.frenet.signs
        self.sign_bytes = self.signs.tobytes()
        # padded signs (see the module docstring), as floats for scalar products
        self.e = [float(x) for x in self.signs] + [1.0] * (self.n + 3 - self.m)
        self.interior = _interior(first.curve)
        self.flips = 0
        self.orders = orders
        self.block = None  # ``_derivatives`` of the current block of states

    def walk(self):
        """Yield self at t = 1..T-2: ``prev``, ``state`` and ``next`` are the
        states at t-1, t, t+1, ``frames`` the aligned (m, n, N) frame at t
        and ``fdot`` its central time difference."""
        states = self.traj.states
        before = states[0].frenet.frame  # state 0 sets the signs and is never flipped
        frames = self._aligned(states[1], before)
        for t in range(1, len(states) - 1):
            after = self._aligned(states[t + 1], frames)
            if self.orders and (t - 1) % BLOCK_STATES == 0:
                self.block = None  # dropped before the next is formed
                try:
                    self.block = self._derivatives(states[t : min(t + BLOCK_STATES, len(states) - 1)])
                except DomainError:
                    pass  # ``fields`` evaluates this block's states one at a time
            self.step = t
            self.prev, self.state, self.next = states[t - 1 : t + 2]
            self.frames = frames
            self.fdot = (after - before) / (2.0 * self.dt)
            yield self
            before, frames = frames, after

    def _aligned(self, st, previous: np.ndarray) -> np.ndarray:
        """st's frame, flipped pointwise so e_{i-1} <V_i(t-1), V_i(t)> > 0."""
        if st.frenet.signs.tobytes() != self.sign_bytes:
            raise CurveFlowError("frame signature changed along the trajectory")
        frame = st.frenet.frame
        mask = inner_many(previous, frame) * self.signs[:, None] < 0  # (m, N)
        flips = int(np.count_nonzero(mask))
        if flips:
            # a copy: the state's own frame stays as evolved
            frame = np.negative(frame, out=frame.copy(), where=mask[:, None])
            self.flips += flips
        return frame

    def fields(self):
        """Padded k, f and s-derivatives of f at t: ``ds[j - 1]`` holds the
        j-th derivatives of f_2, f_3, ..., the state's row of the block."""
        st = self.state
        k, f, *ds = np.zeros((2 + max(self.orders, default=1), self.n + 3, self.N))
        k[1 : self.m] = st.frenet.curvatures
        f[1 : self.n + 1] = st.f_values
        if self.block is None:
            derivs, row = self._derivatives([st]), 0
        else:
            derivs, row = self.block, (self.step - 1) % BLOCK_STATES
        for i, d in derivs:
            for j in range(len(d)):
                ds[j][i] = d[j, row]
        return k, f, ds

    def _derivatives(self, block) -> list:
        """Pairs each speed index i >= 2 with the (order, states, N) stack
        of its s-derivatives 1..order on the block's states: one
        ``eval_jet`` per speed, on their stacked arclength grids with a
        column of their times.  A jet's rows broadcast into the stack, so a
        constant's one-wide zero rows fill it with +0.0."""
        s = np.stack([st.curve.s for st in block])
        env = {"t": np.array([[st.t] for st in block])}
        speeds = self.traj.flow.speeds
        derivs = []
        for i, order in enumerate(self.orders[: self.n - 1], start=2):
            jet = exprjet.eval_jet(speeds[i - 1], "s", s, order, env)
            d = np.empty((order,) + s.shape)
            for j in range(1, order + 1):
                jet.derivative(j, out=d[j - 1])
            derivs.append((i, d))
        return derivs

    def psi(self) -> np.ndarray:
        """(m, m, N) matrix of <fdot_j, V_k> at t, indexed [k, j]."""
        return inner_many(self.fdot[None], self.frames[:, None])


# --------------------------------------------------------------------------
# Right-hand sides (padded, 1-based arrays; see the module docstring)


def tangent_rate_coefficients(e, k, f, fs, m: int) -> np.ndarray:
    """c_i = f_{i-1} k_{i-1} + f_i' - e_{i-1} e_i f_{i+1} k_i for i = 2..m, in rows 0..m-2.

    dV_1/dt = sum_i c_i V_i, and the V_1 coefficient of dV_j/dt is
    -e_0 e_{j-1} c_j.  Since k_m = 0, the last index takes the same form.
    """
    ee = np.multiply(e[1:m], e[2 : m + 1])[:, None]
    return f[1:m] * k[1:m] + fs[2 : m + 1] - ee * f[3 : m + 2] * k[2 : m + 1]


def k1_rate(e, k, ks, f, fs, fss) -> np.ndarray:
    """Closed-form dk_1/dt = c_2' - e_1 e_2 k_2 c_3, with df_1/ds = e_0 e_1 f_2 k_1
    substituted; ks, fs and fss are the first s-derivatives of k and f and
    the second of f."""
    return (
        e[0] * e[1] * f[2] * k[1] ** 2
        + f[1] * ks[1]
        + fss[2]
        - 2.0 * e[1] * e[2] * fs[3] * k[2]
        - e[1] * e[2] * f[3] * ks[2]
        - e[1] * e[2] * f[2] * k[2] ** 2
        + e[1] * e[3] * f[4] * k[2] * k[3]
    )


def curvature_rates(e, k, psi, dpsi, m: int) -> tuple[list, list]:
    """The (metric, classical) psi-form readings of dk_i/dt, as lists over i = 1..m-1.

    metric:    e_i (psi_{i+1,i}' - psi_{i+2,i} k_{i+1}) - e_{i-2} e_{i-1} e_i k_{i-1} psi_{i-1,i+1}
    classical: psi_{i+1,i}' - e_i e_{i+1} psi_{i+2,i} k_{i+1} - k_{i-1} psi_{i-1,i+1},
    except that the last curvature is read from column m, as
    -e_{m-2} e_{m-1} (psi_{m-1,m}' + psi_{m-2,m} k_{m-2}).
    With every e_i = +1 the two readings coincide.
    """
    metric, classical = [], []
    for i in range(1, m):
        d, p, q = dpsi[i + 1, i], psi[i + 2, i], k[i - 1] * psi[i - 1, i + 1]
        metric.append(e[i] * (d - p * k[i + 1]) - e[i - 2] * e[i - 1] * e[i] * q)
        if i < m - 1:
            classical.append(d - e[i] * e[i + 1] * p * k[i + 1] - q)
    classical.append(-e[m - 2] * e[m - 1] * (dpsi[m - 1, m] + psi[m - 2, m] * k[m - 2]))
    return metric, classical


class _Rows:
    """The named residual rows of one window check (see the module docstring)."""

    def __init__(self):
        self.rows: dict[str, list[int]] = {}  # row indices per name, in report order
        self.count = 0

    def add(self, name: str, count: int = 1, same: int | None = None) -> int:
        """The first of ``count`` new rows read as ``name``, or ``same``, the
        first row of a reading it equals exactly, now read as ``name`` too.
        An int, since a (N,) row is a faster ``out=`` than a (1, N) slice."""
        if same is None:
            same, self.count = self.count, self.count + count
        self.rows.setdefault(name, []).extend(range(same, same + count))
        return same

    def peaks(self, window, fill) -> dict[str, float]:
        """max |row| per name over each step's interior; ``fill(w, buf)`` writes every row."""
        buf = np.empty((self.count, window.N))
        inner = buf[:, window.interior]
        peak = np.zeros(inner.shape)
        for w in window.walk():
            fill(w, buf)
            np.maximum(peak, np.abs(inner, out=inner), out=peak)
        per_row = np.max(peak, axis=1)
        return {name: float(np.max(per_row[rows])) for name, rows in self.rows.items()}


def _euclid_norm(X: np.ndarray, out: np.ndarray) -> np.ndarray:
    return np.sqrt(dot_many(X, X), out=out)


def _pointwise_violation(traj: Trajectory) -> float:
    """max |df1/ds - e0 e1 f2 k1|, with df1/ds from a fourth-order stencil.

    The sharper stencil keeps the measurement independent of how f1 was
    produced (quadrature or expression) without drowning it in the
    second-order noise of the everyday operator.  Up to BLOCK_STATES
    states are stacked as (b, N) rows and measured by one set of numpy
    calls; each block's gaps are reduced over its states before the
    running maximum.  The right-hand side is ``inextensibility_rhs`` with
    each state's own sign product.
    """
    first = traj.states[0].curve
    sl = _interior(first)
    peak = np.zeros(first.samples)[sl]
    for lo in range(0, len(traj.states), BLOCK_STATES):
        block = traj.states[lo : lo + BLOCK_STATES]
        f1 = np.stack([st.f_values[0] for st in block])
        gap = d_du4(f1, first.h, first.closed) / np.stack([st.curve.speeds for st in block])
        if block[0].frenet.num_vectors >= 2:
            e0e1 = np.array([[float(st.frenet.signs[0] * st.frenet.signs[1])] for st in block])
            f2 = np.stack([st.f_values[1] for st in block])
            gap -= e0e1 * f2 * np.stack([st.frenet.curvatures[0] for st in block])
        np.maximum(peak, np.max(np.abs(gap[:, sl]), axis=0), out=peak)
    return float(np.max(peak))


def _require_inextensible(traj: Trajectory) -> float:
    violation = _pointwise_violation(traj)
    if violation > INEXTENSIBILITY_PRECONDITION_TOL:
        raise NotInextensible(violation, INEXTENSIBILITY_PRECONDITION_TOL)
    return violation


def _tol(identity: str, tolerance):
    """The tolerance of a check: the caller's, else the default; a dict
    default is updated key by key.  A caller's tolerance has its default's
    shape, a number or an object with some of its keys, else ConfigError."""
    default = DEFAULT_TOLERANCES[identity]
    if isinstance(default, dict):
        if tolerance is None or (isinstance(tolerance, dict) and set(tolerance) <= set(default)):
            return {**default, **(tolerance or {})}
        shape = f"an object with keys from {sorted(default)}"
    elif tolerance is None or isinstance(tolerance, (int, float)):
        return default if tolerance is None else tolerance
    else:
        shape = "a number"
    raise ConfigError(f"must be {shape}", field=f"tolerances.{identity}")


def _report(identity, traj, residuals, tolerance, details, passed=None) -> VerificationReport:
    """One-resolution report.  Unless ``passed`` is given, the check passes
    when every gated residual (``VerificationReport.gated``) is within its
    tolerance.  A number tolerance applies to every residual."""
    tol = _tol(identity, tolerance)
    if not isinstance(tol, dict):
        tol = {name: tol for name in residuals}
    report = VerificationReport(
        identity=identity,
        resolutions=[(traj.states[0].curve.samples, traj.dt)],
        residuals=[residuals],
        tolerance=tol,
        passed=passed,
        details=details,
    )
    if passed is None:
        report.passed = all(residuals[name] <= tol[name] for name in report.gated)
    return report


# --------------------------------------------------------------------------
# Checks


def check_speed_evolution(traj: Trajectory, tolerance: float | None = None) -> VerificationReport:
    """Central time difference of the speed against its predicted rate.

    Gates on the metric-consistent right-hand side df1/du - e0 e1 f2 v k1;
    the classical variant e0 df1/du - e1 f2 v k1 (their ratio is e0, so
    the two coincide on spacelike curves) is recorded alongside.
    """
    window = _Window(traj)
    rows = _Rows()
    metric = rows.add("speed_evolution")
    classical = rows.add("speed_evolution_classical", same=metric if window.e[0] == 1.0 else None)

    def fill(w, buf):
        lhs = (w.next.curve.speeds - w.prev.curve.speeds) / (2.0 * w.dt)
        rhs = dv_dt_rhs(w.state)
        np.subtract(lhs, rhs, out=buf[metric])
        if classical != metric:
            np.subtract(lhs, w.e[0] * rhs, out=buf[classical])

    residuals = rows.peaks(window, fill)
    return _report("speed_evolution", traj, residuals, tolerance, {"frame_flips": window.flips})


def check_iff_condition(traj: Trajectory, tolerance: dict | None = None) -> VerificationReport:
    """Biconditional: pointwise constraint small <=> arclength drift small.

    Reports (a) the worst pointwise violation of df1/ds = e0 e1 f2 k1 and
    (b) the arclength drift, then asserts their equivalence against the
    thresholds.  Neither side alone decides the outcome.
    """
    tol = _tol("iff_condition", tolerance)
    if len(traj.states) < 2:
        raise InsufficientStates("iff check needs at least 2 states")
    a = _pointwise_violation(traj)
    b = arclength_drift(traj)
    a_small = a <= tol["pointwise"]
    b_small = b <= tol["drift"]
    details = {"pointwise_small": a_small, "drift_small": b_small, "equivalence": a_small == b_small}
    residuals = {"pointwise": a, "drift": b}
    return _report("iff_condition", traj, residuals, tolerance, details, passed=a_small == b_small)


def check_psi_antisymmetry(traj: Trajectory, tolerance: float | None = None) -> VerificationReport:
    """Psi_kj + Psi_jk = 0 and Psi_jj = 0 at every interior step."""
    window = _Window(traj)
    m = window.m
    rows = _Rows()
    pairs = rows.add("antisymmetry", m * m)
    diagonal = rows.add("diagonal", m)

    def fill(w, buf):
        psi = w.psi()
        np.add(psi, np.swapaxes(psi, 0, 1), out=buf[pairs:diagonal].reshape(psi.shape))
        buf[diagonal:] = np.diagonal(psi).T  # diagonal() is (N, m)

    residuals = rows.peaks(window, fill)
    return _report("psi_antisymmetry", traj, residuals, tolerance, {"frame_flips": window.flips})


def check_frame_evolution(traj: Trajectory, tolerance: float | None = None) -> VerificationReport:
    """Frame evolution under an inextensible flow.

    Residuals: the full tangent-vector equation; the predicted V1
    coefficient of each higher frame vector's velocity; and the
    reconstruction of those velocities from the psi coefficients, in both
    the metric-consistent and the bare-projection reading.
    """
    violation = _require_inextensible(traj)
    m = traj.states[0].frenet.num_vectors
    window = _Window(traj, (1,) * (m - 1))
    e = window.e
    others = {j: [i for i in range(2, m + 1) if i != j] for j in range(2, m + 1)}
    rows = _Rows()
    tangent_row = rows.add("tangent_equation")
    v1_rows = [rows.add("v1_coefficient_mid" if j < m else "v1_coefficient_last") for j in others]
    readings = []  # per j: (row, signed) of each distinct reading of dV_j/dt
    for j in others:
        metric = rows.add("reconstruction_metric")
        same = all(e[i - 1] == 1.0 for i in others[j])
        bare = rows.add("reconstruction_bare", same=metric if same else None)
        readings.append([(metric, True)] if same else [(metric, True), (bare, False)])

    def fill(w, buf):
        fdot, V = w.fdot, w.frames
        k, f, (fs,) = w.fields()
        c = tangent_rate_coefficients(e, k, f, fs, m)
        tangent = sum(ci * Vi for ci, Vi in zip(c, V[1:]))
        _euclid_norm(fdot[0] - tangent, out=buf[tangent_row])

        psi = w.psi()
        # V1 coefficient of dV_j/dt for j = 2..m, then dV_j/dt rebuilt from it and psi
        targets = [-e[0] * e[j - 1] * c[j - 2] for j in others]
        for j, target, row in zip(others, targets, v1_rows):
            np.subtract(e[0] * psi[0, j - 1], target, out=buf[row])
        for j, target, distinct in zip(others, targets, readings):
            for row, signed in distinct:  # coefficients e_{i-1} psi_ij (metric) or psi_ij (bare)
                recon = target * V[0]
                for i in others[j]:
                    p = psi[i - 1, j - 1]
                    recon += (e[i - 1] * p if signed else p) * V[i - 1]
                _euclid_norm(fdot[j - 1] - recon, out=buf[row])

    residuals = rows.peaks(window, fill)
    details = {"frame_flips": window.flips, "inextensibility_violation": violation}
    return _report("frame_evolution", traj, residuals, tolerance, details)


def check_curvature_pde(traj: Trajectory, tolerance: float | None = None) -> VerificationReport:
    """Time evolution of the curvatures under an inextensible flow.

    The first curvature is checked against its closed-form right-hand side
    in the speeds (jet-exact f derivatives, stencil k derivatives); every
    curvature is additionally checked against its psi-based equation, in
    both the classical-convention ("classical") and the metric-consistent reading.
    Equations whose coefficient curvatures vanish identically are flagged
    as degenerate in the details but still measured.
    """
    violation = _require_inextensible(traj)
    window = _Window(traj, (2, 1))
    m, e = window.m, window.e
    if m < 2:
        raise CurveFlowError("curvature check needs at least two frame vectors")
    psi = np.zeros((m + 2, m + 2, window.N))  # zero-padded, like k and f
    dpsi = np.zeros_like(psi)
    psi_core, dpsi_core = psi[1:-1, 1:-1], dpsi[1:-1, 1:-1]
    rows = _Rows()  # k1_rate_max and k1_flow_rhs_max go to the details, not residuals
    flow_form, rate_max, rhs_max = map(rows.add, ("k1_flow_form", "k1_rate_max", "k1_flow_rhs_max"))
    psi_rows = [(rows.add(f"k{i}_psi_metric"), rows.add(f"k{i}_psi_classical")) for i in range(1, m)]

    def fill(w, buf):
        c = w.state.curve
        kdot = (w.next.frenet.curvatures - w.prev.frenet.curvatures) / (2.0 * w.dt)
        k, f, (fs, fss) = w.fields()
        ks = d_ds(k[:3], c)  # k1_rate reads only k_1' and k_2'
        rhs_a = k1_rate(e, k, ks, f, fs, fss)
        np.subtract(kdot[0], rhs_a, out=buf[flow_form])
        buf[rate_max] = kdot[0]
        buf[rhs_max] = rhs_a

        psi_core[...] = p = w.psi()
        # d_ds(p) divided into the padded view: the same differences, then / speeds
        np.divide(d_du(p, c.h, c.closed), c.speeds, out=dpsi_core)
        metric, classical = curvature_rates(e, k, psi, dpsi, m)
        for rate, a, b, (metric_row, classical_row) in zip(kdot, metric, classical, psi_rows):
            np.subtract(rate, a, out=buf[metric_row])
            np.subtract(rate, b, out=buf[classical_row])

    residuals = rows.peaks(window, fill)
    k_peak = np.zeros(m - 1)  # peak |k_j| over every state, both end states included
    for st in traj.states:
        k_peak = np.maximum(k_peak, np.max(np.abs(st.frenet.curvatures), axis=1))
    degenerate = [
        f"k{i}"
        for i in range(1, m)
        if any(k_peak[j - 1] < 1e-10 for j in (i - 1, i + 1) if 1 <= j <= m - 1)
    ]
    details = {
        "frame_flips": window.flips,
        "inextensibility_violation": violation,
        "degenerate_equations": degenerate,
        "k1_rate_max": residuals.pop("k1_rate_max"),
        "k1_flow_rhs_max": residuals.pop("k1_flow_rhs_max"),
    }
    return _report("curvature_pde", traj, residuals, tolerance, details)


CHECKS = {
    "speed_evolution": check_speed_evolution,
    "iff_condition": check_iff_condition,
    "psi_antisymmetry": check_psi_antisymmetry,
    "frame_evolution": check_frame_evolution,
    "curvature_pde": check_curvature_pde,
}


def run_check(name: str, traj: Trajectory, tolerance=None) -> VerificationReport:
    if name not in CHECKS:
        raise KeyError(f"unknown identity {name!r}; known: {sorted(CHECKS)}")
    return CHECKS[name](traj, tolerance)


def merge_reports(reports: list[VerificationReport]) -> VerificationReport:
    """Combine same-identity reports at increasing resolution, whose orders
    (``VerificationReport.orders``) fit every resolution.  The merged pass
    flag, tolerance and details are the finest resolution's."""
    if not reports:
        raise ValueError("no reports to merge")
    identity = reports[0].identity
    if any(r.identity != identity for r in reports):
        raise ValueError("reports describe different identities")
    finest = reports[-1]
    return VerificationReport(
        identity=identity,
        resolutions=[res for r in reports for res in r.resolutions],
        residuals=[row for r in reports for row in r.residuals],
        tolerance=finest.tolerance,
        passed=finest.passed,
        details=finest.details,
    )
