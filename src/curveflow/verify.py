"""Residual checks for every evolution identity the flow machinery relies on.

Each check takes a Trajectory, measures one identity with the central
time difference over (t-1, t, t+1) (``_Window.central``, second order as in
space), and returns a VerificationReport with named residuals, per-name
convergence orders once multiple resolutions are merged, and a pass flag.
The checks walk a sliding window of three states in O(N) working memory.
Frame vectors are gauge-sensitive: the orthogonalization can flip a
vector's sign between steps when the last curvature changes sign, so each
state's frame is aligned pointwise with the previous aligned frame as it
enters the window (flips are counted in the report details).  Frames and
their time differences are (m, n, N) stacks, sample axis last.

At N=256 most of a numpy call's cost is its fixed overhead of about a
microsecond, so the walk goes in blocks of up to BLOCK_STATES states.  Per
state runs only what is sequential or frame-sized: fdot at t, formed at a
check's first read, and the psi entries (``psi_at``) or frame terms formed
from them, written into the state's slot of state-first block buffers.  Per
block run the frames' flip tests (``_Window._keeps_frames``); the speed
jets, one ``eval_jet`` per speed on the (b, N) arclength grids with a (b, 1)
column of times; the inextensibility gap and ``speed_evolution``'s rows, by
flowsim's rules on stacked (b, N) rows; the fold into maxima (``_Rows``); and
``curvature_pde``'s row arithmetic once the block's last state is in:
kdot, the stencil slopes of k and psi, and the right-hand sides, run
unedited on lists of such rows (``_Window.rows``).  A block whose flip test
or jets fail is walked a state at a time, so every flip and error comes at
the step a walk of single states meets it.  The flip tests and the rules
run per state too once a block's stacked rows would pass STACK_SAMPLES
(``_stacks_rows``, N > 512): there the copies cost more than the calls
they save.
Buffers are made once per check, and a partial last block uses a prefix of
them; the k and f rows are stacked per block, so they hold no memory while
the next block's jets are formed.  Every element keeps its arithmetic and
its order, so every output byte stays; the working memory is a few tens of
frames at any length.

Two identities expand frame velocities in the frame itself.  In an
indefinite frame the expansion coefficient of V_k is e_{k-1} <X, V_k>, not
the bare projection, so each projection-based residual is measured with
the classical (positive-definite) coefficients ("classical" / "bare") and
with the metric-consistent ones ("metric").  ``VerificationReport.gated``
states the gate rule once: every residual but the ``*_classical`` and
``*_bare`` readings is gated, and a check passes when each gated residual
is within its tolerance (the iff check alone passes its equivalence
instead).  ``_tol`` owns the default tolerances and a tolerance's shape.

The right-hand sides are pure functions of 1-based, zero-padded rows:
row i of k, f and their s-derivatives holds k_i, f_i, ... (row 0 and every
row past the frame or the dimension read as zero, so k_m = 0), psi[k, j]
holds psi_kj with a zero border, and e[i] is the sign e_i of V_{i+1},
1.0 outside the frame (e[-1] reads that padding too).  A row is one
state's (N,) samples or a block's (b, N).  ``k1_rate`` and
``curvature_rates`` index single rows, so they take lists of rows too,
and psi and its slopes as mappings keyed [k, j].

Every reported maximum, of a residual row, the inextensibility gap or a
curvature, follows one reduction rule, stated at ``_Rows``.  A reading
whose signs are all +1 equals another one exactly (x * 1.0 is x), so it
reuses that reading's rows: ``speed_evolution_classical`` when e0 = +1, and
``reconstruction_bare`` of V_j when every e_{i-1}, i not 1 or j, is +1.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from . import exprjet
from .curvekit import d_du, d_du4
from .errors import ConfigError, CurveFlowError, DomainError, InsufficientStates, NotInextensible
from .flowsim import (
    Trajectory,
    arclength_drift,
    dv_dt_rhs,
    inextensibility_rhs,
    k1_terms,
    speed_rate,
    stacked_k1_terms,
)
from .minkowski import dot_many, inner_many, row_sum

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

BLOCK_STATES = 8  # states whose jets, gaps and residual rows one set of calls forms
# most samples a block's stacked rows hold, N = 512: from N = 1024 on some checks ran slower stacked
STACK_SAMPLES = 2**12


def _interior(curve) -> slice:
    """Sample range for residual maxima.  On open curves the one-sided
    stencil closures (chained up to the third derivative) occupy a boundary
    layer whose error is amplified and of lower order, so a fixed margin is
    trimmed at each end; closed curves keep every sample."""
    if curve.closed:
        return slice(None)
    margin = min(OPEN_BOUNDARY_MARGIN, curve.samples // 8)
    return slice(margin, curve.samples - margin)


def _stacks_rows(samples: int) -> bool:
    """Whether the flip tests and the gap and speed rules run on a block's
    stacked (b, N) rows, not per state: while those hold at most
    STACK_SAMPLES.  Blocks of one state, the tests' reference, never do."""
    return 1 < BLOCK_STATES and BLOCK_STATES * samples <= STACK_SAMPLES


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
            "residuals": [{k: float(v) for k, v in row.items()} for row in self.residuals],
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
    counts the flipped vectors so far.  The steps come in blocks of up to
    BLOCK_STATES states: ``slot`` is a step's index in its block and
    ``size`` the block's state count.  The jets of f_2, f_3, ... are taken
    to the derivative ``orders``; ``fields`` gives them with k and f at one
    state, ``rows`` at every state of a block.
    """

    def __init__(self, traj: Trajectory, orders: tuple[int, ...] = ()):
        if len(traj.states) < 3:
            raise InsufficientStates(f"need at least 3 states, trajectory has {len(traj.states)}")
        first = traj.states[0]
        self.traj, self.dt, self.orders = traj, traj.dt, orders
        self.m, self.n, self.N = m, n, N = first.frenet.num_vectors, first.curve.n, first.curve.samples
        signs = first.frenet.signs
        self.sign_bytes = signs.tobytes()
        self.sign_column = signs[:, None].astype(float)  # no int cast per product
        # padded signs (see the module docstring), as floats for scalar products
        self.e = [float(x) for x in signs] + [1.0] * (n + 3 - m)
        self.interior = _interior(first.curve)
        self.flips = 0
        # kept across steps, rows nothing writes stay +0.0; jets[j - 1, r, i - 2]: d^j f_i/ds^j at
        # the block's state r
        self.jets = np.zeros((max(orders, default=0), BLOCK_STATES, n - 1, N))
        self.grids = np.empty((BLOCK_STATES, N))
        self._fdot, self._padded = np.empty((m, n, N)), None
        self.blocked = False

    def walk(self):
        """Yield self at t = 1..T-2: ``prev``, ``state`` and ``next`` are the
        states at t-1, t, t+1 and ``frames`` the aligned (m, n, N) frame at t."""
        states = self.traj.states
        before = states[0].frenet.frame  # state 0 sets the signs and is never flipped
        frames = self._aligned(states[1], before)
        stacked = _stacks_rows(self.N)
        for t in range(1, len(states) - 1):
            self.slot = (t - 1) % BLOCK_STATES
            if self.slot == 0:
                self.size = min(BLOCK_STATES, len(states) - 1 - t)
                # the state at t, then the states the block aligns; the chain enters
                # the block unflipped when the frame at t is the state's own
                block = states[t : t + self.size + 1]
                kept = stacked and frames is block[0].frenet.frame and self._keeps_frames(block)
            after = states[t + 1].frenet.frame if kept else self._aligned(states[t + 1], frames)
            if self.slot == 0 and self.orders:
                try:
                    self._derivatives(states[t : t + self.size], 0)
                    self.blocked = True
                except DomainError:
                    self.blocked = False  # this block's states are evaluated one at a time
            if self.orders and not self.blocked:
                self._derivatives(states[t : t + 1], self.slot)
            self.step = t
            self.prev, self.state, self.next = states[t - 1 : t + 2]
            self.frames, self._before, self._after, self._fdot_formed = frames, before, after, False
            yield self
            before, frames = frames, after

    def _keeps_frames(self, block) -> bool:
        """Whether the states of ``block`` after the first keep their own
        frames when the first does: no signature changes, and ``_aligned``'s
        test against each state's own predecessor, its aligned frame then,
        finds no flip."""
        if any(st.frenet.signs.tobytes() != self.sign_bytes for st in block[1:]):
            return False
        # (b, m, n, N) products, component-first in memory: numpy iterates
        # row_sum's contiguous slabs with no buffer of their size
        products = np.empty((self.n, len(block) - 1, self.m, self.N)).transpose(1, 2, 0, 3)
        for j in range(len(block) - 1):
            np.multiply(block[j].frenet.frame, block[j + 1].frenet.frame, out=products[j])
        dots = row_sum(products, negate_first=True)  # inner_many of each pair, bit for bit
        del products  # freed before the test's buffers are taken
        return not np.less(np.multiply(dots, self.sign_column, out=dots), 0.0).any()

    def _aligned(self, st, previous: np.ndarray) -> np.ndarray:
        """st's frame, flipped pointwise so e_{i-1} <V_i(t-1), V_i(t)> > 0."""
        if st.frenet.signs.tobytes() != self.sign_bytes:
            raise CurveFlowError("frame signature changed along the trajectory")
        frame = st.frenet.frame
        mask = inner_many(previous, frame) * self.sign_column < 0  # (m, N)
        flips = int(np.count_nonzero(mask))
        if flips:
            # a copy: the state's own frame stays as evolved
            frame = np.negative(frame, out=frame.copy(), where=mask[:, None])
            self.flips += flips
        return frame

    def central(self, after, before, out=None) -> np.ndarray:
        """The central time difference (after - before) / (2 dt), into ``out``."""
        out = np.subtract(after, before, out=out)
        return np.divide(out, 2.0 * self.dt, out=out)

    @property
    def fdot(self) -> np.ndarray:
        """The (m, n, N) central time difference of ``frames``, formed at the
        step's first read into a buffer that the next step overwrites."""
        if not self._fdot_formed:
            self.central(self._after, self._before, out=self._fdot)
            self._fdot_formed = True
        return self._fdot

    def _derivatives(self, block, slot: int) -> None:
        """Writes the s-derivatives of f_2, f_3, ... on the block's states into
        ``jets`` from ``slot`` on: one ``eval_jet`` per speed, on their
        arclength grids as rows with a column of their times.  A constant's
        zero rows broadcast."""
        s = self.grids[: len(block)]
        for row, st in enumerate(block):
            s[row] = st.curve.s
        env = {"t": np.array([[st.t] for st in block])}
        speeds = self.traj.flow.speeds
        for i, order in enumerate(self.orders[: self.n - 1], start=2):
            jet = exprjet.eval_jet(speeds[i - 1], "s", s, order, env)
            for j in range(1, order + 1):
                jet.derivative(j, out=self.jets[j - 1, slot : slot + len(block), i - 2])

    def fields(self):
        """Padded k, f and s-derivatives of f at t: ``ds[j - 1]`` holds the
        j-th derivatives of f_2, f_3, ...  Views of one buffer, which the
        next call overwrites."""
        if self._padded is None:
            self._padded = np.zeros((2 + max(self.orders, default=1), self.n + 3, self.N))
        st, (k, f, *ds) = self.state, self._padded
        k[1 : self.m] = st.frenet.curvatures
        f[1 : self.n + 1] = st.f_values
        for d, jets in zip(ds, self.jets):
            d[2 : self.n + 1] = jets[self.slot]
        return k, f, ds

    def rows(self):
        """At the block's last step: its k, f and s-derivatives of f as
        ``fields`` gives them, but as lists of (size, N) rows over its states,
        every padding row one read-only zero row; and the (size + 2, m - 1,
        N) curvatures of its states and of the states before and after it.
        The curvatures and f are stacked anew for each block, so they take
        no memory while the next block's jets are formed."""
        b, m, n = self.size, self.m, self.n
        states = self.traj.states[self.step - b : self.step + 2]
        curvatures = np.stack([st.frenet.curvatures for st in states])
        f_values = np.stack([st.f_values for st in states[1:-1]])
        zero = np.broadcast_to(0.0, (b, self.N))
        k = [zero, *curvatures[1:-1].transpose(1, 0, 2)] + [zero] * (n + 3 - m)
        f = [zero, *f_values.transpose(1, 0, 2), zero, zero]
        ds = [[zero, zero, *jets[:b].transpose(1, 0, 2), zero, zero] for jets in self.jets]
        return k, f, ds, curvatures

    def psi(self) -> np.ndarray:
        """(m, m, N) matrix of <fdot_j, V_k> at t, indexed [k, j]."""
        return inner_many(self.fdot[None], self.frames[:, None])

    def psi_at(self, rows, cols) -> np.ndarray:
        """The entries [rows[p], cols[p]] of ``psi()`` alone, as (p, N) rows."""
        return inner_many(self.fdot.take(cols, axis=0), self.frames.take(rows, axis=0))


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
    """The named rows of one measurement and the one rule for its maxima.

    Rows are declared once (``add``), one name per row in report order.
    ``fold`` takes a block of states' (b, R, N) rows: one ``np.abs`` over
    the given samples, one ``np.maximum.reduce`` over the states and one
    ``np.maximum`` into a running pointwise maximum, whatever R is.
    ``maxima`` takes each name's maximum over its rows once, at the end.
    A maximum is exact, so this is the number a reduction at every step
    gives; NaN propagates, so one NaN sample makes its name's maximum NaN,
    which is within no tolerance and below no threshold.
    """

    def __init__(self):
        self.rows: dict[str, list[int]] = {}  # row indices per name, in report order
        self.count = 0
        self.peak = None  # the running (R, samples) maximum

    def add(self, name: str, count: int = 1, same: int | None = None) -> int:
        """The first of ``count`` new rows read as ``name``, or ``same``, the
        first row of a reading it equals exactly, now read as ``name`` too.
        An int, since a (N,) row is a faster ``out=`` than a (1, N) slice."""
        if same is None:
            same, self.count = self.count, self.count + count
        self.rows.setdefault(name, []).extend(range(same, same + count))
        return same

    def fold(self, block: np.ndarray, samples: slice) -> None:
        """Folds ``samples`` of the rows in; they are left holding |row|."""
        inner = np.abs(block[:, :, samples], out=block[:, :, samples])
        if self.peak is None:
            self.peak, self._block_peak = np.zeros((2,) + inner.shape[1:])
        np.maximum(self.peak, np.maximum.reduce(inner, axis=0, out=self._block_peak), out=self.peak)

    def maxima(self) -> dict[str, float]:
        per_row = np.max(self.peak, axis=1)
        return {name: float(np.max(per_row[rows])) for name, rows in self.rows.items()}

    def peaks(self, window, fill, block=None) -> dict[str, float]:
        """``maxima`` of one walk, over each step's interior.  ``fill(w, rows)``,
        unless None, runs at every step with the state's (R, N) slot of a
        block buffer, and writes every row of it unless ``block(w, rows)``,
        called at a block's last step with the block's (size, R, N) rows,
        writes them."""
        buf, self.peak = np.empty((BLOCK_STATES, self.count, window.N)), None
        for w in window.walk():
            if fill is not None:
                fill(w, buf[w.slot])
            if w.slot == w.size - 1:
                rows = buf[: w.size]
                if block is not None:
                    block(w, rows)
                self.fold(rows, window.interior)
        return self.maxima()


def _pointwise_violation(traj: Trajectory) -> float:
    """max |df1/ds - e0 e1 f2 k1| (``inextensibility_rhs``) over each state's
    interior, with df1/ds from a fourth-order stencil: sharp enough to keep
    the measurement independent of how f1 was produced (quadrature or
    expression) without drowning it in the everyday operator's second-order
    noise.  A block of states is stacked into (b, N) rows and measured by
    one set of numpy calls; the right-hand side is formed on those rows
    while ``_stacks_rows``, else per state, each by the state's own signs."""
    first = traj.states[0].curve
    stacked = _stacks_rows(first.samples)
    rows = _Rows()
    rows.add("pointwise")
    for lo in range(0, len(traj.states), BLOCK_STATES):
        block = traj.states[lo : lo + BLOCK_STATES]
        f1 = np.array([st.f_values[0] for st in block])
        gap = d_du4(f1, first.h, first.closed) / np.array([st.curve.speeds for st in block])
        if stacked:
            gap -= inextensibility_rhs(*_rule_rows(block))
        else:
            for row, st in enumerate(block):
                e0e1, k1 = k1_terms(st.frenet)
                gap[row] -= inextensibility_rhs(e0e1, st.f_values[1], k1)
        rows.fold(gap[:, None], _interior(first))
    return rows.maxima()["pointwise"]


def _rule_rows(states) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The e0 e1, f_2 and k_1 arguments of flowsim's rules for a list of
    states, stacked: each state's own e0 e1 and (b, N) rows."""
    e0e1, k1 = stacked_k1_terms([st.frenet for st in states])
    return e0e1, np.array([st.f_values[1] for st in states]), k1


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
    resolutions = [(traj.states[0].curve.samples, traj.dt)]
    report = VerificationReport(identity, resolutions, [residuals], tol, passed, details)
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
    e = window.e
    rows = _Rows()
    metric = rows.add("speed_evolution")
    classical = rows.add("speed_evolution_classical", same=metric if e[0] == 1.0 else None)

    def write(buf, lhs, rhs):
        """The rows into buf (..., R, N), from one state's (N,) rows or a block's (b, N)."""
        np.subtract(lhs, rhs, out=buf[..., metric, :])
        if classical != metric:
            np.subtract(lhs, e[0] * rhs, out=buf[..., classical, :])

    def block(w, buf):
        # the block's states with the states before and after it
        states = traj.states[w.step - w.size : w.step + 2]
        v, f1_s = np.array([st.curve.speeds for st in states]), np.array([st.f1_s for st in states[1:-1]])
        write(buf, w.central(v[2:], v[:-2]), speed_rate(v[1:-1], f1_s, *_rule_rows(states[1:-1])))

    def fill(w, buf):  # a state's own rows, with no copy
        write(buf, w.central(w.next.curve.speeds, w.prev.curve.speeds), dv_dt_rhs(w.state))

    residuals = rows.peaks(window, None, block) if _stacks_rows(window.N) else rows.peaks(window, fill)
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
        np.add(psi, psi.swapaxes(0, 1), out=buf[pairs:diagonal].reshape(psi.shape))
        buf[diagonal:] = psi.diagonal().T  # diagonal() is (N, m)

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
    e, n, N = window.e, window.n, window.N
    others = {j: [i for i in range(2, m + 1) if i != j] for j in range(2, m + 1)}
    rows = _Rows()
    tangent_row = rows.add("tangent_equation")
    v1 = rows.count  # the v1 rows, one per j, then the readings' rows
    for j in others:
        rows.add("v1_coefficient_mid" if j < m else "v1_coefficient_last")
    readings = []  # (j, signs of psi_ij, i in others[j]) of each distinct reading of dV_j/dt
    for j in others:
        metric = rows.add("reconstruction_metric")
        signs, bare = [e[i - 1] for i in others[j]], [1.0] * (m - 2)  # e_{i-1} psi_ij or psi_ij
        rows.add("reconstruction_bare", same=metric if signs == bare else None)
        readings += [(j, signs)] if signs == bare else [(j, signs), (j, bare)]
    recon, R = v1 + m - 1, len(readings)  # the readings' rows follow the v1 rows
    # dV_1/dt and each reading of dV_j/dt as m - 1 terms coefficient * vector, stacked
    # [component, term, 1 + reading]: c_i V_i, i = 2..m; the V1 coefficient times V_1,
    # then signed psi_ij V_i, i != j.  psi is formed where the v1 rows, then the terms, read it.
    at = [(0, j - 1) for j in others] + [(others[j][t] - 1, j - 1) for t in range(m - 2) for j, _ in readings]
    psi_rows, psi_cols = np.array(at, dtype=int).reshape(-1, 2).T
    psi_signs = np.array([signs[t] for t in range(m - 2) for _, signs in readings]).reshape(-1, 1)
    target_signs = np.array([-e[0] * e[j - 1] for j in others]).reshape(-1, 1)
    # each term's coefficient is a row of [c_2..c_m, the V1 coefficients, the signed psi_ij]
    index = [[t] + [m + j - 3 if t == 0 else 2 * m - 2 + (t - 1) * R + r for r, (j, _) in enumerate(readings)]
             for t in range(m - 1)]
    stacks = np.array([range(1, m)] + [[0] + [i - 1 for i in others[j]] for j, _ in readings], dtype=int).T
    vectors = np.add.outer(np.arange(n), n * stacks).ravel()  # rows of the (m * n, N) frame
    velocities = np.add.outer(np.arange(n), n * np.array([0] + [j - 1 for j, _ in readings])).ravel()
    index, source = np.array(index, dtype=int).reshape(m - 1, 1 + R), np.empty((2 * m - 2 + len(psi_signs), N))
    coefficients, sums, fdots = np.empty((m - 1, 1 + R, N)), np.empty((n, 1 + R, N)), np.empty((n, 1 + R, N))
    terms = np.empty((n, m - 1, 1 + R, N))

    def fill(w, buf):
        k, f, (fs,) = w.fields()
        c = tangent_rate_coefficients(e, k, f, fs, m)
        psi = w.psi_at(psi_rows, psi_cols)
        # V1 coefficient of dV_j/dt for j = 2..m, then dV_j/dt rebuilt from it and psi
        source[: m - 1] = c
        target = np.multiply(target_signs, c, out=source[m - 1 : 2 * m - 2])
        np.subtract(e[0] * psi[: m - 1], target, out=buf[v1:recon])
        np.multiply(psi[m - 1 :], psi_signs, out=source[2 * m - 2 :])
        source.take(index, axis=0, out=coefficients, mode="clip")  # not buffered, as "raise" is
        w.frames.reshape(-1, N).take(vectors, axis=0, out=terms.reshape(-1, N), mode="clip")
        np.multiply(terms, coefficients, out=terms)
        np.add.reduce(terms, axis=1, out=sums)  # sum()'s +0.0 start moves only a zero's sign
        w.fdot.reshape(-1, N).take(velocities, axis=0, out=fdots.reshape(-1, N), mode="clip")
        np.subtract(fdots, sums, out=sums)
        squares = dot_many(sums.transpose(1, 0, 2), sums.transpose(1, 0, 2))
        np.sqrt(squares[0], out=buf[tangent_row])
        np.sqrt(squares[1:], out=buf[recon:])

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
    m, e, N = window.m, window.e, window.N
    if m < 2:
        raise CurveFlowError("curvature check needs at least two frame vectors")
    # curvature_rates reads dpsi at [i + 1, i] and [m - 1, m], psi at [i + 2, i] and [i - 1, i + 1]:
    # only those psi entries are formed, and the first are differentiated
    slope_at = [(i + 1, i) for i in range(1, m)] + [(m - 1, m)]
    value_at = [(i + 2, i) for i in range(1, m - 1)] + [(i - 1, i + 1) for i in range(2, m)]
    core = np.array(slope_at + value_at, dtype=int).reshape(-1, 2).T - 1  # entries of the unpadded psi
    # state-first block buffers, written per state: the psi entries to differentiate, the
    # others, the speeds; and the s-derivatives of the first and of k
    slope_in, value_in = np.empty((BLOCK_STATES, m, N)), np.empty((BLOCK_STATES, len(value_at), N))
    speeds = np.empty((BLOCK_STATES, 1, N))
    psi_slopes, k_slopes = np.empty((BLOCK_STATES, m, N)), np.empty((BLOCK_STATES, m - 1, N))
    rows = _Rows()  # k1_rate_max and k1_flow_rhs_max go to the details, not residuals
    flow_form, rate_max, rhs_max = map(rows.add, ("k1_flow_form", "k1_rate_max", "k1_flow_rhs_max"))
    psi_rows = [(rows.add(f"k{i}_psi_metric"), rows.add(f"k{i}_psi_classical")) for i in range(1, m)]
    metric_rows = slice(psi_rows[0][0], None, 2)  # every other row from k1_psi_metric's on
    k_rows = _Rows()  # |k_j| over every sample of every state, both end states included
    for j in range(1, m):
        k_rows.add(f"k{j}")

    def fill(w, _):
        p = w.psi_at(*core)
        slope_in[w.slot], value_in[w.slot] = p[:m], p[m:]
        speeds[w.slot, 0] = w.state.curve.speeds

    def block(w, buf):
        b, c = w.size, w.state.curve
        k, f, (fs, fss), curvatures = w.rows()
        # kdot is formed in the metric rows, where each metric reading is then subtracted in place
        kdot = w.central(curvatures[2:], curvatures[:-2], out=buf[:, metric_rows])
        # d/ds: the same differences as a d_du of each state's rows, then / speeds
        ks = d_du(curvatures[1:-1], c.h, c.closed, out=k_slopes[:b])
        np.divide(ks, speeds[:b], out=ks)
        dp = d_du(slope_in[:b], c.h, c.closed, out=psi_slopes[:b])
        np.divide(dp, speeds[:b], out=dp)
        zero = k[0]  # the entries by padded [row, col]; every other entry reads as zero
        dpsi = defaultdict(lambda: zero, zip(slope_at, dp.transpose(1, 0, 2)))
        psi = defaultdict(lambda: zero, zip(value_at, value_in[:b].transpose(1, 0, 2)))
        # k1_rate reads only k_1' and k_2'
        buf[:, rhs_max] = k1_rate(e, k, [zero, *ks.transpose(1, 0, 2), zero], f, fs, fss)
        np.subtract(kdot[:, 0], buf[:, rhs_max], out=buf[:, flow_form])
        buf[:, rate_max] = kdot[:, 0]
        metric, classical = curvature_rates(e, k, psi, dpsi, m)
        for i, (_, classical_row) in enumerate(psi_rows):
            np.subtract(kdot[:, i], classical[i], out=buf[:, classical_row])
            np.subtract(kdot[:, i], metric[i], out=kdot[:, i])
        k_rows.fold(curvatures, slice(None))  # last: k and the slopes' inputs are views of it

    residuals = rows.peaks(window, fill, block)
    flat = [int(name[1:]) for name, peak in k_rows.maxima().items() if peak < 1e-10]
    degenerate = [f"k{i}" for i in range(1, m) if i - 1 in flat or i + 1 in flat]
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
    resolutions = [res for r in reports for res in r.resolutions]
    residuals = [row for r in reports for row in r.residuals]
    return VerificationReport(identity, resolutions, residuals, finest.tolerance, finest.passed, finest.details)
