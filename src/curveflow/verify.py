"""Residual checks for every evolution identity the flow machinery relies on.

Each check takes a Trajectory, measures one identity with the central
time difference over (t-1, t, t+1) (``_Window.central``, second order as in
space), and returns a VerificationReport with named residuals, per-name
convergence orders once multiple resolutions are merged, and a pass flag.
The checks walk the steps t = 1..T-2 in blocks of up to BLOCK_STATES steps
(``_Window.walk``), in O(N) working memory: at N=256 most of a numpy
call's cost is its fixed overhead of about a microsecond, so one set of
calls serves a block.  Each window check is one function of a block, which
writes the block's state-first (size, R, N) residual rows for
``_Rows.peaks`` to fold into maxima.  A block gives its states with the
states just before and after it, and their aligned frames; the central
time difference ``fdot(r)`` and the psi entries (``psi``, ``psi_at``) at its
state r, the only work done per state; the speed jets, one ``eval_jet`` per
speed on the (b, N) arclength grids with a (b, 1) column of times; and the
padded k, f and jet rows (``rows``), which this module's right-hand sides
take as (b, N) rows unedited, as flowsim's rules (the one e0 e1 f2 k1
product) take the rows of ``flowsim.stacked_rule_terms``.  This is the one
path at every N, also past N = 512, where the stacked copies cost more
than the calls they save (``tools/ab_pairs.py --op verify``: +4.8% at
N = 4096 against per-state flip tests, gaps and speed rows).  Every element
keeps its arithmetic and its order, so every output byte stays.

Frame vectors are gauge-sensitive: the orthogonalization can flip a
vector's sign between steps when the last curvature changes sign.  So one
rule aligns each state's frame with the aligned frame before it
(``_Window._align``), from products of consecutive states' own frames
formed once per block: V_i is negated at the samples where the previous
state's flip sign times e_{i-1} <V_i(t-1), V_i(t)> is below zero, so a zero
or NaN product clears a flip.  Flips are counted in the report details.
Errors come at the step a walk of single states meets them: a changed
frame signature of state s at step s - 1, ahead of that step's jet
DomainError.  Frames and their time differences are (m, n, N) stacks,
sample axis last.

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
state's (N,) samples or a block's (b, N).  ``tangent_rate_coefficients``,
``k1_rate`` and ``curvature_rates`` index single rows, so they take lists
of rows too, and psi and its slopes as mappings keyed [k, j].

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
from .flowsim import Trajectory, arclength_drift, inextensibility_rhs, speed_rate, stacked_rule_terms
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


def _interior(curve) -> slice:
    """Sample range for residual maxima.  On open curves the one-sided
    stencil closures (chained up to the third derivative) occupy a boundary
    layer whose error is amplified and of lower order, so a fixed margin is
    trimmed at each end; closed curves keep every sample."""
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
            "residuals": [{k: float(v) for k, v in row.items()} for row in self.residuals],
            "order": {k: (None if v is None else float(v)) for k, v in self.orders.items()},
            "pass": bool(self.passed),
            "tolerance": {k: float(v) for k, v in self.tolerance.items()},
            "gated": list(self.gated),
            "details": self.details,
        }


# --------------------------------------------------------------------------
# The walk over blocks of states


class _Window:
    """Walks t = 1..T-2 over a trajectory in blocks of up to BLOCK_STATES
    steps, step t reading the states t-1, t and t+1.

    At each block, ``size`` is its step count, ``states`` holds the states
    of its steps with the states just before and after them, and ``frames``
    their aligned frames (``_align``): the block's state r is
    ``states[r + 1]``.  ``flips`` counts the flipped vectors so far.  The
    jets of f_2, f_3, ... are taken to the derivative ``orders``; ``rows``
    gives them with k and f at every state of the block.
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
        # kept across blocks, rows nothing writes stay +0.0; jets[j - 1, i - 2, r]: d^j f_i/ds^j at
        # the block's state r
        self.jets = np.zeros((max(orders, default=0), n - 1, BLOCK_STATES, N))
        self.grids = np.empty((BLOCK_STATES, N))
        self._fdot = np.empty((m, n, N))

    def walk(self):
        """Yield self at each block.  Before it, raise the first error that a
        walk of single states meets in the block: a changed frame signature
        of state s at step s - 1, ahead of that step's jet DomainError."""
        states = self.traj.states
        frames, flip = [states[0].frenet.frame], None  # state 0 sets the signs and is never flipped
        for t in range(1, len(states) - 1, BLOCK_STATES):
            self.size = min(BLOCK_STATES, len(states) - 1 - t)
            self.states = block = states[t - 1 : t + self.size + 1]
            # the state that enters at step s - 1 with a changed signature stops the walk there,
            # after the jets of the block's states before that step
            held = len(frames)
            same = [st.frenet.signs.tobytes() == self.sign_bytes for st in block[held:]]
            ready = same.index(False) + held - 2 if False in same else self.size
            if self.orders and ready > 0:
                self._derivatives(block[1 : ready + 1])
            if ready < self.size:
                raise CurveFlowError("frame signature changed along the trajectory")
            aligned, flip = self._align(block[held - 1 :], flip)
            self.frames = frames = frames + aligned
            yield self
            frames = frames[-2:]

    def _align(self, chain, flip):
        """The aligned frames of chain[1:], and the flip signs of the last,
        None if it keeps its frame: a state's frame is negated where the
        previous state's flip sign times e_{i-1} <V_i(t-1), V_i(t)> of their
        own frames is below zero, so a zero or NaN product clears a flip.
        ``flip`` is chain[0]'s flip signs."""
        b = len(chain) - 1
        products = np.empty((self.n, b, self.m, self.N)).transpose(1, 2, 0, 3)
        for j in range(b):
            np.multiply(chain[j].frenet.frame, chain[j + 1].frenet.frame, out=products[j])
        # (b, m, N) products of each pair, bit for bit inner_many's: numpy iterates row_sum's
        # contiguous component-first slabs with no buffer of their size
        dots = row_sum(products, negate_first=True)
        del products  # freed before the test's buffers are taken
        np.multiply(dots, self.sign_column, out=dots)
        if flip is None and not np.less(dots, 0.0).any():  # no mask has a sample: one test
            return [st.frenet.frame for st in chain[1:]], None
        frames = []
        for st, dot in zip(chain[1:], dots):
            # the product against the previous aligned frame, whose flips negate it exactly
            mask = np.less(dot if flip is None else np.multiply(dot, flip, out=dot), 0.0)
            flips = int(np.count_nonzero(mask))
            self.flips += flips
            frame, flip = st.frenet.frame, None
            if flips:  # a copy: the state's own frame stays as evolved
                frame, flip = np.negative(frame, out=frame.copy(), where=mask[:, None]), np.where(mask, -1.0, 1.0)
            frames.append(frame)
        return frames, flip

    def central(self, after, before, out=None) -> np.ndarray:
        """The central time difference (after - before) / (2 dt), into ``out``."""
        out = np.subtract(after, before, out=out)
        return np.divide(out, 2.0 * self.dt, out=out)

    def fdot(self, r: int) -> np.ndarray:
        """The (m, n, N) central time difference of ``frames`` at the block's
        state r, into a buffer that the next call overwrites."""
        return self.central(self.frames[r + 2], self.frames[r], out=self._fdot)

    def _derivatives(self, block, slot: int = 0) -> None:
        """Writes the s-derivatives of f_2, f_3, ... on the block's states into
        ``jets`` from ``slot`` on: one ``eval_jet`` per speed, on their
        arclength grids as rows with a column of their times.  A constant's
        zero rows broadcast.  A block that raises DomainError is evaluated
        again a state at a time, so the first state that fails raises."""
        s = self.grids[: len(block)]
        for row, st in enumerate(block):
            s[row] = st.curve.s
        env = {"t": np.array([[st.t] for st in block])}
        speeds = self.traj.flow.speeds
        try:
            for i, order in enumerate(self.orders[: self.n - 1], start=2):
                jet = exprjet.eval_jet(speeds[i - 1], "s", s, order, env)
                for j in range(1, order + 1):
                    jet.derivative(j, out=self.jets[j - 1, i - 2, slot : slot + len(block)])
        except DomainError:
            if len(block) == 1:
                raise
            for r, st in enumerate(block):
                self._derivatives([st], r)

    def rows(self):
        """The block's padded k, f and s-derivatives of f (``ds[j - 1]``
        holds the j-th derivatives of f_2, f_3, ...), as lists of (size, N)
        rows over its states, every padding row one read-only zero row; and
        the (size + 2, m - 1, N) curvatures of ``states``.  The curvatures
        and f are stacked anew for each call, so they take no memory while
        the next block's jets are formed."""
        b, m, n = self.size, self.m, self.n
        curvatures = np.stack([st.frenet.curvatures for st in self.states])
        f_values = np.stack([st.f_values for st in self.states[1:-1]], axis=1)  # component-first
        zero = np.broadcast_to(0.0, (b, self.N))
        k = [zero, *curvatures[1:-1].transpose(1, 0, 2)] + [zero] * (n + 3 - m)
        f = [zero, *f_values, zero, zero]
        ds = [[zero, zero, *jets[:, :b], zero, zero] for jets in self.jets]
        return k, f, ds, curvatures

    def psi(self, r: int) -> np.ndarray:
        """(m, m, N) matrix of <fdot_j, V_k> at the block's state r, indexed [k, j]."""
        return inner_many(self.fdot(r)[None], self.frames[r + 1][:, None])

    def psi_at(self, r: int, rows, cols, fdot: np.ndarray) -> np.ndarray:
        """The entries [rows[p], cols[p]] of ``psi(r)`` alone, as (p, N) rows,
        from ``fdot``, the caller's ``fdot(r)``."""
        return inner_many(fdot.take(cols, axis=0), self.frames[r + 1].take(rows, axis=0))


# --------------------------------------------------------------------------
# Right-hand sides (padded, 1-based arrays; see the module docstring)


def tangent_rate_coefficients(e, k, f, fs, m: int) -> list:
    """c_i = f_{i-1} k_{i-1} + f_i' - e_{i-1} e_i f_{i+1} k_i, as a list over i = 2..m.

    dV_1/dt = sum_i c_i V_i, and the V_1 coefficient of dV_j/dt is
    -e_0 e_{j-1} c_j.  Since k_m = 0, the last index takes the same form.
    """
    return [f[i - 1] * k[i - 1] + fs[i] - (e[i - 1] * e[i]) * f[i + 1] * k[i] for i in range(2, m + 1)]


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

    def peaks(self, window, block) -> dict[str, float]:
        """``maxima`` of one walk, over each step's interior: ``block(w, rows)``
        writes every row of each block of states, (size, R, N)."""
        buf, self.peak = np.empty((BLOCK_STATES, self.count, window.N)), None
        for w in window.walk():
            rows = buf[: w.size]
            block(w, rows)
            self.fold(rows, window.interior)
        return self.maxima()


def _pointwise_violation(traj: Trajectory) -> float:
    """max |df1/ds - e0 e1 f2 k1| (``inextensibility_rhs``) over each state's
    interior, with df1/ds from a fourth-order stencil: sharp enough to keep
    the measurement independent of how f1 was produced (quadrature or
    expression) without drowning it in the everyday operator's second-order
    noise.  A block of states is stacked into (b, N) rows and measured by
    one set of numpy calls, the right-hand side by each state's own signs."""
    first = traj.states[0].curve
    rows = _Rows()
    rows.add("pointwise")
    for lo in range(0, len(traj.states), BLOCK_STATES):
        block = traj.states[lo : lo + BLOCK_STATES]
        f1 = np.array([st.f_values[0] for st in block])
        gap = d_du4(f1, first.h, first.closed) / np.array([st.curve.speeds for st in block])
        gap -= inextensibility_rhs(*stacked_rule_terms(block))
        rows.fold(gap[:, None], _interior(first))
    return rows.maxima()["pointwise"]


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

    def block(w, buf):
        v, f1_s = np.array([st.curve.speeds for st in w.states]), np.array([st.f1_s for st in w.states[1:-1]])
        vdot, rhs = w.central(v[2:], v[:-2]), speed_rate(v[1:-1], f1_s, *stacked_rule_terms(w.states[1:-1]))
        np.subtract(vdot, rhs, out=buf[:, metric])
        if classical != metric:
            np.subtract(vdot, e[0] * rhs, out=buf[:, classical])

    residuals = rows.peaks(window, block)
    return _report("speed_evolution", traj, residuals, tolerance, {"frame_flips": window.flips})


def check_iff_condition(traj: Trajectory, tolerance: dict | None = None) -> VerificationReport:
    """Biconditional: pointwise constraint small <=> arclength drift small.

    Reports (a) the worst pointwise violation of df1/ds = e0 e1 f2 k1 and
    (b) the arclength drift, then asserts their equivalence against the
    thresholds.  Neither side alone decides the outcome, and a NaN reading
    on either side fails it: NaN is neither small nor large.
    """
    tol = _tol("iff_condition", tolerance)
    if len(traj.states) < 2:
        raise InsufficientStates("iff check needs at least 2 states")
    a = _pointwise_violation(traj)
    b = arclength_drift(traj)
    a_small = a <= tol["pointwise"]
    b_small = b <= tol["drift"]
    holds = a_small == b_small and not (np.isnan(a) or np.isnan(b))
    details = {"pointwise_small": a_small, "drift_small": b_small, "equivalence": holds}
    residuals = {"pointwise": a, "drift": b}
    return _report("iff_condition", traj, residuals, tolerance, details, passed=holds)


def check_psi_antisymmetry(traj: Trajectory, tolerance: float | None = None) -> VerificationReport:
    """Psi_kj + Psi_jk = 0 and Psi_jj = 0 at every interior step."""
    window = _Window(traj)
    m = window.m
    rows = _Rows()
    pairs = rows.add("antisymmetry", m * m)
    diagonal = rows.add("diagonal", m)

    def block(w, buf):
        for r in range(w.size):
            psi = w.psi(r)
            np.add(psi, psi.swapaxes(0, 1), out=buf[r, pairs:diagonal].reshape(psi.shape))
            buf[r, diagonal:] = psi.diagonal().T  # diagonal() is (N, m)

    residuals = rows.peaks(window, block)
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
    # views of the buffers, made once: (m * n, N) and (n, N) rows, and [reading, component]
    term_rows, fdot_rows, paired = terms.reshape(-1, N), fdots.reshape(-1, N), sums.transpose(1, 0, 2)
    # per block, state-first: c_2..c_m, then the predicted V1 coefficients -e0 e_{j-1} c_j
    rates = np.empty((BLOCK_STATES, 2 * m - 2, N))

    def block(w, buf):
        if m > 1:  # one frame vector has no c_i
            k, f, (fs,), _ = w.rows()
            for i, c in enumerate(tangent_rate_coefficients(e, k, f, fs, m)):
                rates[: w.size, i] = c
            np.multiply(target_signs, rates[: w.size, : m - 1], out=rates[: w.size, m - 1 :])
        for r, row in enumerate(buf):
            fdot = w.fdot(r)
            psi = w.psi_at(r, psi_rows, psi_cols, fdot)
            # V1 coefficient of dV_j/dt for j = 2..m, then dV_j/dt rebuilt from it and psi
            source[: 2 * m - 2] = rates[r]
            np.subtract(e[0] * psi[: m - 1], source[m - 1 : 2 * m - 2], out=row[v1:recon])
            np.multiply(psi[m - 1 :], psi_signs, out=source[2 * m - 2 :])
            source.take(index, axis=0, out=coefficients, mode="clip")  # not buffered, as "raise" is
            w.frames[r + 1].reshape(-1, N).take(vectors, axis=0, out=term_rows, mode="clip")
            np.multiply(terms, coefficients, out=terms)
            np.add.reduce(terms, axis=1, out=sums)  # sum()'s +0.0 start moves only a zero's sign
            fdot.reshape(-1, N).take(velocities, axis=0, out=fdot_rows, mode="clip")
            np.subtract(fdots, sums, out=sums)
            squares = dot_many(paired, paired)
            np.sqrt(squares[0], out=row[tangent_row])
            np.sqrt(squares[1:], out=row[recon:])

    residuals = rows.peaks(window, block)
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
        raise ConfigError("curvature check needs at least two frame vectors", field="checks")
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

    def block(w, buf):
        b, c = w.size, w.states[1].curve
        for r, st in enumerate(w.states[1:-1]):
            p = w.psi_at(r, *core, w.fdot(r))
            slope_in[r], value_in[r], speeds[r, 0] = p[:m], p[m:], st.curve.speeds
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

    residuals = rows.peaks(window, block)
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
