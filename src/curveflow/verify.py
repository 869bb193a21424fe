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

Two of the identities expand frame velocities in the frame itself.  In an
indefinite frame the expansion coefficient of V_k is e_{k-1} <X, V_k>, not
the bare projection, so every projection-based residual is measured twice:
once with the coefficients in the classical (positive-definite) convention
("classical" / "bare") and once with the
metric-consistent coefficients ("metric").  Pass/fail gates on the metric
reading; both are reported.

Residual maxima run over interior samples: on open curves the one-sided
stencil closures (chained up to the third derivative) occupy a boundary
layer whose error is amplified and of lower order, so a fixed margin of
samples is excluded at each end.  Closed curves use every sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import exprjet
from .curvekit import d_ds, d_ds4
from .errors import CurveFlowError, InsufficientStates, NotInextensible
from .flowsim import INEXTENSIBLE, Trajectory, arclength_drift, dv_dt_rhs, inextensibility_rhs
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
    orders: dict[str, float | None]
    passed: bool
    gated: list[str]  # residual names that decide pass/fail
    details: dict = field(default_factory=dict)

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


@dataclass
class PsiMatrix:
    """Frame rotation coefficients psi[k-1, j-1] = <dV_j/dt, V_k> at one step."""

    values: np.ndarray  # (m, m, N)
    at_step: int
    antisymmetry_residual: float
    diagonal_residual: float


# --------------------------------------------------------------------------
# Sliding three-state window


class _Window:
    """Walks t = 1..T-2 over a trajectory, holding states t-1, t, t+1.

    Each state's frame is sign-aligned against the previous aligned frame
    as it enters, so at most three frames are held at a time; ``flips``
    counts the flipped vectors so far.
    """

    def __init__(self, traj: Trajectory):
        if len(traj.states) < 3:
            raise InsufficientStates(f"need at least 3 states, trajectory has {len(traj.states)}")
        first = traj.states[0]
        self.traj = traj
        self.dt = traj.dt
        self.m = first.frenet.num_vectors
        self.n = first.curve.n
        self.N = first.curve.samples
        self.signs = first.frenet.signs
        self.interior = _interior(first.curve)
        self.flips = 0

    def walk(self, last: int | None = None):
        """Yield self at t = 1..last (default T-2): ``prev``, ``state`` and
        ``next`` are the states at t-1, t, t+1, ``frames`` the aligned frame
        at t and ``fdot`` its central time difference."""
        states = self.traj.states
        last = len(states) - 2 if last is None else last
        before = states[0].frenet.frame  # state 0 sets the signs and is never flipped
        frames = self._aligned(states[1], before)
        for t in range(1, last + 1):
            after = self._aligned(states[t + 1], frames)
            self.prev, self.state, self.next = states[t - 1 : t + 2]
            self.frames = frames
            self.fdot = (after - before) / (2.0 * self.dt)
            self._dfds = {}
            yield self
            before, frames = frames, after

    def _aligned(self, st, previous: np.ndarray) -> np.ndarray:
        """st's frame, flipped pointwise so e_{i-1} <V_i(t-1), V_i(t)> > 0."""
        if not np.array_equal(st.frenet.signs, self.signs):
            raise CurveFlowError("frame signature changed along the trajectory")
        frame = st.frenet.frame
        mask = inner_many(previous, frame) * self.signs[:, None] < 0
        if mask.any():
            frame = frame.copy()  # the state's own frame stays as evolved
            frame[mask] *= -1.0
            self.flips += int(np.count_nonzero(mask))
        return frame

    # 1-based accessors at the current t matching the usual index
    # conventions; out-of-range indices read as zero
    def eps(self, i: int) -> float:
        return float(self.signs[i]) if 0 <= i < self.m else 1.0

    def k_at(self, i: int) -> np.ndarray:
        if 1 <= i <= self.m - 1:
            return self.state.frenet.curvatures[i - 1]
        return np.zeros(self.N)

    def f_at(self, i: int) -> np.ndarray:
        if 1 <= i <= self.n:
            return self.state.f_values[i - 1]
        return np.zeros(self.N)

    def V(self, i: int) -> np.ndarray:
        return self.frames[i - 1]

    def dfds(self, i: int, order: int = 1) -> np.ndarray:
        """order-th s-derivative of speed f_i at t (jets where exact)."""
        key = (i, order)
        if key in self._dfds:
            return self._dfds[key]
        st = self.state
        expr = self.traj.flow.speeds[i - 1] if 1 <= i <= self.n else None
        if expr is None:
            if i == 1 and self.traj.flow.mode == INEXTENSIBLE:
                out = st.f1_s if order == 1 else d_ds(st.f1_s, st.curve)
            else:
                out = np.zeros(self.N)
        else:
            jet = exprjet.eval_jet(expr, "s", st.curve.s, order, {"t": st.t})
            out = np.asarray(jet.derivative(order))
        self._dfds[key] = out
        return out

    def psi(self) -> np.ndarray:
        """(m, m, N) matrix of <fdot_j, V_k> at t, indexed [k, j]."""
        return inner_many(self.fdot[None], self.frames[:, None])

    def psi_at(self, psi: np.ndarray, k: int, j: int) -> np.ndarray:
        if 1 <= k <= self.m and 1 <= j <= self.m:
            return psi[k - 1, j - 1]
        return np.zeros(self.N)


def _psi_residuals(psi: np.ndarray, sl: slice) -> tuple[float, float]:
    """Worst |Psi_kj + Psi_jk| and |Psi_jj| over the samples sl."""
    anti = float(np.max(np.abs(psi + np.swapaxes(psi, 0, 1))[:, :, sl]))
    diag = float(np.max(np.abs(np.diagonal(psi)[sl])))  # diagonal() is (N, m)
    return anti, diag


def _euclid_norm(X: np.ndarray) -> np.ndarray:
    return np.sqrt(dot_many(X, X))


def _pointwise_violation(traj: Trajectory) -> float:
    """max |df1/ds - e0 e1 f2 k1|, with df1/ds from a fourth-order stencil.

    The sharper stencil keeps the measurement independent of how f1 was
    produced (quadrature or expression) without drowning it in the
    second-order noise of the everyday operator.
    """
    worst = 0.0
    sl = _interior(traj.states[0].curve)
    for st in traj.states:
        lhs = d_ds4(st.f_values[0], st.curve)
        rhs = inextensibility_rhs(st.curve, st.frenet, st.f_values[1])
        worst = max(worst, float(np.max(np.abs(lhs - rhs)[sl])))
    return worst


def _require_inextensible(traj: Trajectory) -> float:
    violation = _pointwise_violation(traj)
    if violation > INEXTENSIBILITY_PRECONDITION_TOL:
        raise NotInextensible(violation, INEXTENSIBILITY_PRECONDITION_TOL)
    return violation


def _single(identity, traj, residuals, tolerance, passed, gated, details) -> VerificationReport:
    N = traj.states[0].curve.samples
    return VerificationReport(
        identity=identity,
        resolutions=[(N, traj.dt)],
        residuals=[residuals],
        tolerance=tolerance,
        orders={k: None for k in residuals},
        passed=passed,
        gated=gated,
        details=details,
    )


# --------------------------------------------------------------------------
# Checks


def check_speed_evolution(traj: Trajectory, tolerance: float | None = None) -> VerificationReport:
    """Central time difference of the speed against its predicted rate.

    Gates on the metric-consistent right-hand side df1/du - e0 e1 f2 v k1;
    the classical variant e0 df1/du - e1 f2 v k1 (their ratio is e0, so
    the two coincide on spacelike curves) is recorded alongside.
    """
    tol = DEFAULT_TOLERANCES["speed_evolution"] if tolerance is None else tolerance
    window = _Window(traj)
    r = r_classical = 0.0
    for w in window.walk():
        lhs = (w.next.curve.speeds - w.prev.curve.speeds) / (2.0 * w.dt)
        rhs = dv_dt_rhs(w.state)
        r = max(r, float(np.max(np.abs(lhs - rhs)[w.interior])))
        r_classical = max(r_classical, float(np.max(np.abs(lhs - w.eps(0) * rhs)[w.interior])))
    return _single(
        "speed_evolution",
        traj,
        {"speed_evolution": r, "speed_evolution_classical": r_classical},
        {"speed_evolution": tol, "speed_evolution_classical": tol},
        r <= tol,
        ["speed_evolution"],
        {"frame_flips": window.flips},
    )


def check_iff_condition(traj: Trajectory, tolerance: dict | None = None) -> VerificationReport:
    """Biconditional: pointwise constraint small <=> arclength drift small.

    Reports (a) the worst pointwise violation of df1/ds = e0 e1 f2 k1 and
    (b) the arclength drift, then asserts their equivalence against the
    thresholds.  Neither side alone decides the outcome.
    """
    tol = dict(DEFAULT_TOLERANCES["iff_condition"])
    if tolerance:
        tol.update(tolerance)
    if len(traj.states) < 2:
        raise InsufficientStates("iff check needs at least 2 states")
    a = _pointwise_violation(traj)
    b = arclength_drift(traj)
    a_small = a <= tol["pointwise"]
    b_small = b <= tol["drift"]
    return _single(
        "iff_condition",
        traj,
        {"pointwise": a, "drift": b},
        tol,
        a_small == b_small,
        ["pointwise", "drift"],
        {"pointwise_small": a_small, "drift_small": b_small, "equivalence": a_small == b_small},
    )


def psi_matrix(traj: Trajectory, at_step: int) -> PsiMatrix:
    """Frame rotation coefficients at one interior step (central in time)."""
    window = _Window(traj)
    if not 1 <= at_step <= len(traj.states) - 2:
        raise InsufficientStates(
            f"at_step must be interior (1..{len(traj.states) - 2}), got {at_step}"
        )
    for w in window.walk(last=at_step):
        pass  # frame alignment is sequential, so every earlier step is walked
    psi = w.psi()
    anti, diag = _psi_residuals(psi, w.interior)
    return PsiMatrix(values=psi, at_step=at_step, antisymmetry_residual=anti, diagonal_residual=diag)


def check_psi_antisymmetry(traj: Trajectory, tolerance: float | None = None) -> VerificationReport:
    """Psi_kj + Psi_jk = 0 and Psi_jj = 0 at every interior step."""
    tol = DEFAULT_TOLERANCES["psi_antisymmetry"] if tolerance is None else tolerance
    window = _Window(traj)
    anti = diag = 0.0
    for w in window.walk():
        anti_t, diag_t = _psi_residuals(w.psi(), w.interior)
        anti, diag = max(anti, anti_t), max(diag, diag_t)
    r = {"antisymmetry": anti, "diagonal": diag}
    passed = anti <= tol and diag <= tol
    return _single(
        "psi_antisymmetry",
        traj,
        r,
        {"antisymmetry": tol, "diagonal": tol},
        passed,
        ["antisymmetry", "diagonal"],
        {"frame_flips": window.flips},
    )


def check_frame_evolution(traj: Trajectory, tolerance: float | None = None) -> VerificationReport:
    """Frame evolution under an inextensible flow.

    Residuals: the full tangent-vector equation; the predicted V1
    coefficient of each higher frame vector's velocity; and the
    reconstruction of those velocities from the psi coefficients, in both
    the metric-consistent and the bare-projection reading.
    """
    tol = DEFAULT_TOLERANCES["frame_evolution"] if tolerance is None else tolerance
    violation = _require_inextensible(traj)
    window = _Window(traj)
    m = window.m
    r_tangent = 0.0
    r_mid = 0.0
    r_last = 0.0
    r_recon_metric = 0.0
    r_recon_bare = 0.0
    for w in window.walk():
        fdot = w.fdot
        # Tangent equation: sum over the higher frame directions.
        rhs1 = np.zeros((w.N, w.n))
        for i in range(2, m):
            coef = (
                w.f_at(i - 1) * w.k_at(i - 1)
                + w.dfds(i)
                - w.eps(i - 1) * w.eps(i) * w.f_at(i + 1) * w.k_at(i)
            )
            rhs1 += coef[:, None] * w.V(i)
        if m >= 2:
            coef_last = w.f_at(m - 1) * w.k_at(m - 1) + w.dfds(m)
            rhs1 += coef_last[:, None] * w.V(m)
        r_tangent = max(r_tangent, float(np.max(_euclid_norm(fdot[0] - rhs1)[w.interior])))

        if m < 2:
            continue
        psi = w.psi()
        e0 = w.eps(0)
        for j in range(2, m + 1):
            c1 = e0 * inner_many(fdot[j - 1], w.V(1))
            if j < m:
                target = -e0 * (
                    w.eps(j - 1) * (w.f_at(j - 1) * w.k_at(j - 1) + w.dfds(j))
                    - w.eps(j) * w.f_at(j + 1) * w.k_at(j)
                )
                r_mid = max(r_mid, float(np.max(np.abs(c1 - target)[w.interior])))
            else:
                target = -e0 * w.eps(m - 1) * (w.f_at(m - 1) * w.k_at(m - 1) + w.dfds(m))
                r_last = max(r_last, float(np.max(np.abs(c1 - target)[w.interior])))
            recon_metric = target[:, None] * w.V(1)
            recon_bare = recon_metric.copy()
            for k in range(2, m + 1):
                if k == j:
                    continue
                p = w.psi_at(psi, k, j)
                recon_metric += (w.eps(k - 1) * p)[:, None] * w.V(k)
                recon_bare += p[:, None] * w.V(k)
            r_recon_metric = max(
                r_recon_metric, float(np.max(_euclid_norm(fdot[j - 1] - recon_metric)[w.interior]))
            )
            r_recon_bare = max(
                r_recon_bare, float(np.max(_euclid_norm(fdot[j - 1] - recon_bare)[w.interior]))
            )

    residuals = {"tangent_equation": r_tangent}
    gated = ["tangent_equation"]
    if m >= 3:
        residuals["v1_coefficient_mid"] = r_mid
        gated.append("v1_coefficient_mid")
    if m >= 2:
        residuals["v1_coefficient_last"] = r_last
        residuals["reconstruction_metric"] = r_recon_metric
        residuals["reconstruction_bare"] = r_recon_bare
        gated += ["v1_coefficient_last", "reconstruction_metric"]
    passed = all(residuals[name] <= tol for name in gated)
    return _single(
        "frame_evolution",
        traj,
        residuals,
        {name: tol for name in residuals},
        passed,
        gated,
        {"frame_flips": window.flips, "inextensibility_violation": violation},
    )


def check_curvature_pde(traj: Trajectory, tolerance: float | None = None) -> VerificationReport:
    """Time evolution of the curvatures under an inextensible flow.

    The first curvature is checked against its closed-form right-hand side
    in the speeds (jet-exact f derivatives, stencil k derivatives); every
    curvature is additionally checked against its psi-based equation, in
    both the classical-convention ("classical") and the metric-consistent reading.
    Equations whose coefficient curvatures vanish identically are flagged
    as degenerate in the details but still measured.
    """
    tol = DEFAULT_TOLERANCES["curvature_pde"] if tolerance is None else tolerance
    violation = _require_inextensible(traj)
    window = _Window(traj)
    m = window.m
    if m < 2:
        raise CurveFlowError("curvature check needs at least two frame vectors")
    rA = 0.0
    k1_rate_max = 0.0
    k1_rhs_max = 0.0
    r_metric = {i: 0.0 for i in range(1, m)}
    r_classical = {i: 0.0 for i in range(1, m)}
    for w in window.walk():
        c = w.state.curve
        e = w.eps
        kdot = (w.next.frenet.curvatures - w.prev.frenet.curvatures) / (2.0 * w.dt)
        k1, k2, k3 = w.k_at(1), w.k_at(2), w.k_at(3)
        f1, f2, f3, f4 = (w.f_at(i) for i in (1, 2, 3, 4))
        rhs_a = (
            e(0) * e(1) * f2 * k1**2
            + f1 * d_ds(k1, c)
            + w.dfds(2, order=2)
            - 2.0 * e(1) * e(2) * w.dfds(3) * k2
            - e(1) * e(2) * f3 * d_ds(k2, c)
            - e(1) * e(2) * f2 * k2**2
            + e(1) * e(3) * f4 * k2 * k3
        )
        rA = max(rA, float(np.max(np.abs(kdot[0] - rhs_a)[w.interior])))
        k1_rate_max = max(k1_rate_max, float(np.max(np.abs(kdot[0])[w.interior])))
        k1_rhs_max = max(k1_rhs_max, float(np.max(np.abs(rhs_a)[w.interior])))

        psi = w.psi()
        # every entry's s-derivative in one call: d_ds runs down the columns
        dpsi = d_ds(psi.reshape(m * m, -1).T, c).T.reshape(psi.shape)
        for i in range(1, m):
            lhs = kdot[i - 1]
            if i == m - 1:
                classical_rhs = -e(m - 2) * e(m - 1) * (
                    w.psi_at(dpsi, m - 1, m) + w.psi_at(psi, m - 2, m) * w.k_at(m - 2)
                )
            else:
                classical_rhs = w.psi_at(dpsi, i + 1, i) - e(i) * e(i + 1) * w.psi_at(
                    psi, i + 2, i
                ) * w.k_at(i + 1)
            metric_rhs = e(i) * (
                w.psi_at(dpsi, i + 1, i) - w.psi_at(psi, i + 2, i) * w.k_at(i + 1)
            ) - e(i - 2) * e(i - 1) * e(i) * w.k_at(i - 1) * w.psi_at(psi, i - 1, i + 1)
            r_classical[i] = max(
                r_classical[i], float(np.max(np.abs(lhs - classical_rhs)[w.interior]))
            )
            r_metric[i] = max(r_metric[i], float(np.max(np.abs(lhs - metric_rhs)[w.interior])))

    k_peak = np.zeros(m - 1)  # peak |k_j| over every state, both end states included
    for st in traj.states:
        k_peak = np.maximum(k_peak, np.max(np.abs(st.frenet.curvatures), axis=1))
    residuals = {"k1_flow_form": rA}
    gated = ["k1_flow_form"]
    degenerate = []
    for i in range(1, m):
        residuals[f"k{i}_psi_metric"] = r_metric[i]
        residuals[f"k{i}_psi_classical"] = r_classical[i]
        gated.append(f"k{i}_psi_metric")
        needed = [j for j in (i - 1, i + 1) if 1 <= j <= m - 1]
        if any(k_peak[j - 1] < 1e-10 for j in needed):
            degenerate.append(f"k{i}")
    passed = all(residuals[name] <= tol for name in gated)
    return _single(
        "curvature_pde",
        traj,
        residuals,
        {name: tol for name in residuals},
        passed,
        gated,
        {
            "frame_flips": window.flips,
            "inextensibility_violation": violation,
            "degenerate_equations": degenerate,
            "k1_rate_max": k1_rate_max,
            "k1_flow_rhs_max": k1_rhs_max,
        },
    )


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
    """Combine same-identity reports at increasing resolution; fit orders.

    The order for each residual is the mean log2 ratio between successive
    resolutions, or None once values sit at the numerical floor.  The
    merged pass flag is the finest resolution's.
    """
    if not reports:
        raise ValueError("no reports to merge")
    identity = reports[0].identity
    if any(r.identity != identity for r in reports):
        raise ValueError("reports describe different identities")
    resolutions = [res for r in reports for res in r.resolutions]
    residuals = [row for r in reports for row in r.residuals]
    orders: dict[str, float | None] = {}
    for name in residuals[-1]:
        vals = [row.get(name) for row in residuals]
        ratios = []
        for a, b in zip(vals, vals[1:]):
            if a is None or b is None or a <= RESIDUAL_FLOOR or b <= RESIDUAL_FLOOR:
                ratios = []
                break
            ratios.append(np.log2(a / b))
        orders[name] = float(np.mean(ratios)) if ratios else None
    finest = reports[-1]
    return VerificationReport(
        identity=identity,
        resolutions=resolutions,
        residuals=residuals,
        tolerance=finest.tolerance,
        orders=orders,
        passed=finest.passed,
        gated=finest.gated,
        details=finest.details,
    )
