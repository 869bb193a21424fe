"""Residual checks for every evolution identity the flow machinery relies on.

Each check takes a Trajectory, measures one identity by finite differences
in time (second-order central, matching the spatial order), and returns a
VerificationReport with named residuals, per-name convergence orders once
multiple resolutions are merged, and a pass flag.

Time derivatives of frame vectors are gauge-sensitive: the
orthogonalization can flip a vector's sign between steps when the last
curvature changes sign.  Before differencing, frames are aligned with the
previous step's frames pointwise (flips are counted in the report
details).

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
from .minkowski import inner_many

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
# Stacked trajectory arrays


class _Arrays:
    """Per-trajectory stacks used by the checks (frames sign-aligned)."""

    def __init__(self, traj: Trajectory, min_states: int = 3):
        if len(traj.states) < min_states:
            raise InsufficientStates(
                f"need at least {min_states} states, trajectory has {len(traj.states)}"
            )
        self.traj = traj
        states = traj.states
        self.T = len(states)
        self.dt = traj.dt
        self.m = traj.frame_vectors
        self.n = states[0].curve.n
        self.N = states[0].curve.samples
        self.times = np.array([st.t for st in states])
        self.curves = [st.curve for st in states]
        self.speeds = np.stack([st.curve.speeds for st in states])
        self.s = np.stack([st.curve.s for st in states])
        self.f = np.stack([st.f_values for st in states])
        self.f1_s = np.stack([st.f1_s for st in states])
        if self.m >= 2:
            self.k = np.stack([st.frenet.curvatures for st in states])
        else:
            self.k = np.zeros((self.T, 0, self.N))
        self.signs = states[0].frenet.signs
        for st in states:
            if not np.array_equal(st.frenet.signs, self.signs):
                raise CurveFlowError("frame signature changed along the trajectory")
        frames = np.stack([st.frenet.frame for st in states])
        self.frames, self.flips = _align_frames(frames, self.signs)
        self.interior = _interior(states[0].curve)
        self._dfds_cache: dict = {}

    # 1-based accessors matching the usual index conventions; out-of-range
    # indices read as zero
    def eps(self, i: int) -> float:
        return float(self.signs[i]) if 0 <= i < self.m else 1.0

    def k_at(self, t: int, i: int) -> np.ndarray:
        if 1 <= i <= self.m - 1:
            return self.k[t, i - 1]
        return np.zeros(self.N)

    def f_at(self, t: int, i: int) -> np.ndarray:
        if 1 <= i <= self.n:
            return self.f[t, i - 1]
        return np.zeros(self.N)

    def V(self, t: int, i: int) -> np.ndarray:
        return self.frames[t, i - 1]

    def dfds(self, t: int, i: int, order: int = 1) -> np.ndarray:
        """order-th s-derivative of speed f_i at state t (jets where exact)."""
        key = (t, i, order)
        if key in self._dfds_cache:
            return self._dfds_cache[key]
        expr = self.traj.flow.speeds[i - 1] if 1 <= i <= self.n else None
        if expr is None:
            if i == 1 and self.traj.flow.mode == INEXTENSIBLE:
                out = self.f1_s[t] if order == 1 else d_ds(self.f1_s[t], self.curves[t])
            else:
                out = np.zeros(self.N)
        else:
            jet = exprjet.eval_jet(expr, "s", self.s[t], order, {"t": self.times[t]})
            out = np.asarray(jet.derivative(order))
        self._dfds_cache[key] = out
        return out

    def psi(self, t: int) -> np.ndarray:
        """(m, m, N) matrix of <FD_t(V_j), V_k> at interior state t."""
        fd = (self.frames[t + 1] - self.frames[t - 1]) / (2.0 * self.dt)
        out = np.empty((self.m, self.m, self.N))
        for j in range(self.m):
            for k in range(self.m):
                out[k, j] = inner_many(fd[j], self.frames[t, k])
        return out

    def psi_at(self, psi: np.ndarray, k: int, j: int) -> np.ndarray:
        if 1 <= k <= self.m and 1 <= j <= self.m:
            return psi[k - 1, j - 1]
        return np.zeros(self.N)


def _align_frames(frames: np.ndarray, signs: np.ndarray):
    """Flip frame vectors pointwise so e_{i-1} <V_i(t-1), V_i(t)> > 0."""
    F = frames.copy()
    flips = 0
    for t in range(1, F.shape[0]):
        for i in range(F.shape[1]):
            dots = inner_many(F[t - 1, i], F[t, i]) * signs[i]
            mask = dots < 0
            if np.any(mask):
                F[t, i][mask] *= -1.0
                flips += int(np.count_nonzero(mask))
    return F, flips


def _euclid_norm(X: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->i", X, X))


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


def _require_inextensible(traj: Trajectory, tol: float) -> float:
    violation = _pointwise_violation(traj)
    if violation > tol:
        raise NotInextensible(violation, tol)
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
    A = _Arrays(traj, min_states=3)
    lhs = (A.speeds[2:] - A.speeds[:-2]) / (2.0 * A.dt)
    rhs = np.stack([dv_dt_rhs(traj.states[t]) for t in range(1, A.T - 1)])
    e0 = float(A.signs[0])
    r = float(np.max(np.abs(lhs - rhs)[:, A.interior]))
    r_classical = float(np.max(np.abs(lhs - e0 * rhs)[:, A.interior]))
    return _single(
        "speed_evolution",
        traj,
        {"speed_evolution": r, "speed_evolution_classical": r_classical},
        {"speed_evolution": tol, "speed_evolution_classical": tol},
        r <= tol,
        ["speed_evolution"],
        {"frame_flips": A.flips},
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
    A = _Arrays(traj, min_states=3)
    if not 1 <= at_step <= A.T - 2:
        raise InsufficientStates(
            f"at_step must be interior (1..{A.T - 2}), got {at_step}"
        )
    psi = A.psi(at_step)
    sl = A.interior
    anti = float(np.max(np.abs(psi + np.swapaxes(psi, 0, 1))[:, :, sl]))
    diag = float(np.max(np.abs(psi[np.arange(A.m), np.arange(A.m)][:, sl])))
    return PsiMatrix(values=psi, at_step=at_step, antisymmetry_residual=anti, diagonal_residual=diag)


def check_psi_antisymmetry(traj: Trajectory, tolerance: float | None = None) -> VerificationReport:
    """Psi_kj + Psi_jk = 0 and Psi_jj = 0 at every interior step."""
    tol = DEFAULT_TOLERANCES["psi_antisymmetry"] if tolerance is None else tolerance
    A = _Arrays(traj, min_states=3)
    anti = diag = 0.0
    sl = A.interior
    for t in range(1, A.T - 1):
        psi = A.psi(t)
        anti = max(anti, float(np.max(np.abs(psi + np.swapaxes(psi, 0, 1))[:, :, sl])))
        diag = max(diag, float(np.max(np.abs(psi[np.arange(A.m), np.arange(A.m)][:, sl]))))
    r = {"antisymmetry": anti, "diagonal": diag}
    passed = anti <= tol and diag <= tol
    return _single(
        "psi_antisymmetry",
        traj,
        r,
        {"antisymmetry": tol, "diagonal": tol},
        passed,
        ["antisymmetry", "diagonal"],
        {"frame_flips": A.flips},
    )


def check_frame_evolution(
    traj: Trajectory,
    tolerance: float | None = None,
    inextensibility_tol: float = INEXTENSIBILITY_PRECONDITION_TOL,
) -> VerificationReport:
    """Frame evolution under an inextensible flow.

    Residuals: the full tangent-vector equation; the predicted V1
    coefficient of each higher frame vector's velocity; and the
    reconstruction of those velocities from the psi coefficients, in both
    the metric-consistent and the bare-projection reading.
    """
    tol = DEFAULT_TOLERANCES["frame_evolution"] if tolerance is None else tolerance
    violation = _require_inextensible(traj, inextensibility_tol)
    A = _Arrays(traj, min_states=3)
    m = A.m
    r_tangent = 0.0
    r_mid = 0.0
    r_last = 0.0
    r_recon_metric = 0.0
    r_recon_bare = 0.0
    for t in range(1, A.T - 1):
        fdot = (A.frames[t + 1] - A.frames[t - 1]) / (2.0 * A.dt)
        # Tangent equation: sum over the higher frame directions.
        rhs1 = np.zeros((A.N, A.n))
        for i in range(2, m):
            coef = (
                A.f_at(t, i - 1) * A.k_at(t, i - 1)
                + A.dfds(t, i)
                - A.eps(i - 1) * A.eps(i) * A.f_at(t, i + 1) * A.k_at(t, i)
            )
            rhs1 += coef[:, None] * A.V(t, i)
        if m >= 2:
            coef_last = A.f_at(t, m - 1) * A.k_at(t, m - 1) + A.dfds(t, m)
            rhs1 += coef_last[:, None] * A.V(t, m)
        r_tangent = max(r_tangent, float(np.max(_euclid_norm(fdot[0] - rhs1)[A.interior])))

        if m < 2:
            continue
        psi = A.psi(t)
        e0 = A.eps(0)
        for j in range(2, m + 1):
            c1 = e0 * inner_many(fdot[j - 1], A.V(t, 1))
            if j < m:
                target = -e0 * (
                    A.eps(j - 1) * (A.f_at(t, j - 1) * A.k_at(t, j - 1) + A.dfds(t, j))
                    - A.eps(j) * A.f_at(t, j + 1) * A.k_at(t, j)
                )
                r_mid = max(r_mid, float(np.max(np.abs(c1 - target)[A.interior])))
            else:
                target = -e0 * A.eps(m - 1) * (
                    A.f_at(t, m - 1) * A.k_at(t, m - 1) + A.dfds(t, m)
                )
                r_last = max(r_last, float(np.max(np.abs(c1 - target)[A.interior])))
            base = target[:, None] * A.V(t, 1)
            recon_metric = base.copy()
            recon_bare = base.copy()
            for k in range(2, m + 1):
                if k == j:
                    continue
                p = A.psi_at(psi, k, j)
                recon_metric += (A.eps(k - 1) * p)[:, None] * A.V(t, k)
                recon_bare += p[:, None] * A.V(t, k)
            r_recon_metric = max(
                r_recon_metric, float(np.max(_euclid_norm(fdot[j - 1] - recon_metric)[A.interior]))
            )
            r_recon_bare = max(
                r_recon_bare, float(np.max(_euclid_norm(fdot[j - 1] - recon_bare)[A.interior]))
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
        {"frame_flips": A.flips, "inextensibility_violation": violation},
    )


def check_curvature_pde(
    traj: Trajectory,
    tolerance: float | None = None,
    inextensibility_tol: float = INEXTENSIBILITY_PRECONDITION_TOL,
) -> VerificationReport:
    """Time evolution of the curvatures under an inextensible flow.

    The first curvature is checked against its closed-form right-hand side
    in the speeds (jet-exact f derivatives, stencil k derivatives); every
    curvature is additionally checked against its psi-based equation, in
    both the classical-convention ("classical") and the metric-consistent reading.
    Equations whose coefficient curvatures vanish identically are flagged
    as degenerate in the details but still measured.
    """
    tol = DEFAULT_TOLERANCES["curvature_pde"] if tolerance is None else tolerance
    violation = _require_inextensible(traj, inextensibility_tol)
    A = _Arrays(traj, min_states=3)
    m = A.m
    if m < 2:
        raise CurveFlowError("curvature check needs at least two frame vectors")
    kdot = (A.k[2:] - A.k[:-2]) / (2.0 * A.dt)  # (T-2, m-1, N)
    rA = 0.0
    k1_rate_max = 0.0
    k1_rhs_max = 0.0
    r_metric = {i: 0.0 for i in range(1, m)}
    r_classical = {i: 0.0 for i in range(1, m)}
    for t in range(1, A.T - 1):
        c = A.curves[t]
        e = A.eps
        k1, k2, k3 = A.k_at(t, 1), A.k_at(t, 2), A.k_at(t, 3)
        f1, f2, f3, f4 = (A.f_at(t, i) for i in (1, 2, 3, 4))
        rhs_a = (
            e(0) * e(1) * f2 * k1**2
            + f1 * d_ds(k1, c)
            + A.dfds(t, 2, order=2)
            - 2.0 * e(1) * e(2) * A.dfds(t, 3) * k2
            - e(1) * e(2) * f3 * d_ds(k2, c)
            - e(1) * e(2) * f2 * k2**2
            + e(1) * e(3) * f4 * k2 * k3
        )
        rA = max(rA, float(np.max(np.abs(kdot[t - 1, 0] - rhs_a)[A.interior])))
        k1_rate_max = max(k1_rate_max, float(np.max(np.abs(kdot[t - 1, 0])[A.interior])))
        k1_rhs_max = max(k1_rhs_max, float(np.max(np.abs(rhs_a)[A.interior])))

        psi = A.psi(t)
        dpsi = {}

        def dpsi_ds(kk: int, jj: int) -> np.ndarray:
            if not (1 <= kk <= m and 1 <= jj <= m):
                return np.zeros(A.N)
            if (kk, jj) not in dpsi:
                dpsi[(kk, jj)] = d_ds(A.psi_at(psi, kk, jj), c)
            return dpsi[(kk, jj)]

        for i in range(1, m):
            lhs = kdot[t - 1, i - 1]
            if i == m - 1:
                classical_rhs = -e(m - 2) * e(m - 1) * (
                    dpsi_ds(m - 1, m) + A.psi_at(psi, m - 2, m) * A.k_at(t, m - 2)
                )
            else:
                classical_rhs = dpsi_ds(i + 1, i) - e(i) * e(i + 1) * A.psi_at(
                    psi, i + 2, i
                ) * A.k_at(t, i + 1)
            metric_rhs = e(i) * (
                dpsi_ds(i + 1, i) - A.psi_at(psi, i + 2, i) * A.k_at(t, i + 1)
            ) - e(i - 2) * e(i - 1) * e(i) * A.k_at(t, i - 1) * A.psi_at(psi, i - 1, i + 1)
            r_classical[i] = max(
                r_classical[i], float(np.max(np.abs(lhs - classical_rhs)[A.interior]))
            )
            r_metric[i] = max(r_metric[i], float(np.max(np.abs(lhs - metric_rhs)[A.interior])))

    residuals = {"k1_flow_form": rA}
    gated = ["k1_flow_form"]
    degenerate = []
    for i in range(1, m):
        residuals[f"k{i}_psi_metric"] = r_metric[i]
        residuals[f"k{i}_psi_classical"] = r_classical[i]
        gated.append(f"k{i}_psi_metric")
        needed = [j for j in (i - 1, i + 1) if 1 <= j <= m - 1]
        if any(float(np.max(np.abs(A.k[:, j - 1]))) < 1e-10 for j in needed):
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
            "frame_flips": A.flips,
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
