import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from curveflow import exprjet, verify
from curveflow.curvekit import CLOSED, OPEN, CurveSpec, d_ds, d_du4, sample
from curveflow.errors import CurveFlowError, DomainError, InsufficientStates, NotInextensible
from curveflow.flowsim import FlowSpec, Trajectory, arclength_drift, dv_dt_rhs, evolve, initial_state
from curveflow.minkowski import dot_many
from curveflow.verify import (
    CHECKS,
    check_curvature_pde,
    check_frame_evolution,
    check_iff_condition,
    check_psi_antisymmetry,
    check_speed_evolution,
    k1_rate,
    merge_reports,
    run_check,
)
from conftest import (
    catalog_curve,
    catalog_flow,
    orthonormality_residual,
    package_calls,
    random_explicit_flow,
    run_flow,
)


# --- speed evolution --------------------------------------------------------


def test_speed_evolution_zero_flow(zero_traj):
    rep = check_speed_evolution(zero_traj)
    assert rep.residuals[0]["speed_evolution"] == 0.0
    assert rep.passed


def test_speed_evolution_rigid(rigid_traj_short):
    rep = check_speed_evolution(rigid_traj_short)
    assert rep.residuals[0]["speed_evolution"] < 1e-4
    assert rep.passed


def test_speed_evolution_shrink(shrink_traj):
    rep = check_speed_evolution(shrink_traj)
    assert rep.residuals[0]["speed_evolution"] < 1e-3
    assert rep.passed


@pytest.mark.parametrize("name", list(CHECKS))
def test_an_empty_trajectory_has_insufficient_states(name):
    with pytest.raises(InsufficientStates, match="needs at least 2" if name == "iff_condition" else "has 0"):
        run_check(name, Trajectory([], 1e-3, catalog_flow("zero", 3)))


def test_speed_evolution_needs_three_states(circle_256):
    flow = catalog_flow("zero", 3)
    traj = evolve(initial_state(circle_256, flow), flow, 1e-3, 1)
    with pytest.raises(InsufficientStates):
        check_speed_evolution(traj)


@pytest.fixture(scope="module")
def explicit_hyperbola_traj():
    """An explicit flow on the timelike hyperbola: e0 = -1 and a speed that
    changes, so the classical speed reading differs from the metric one."""
    c = sample(catalog_curve("hyperbola", 128))
    flow = random_explicit_flow(2, 1)
    return evolve(initial_state(c, flow), flow, 1e-3, 20)


def test_speed_evolution_classical_variant_differs_on_timelike(explicit_hyperbola_traj):
    # explicit tangential speed on a timelike curve separates the two
    # readings of the rate equation: only the metric one holds
    row = check_speed_evolution(explicit_hyperbola_traj).residuals[0]
    assert row["speed_evolution"] < 1e-3
    assert row["speed_evolution_classical"] > 0.5


# --- iff condition ----------------------------------------------------------


def test_iff_zero_flow(zero_traj):
    rep = check_iff_condition(zero_traj)
    assert rep.residuals[0]["pointwise"] == 0.0
    assert rep.residuals[0]["drift"] == 0.0
    assert rep.passed


def test_iff_synthesized(sine_traj_short):
    rep = check_iff_condition(sine_traj_short)
    assert rep.residuals[0]["pointwise"] < 1e-6
    assert rep.residuals[0]["drift"] < 1e-4
    assert rep.passed and rep.details["equivalence"]


def test_iff_shrink_both_sides_large(shrink_traj):
    rep = check_iff_condition(shrink_traj)
    assert rep.residuals[0]["pointwise"] > 0.5
    assert rep.residuals[0]["drift"] == pytest.approx(0.1 * 2 * np.pi, rel=1e-3)
    assert rep.passed  # equivalence upheld: both sides large
    assert not rep.details["pointwise_small"] and not rep.details["drift_small"]


# --- psi matrix -------------------------------------------------------------


def _probe(traj, plan, orders=()):
    """The report of a window check whose ``plan(w)`` declares its rows on
    ``w.results`` and returns its block function, with jets to ``orders``;
    it reads speed_evolution's tolerance.  traj is fed in one call."""

    class Probe(verify.SpeedEvolution):
        def plan(self):
            self.orders = orders
            return plan(self)

    return Probe.of(traj)


def _blocks(traj, read, orders=()):
    """read(w) at each block of states that a window walks over traj, in order."""
    found = []

    def plan(w):
        w.results.add("nothing")

        def block(w, buf):
            buf[...] = 0.0
            found.append(read(w))

        return block

    _probe(traj, plan, orders)
    return found


def _each_state(traj, read, orders=()):
    """read(w, r) at each step r of each block of states a window walks over traj."""
    return [x for block in _blocks(traj, lambda w: [read(w, r) for r in range(w.size)], orders) for x in block]


def test_psi_zero_flow(zero_traj):
    for psi in _each_state(zero_traj, lambda w, r: w.psi(r)):
        assert np.max(np.abs(psi)) < 1e-14


def test_psi_rigid_rotation(rigid_traj_short):
    # V1 rotates into V2 at unit rate, at every step
    psis = _each_state(rigid_traj_short, lambda w, r: w.psi(r))
    assert len(psis) == len(rigid_traj_short.states) - 2
    for psi in psis:
        assert np.max(np.abs(psi[1, 0] - 1.0)) < 1e-3
        assert np.max(np.abs(psi[0, 1] + 1.0)) < 1e-3
        assert np.max(np.abs(psi + np.swapaxes(psi, 0, 1))) < 1e-6
        assert np.max(np.abs(np.diagonal(psi))) < 1e-6


def test_psi_antisymmetry_helix(helix_traj):
    rep = check_psi_antisymmetry(helix_traj)
    assert rep.residuals[0]["antisymmetry"] < 1e-5
    assert rep.residuals[0]["diagonal"] < 1e-5
    assert rep.passed


# --- frame evolution --------------------------------------------------------


def test_frame_evolution_zero_flow(zero_traj):
    rep = check_frame_evolution(zero_traj)
    assert all(v < 1e-14 for v in rep.residuals[0].values())
    assert rep.passed


def test_frame_evolution_rigid(rigid_traj_short):
    rep = check_frame_evolution(rigid_traj_short)
    assert rep.residuals[0]["tangent_equation"] < 1e-3
    assert rep.passed


def test_frame_evolution_requires_inextensible(shrink_traj):
    with pytest.raises(NotInextensible):
        check_frame_evolution(shrink_traj)


def test_frame_evolution_helix(helix_traj):
    rep = check_frame_evolution(helix_traj, tolerance=5e-3)
    assert rep.passed
    row = rep.residuals[0]
    assert row["reconstruction_metric"] <= row["reconstruction_bare"] + 1e-12


def test_frame_evolution_with_one_frame_vector():
    # m = 1: no frame vector to expand dV_1/dt in, so the tangent equation
    # predicts 0 and reads the largest |dV_1/dt|; the check forms no other row
    curve = sample(CurveSpec.from_strings(("sqrt(2)*u", "cos(u)", "sin(u)"), (0.0, 6.0), OPEN, 64))
    flow = FlowSpec.explicit(["0.3", "0", "0"])  # a slide along the tangent
    traj = evolve(initial_state(curve, flow, 1), flow, 1e-3, 5)
    peak = max(_each_state(traj, lambda w, r: float(np.max(np.sqrt(dot_many(w.fdot(r)[0], w.fdot(r)[0]))[w.interior]))))
    rep = check_frame_evolution(traj)
    assert list(rep.residuals[0]) == ["tangent_equation"]
    assert rep.residuals[0]["tangent_equation"].hex() == peak.hex() and peak > 0.1


def test_metric_reconstruction_beats_bare_with_timelike_vector():
    # spacelike helix: the third frame vector is timelike, so bare
    # projection coefficients are wrong by a sign there
    traj = run_flow("spacelike_helix", "helix_twist", 128, 5e-4, 8)
    row = check_frame_evolution(traj, tolerance=5e-3).residuals[0]
    assert row["reconstruction_metric"] < 1e-3
    assert row["reconstruction_bare"] > 1.0
    assert row["reconstruction_metric"] < row["reconstruction_bare"]


# --- curvature PDE ----------------------------------------------------------


def test_curvature_pde_zero_flow(zero_traj):
    rep = check_curvature_pde(zero_traj)
    assert all(v < 1e-14 for v in rep.residuals[0].values())
    assert rep.passed


def test_curvature_pde_rigid(rigid_traj_short):
    rep = check_curvature_pde(rigid_traj_short)
    # both sides of the first-curvature equation vanish for this flow
    assert rep.details["k1_rate_max"] < 1e-3
    assert rep.details["k1_flow_rhs_max"] < 1e-3
    assert rep.residuals[0]["k1_flow_form"] < 1e-3
    assert "k1" in rep.details["degenerate_equations"]  # k2 == 0 identically
    assert rep.passed


def test_curvature_pde_requires_inextensible(shrink_traj):
    with pytest.raises(NotInextensible):
        check_curvature_pde(shrink_traj)


def test_curvature_pde_helix(helix_traj):
    rep = check_curvature_pde(helix_traj, tolerance=1e-2)
    assert rep.passed
    # timelike curve: the classical last-curvature equation misses a sign
    row = rep.residuals[0]
    assert row["k2_psi_metric"] < 1e-2
    assert row["k2_psi_classical"] > 0.1


def test_curvature_pde_hyperbola_classical_vs_metric():
    traj = run_flow("hyperbola", "inextensible_sine", 256, 1e-3, 50)
    row = check_curvature_pde(traj).residuals[0]
    assert row["k1_psi_metric"] < 1e-4
    assert row["k1_psi_classical"] > 1.0  # timelike curve, sign defect


def test_curvature_pde_spacelike_helix_classical_agrees():
    # spacelike curve: the classical psi equations carry the right signs
    traj = run_flow("spacelike_helix", "helix_twist", 128, 5e-4, 8)
    row = check_curvature_pde(traj, tolerance=1e-2).residuals[0]
    assert row["k1_psi_classical"] < 2e-3
    assert abs(row["k1_psi_classical"] - row["k1_psi_metric"]) < 1e-3


def test_clamped_frame_matches_lower_dimension(helix_traj):
    # The timelike helix in the 3-space x4 = 0 of E1^4, with the frame clamped
    # to 3 vectors (m < n): the padded fields past the frame hold f4 = 0, and
    # every frame and curvature residual is that of the E1^3 run.
    curve = sample(CurveSpec.from_strings(
        ("sqrt(2)*u", "cos(u)", "sin(u)", "0"), (0.0, 2.0 * np.pi), OPEN, 128
    ))
    flow = FlowSpec.inextensible(["sin(s)", "cos(s)", "0"])
    state = initial_state(curve, flow, 3)
    assert state.frenet.num_vectors == 3 < curve.n
    traj = evolve(state, flow, helix_traj.dt, len(helix_traj.states) - 1)
    for check in (check_frame_evolution, check_curvature_pde):
        clamped = check(traj).residuals[0]
        reference = check(helix_traj).residuals[0]
        assert clamped.keys() == reference.keys()
        for name, value in reference.items():
            assert clamped[name] == pytest.approx(value, rel=1e-12, abs=1e-300), name


def test_curvature_pde_four_frame_f4_term():
    # n = 4 with a timelike fourth frame vector: only f4 drives the flow
    # (f1 = f2 = f3 = 0), so the k1 equation reduces to its e1 e3 f4 k2 k3 term.
    curve = sample(CurveSpec.from_strings(
        ("cosh(u)", "sinh(u)", "cos(2*u)", "sin(2*u)"), (0.0, 2.0), OPEN, 64
    ))
    flow = FlowSpec.inextensible(["0", "0", "0.05"])
    state = initial_state(curve, flow)
    assert state.frenet.signs.tolist() == [1, 1, 1, -1]
    rep = check_curvature_pde(evolve(state, flow, 1e-3, 10))
    assert rep.details["k1_rate_max"] > 1e-2
    assert rep.residuals[0]["k1_flow_form"] < 1e-3


# --- refinement orders ------------------------------------------------------


LADDER = [(64, 1e-3, 4), (128, 5e-4, 8), (256, 2.5e-4, 16)]
PDE_LADDER = [(32, 2e-3, 2), (64, 1e-3, 4), (128, 5e-4, 8)]


def _ladder_reports(check_name, ladder, tolerance=None):
    reports = []
    for n_s, dt, steps in ladder:
        traj = run_flow("timelike_helix", "helix_twist", n_s, dt, steps)
        reports.append(CHECKS[check_name](traj, tolerance))
    return merge_reports(reports)


def test_orders_speed_and_frame():
    rep = _ladder_reports("speed_evolution", LADDER, 0.02)
    assert 1.5 <= rep.orders["speed_evolution"] <= 2.5
    rep = _ladder_reports("frame_evolution", LADDER, 0.02)
    assert 1.5 <= rep.orders["tangent_equation"] <= 2.5
    assert 1.5 <= rep.orders["reconstruction_metric"] <= 2.5


def test_orders_curvature_pde():
    rep = _ladder_reports("curvature_pde", PDE_LADDER, 0.2)
    assert 1.5 <= rep.orders["k1_flow_form"] <= 2.5
    assert 1.5 <= rep.orders["k1_psi_metric"] <= 2.5


def test_orthonormality_conserved_along_trajectory(sine_traj_short):
    worst = max(orthonormality_residual(st.frenet) for st in sine_traj_short.states)
    assert worst < 1e-6


# --- sliding window ---------------------------------------------------------


def _with_flipped_frame(traj, step, flips, factor=-1.0):
    """Copy of traj whose state ``step`` has frame vector i negated, or
    multiplied by ``factor``, at samples sl."""
    st = traj.states[step]
    frame = st.frenet.frame.copy()
    for i, sl in flips:
        frame[i - 1, :, sl] *= factor
    states = list(traj.states)
    states[step] = dataclasses.replace(st, frenet=dataclasses.replace(st.frenet, frame=frame))
    return dataclasses.replace(traj, states=states)


def test_frame_alignment_undoes_pointwise_sign_flips():
    # Every bundled run reports frame_flips == 0, so flips are planted by hand:
    # V_2 at samples 10-20 and V_3 at samples 30-32 of state 5 (11 + 3 flips).
    traj = run_flow("circle", "inextensible_sine", 64, 1e-3, 12)
    flipped = _with_flipped_frame(traj, 5, [(2, slice(10, 21)), (3, slice(30, 33))])
    for name, check in CHECKS.items():
        ref, rep = check(traj), check(flipped)
        assert rep.residuals == ref.residuals, name
        if name != "iff_condition":
            assert ref.details["frame_flips"] == 0, name
            assert rep.details["frame_flips"] == 14, name
    for a, b in zip(_each_state(flipped, lambda w, r: w.psi(r)), _each_state(traj, lambda w, r: w.psi(r)), strict=True):
        assert np.array_equal(a, b)


def _with_changed_signature(traj, step):
    """Copy of traj whose state ``step`` reports the opposite frame signs."""
    st = traj.states[step]
    states = list(traj.states)
    states[step] = dataclasses.replace(st, frenet=dataclasses.replace(st.frenet, signs=-st.frenet.signs))
    return dataclasses.replace(traj, states=states)


@pytest.fixture(scope="module")
def time_dependent_traj():
    """Closed circle under an inextensible flow whose f2 depends on t; f3 is a constant."""
    c = sample(catalog_curve("circle", 64))
    flow = FlowSpec.inextensible(["(1+t)*sin(s)", "0"])
    return evolve(initial_state(c, flow), flow, 1e-3, 20)


@pytest.fixture(scope="module")
def helix_traj_long():
    """Open timelike helix under the twist, 18 states."""
    return run_flow("timelike_helix", "helix_twist", 64, 5e-4, 17)


@pytest.fixture(scope="module")
def timelike_v4_long():
    """The n = 4 timelike-V4 curve under f2, f3 and f4, 18 states."""
    components = ("cosh(u)", "sinh(u)", "cos(2*u)", "sin(2*u)")
    return _traj_of(components, (0.0, 2.0), TIMELIKE_V4_FLOWS["f2_f3_f4"], 64, 1e-3, 17)


def _flipped_from(traj, steps):
    """traj with V_2 flipped at samples 10-20 and the last frame vector at
    30-32 (timelike in the n = 4 flow) in each state of ``steps``."""
    m = traj.states[0].frenet.num_vectors
    for step in steps:
        traj = _with_flipped_frame(traj, step, [(2, slice(10, 21)), (m, slice(30, 33))])
    return traj


# Frame flips and a signature change planted around the second block of steps,
# 9..16, whose flip test takes states 10..17 against the frames before them.
PLANTS = {
    "flip_first": lambda traj: _flipped_from(traj, [10]),
    "flip_middle": lambda traj: _flipped_from(traj, [13]),
    "flip_last": lambda traj: _flipped_from(traj, [17]),
    "flip_before": lambda traj: _flipped_from(traj, [9]),
    # flipped from state 9 on: the block's products show no flip, but the chain enters it flipped
    "flipped_on_entry": lambda traj: _flipped_from(traj, range(9, len(traj.states))),
    "signature_inside": lambda traj: _with_changed_signature(traj, 13),
    # flipped from state 9 on, and state 13's V_2 zero at three flipped samples, or NaN at one:
    # its products there are zero or NaN, which clears the flip the chain carries
    "zero_reset": lambda traj: _with_flipped_frame(
        _flipped_from(traj, range(9, len(traj.states))), 13, [(2, slice(14, 17))], 0.0
    ),
    "nan_reset": lambda traj: _with_flipped_frame(
        _flipped_from(traj, range(9, len(traj.states))), 13, [(2, slice(15, 16))], np.nan
    ),
}
FLIP_PLANTS = [name for name in PLANTS if name != "signature_inside"]


def _outcomes(traj) -> list:
    """Each check's report JSON, or the type and message of its error."""
    found = []
    for check in CHECKS.values():
        try:
            found.append(json.dumps(check(traj).to_json_dict(), sort_keys=True))
        except CurveFlowError as err:
            found.append((type(err).__name__, str(err)))
    return found


@pytest.mark.parametrize(
    "traj_name",
    ["time_dependent_traj", "helix_traj_long", "timelike_v4_long"]
    + [f"{name}:{plant}" for name in ("time_dependent_traj", "timelike_v4_long") for plant in PLANTS],
)
def test_blocks_of_states_give_the_reports_of_single_states(traj_name, request, monkeypatch):
    # speed jets, flip tests, inextensibility gaps, residual folds and
    # curvature_pde's row arithmetic run per block of states; blocks of one
    # state are the reference, at lengths around the block size, so full,
    # partial and single-state last blocks all occur.  The n = 4 flow forms
    # the k3 and several-j readings, and its last frame vector is timelike.
    # A planted flip or signature change (``PLANTS``) sends its block down
    # the per-state path: the reports, flip counts included, or the first
    # errors are those of single states.
    name, _, plant = traj_name.partition(":")
    traj = request.getfixturevalue(name)
    if plant:
        traj = PLANTS[plant](traj)
    by_length = {}
    for blocks in (verify.BLOCK_STATES, 1):
        monkeypatch.setattr(verify, "BLOCK_STATES", blocks)
        for length in (3, 4, 9, 10, 11, 17, 18):
            part = dataclasses.replace(traj, states=traj.states[:length])
            by_length.setdefault(length, []).append(_outcomes(part))
    for length, (blocked, single) in by_length.items():
        assert blocked == single, length
    if plant in FLIP_PLANTS:
        assert json.loads(by_length[18][0][0])["details"]["frame_flips"] > 0


def _with_nan(traj, step, where):
    """Copy of traj with one NaN sample in state ``step``'s f2, speed or k2."""
    st = traj.states[step]
    if where == "f_values":
        values = st.f_values.copy()
        values[1, 10] = np.nan
        st = dataclasses.replace(st, f_values=values)
    elif where == "speeds":
        speeds = st.curve.speeds.copy()
        speeds[10] = np.nan
        st = dataclasses.replace(st, curve=dataclasses.replace(st.curve, speeds=speeds))
    else:
        curvatures = st.frenet.curvatures.copy()
        curvatures[1, 10] = np.nan
        st = dataclasses.replace(st, frenet=dataclasses.replace(st.frenet, curvatures=curvatures))
    states = list(traj.states)
    states[step] = st
    return dataclasses.replace(traj, states=states)


@pytest.mark.parametrize(
    "where, step",
    [("f_values", 12), ("speeds", 12), ("curvatures", 12), ("curvatures", 0), ("curvatures", 20)],
)
def test_nan_in_a_block_reads_as_in_single_states(time_dependent_traj, where, step, monkeypatch):
    # one NaN sample in state 12, in the middle of the block of states 9..16,
    # or in an end state's curvature, which no window centres: the reports of
    # a walk of blocks are those of a walk of single states, NaN included.
    # The planar flow's k2 is flat, so k1's equation reads as degenerate; a
    # NaN k2 is not flat.
    assert check_curvature_pde(time_dependent_traj).details["degenerate_equations"] == ["k1"]
    broken = _with_nan(time_dependent_traj, step, where)
    reports = []
    for blocks in (verify.BLOCK_STATES, 1):
        monkeypatch.setattr(verify, "BLOCK_STATES", blocks)
        reports.append(json.dumps({name: check(broken).to_json_dict() for name, check in CHECKS.items()}))
    assert reports[0] == reports[1]
    rep = check_curvature_pde(broken)
    assert np.isnan(rep.residuals[0]["k2_psi_metric" if where == "curvatures" else "k1_flow_form"])
    assert not rep.passed
    if where == "curvatures":
        assert rep.details["degenerate_equations"] == []


@pytest.mark.parametrize(
    "changed_state, first, plant",
    [
        pytest.param(11, "signature", None, id="11-signature"),
        pytest.param(14, "domain", None, id="14-domain"),
        *(
            pytest.param(state, first, plant, id=f"{state}-{first}-{plant}")
            for state, first in ((11, "signature"), (14, "domain"))
            for plant in FLIP_PLANTS
        ),
    ],
)
def test_first_error_of_a_walk_comes_first(time_dependent_traj, changed_state, first, plant):
    # f2's jet divides by zero at state 12 alone, in the block of states
    # 9..16; a frame signature change at state s is met at step s - 1, when
    # that state enters the window.  Whichever step comes first raises, as in
    # a walk of single states: the block's failure must not jump ahead, with
    # or without frame flips planted around the block (``PLANTS``).
    traj = time_dependent_traj
    flow = FlowSpec.inextensible([f"sin(s)/(t - {traj.states[12].t!r})", "0"])
    broken = _with_changed_signature(dataclasses.replace(traj, flow=flow), changed_state)
    if plant is not None:
        broken = PLANTS[plant](broken)
    expected = {
        "signature": (CurveFlowError, "frame signature changed along the trajectory"),
        "domain": (DomainError, "division by zero in jet arithmetic"),
    }[first]
    for check in (check_frame_evolution, check_curvature_pde):
        with pytest.raises(CurveFlowError) as err:
            check(broken)
        assert (type(err.value), str(err.value)) == expected, check.__name__


@pytest.mark.parametrize(
    "bad_state, shift, plant",
    [
        *(pytest.param(bad, shift, None, id=f"{shift}-{bad}") for shift in (None, -1, 1, 2) for bad in (9, 12, 16, 18)),
        *(
            pytest.param(bad, shift, plant, id=f"{shift}-{bad}-{plant}")
            for plant in FLIP_PLANTS
            for shift in (None, 1)
            for bad in (12, 16)
        ),
    ],
)
def test_first_error_of_a_walk_is_the_error_of_single_states(
    time_dependent_traj, bad_state, shift, plant, monkeypatch
):
    # f2's jet divides by zero at ``bad_state`` alone: the first (9), a
    # middle (12) or the last (16) state of the block 9..16, or a state of
    # the last, partial block 17..19.  The frame signature changes ``shift``
    # states after it (met at step bad_state + shift - 1), or nowhere.  Frame
    # flips may be planted around the block (``PLANTS``).  A walk of blocks
    # raises what a walk of single states raises.
    traj = time_dependent_traj
    flow = FlowSpec.inextensible([f"sin(s)/(t - {traj.states[bad_state].t!r})", "0"])
    broken = dataclasses.replace(traj, flow=flow)
    if shift is not None:
        broken = _with_changed_signature(broken, bad_state + shift)
    if plant is not None:
        broken = PLANTS[plant](broken)

    def outcomes():
        found = []
        for check in (check_frame_evolution, check_curvature_pde):
            with pytest.raises(CurveFlowError) as err:
                check(broken)
            found.append((type(err.value), str(err.value)))
        return found

    blocked = outcomes()
    monkeypatch.setattr(verify, "BLOCK_STATES", 1)
    assert blocked == outcomes()


@pytest.mark.parametrize(
    "traj_name, length",
    [("helix_traj_long", 18), ("helix_traj_long", 11), ("time_dependent_traj", 21)],
)
def test_walk_forms_one_jet_per_speed_per_block(traj_name, length, request, monkeypatch):
    # The checks that read speed jets form one per speed f_2, f_3 per block
    # of states, a constant's too (the time-dependent circle flow's f3 is
    # "0"), and the others form none.
    traj = request.getfixturevalue(traj_name)
    speeds = len(traj.flow.speeds) - 1
    part = dataclasses.replace(traj, states=traj.states[:length])
    calls = []
    eval_jet = exprjet.eval_jet

    def counted(*args, **kwargs):
        calls.append(args[0])
        return eval_jet(*args, **kwargs)

    monkeypatch.setattr(verify.exprjet, "eval_jet", counted)
    blocks = -(-(length - 2) // verify.BLOCK_STATES)
    for name, check in CHECKS.items():
        calls.clear()
        check(part)
        expected = speeds * blocks if name in ("frame_evolution", "curvature_pde") else 0
        assert len(calls) == expected, name


def test_psi_matrix_matches_pairwise_products(sine_traj_short):
    # one batched inner product against the m*m loop over (k, j); no flips here
    from curveflow.minkowski import inner_many

    states = sine_traj_short.states
    fdot = (states[8].frenet.frame - states[6].frenet.frame) / (2.0 * sine_traj_short.dt)
    frame = states[7].frenet.frame
    m = len(frame)
    ref = np.array([[inner_many(fdot[j], frame[k]) for j in range(m)] for k in range(m)])
    psi = _blocks(sine_traj_short, lambda w: w.psi(6) if w.size > 6 else None)[0]  # the block of steps 1..8
    assert np.array_equal(psi, ref)


def _traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_check_memory_does_not_grow_with_trajectory_length():
    # The checks hold a three-state window and blocks of BLOCK_STATES
    # states, not stacks of every state: the peak each one allocates stays a
    # small multiple of one frame at 400 steps, and no larger than at 100.
    traj = run_flow("circle", "inextensible_sine", 64, 1e-3, 400)
    short = dataclasses.replace(traj, states=traj.states[:101])
    frame_bytes = traj.states[0].frenet.frame.nbytes
    for name, check in CHECKS.items():
        at_100, at_400 = _traced_peak(check, short), _traced_peak(check, traj)
        assert at_400 < 40 * frame_bytes, (name, at_400 / frame_bytes)
        assert at_400 <= at_100 + 0.1 * frame_bytes, (name, at_100 / frame_bytes, at_400 / frame_bytes)
    assert _traced_peak(arclength_drift, traj) <= _traced_peak(arclength_drift, short)


# Upper bounds on package_calls of each window check over the 59 walked
# states of the 61-state circle at N=64: this code's counts (per state:
# 2.92 and 3.25, 6.58 and 6.58, 15.37 and 18.36, 14.36 and 13.63).
CALL_BUDGET = {
    "speed_evolution": (172, 192),
    "psi_antisymmetry": (388, 388),
    "frame_evolution": (907, 1083),
    "curvature_pde": (847, 804),
}


def test_window_checks_stay_within_their_calls_per_state():
    traj = run_flow("circle", "inextensible_sine", 64, 1e-3, 60)
    for name, budget in CALL_BUDGET.items():
        CHECKS[name](traj)  # caches and imports first
        counts = package_calls(lambda: CHECKS[name](traj))
        walked = len(traj.states) - 2
        assert counts[0] <= budget[0] and counts[1] <= budget[1], (name, counts, walked)


def test_nan_speed_rate_fails_speed_evolution():
    # a NaN sample is not a pass: the running maximum keeps it, and NaN is
    # within no tolerance
    traj = run_flow("circle", "inextensible_sine", 64, 1e-3, 10)
    assert check_speed_evolution(traj).passed
    traj.states[5].f1_s[10] = np.nan
    rep = check_speed_evolution(traj)
    assert np.isnan(rep.residuals[0]["speed_evolution"])
    assert not rep.passed


def test_nan_speed_fails_iff_condition():
    traj = run_flow("circle", "inextensible_sine", 64, 1e-3, 10)
    assert check_iff_condition(traj).passed
    traj.states[4].f_values[1, 10] = np.nan
    rep = check_iff_condition(traj)
    assert np.isnan(rep.residuals[0]["pointwise"])
    assert not rep.details["pointwise_small"]
    assert not rep.passed


def test_nan_speed_fails_iff_condition_with_a_large_drift():
    # the shrinking circle's drift is not small, and NaN is not small
    # either: the sides would agree, yet a NaN reading fails the gate
    traj = run_flow("circle", "normal_shrink", 64, 1e-3, 10)
    traj.states[4].f_values[1, 10] = np.nan
    rep = check_iff_condition(traj)
    assert np.isnan(rep.residuals[0]["pointwise"])
    assert rep.residuals[0]["drift"] > 0.05 and not rep.details["drift_small"]
    assert not rep.details["equivalence"]
    assert not rep.passed


def test_nan_on_both_sides_fails_iff_condition():
    traj = run_flow("circle", "inextensible_sine", 64, 1e-3, 10)
    traj.states[4].f_values[1, 10] = np.nan
    st = traj.states[6]
    traj.states[6] = dataclasses.replace(
        st, curve=dataclasses.replace(st.curve, total_length=float("nan"))
    )
    rep = check_iff_condition(traj)
    assert np.isnan(rep.residuals[0]["pointwise"]) and np.isnan(rep.residuals[0]["drift"])
    assert not rep.passed


@pytest.mark.parametrize("traj_name", ["helix_traj", "sine_traj_short"])
def test_window_fields_hold_the_jet_derivatives(traj_name, request):
    # the window writes each derivative into its row with out=; a constant
    # speed's rows are left at the +0.0 they start with.  rows() hands them
    # out as (size, N) rows over the block's states
    traj = request.getfixturevalue(traj_name)
    speeds = traj.flow.speeds

    def first_block(w):
        k, f, ds, _ = w.rows()
        assert len(ds) == 2
        r, st = 2, w.states[3]  # the block's state 2, at step 3
        for i, order in ((2, 2), (3, 1)):
            for j in range(1, 3):
                row = ds[j - 1][i][r]
                if j > order or isinstance(speeds[i - 1], exprjet.Lit):
                    assert not np.any(row) and not np.any(np.signbit(row))
                    continue
                jet = exprjet.eval_jet(speeds[i - 1], "s", st.curve.s, order, {"t": st.t})
                assert row.tobytes() == jet.derivative(j).tobytes()
        return True

    assert _blocks(traj, lambda w: w.states[0] is traj.states[0] and first_block(w), (2, 1))[0]


# --- report plumbing --------------------------------------------------------


def test_merge_reports_floors_give_no_order(zero_traj):
    reports = [check_speed_evolution(zero_traj) for _ in range(2)]
    merged = merge_reports(reports)
    assert merged.orders["speed_evolution"] is None
    assert len(merged.resolutions) == 2


def test_orders_and_gated_derive_from_the_residuals(helix_traj):
    # one resolution: no ratio to fit, so every order is None, in residual order
    rep = check_curvature_pde(helix_traj)
    assert list(rep.orders.items()) == [(name, None) for name in rep.residuals[0]]
    assert rep.to_json_dict()["order"] == rep.orders
    # merged: the finest report decides the gated names
    coarse = dataclasses.replace(rep, residuals=[{"k1_flow_form": 1.0}])
    merged = merge_reports([coarse, rep])
    assert merged.gated == rep.gated == ["k1_flow_form", "k1_psi_metric", "k2_psi_metric"]
    assert list(merged.orders) == list(rep.residuals[0])


def test_run_check_registry(zero_traj):
    assert set(CHECKS) == {
        "speed_evolution",
        "iff_condition",
        "psi_antisymmetry",
        "frame_evolution",
        "curvature_pde",
    }
    rep = run_check("speed_evolution", zero_traj)
    assert rep.identity == "speed_evolution"
    with pytest.raises(KeyError):
        run_check("nope", zero_traj)


def test_residual_names_keep_their_order(helix_traj):
    # (residual names in report order, gated names) of every check
    expected = {
        "speed_evolution": (["speed_evolution", "speed_evolution_classical"], ["speed_evolution"]),
        "iff_condition": (["pointwise", "drift"], ["pointwise", "drift"]),
        "psi_antisymmetry": (["antisymmetry", "diagonal"], ["antisymmetry", "diagonal"]),
        "frame_evolution": (
            [
                "tangent_equation",
                "v1_coefficient_mid",
                "v1_coefficient_last",
                "reconstruction_metric",
                "reconstruction_bare",
            ],
            ["tangent_equation", "v1_coefficient_mid", "v1_coefficient_last", "reconstruction_metric"],
        ),
        "curvature_pde": (
            ["k1_flow_form", "k1_psi_metric", "k1_psi_classical", "k2_psi_metric", "k2_psi_classical"],
            ["k1_flow_form", "k1_psi_metric", "k2_psi_metric"],
        ),
    }
    assert list(expected) == list(CHECKS)
    for name, (names, gated) in expected.items():
        rep = run_check(name, helix_traj)
        assert list(rep.residuals[0]) == names
        assert rep.gated == gated


def _traj_of(components, domain, speeds, samples, dt, steps, frame_vectors=None):
    curve = sample(CurveSpec.from_strings(components, domain, OPEN, samples))
    flow = FlowSpec.inextensible(speeds)
    return evolve(initial_state(curve, flow, frame_vectors), flow, dt, steps)


# m = 3 is test_residual_names_keep_their_order's timelike helix
FRAME_SIZES = {
    # m = 2: the timelike hyperbola of E1^2
    "m2": lambda: run_flow("hyperbola", "inextensible_sine", 64, 1e-3, 4),
    # m = 4, signs (+, +, +, -): e0 = +1 and some, not all, bare readings equal the metric ones
    "m4": lambda: _traj_of(
        ("cosh(u)", "sinh(u)", "cos(2*u)", "sin(2*u)"), (0.0, 2.0), ["0", "0", "0.05"], 64, 1e-3, 4
    ),
    # the clamped frame m = 3 < n = 4 of test_clamped_frame_matches_lower_dimension
    "clamped": lambda: _traj_of(
        ("sqrt(2)*u", "cos(u)", "sin(u)", "0"), (0.0, 2.0 * np.pi), ["sin(s)", "cos(s)", "0"], 64, 5e-4, 4, 3
    ),
}


@pytest.mark.parametrize("case", list(FRAME_SIZES))
def test_residual_names_keep_their_order_for_every_frame_size(case):
    # (residual names in report order, gated names) of the window checks; a
    # name's rows are declared once, and their order is the report's
    traj = FRAME_SIZES[case]()
    m = {"m2": 2, "m4": 4, "clamped": 3}[case]
    assert traj.states[0].frenet.num_vectors == m
    mid = ["v1_coefficient_mid"] if m > 2 else []
    frame = ["tangent_equation", *mid, "v1_coefficient_last", "reconstruction_metric"]
    curvature = ["k1_flow_form"] + [f"k{i}_psi_{kind}" for i in range(1, m) for kind in ("metric", "classical")]
    expected = {
        "speed_evolution": (["speed_evolution", "speed_evolution_classical"], ["speed_evolution"]),
        "psi_antisymmetry": (["antisymmetry", "diagonal"], ["antisymmetry", "diagonal"]),
        "frame_evolution": (frame + ["reconstruction_bare"], frame),
        "curvature_pde": (curvature, [name for name in curvature if not name.endswith("_classical")]),
    }
    for name, (names, gated) in expected.items():
        rep = run_check(name, traj)
        assert list(rep.residuals[0]) == names, name
        assert rep.gated == gated, name
    # the m = 4 lists written out, as a check on the comprehensions above
    if case == "m4":
        assert curvature == [
            "k1_flow_form",
            "k1_psi_metric", "k1_psi_classical",
            "k2_psi_metric", "k2_psi_classical",
            "k3_psi_metric", "k3_psi_classical",
        ]


def _closed_flow_checks(components, speeds, samples, dt, steps):
    """The initial state of an inextensible flow on a closed curve on [0, 2 pi]
    that sizes its own frame, and the worst gated reading of each check."""
    curve = sample(CurveSpec.from_strings(components, (0.0, 2.0 * np.pi), CLOSED, samples))
    flow = FlowSpec.inextensible(speeds)
    state = initial_state(curve, flow)
    traj = evolve(state, flow, dt, steps)
    worst = {}
    for name, check in CHECKS.items():
        rep = check(traj)
        assert rep.passed, (name, samples, rep.residuals[-1])
        worst[name] = max(rep.residuals[-1][g] for g in rep.gated)
    return state, worst


def test_circle_in_four_space_flows_on_its_two_vector_frame():
    # (0, cos u, sin u, 0) in E1^4: the frame stops at V_2, the flow along it
    # passes every check, and a flow along V_3 has no frame vector to follow
    circle = ("0", "cos(u)", "sin(u)", "0")
    state, _ = _closed_flow_checks(circle, ["sin(s)", "0", "0"], 64, 1e-3, 10)
    assert state.frenet.num_vectors == 2
    curve = sample(CurveSpec.from_strings(circle, (0.0, 2.0 * np.pi), CLOSED, 64))
    with pytest.raises(CurveFlowError, match=r"flow drives frame direction 3\.\.4 but only 2"):
        initial_state(curve, FlowSpec.inextensible(["sin(s)", "0.05", "0"]))


W7 = ("0", "cos(u)", "sin(u)", "cos(2*u)/2", "sin(2*u)/2", "cos(3*u)/3", "sin(3*u)/3")
# f2..f7 along V3: the W-curve has L = 2 sqrt(3) pi, so the speed closes up
W7_V3_SPEEDS = ["0", "0.05*sin(s/sqrt(3))", "0", "0", "0", "0"]


def test_closed_w_curve_in_seven_space_converges_along_v3():
    # n = 7: a completed timelike V_7 from cofactors (ROADMAP F18c). The
    # W-curve has L = 2 sqrt(3) pi, so the speed along V_3 closes up; 10
    # steps of dt = 1e-5 * 64 / N.  curvature_pde's worst reading measured
    # 3.5e-3 at N = 64 and 1.2e-3 at N = 128.
    worst = {}
    for samples in (64, 128):
        state, worst[samples] = _closed_flow_checks(W7, W7_V3_SPEEDS, samples, 1e-5 * 64 / samples, 10)
        assert state.frenet.signs.tolist() == [1, 1, 1, 1, 1, 1, -1]
        assert state.frenet.completed_last
    assert worst[64]["curvature_pde"] > 2.0 * worst[128]["curvature_pde"], worst


def test_w7_flow_blocks_of_states_give_the_reports_of_single_states(monkeypatch):
    # the n = 7 frame, its completed timelike V7 included, through every
    # check's block paths against blocks of one state: 11 walked states, a
    # full block of 8 and a partial one
    curve = sample(CurveSpec.from_strings(W7, (0.0, 2.0 * np.pi), CLOSED, 64))
    flow = FlowSpec.inextensible(W7_V3_SPEEDS)
    traj = evolve(initial_state(curve, flow), flow, 1e-5, 12)
    reports = []
    for blocks in (verify.BLOCK_STATES, 1):
        monkeypatch.setattr(verify, "BLOCK_STATES", blocks)
        reports.append([json.dumps(check(traj).to_json_dict()) for check in CHECKS.values()])
    assert reports[0] == reports[1]
    assert all(json.loads(text)["pass"] for text in reports[0])


# F18b's open curve in E1^6, with a timelike tangent and a six-vector frame,
# under f2 = 0.05: 40 steps of dt = 1e-4 at N = 128
X6 = ("2*u", "cos(u)", "sin(u)", "cos(2*u)/2", "sin(2*u)/2", "u^2/4")


@pytest.fixture(scope="module")
def x6_traj():
    curve = sample(CurveSpec.from_strings(X6, (0.2, 1.8), OPEN, 128))
    flow = FlowSpec.inextensible(["0.05", "0", "0", "0", "0"])
    state = initial_state(curve, flow)
    assert state.frenet.signs.tolist() == [-1, 1, 1, 1, 1, 1] and not state.frenet.completed_last
    return evolve(state, flow, 1e-4, 40)


@pytest.mark.parametrize("name", [
    *(name for name in CHECKS if name != "curvature_pde"),
    pytest.param("curvature_pde", marks=pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 2: the 8-sample open margin keeps the one-sided closures' boundary layer "
        "(F18b); k4_psi_metric reads 0.508 and k5_psi_metric 0.596, and with a margin of N/4 the check "
        "passes (6.4e-5 and 3.0e-4)",
    )),
])
def test_open_curve_in_six_space_passes_each_check(x6_traj, name):
    rep = run_check(name, x6_traj)
    assert rep.passed, rep.residuals[-1]


def test_rows_reduce_as_a_loop_over_steps_and_names(helix_traj):
    # "a" owns two rows declared apart, "b" one, and "c" reads b's row; one
    # sample of one step is NaN (in a row of "b"), and values outside the
    # open curve's interior are the largest and must not count
    first = helix_traj.states[0].curve
    sl = verify._interior(first)
    assert sl != slice(None)

    def declare(rows):
        a1, b, a2 = rows.add("a"), rows.add("b"), rows.add("a", 2)
        rows.add("c", same=b)
        return rows, a1, b, a2

    rows, a1, b, a2 = declare(verify._Rows())
    assert rows.count == 4
    rng = np.random.default_rng(7)
    steps = len(helix_traj.states) - 2
    data = rng.standard_normal((steps, rows.count, first.samples))
    data[:, :, : sl.start] = 1e3
    data[:, :, sl.stop :] = -1e3
    data[3, b, sl.start + 5] = np.nan
    clean = data.copy()
    clean[3, b, sl.start + 5] = 0.0

    def reference(values):
        per_name = {"a": [a1, a2, a2 + 1], "b": [b], "c": [b]}
        return {
            name: float(np.max([np.max(np.abs(step[idx][:, sl])) for step in values]))
            for name, idx in per_name.items()
        }

    for values, nan in ((data, True), (clean, False)):
        steps = iter(values)

        def plan(w):
            declare(w.results)
            return lambda w, buf: [np.copyto(row, next(steps)) for row in buf]

        peaks = _probe(helix_traj, plan).residuals[0]
        expected = reference(values)
        assert list(peaks) == ["a", "b", "c"]
        for name in expected:
            assert np.array_equal(peaks[name], expected[name], equal_nan=True), name
        assert [np.isnan(peaks[name]) for name in peaks] == [False, nan, nan]
        assert peaks["a"] < 10.0  # only interior samples count


@pytest.fixture(scope="module")
def spacelike_helix_traj():
    """The spacelike_helix_twist scenario: signs (+, +, -)."""
    return run_flow("spacelike_helix", "helix_twist", 128, 5e-4, 8)


@pytest.mark.parametrize(
    "traj_name, signs",
    [
        ("sine_traj_short", [1, 1, -1]),  # closed circle: e0 = +1, V3 timelike
        ("helix_traj", [-1, 1, 1]),  # the timelike_helix_twist scenario: e0 = -1
        ("spacelike_helix_traj", [1, 1, -1]),  # the spacelike_helix_twist scenario
        ("explicit_hyperbola_traj", [-1, 1]),  # e0 = -1 with dv/dt != 0; not inextensible
    ],
)
def test_shared_readings_equal_the_readings_formed_in_full(traj_name, signs, request, monkeypatch):
    # a reading whose signs are all +1 reuses the row of the reading it equals;
    # formed in full with no shortcut, its rows must match to the bit
    traj = request.getfixturevalue(traj_name)
    assert traj.states[0].frenet.signs.tolist() == signs
    found = _assert_rows_formed_alone(traj, monkeypatch)
    assert "speed_evolution_classical" in found
    assert ("reconstruction_bare" in found) == (traj.flow.speeds[0] is None)


# n = 4 with a timelike V4 (signs +, +, +, -): the multi-j stacks of
# check_frame_evolution and the k3 readings of check_curvature_pde
TIMELIKE_V4_FLOWS = {
    "f4": ["0", "0", "0.05"],  # test_curvature_pde_four_frame_f4_term's flow
    "f2_f3_f4": ["0.1*sin(s)", "0.05*cos(s)", "0.05"],
}


@pytest.fixture(scope="module", params=list(TIMELIKE_V4_FLOWS))
def timelike_v4_traj(request):
    components = ("cosh(u)", "sinh(u)", "cos(2*u)", "sin(2*u)")
    return _traj_of(components, (0.0, 2.0), TIMELIKE_V4_FLOWS[request.param], 64, 1e-3, 10)


def _rows_of(check, traj, monkeypatch):
    """Every row the check hands the reducer (``_Rows.fold``), at every step
    or state: name -> (steps, rows of the name, N)."""
    blocks, fold = {}, verify._Rows.fold

    def recording(rows, block, samples):
        blocks.setdefault(rows, []).append(block.copy())
        fold(rows, block, samples)

    with monkeypatch.context() as patch:
        patch.setattr(verify._Rows, "fold", recording)
        check(traj)
    found = {}
    for rows, kept in blocks.items():
        steps = np.concatenate(kept)
        found.update({name: steps[:, idx] for name, idx in rows.rows.items()})
    return found


def _fields(traj, st):
    """One state's zero-padded, 1-based k, f, f' and f'' (the verify module
    docstring's rows), each speed's derivatives from its own ``eval_jet``
    call on the state's arclength grid."""
    m, n = st.frenet.num_vectors, st.curve.n
    k, f, fs, fss = np.zeros((4, n + 3, st.curve.samples))
    k[1:m] = st.frenet.curvatures
    f[1 : n + 1] = st.f_values
    for i in range(2, n + 1):
        jet = exprjet.eval_jet(traj.flow.speeds[i - 1], "s", st.curve.s, 2, {"t": st.t})
        fs[i], fss[i] = jet.derivative(1), jet.derivative(2)
    return k, f, fs, fss


def _rows_one_by_one(traj):
    """Every speed_evolution row and, on an inextensible flow, every
    frame_evolution and curvature_pde row and the inextensibility gap, each
    formed on its own at every step (every state, for the gap) from the
    state's own fields (``_fields``) and the window's full psi matrix, as
    loops over rows, with every reading formed in full whatever its signs:
    name -> (steps, rows, N)."""
    m = traj.states[0].frenet.num_vectors
    inextensible = traj.flow.speeds[0] is None
    kept = {}

    def keep(name, index, row):
        kept.setdefault(name, {}).setdefault(index, []).append(row)

    def norm(r):
        return np.sqrt(dot_many(r, r))

    def at_state(w, r):
        prev, state, after = w.states[r : r + 3]
        e, V, fdot, curve = w.e, w.frames[r + 1], w.fdot(r), state.curve
        vdot = (after.curve.speeds - prev.curve.speeds) / (2.0 * w.dt)
        keep("speed_evolution", 0, vdot - dv_dt_rhs(state))
        keep("speed_evolution_classical", 0, vdot - e[0] * dv_dt_rhs(state))
        if not inextensible:
            return
        k, f, fs, fss = _fields(traj, state)
        psi = w.psi(r)  # [k, j], 0-based
        c = {i: f[i - 1] * k[i - 1] + fs[i] - (e[i - 1] * e[i]) * f[i + 1] * k[i] for i in range(2, m + 1)}
        keep("tangent_equation", 0, norm(fdot[0] - sum(c[i] * V[i - 1] for i in range(2, m + 1))))
        for j in range(2, m + 1):
            target = -e[0] * e[j - 1] * c[j]
            keep("v1_coefficient_mid" if j < m else "v1_coefficient_last", j, e[0] * psi[0, j - 1] - target)
            for name, signed in (("reconstruction_metric", True), ("reconstruction_bare", False)):
                recon = target * V[0]
                for i in range(2, m + 1):
                    if i != j:
                        recon = recon + (e[i - 1] * psi[i - 1, j - 1] if signed else psi[i - 1, j - 1]) * V[i - 1]
                keep(name, j, norm(fdot[j - 1] - recon))
        # zero-padded and 1-based, as curvature_rates reads them
        P, D = np.zeros((m + 2, m + 2, w.N)), np.zeros((m + 2, m + 2, w.N))
        for a in range(m):
            for b in range(m):
                P[a + 1, b + 1], D[a + 1, b + 1] = psi[a, b], d_ds(psi[a, b], curve)
        kdot = (after.frenet.curvatures - prev.frenet.curvatures) / (2.0 * w.dt)
        rate = k1_rate(e, k, d_ds(k[:3], curve), f, fs, fss)
        keep("k1_flow_form", 0, kdot[0] - rate)
        keep("k1_rate_max", 0, kdot[0])
        keep("k1_flow_rhs_max", 0, rate)
        for i in range(1, m):
            d, p, q = D[i + 1, i], P[i + 2, i], k[i - 1] * P[i - 1, i + 1]
            metric = e[i] * (d - p * k[i + 1]) - e[i - 2] * e[i - 1] * e[i] * q
            if i < m - 1:
                classical = d - e[i] * e[i + 1] * p * k[i + 1] - q
            else:
                classical = -e[m - 2] * e[m - 1] * (D[m - 1, m] + P[m - 2, m] * k[m - 2])
            keep(f"k{i}_psi_metric", 0, kdot[i - 1] - metric)
            keep(f"k{i}_psi_classical", 0, kdot[i - 1] - classical)

    _each_state(traj, at_state)
    for st in traj.states if inextensible else ():
        c, (e0, e1), (f1, f2) = st.curve, st.frenet.signs[:2], st.f_values[:2]
        keep("pointwise", 0, d_du4(f1, c.h, c.closed) / c.speeds - float(e0 * e1) * f2 * st.frenet.curvatures[0])
    return {name: np.stack([rows[i] for i in sorted(rows)], axis=1) for name, rows in kept.items()}


def _assert_rows_formed_alone(traj, monkeypatch):
    """Each row every check hands the reducer, at every step, equals to the
    bit the row ``_rows_one_by_one`` forms; returns the checks' rows."""
    expected = _rows_one_by_one(traj)
    found = _rows_of(check_speed_evolution, traj, monkeypatch)
    if traj.flow.speeds[0] is None:
        found.update(_rows_of(check_frame_evolution, traj, monkeypatch))
        found.update(_rows_of(check_curvature_pde, traj, monkeypatch))
    for name, rows in expected.items():
        assert found[name].shape == rows.shape and found[name].tobytes() == rows.tobytes(), name
    m = traj.states[0].frenet.num_vectors
    assert set(found) - set(expected) <= {f"k{j}" for j in range(1, m)}  # the flat-curvature test
    return found


def test_every_n4_reading_equals_the_reading_formed_row_by_row(timelike_v4_traj, monkeypatch):
    # the checks form their readings as stacks (every j at once, only the psi
    # entries they read, k and psi rows differentiated together); each row
    # must match, to the bit and at every step, the row formed alone by a plain loop
    traj = timelike_v4_traj
    assert traj.states[0].frenet.signs.tolist() == [1, 1, 1, -1]
    found = _assert_rows_formed_alone(traj, monkeypatch)
    assert found["reconstruction_metric"].shape[1] == 3 and found["k3_psi_metric"].shape[1] == 1


@pytest.fixture(scope="module")
def circle_1024_traj():
    """The closed circle under the inextensible sine flow at N=1024, 12 states."""
    return run_flow("circle", "inextensible_sine", 1024, 1e-3, 11)


@pytest.mark.parametrize("traj_name", ["helix_traj_long", "time_dependent_traj", "circle_1024_traj"])
def test_every_reading_equals_the_reading_formed_row_by_row(traj_name, request, monkeypatch):
    # as above, on n = 3 trajectories of 18, 21 and 12 states: blocks of
    # states 1..8, then 9..16 and a partial last block, or a partial block
    # 9..10, whose rows must each be the rows of their own state.  The
    # circle's stacked rows hold 8 states of 1024 samples: the checks take
    # the one block path at every N
    traj = request.getfixturevalue(traj_name)
    found = _assert_rows_formed_alone(traj, monkeypatch)
    assert found["k1_flow_form"].shape[0] == len(traj.states) - 2


def test_report_json_shape(rigid_traj_short):
    rep = check_iff_condition(rigid_traj_short)
    d = rep.to_json_dict()
    assert set(d) >= {"identity", "resolutions", "residuals", "order", "pass"}
    assert d["resolutions"] == [[256, 1e-3]]
    assert isinstance(d["pass"], bool)
