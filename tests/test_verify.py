import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from curveflow import catalog, exprjet, verify
from curveflow.curvekit import OPEN, CurveSpec, sample
from curveflow.errors import CurveFlowError, DomainError, InsufficientStates, NotInextensible
from curveflow.flowsim import FlowSpec, arclength_drift, dv_dt_rhs, evolve, initial_state
from curveflow.minkowski import dot_many
from curveflow.verify import (
    CHECKS,
    check_curvature_pde,
    check_frame_evolution,
    check_iff_condition,
    check_psi_antisymmetry,
    check_speed_evolution,
    merge_reports,
    _Rows,
    _Window,
    run_check,
)
from conftest import orthonormality_residual, random_explicit_flow, run_flow


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


def test_speed_evolution_needs_three_states(circle_256):
    flow = catalog.flow("zero", 3)
    traj = evolve(initial_state(circle_256, flow), flow, 1e-3, 1)
    with pytest.raises(InsufficientStates):
        check_speed_evolution(traj)


@pytest.fixture(scope="module")
def explicit_hyperbola_traj():
    """An explicit flow on the timelike hyperbola: e0 = -1 and a speed that
    changes, so the classical speed reading differs from the metric one."""
    c = sample(catalog.curve("hyperbola", 128))
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


def test_psi_zero_flow(zero_traj):
    for w in _Window(zero_traj).walk():
        assert np.max(np.abs(w.psi())) < 1e-14


def test_psi_rigid_rotation(rigid_traj_short):
    # V1 rotates into V2 at unit rate, at every step
    for w in _Window(rigid_traj_short).walk():
        psi = w.psi()
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


def _with_flipped_frame(traj, step, flips):
    """Copy of traj whose state ``step`` has frame vector i negated at samples sl."""
    st = traj.states[step]
    frame = st.frenet.frame.copy()
    for i, sl in flips:
        frame[i - 1, :, sl] *= -1.0
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
    for a, b in zip(_Window(flipped).walk(), _Window(traj).walk(), strict=True):
        assert np.array_equal(a.psi(), b.psi())


def _with_changed_signature(traj, step):
    """Copy of traj whose state ``step`` reports the opposite frame signs."""
    st = traj.states[step]
    states = list(traj.states)
    states[step] = dataclasses.replace(st, frenet=dataclasses.replace(st.frenet, signs=-st.frenet.signs))
    return dataclasses.replace(traj, states=states)


@pytest.fixture(scope="module")
def time_dependent_traj():
    """Closed circle under an inextensible flow whose f2 depends on t; f3 is a constant."""
    c = sample(catalog.curve("circle", 64))
    flow = FlowSpec.inextensible(["(1+t)*sin(s)", "0"])
    return evolve(initial_state(c, flow), flow, 1e-3, 20)


@pytest.fixture(scope="module")
def helix_traj_long():
    """Open timelike helix under the twist, 18 states."""
    return run_flow("timelike_helix", "helix_twist", 64, 5e-4, 17)


@pytest.mark.parametrize("traj_name", ["time_dependent_traj", "helix_traj_long"])
def test_blocks_of_states_give_the_reports_of_single_states(traj_name, request, monkeypatch):
    # speed jets and inextensibility gaps are formed per block of states;
    # blocks of one state are the reference, at lengths around the block
    # size, so full, partial and single-state last blocks all occur
    traj = request.getfixturevalue(traj_name)
    by_length = {}
    for blocks in (verify.BLOCK_STATES, 1):
        monkeypatch.setattr(verify, "BLOCK_STATES", blocks)
        for length in (3, 4, 9, 10, 11, 17, 18):
            part = dataclasses.replace(traj, states=traj.states[:length])
            reports = [json.dumps(check(part).to_json_dict(), sort_keys=True) for check in CHECKS.values()]
            by_length.setdefault(length, []).append(reports)
    for length, (blocked, single) in by_length.items():
        assert blocked == single, length


@pytest.mark.parametrize("changed_state, first", [(11, "signature"), (14, "domain")])
def test_first_error_of_a_walk_comes_first(time_dependent_traj, changed_state, first):
    # f2's jet divides by zero at state 12 alone, in the block of states
    # 9..16; a frame signature change at state s is met at step s - 1, when
    # that state enters the window.  Whichever step comes first raises, as in
    # a walk of single states: the block's failure must not jump ahead.
    traj = time_dependent_traj
    flow = FlowSpec.inextensible([f"sin(s)/(t - {traj.states[12].t!r})", "0"])
    broken = _with_changed_signature(dataclasses.replace(traj, flow=flow), changed_state)
    expected = {
        "signature": (CurveFlowError, "frame signature changed along the trajectory"),
        "domain": (DomainError, "division by zero in jet arithmetic"),
    }[first]
    for check in (check_frame_evolution, check_curvature_pde):
        with pytest.raises(CurveFlowError) as err:
            check(broken)
        assert (type(err.value), str(err.value)) == expected, check.__name__


@pytest.mark.parametrize("bad_state", [9, 12, 16, 18])
@pytest.mark.parametrize("shift", [None, -1, 1, 2])
def test_first_error_of_a_walk_is_the_error_of_single_states(
    time_dependent_traj, bad_state, shift, monkeypatch
):
    # f2's jet divides by zero at ``bad_state`` alone: the first (9), a
    # middle (12) or the last (16) state of the block 9..16, or a state of
    # the last, partial block 17..19.  The frame signature changes ``shift``
    # states after it (met at step bad_state + shift - 1), or nowhere.  A
    # walk of blocks raises what a walk of single states raises.
    traj = time_dependent_traj
    flow = FlowSpec.inextensible([f"sin(s)/(t - {traj.states[bad_state].t!r})", "0"])
    broken = dataclasses.replace(traj, flow=flow)
    if shift is not None:
        broken = _with_changed_signature(broken, bad_state + shift)

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
    for t, w in enumerate(_Window(sine_traj_short).walk(), start=1):
        if t == 7:
            break
    assert np.array_equal(w.psi(), ref)


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


@pytest.mark.parametrize("traj_name", ["helix_traj", "sine_traj_short"])
def test_window_fields_hold_the_jet_derivatives(traj_name, request):
    # fields() writes each derivative into its row with out=; a constant
    # speed's rows are left at the +0.0 they start with
    traj = request.getfixturevalue(traj_name)
    for t, w in enumerate(_Window(traj, (2, 1)).walk(), start=1):
        if t == 3:
            break
    k, f, ds = w.fields()
    speeds = traj.flow.speeds
    for i, order in ((2, 2), (3, 1)):
        for j in range(1, 3):
            row = ds[j - 1][i]
            if j > order or isinstance(speeds[i - 1], exprjet.Lit):
                assert not np.any(row) and not np.any(np.signbit(row))
                continue
            jet = exprjet.eval_jet(speeds[i - 1], "s", w.state.curve.s, order, {"t": w.state.t})
            assert row.tobytes() == jet.derivative(j).tobytes()


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


def test_rows_reduce_as_a_loop_over_steps_and_names(helix_traj):
    # "a" owns two rows declared apart, "b" one, and "c" reads b's row; one
    # sample of one step is NaN (in a row of "b"), and values outside the
    # open curve's interior are the largest and must not count
    window = _Window(helix_traj)
    sl = window.interior
    assert sl != slice(None)
    rows = _Rows()
    a1 = rows.add("a")
    b = rows.add("b")
    a2 = rows.add("a", 2)
    rows.add("c", same=b)
    assert rows.count == 4
    rng = np.random.default_rng(7)
    steps = len(helix_traj.states) - 2
    data = rng.standard_normal((steps, rows.count, window.N))
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
        peaks = rows.peaks(window, lambda w, buf: np.copyto(buf, values[w.step - 1]))
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


def _unshared_readings(traj, frame):
    """The peaks of speed_evolution_classical and, if ``frame``,
    reconstruction_bare, each formed in full at every step from the
    window's states, whatever the signs."""
    m = traj.states[0].frenet.num_vectors
    speed, bare = [], []
    for w in _Window(traj, (1,) * (m - 1) if frame else ()).walk():
        e, sl = w.e, w.interior
        lhs = (w.next.curve.speeds - w.prev.curve.speeds) / (2.0 * w.dt)
        speed.append(np.max(np.abs((lhs - e[0] * dv_dt_rhs(w.state))[sl])))
        if not frame:
            continue
        k, f, (fs,) = w.fields()
        psi, V = w.psi(), w.frames
        for j in range(2, m + 1):
            c = f[j - 1] * k[j - 1] + fs[j] - (e[j - 1] * e[j]) * f[j + 1] * k[j]
            recon = (-e[0] * e[j - 1] * c) * V[0]
            for i in range(2, m + 1):
                if i != j:
                    recon += psi[i - 1, j - 1] * V[i - 1]
            r = w.fdot[j - 1] - recon
            bare.append(np.max(np.sqrt(dot_many(r, r))[sl]))
    return float(np.max(speed)), float(np.max(bare)) if frame else None


@pytest.mark.parametrize(
    "traj_name, signs",
    [
        ("sine_traj_short", [1, 1, -1]),  # closed circle: e0 = +1, V3 timelike
        ("helix_traj", [-1, 1, 1]),  # the timelike_helix_twist scenario: e0 = -1
        ("spacelike_helix_traj", [1, 1, -1]),  # the spacelike_helix_twist scenario
        ("explicit_hyperbola_traj", [-1, 1]),  # e0 = -1 with dv/dt != 0; not inextensible
    ],
)
def test_shared_readings_equal_the_readings_formed_in_full(traj_name, signs, request):
    # a reading whose signs are all +1 reuses the row of the reading it equals;
    # formed in full here with no shortcut, it must match the report to the bit
    traj = request.getfixturevalue(traj_name)
    assert traj.states[0].frenet.signs.tolist() == signs
    frame = traj.flow.speeds[0] is None
    speed, bare = _unshared_readings(traj, frame)
    assert check_speed_evolution(traj).residuals[0]["speed_evolution_classical"].hex() == speed.hex()
    if frame:
        assert check_frame_evolution(traj).residuals[0]["reconstruction_bare"].hex() == bare.hex()


def test_report_json_shape(rigid_traj_short):
    rep = check_iff_condition(rigid_traj_short)
    d = rep.to_json_dict()
    assert set(d) >= {"identity", "resolutions", "residuals", "order", "pass"}
    assert d["resolutions"] == [[256, 1e-3]]
    assert isinstance(d["pass"], bool)
