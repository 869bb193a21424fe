"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured numbers (run with -s to see them inline).

Tolerances are pinned here, not configurable: these are the exit
criteria of the build.
"""

import json
import math

import numpy as np
import pytest

from conftest import catalog_curve, orthonormality_residual, run_flow
from curveflow.cli import EXIT_OK, _schema, bundled_scenario_path, main
from curveflow.curvekit import sample
from curveflow.errors import IncompatibleClosedFlow
from curveflow.flowsim import arclength_drift, inextensibility_rhs, solve_inextensible_f1
from curveflow.frenet import (
    frenet_apparatus,
    frenet_residuals,
    stencil_curvatures,
)
from curveflow.minkowski import inner_many, metric_signs, norm_many
from curveflow.verify import (
    check_curvature_pde,
    check_frame_evolution,
    check_iff_condition,
    check_psi_antisymmetry,
    check_speed_evolution,
    merge_reports,
)

import jsonschema

TWO_PI = 2.0 * math.pi
SQRT2 = math.sqrt(2.0)

FRAME_CATALOG = {
    "circle": lambda n: catalog_curve("circle", n),
    "hyperbola": lambda n: catalog_curve("hyperbola", n),
    "timelike_helix": lambda n: catalog_curve("timelike_helix", n),
    "spacelike_helix": lambda n: catalog_curve("spacelike_helix", n),
}


def note(line):
    print(f"\n{line}")


def test_criterion_01_metric_kernel_properties():
    """Signature, bilinearity and symmetry on 1e4 random vectors, n=2..8."""
    rng = np.random.default_rng(20260810)
    per_dim = 10_000 // 7 + 1
    worst_bilinear = 0.0
    for n in range(2, 9):
        g = metric_signs(n)
        assert g[0] == -1 and np.all(g[1:] == 1)
        basis = np.eye(n)
        gram = inner_many(basis[:, None, :, None], basis[None, :, :, None])[..., 0]
        assert np.array_equal(gram, np.diag(g))
        X, Y, Z = rng.standard_normal((3, n, per_dim)) * 10.0
        a, b = rng.standard_normal((2, per_dim))
        lhs = inner_many(a * X + b * Z, Y)
        rhs = a * inner_many(X, Y) + b * inner_many(Z, Y)
        scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
        worst_bilinear = max(worst_bilinear, float(np.max(np.abs(lhs - rhs) / scale)))
        assert np.array_equal(inner_many(X, Y), inner_many(Y, X))
        q = np.abs(inner_many(X, X))
        assert np.max(np.abs(norm_many(X) ** 2 - q) / np.maximum(1.0, q)) < 1e-12
    assert worst_bilinear < 1e-12
    note(f"PASS criterion 1: metric kernel properties (worst bilinearity {worst_bilinear:.2e})")


def test_criterion_02_frenet_known_values():
    """Circle, hyperbola and helix curvatures: exact route 1e-6, stencil 5e-4."""
    cases = [
        ("circle", [1.0, 0.0]),
        ("hyperbola", [1.0]),
        ("timelike_helix", [1.0, SQRT2]),
    ]
    worst_exact = worst_stencil = 0.0
    for name, expected in cases:
        c = sample(FRAME_CATALOG[name](512))
        fd = frenet_apparatus(c)
        sk = stencil_curvatures(c, fd)
        for i, k in enumerate(expected):
            worst_exact = max(worst_exact, float(np.max(np.abs(fd.curvatures[i] - k))))
            if not (name == "circle" and i == 1):  # stencil k2 on the completed
                worst_stencil = max(worst_stencil, float(np.max(np.abs(sk[i] - k))))
            else:
                worst_stencil = max(worst_stencil, float(np.max(np.abs(sk[i]))))
    assert worst_exact < 1e-6
    assert worst_stencil < 5e-4
    note(f"PASS criterion 2: known curvatures (exact {worst_exact:.2e}, stencil {worst_stencil:.2e})")


def test_criterion_03_frame_invariants():
    """Orthonormality 1e-8, index-1 signature, residual ratio in [3, 5.5]."""
    worst_ortho = 0.0
    for name, build in FRAME_CATALOG.items():
        residuals = []
        for n_s in (128, 256, 512):
            c = sample(build(n_s))
            fd = frenet_apparatus(c)
            worst_ortho = max(worst_ortho, orthonormality_residual(fd))
            assert int(np.count_nonzero(fd.signs == -1)) == 1, name
            residuals.append(float(frenet_residuals(c, fd).max()))
        for a, b in zip(residuals, residuals[1:]):
            assert 3.0 < a / b < 5.5, (name, residuals)
    assert worst_ortho < 1e-8
    note(f"PASS criterion 3: frame invariants (worst orthonormality {worst_ortho:.2e})")


def test_criterion_04_inextensible_flows_preserve_length():
    """Forward direction: synthesized drift < 1e-4, rigid explicit < 1e-5."""
    sine = run_flow("circle", "inextensible_sine", 256, 1e-3, 1000)
    drift_sine = arclength_drift(sine)
    assert drift_sine < 1e-4
    rigid = run_flow("circle", "rigid_rotation", 256, 1e-3, 1000)
    drift_rigid = arclength_drift(rigid)
    assert drift_rigid < 1e-5
    note(f"PASS criterion 4: drift over unit time (sine {drift_sine:.2e}, rigid {drift_rigid:.2e})")


def test_criterion_05_violating_flow_is_detected(shrink_traj):
    """Reverse direction: unit normal speed drifts at rate 2*pi, flagged."""
    drift = arclength_drift(shrink_traj)
    rate_err = abs(drift / 0.1 - TWO_PI)
    assert rate_err < 1e-3
    rep = check_iff_condition(shrink_traj)
    assert rep.passed
    assert not rep.details["pointwise_small"] and not rep.details["drift_small"]
    note(f"PASS criterion 5: shrink drift rate |err| {rate_err:.2e}, both sides flagged large")


def test_criterion_06_closed_compatibility(circle_256):
    """No periodic tangential speed exists for f2 = 1 on the circle."""
    fd = frenet_apparatus(circle_256)
    rhs = inextensibility_rhs(float(fd.signs[0] * fd.signs[1]), np.ones(256), fd.curvatures[0])
    with pytest.raises(IncompatibleClosedFlow) as err:
        solve_inextensible_f1(circle_256, rhs)
    rel = abs(err.value.residual - TWO_PI) / TWO_PI
    assert rel < 1e-6
    note(f"PASS criterion 6: incompatible loop integral {err.value.residual:.9f} (rel err {rel:.2e})")


def test_criterion_07_speed_evolution_on_catalog(rigid_traj_short, shrink_traj, sine_traj_short, helix_traj):
    """Rate-equation residual < 1e-3 everywhere; refinement order in [1.5, 2.5]."""
    reference = {
        "rigid": rigid_traj_short,
        "shrink": shrink_traj,
        "sine": sine_traj_short,
        "helix_twist": run_flow("timelike_helix", "helix_twist", 256, 2.5e-4, 16),
        "spacelike_twist": run_flow("spacelike_helix", "helix_twist", 128, 5e-4, 8),
        "hyperbola_wave": run_flow("hyperbola", "inextensible_sine", 256, 1e-3, 100),
        "line_translate": run_flow("line3", "tangent_translate", 64, 1e-3, 200, frame_vectors=1),
    }
    worst = {}
    for name, traj in reference.items():
        r = check_speed_evolution(traj).residuals[0]["speed_evolution"]
        assert r < 1e-3, (name, r)
        worst[name] = r
    ladder = [
        check_speed_evolution(run_flow("timelike_helix", "helix_twist", n_s, dt, steps), 0.02)
        for n_s, dt, steps in ((64, 1e-3, 4), (128, 5e-4, 8), (256, 2.5e-4, 16))
    ]
    order = merge_reports(ladder).orders["speed_evolution"]
    assert 1.5 <= order <= 2.5
    peak = max(worst.values())
    note(f"PASS criterion 7: rate equation residual <= {peak:.2e} on catalog, order {order:.2f}")


def test_criterion_08_frame_evolution(rigid_traj_short):
    """Frame-evolution residuals, psi invariants, metric vs bare projection."""
    rep = check_frame_evolution(rigid_traj_short)
    worst_frame = max(rep.residuals[0][k] for k in rep.gated)
    assert worst_frame < 1e-3
    psi = check_psi_antisymmetry(rigid_traj_short).residuals[0]
    helix_psi = check_psi_antisymmetry(
        run_flow("timelike_helix", "helix_twist", 128, 5e-4, 8)
    ).residuals[0]
    worst_psi = max(psi["antisymmetry"], psi["diagonal"],
                    helix_psi["antisymmetry"], helix_psi["diagonal"])
    assert worst_psi < 1e-5
    # a timelike frame vector (third vector of the spacelike helix) makes
    # the bare-projection reconstruction wrong by a sign
    row = check_frame_evolution(
        run_flow("spacelike_helix", "helix_twist", 128, 5e-4, 8), tolerance=5e-3
    ).residuals[0]
    assert row["reconstruction_metric"] <= row["reconstruction_bare"]
    assert row["reconstruction_metric"] < 1e-3 < row["reconstruction_bare"]
    note(
        "PASS criterion 8: frame evolution residual "
        f"{worst_frame:.2e}, psi {worst_psi:.2e}, metric {row['reconstruction_metric']:.2e} "
        f"<= bare {row['reconstruction_bare']:.2e}"
    )


def test_criterion_09_curvature_pde(rigid_traj_short):
    """Both sides of the first-curvature equation vanish on the rigid flow;
    the helix residual refines at second order."""
    rep = check_curvature_pde(rigid_traj_short)
    assert rep.details["k1_rate_max"] < 1e-3
    assert rep.details["k1_flow_rhs_max"] < 1e-3
    ladder = [
        check_curvature_pde(run_flow("timelike_helix", "helix_twist", n_s, dt, steps), 0.2)
        for n_s, dt, steps in ((32, 2e-3, 2), (64, 1e-3, 4), (128, 5e-4, 8))
    ]
    order = merge_reports(ladder).orders["k1_flow_form"]
    assert 1.5 <= order <= 2.5
    note(
        "PASS criterion 9: rigid |dk1/dt| "
        f"{rep.details['k1_rate_max']:.2e}, |rhs| {rep.details['k1_flow_rhs_max']:.2e}, "
        f"helix order {order:.2f}"
    )


def test_criterion_10_cli_contract(tmp_path):
    """Determinism, exit codes, file schemas, fitted orders."""
    shrink = str(bundled_scenario_path("circle_normal_shrink.json"))
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["run", shrink, "--out", str(out)]) == EXIT_OK
        outs.append(
            ((out / "timeseries.csv").read_bytes(), (out / "report.json").read_bytes())
        )
    assert outs[0] == outs[1]

    lines = (tmp_path / "a" / "timeseries.csv").read_text().splitlines()
    assert lines[0] == "step,t,total_arclength,arclength_drift,min_v,max_v,max_k1"
    assert float(lines[-1].split(",")[3]) == pytest.approx(0.1 * TWO_PI, rel=1e-3)
    report = json.loads((tmp_path / "a" / "report.json").read_text())
    jsonschema.validate(report, _schema("report.schema.json"))

    bad = tmp_path / "bad.json"
    doc = json.loads(bundled_scenario_path("circle_zero_flow.json").read_text())
    doc["checks"] = ["foo"]
    bad.write_text(json.dumps(doc))
    assert main(["run", str(bad), "--out", str(tmp_path / "c")]) == 2

    conv_out = tmp_path / "conv"
    scn = str(bundled_scenario_path("timelike_helix_convergence.json"))
    assert main(["convergence", scn, "--levels", "3", "--out", str(conv_out)]) == EXIT_OK
    rows = [r.split(",") for r in (conv_out / "convergence.csv").read_text().splitlines()[1:]]
    fitted = {r[0] for r in rows if r[6] != "n/a"}
    assert fitted == {"speed_evolution", "frame_evolution", "curvature_pde"}
    note("PASS criterion 10: CLI determinism, schemas, exit codes, fitted orders")
