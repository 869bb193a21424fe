"""Bundled curves and flows: the data ``curveflow list-catalog`` prints.

The curve catalog covers every causal flavor the geometry supports at low
dimension: a spacelike closed circle, a timelike open hyperbola branch,
and two helices (one timelike, one spacelike with a timelike last frame
vector).  The hand-derived frame data for these curves is recorded in
docs/catalog_values.md.
"""

from __future__ import annotations

import math

from .curvekit import CLOSED, OPEN

TWO_PI = 2.0 * math.pi

CURVES: dict[str, dict] = {
    "circle": {
        "components": ("0", "cos(u)", "sin(u)"),
        "domain": (0.0, TWO_PI),
        "topology": CLOSED,
        "summary": "unit spacelike circle in the spacelike plane of E1^3",
    },
    "hyperbola": {
        "components": ("sinh(u)", "cosh(u)"),
        "domain": (-1.0, 1.0),
        "topology": OPEN,
        "summary": "unit timelike hyperbola branch in E1^2",
    },
    "timelike_helix": {
        "components": ("sqrt(2)*u", "cos(u)", "sin(u)"),
        "domain": (0.0, TWO_PI),
        "topology": OPEN,
        "summary": "timelike helix around the time axis (k1=1, k2=sqrt(2))",
    },
    "spacelike_helix": {
        "components": ("u", "sqrt(2)*cos(u)", "sqrt(2)*sin(u)"),
        "domain": (0.0, TWO_PI),
        "topology": OPEN,
        "summary": "spacelike helix with timelike third frame vector (k1=sqrt(2), k2=1)",
    },
    "line2": {
        "components": ("0", "u"),
        "domain": (0.0, 1.0),
        "topology": OPEN,
        "summary": "spacelike straight line in E1^2 (frame completed, k1=0)",
    },
    "line3": {
        "components": ("0", "u", "0"),
        "domain": (0.0, 1.0),
        "topology": OPEN,
        "summary": "spacelike straight line in E1^3 (frame must be clamped to 1 vector)",
    },
}

FLOWS: dict[str, dict] = {
    "zero": {
        "mode": "explicit",
        "speeds": lambda n: ["0"] * n,
        "summary": "no motion at all",
    },
    "tangent_translate": {
        "mode": "explicit",
        "speeds": lambda n: ["1"] + ["0"] * (n - 1),
        "summary": "unit speed along the tangent (rigid translation on straight curves)",
    },
    "rigid_rotation": {
        "mode": "explicit",
        "speeds": lambda n: ["1 - cos(s)", "sin(s)"] + ["0"] * (n - 2),
        "summary": "rigid rotation of the unit circle about the point (1, 0)",
    },
    "normal_shrink": {
        "mode": "explicit",
        "speeds": lambda n: ["0", "1"] + ["0"] * (n - 2),
        "summary": "unit speed along the principal normal (shrinks the unit circle)",
    },
    "inextensible_sine": {
        "mode": "inextensible",
        "speeds": lambda n: ["sin(s)"] + ["0"] * (n - 2),
        "summary": "arclength-preserving flow with sinusoidal normal speed",
    },
    "helix_twist": {
        "mode": "inextensible",
        "speeds": lambda n: ["sin(s)", "cos(s)"] + ["0"] * (n - 3),
        "summary": "arclength-preserving flow driving both normal directions",
    },
}
