"""Record the expected outcomes of every workload at seed 0.

    python3 perfbench/record.py

Writes ``perfbench/expected.json``: for each input configuration, the
values one operation produced (exit codes, pass flags, residuals, drift,
final arclength) and a comparison bound per floating-point value.

The bound comes from rounding.  Every workload is run three times: as is,
and with each time step moved by one unit in the last place up and down.
Those runs differ only by rounding, propagated through the same
arithmetic (including the growth the ill-posed timelike flows amplify),
so a reordering of sums or products in a later version of the program
should move a value by the same order of amount.  The bound is ``SAFETY``
times the largest change seen, and never below ``REL_FLOOR`` times the
value (the 1e-12 relative agreement the project asks of residuals when
arithmetic changes) nor below ``ABS_FLOOR``, the rounding level of a
residual: a central time difference of O(1) quantities at the finest step
in these inputs (dt = 2.5e-4) carries about eps/dt = 1e-12 of rounding,
and one further arclength derivative on the finest grid (h >= 2*pi/512)
multiplies that by up to ~80.  Integers, flags and strings must match
exactly.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run

SAFETY = 100.0
REL_FLOOR = 1e-12
ABS_FLOOR = 1e-10
PROBE_ULPS = (1, -1)


def outcomes_of(workloads, name: str, ulps: int, workdir: Path) -> dict:
    wl = workloads.make(name, 0, workdir, ulps=ulps)
    wl.setup()
    return wl.outcomes(wl.op())


def main() -> int:
    run.prepare()
    import workloads

    run.OUT.mkdir(exist_ok=True)
    expected = {}
    for name in workloads.NAMES:
        workdir = Path(tempfile.mkdtemp(prefix=f"record-{name}-", dir=run.OUT))
        try:
            base = outcomes_of(workloads, name, 0, workdir)
            probes = [outcomes_of(workloads, name, u, workdir) for u in PROBE_ULPS]
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        for key, values in base.items():
            tol = {}
            for field, value in values.items():
                if not isinstance(value, float):
                    if any(p[key][field] != value for p in probes):
                        print(f"warning: {key} {field} changes under a one-ulp step change",
                              file=sys.stderr)
                    continue
                change = max(abs(p[key][field] - value) for p in probes)
                tol[field] = max(REL_FLOOR * abs(value), SAFETY * change, ABS_FLOOR)
            expected[key] = {"values": values, "tol": tol}
        print(f"recorded {name}: {len(base)} configurations")
    path = workloads.EXPECTED_PATH
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
