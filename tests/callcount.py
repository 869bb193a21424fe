"""Count the calls that one package's own code makes.

This module imports nothing from curveflow, so ``tools/ab_pairs.py`` can
count the calls of two source trees that it imports under names of their
own, from a checkout where no ``curveflow`` is importable.
"""

from __future__ import annotations

import gc
import sys
from pathlib import Path


def package_calls(fn, package: Path | None = None) -> tuple[int, int]:
    """The Python-level and C-level calls (``sys.setprofile``'s "call" and
    "c_call" events) that code of the package under ``package`` makes while
    fn() runs; by default that of the imported ``curveflow``.  Calls made
    inside numpy's own Python functions are not counted, so the counts do
    not move with numpy's version; ufunc calls and array operators are no
    C-level calls to the profiler and do not show.  The garbage collector
    is off while fn() runs: a collection could finalize an object of the
    caller's, such as a suspended generator, and its frame would count as a
    call of the package's code.  ``tools/ab_pairs.py`` prints the same
    counts."""
    package = str(package or Path(sys.modules["curveflow"].__file__).parent)
    counts = {"call": 0, "c_call": 0}

    def count(frame, event, arg):
        caller = frame.f_back if event == "call" else frame
        if event in counts and caller is not None and caller.f_code.co_filename.startswith(package):
            counts[event] += 1

    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(count)
    try:
        fn()
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return counts["call"], counts["c_call"]
