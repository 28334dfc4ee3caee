"""Hidden result inputs and fingerprint gaps in a work-unit body.

Expected on a standalone lint: fingerprint-gap x1 (scipy is neither
stdlib nor pinned), hidden-env-input x3 (the module-level read, the one
in the unit body, and the one in ``_worker_count``: outside
``parallel.run_units`` every environment read fires, reachable from a
unit or not), hidden-file-input x2 (``open()`` in the body and
``.read_text()`` in a helper: any file read fires).  Linted together
with the ``repro/__init__.py`` fixture (a full scan) the unresolvable
``repro.experiments.missing_tables`` import adds one more
fingerprint-gap.
"""

import os
import scipy.optimize
from pathlib import Path

from repro.experiments.missing_tables import LUT

_DEBUG = os.environ.get("REPRO_DEBUG", "")


def _load_lut(name):
    return Path(name).read_text()


def _scenario(mode, fast):
    scale = float(os.getenv("REPRO_SCALE", "1.0"))
    with open("tables/latency.csv") as fh:
        rows = fh.read()
    return {"mode": mode, "scale": scale, "rows": len(rows),
            "lut": _load_lut("tables/lut.bin")}


def scenarios(fast):
    return [WorkUnit(exp_id="figX", label=mode, func=_scenario,
                     config=(mode, fast), seed=f"figX-{mode}")
            for mode in ("cfs", "vsched")]


def _worker_count():
    # A host-side knob, but read from the environment: flagged all the
    # same (settings are arguments).
    return int(os.getenv("REPRO_JOBS", "4"))
