"""Cache-key-sound experiment module: zero findings expected.

Every input of the unit body flows through ``(config, seed)``, and the
worker count is an argument, not an environment read.
"""


def _scenario(mode, fast):
    scale = 0.2 if fast else 1.0
    return {"mode": mode, "scale": scale}


def scenarios(fast):
    return [WorkUnit(exp_id="figY", label=mode, func=_scenario,
                     config=(mode, fast), seed=f"figY-{mode}")
            for mode in ("cfs", "vsched")]


def _worker_count(jobs=4):
    return int(jobs)
