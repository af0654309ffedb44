"""Rewrite ``seed2026.json``, the golden rows of `tests/test_acceptance.py`.

Runs each experiment once at seed 2026 and keeps, per row, the check id,
``float.hex`` of the value, the params and the pass flag; per experiment, its
``diagnostics`` and environment stamp (the numpy and python versions).  A row's ``envelope`` is its value's
largest relative move when the parametrix direct sum's chunks are halved and
doubled (``parametrix._CHUNK_BYTES``), which reorders that sum's floating-point
work and nothing else; its ``params_envelope`` is the largest such move over
the float leaves of its params.  Only the parametrix experiment reads the chunk
size, so the other rows' envelopes are 0.

    PYTHONPATH=src python tests/golden/pin.py
"""

import json
import warnings
from pathlib import Path

from magschro import parametrix
from magschro.experiments import EXPERIMENT_IDS, ExperimentConfig, run

SEED = 2026
STAMP = ("numpy", "python")  # the environment stamp's keys; the platform string carries the kernel build
PATH = Path(__file__).with_name("seed2026.json")


def _run(experiment: str):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run(ExperimentConfig(experiment=experiment, seed=SEED))


def relative_move(old: float, new: float) -> float:
    return abs(new - old) / abs(old) if old else abs(new - old)


def param_moves(old, new, path: str = "") -> dict[str, float]:
    """Relative move of each float leaf of JSON params whose bits differ,
    keyed by its path (``slope``, ``ratios[2]``); leaves whose structure
    differs are not compared."""
    if isinstance(old, float) and isinstance(new, float):
        return {} if old.hex() == new.hex() else {path: relative_move(old, new)}
    if isinstance(old, dict) and isinstance(new, dict):
        pairs = [(f"{path}.{k}" if path else k, old[k], new[k]) for k in old if k in new]
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        pairs = [(f"{path}[{i}]", a, b) for i, (a, b) in enumerate(zip(old, new))]
    else:
        return {}
    moves = {}
    for leaf, a, b in pairs:
        moves.update(param_moves(a, b, leaf))
    return moves


def main() -> None:
    golden = {}
    for experiment in EXPERIMENT_IDS:
        report = _run(experiment)
        golden[experiment] = {
            "environment": {key: report.environment[key] for key in STAMP},
            "diagnostics": [list(d) for d in report.diagnostics],
            "rows": [
                {"check_id": r["check_id"], "value": float.hex(r["value"]),
                 "params": r["params"], "pass": r["pass"], "envelope": 0.0,
                 "params_envelope": 0.0}
                for r in report.rows
            ],
        }
        print(f"{experiment}: {len(report.rows)} rows")
    chunk = parametrix._CHUNK_BYTES
    try:
        for reordered in (chunk // 2, chunk * 2):
            parametrix._CHUNK_BYTES = reordered
            for pin, row in zip(golden["parametrix"]["rows"], _run("parametrix").rows):
                move = relative_move(float.fromhex(pin["value"]), row["value"])
                pin["envelope"] = max(pin["envelope"], move)
                params = json.loads(json.dumps(row["params"]))
                moves = param_moves(json.loads(json.dumps(pin["params"])), params)
                pin["params_envelope"] = max([pin["params_envelope"], *moves.values()])
    finally:
        parametrix._CHUNK_BYTES = chunk
    for pin in golden["parametrix"]["rows"]:
        print(f"  {pin['check_id']}: envelope {pin['envelope']:.2e}, "
              f"params {pin['params_envelope']:.2e}")
    PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PATH}")


if __name__ == "__main__":
    main()
