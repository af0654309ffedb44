"""Rewrite ``seed2026.json``, the golden rows of `tests/test_acceptance.py`.

Runs each experiment once at seed 2026 and keeps, per row, the check id,
``float.hex`` of the value, the params and the pass flag; per experiment, its
``diagnostics`` and environment stamp.  A row's ``envelope`` is its largest
relative move when the parametrix direct sum's chunks are halved and doubled
(``parametrix._CHUNK_BYTES``), which reorders that sum's floating-point work and
nothing else.  Only the parametrix experiment reads the chunk size, so the
other rows' envelopes are 0.

    PYTHONPATH=src python tests/golden/pin.py
"""

import json
import warnings
from pathlib import Path

from magschro import parametrix
from magschro.experiments import EXPERIMENT_IDS, ExperimentConfig, run

SEED = 2026
PATH = Path(__file__).with_name("seed2026.json")


def _run(experiment: str):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run(ExperimentConfig(experiment=experiment, seed=SEED))


def _relative_move(old: float, new: float) -> float:
    return abs(new - old) / abs(old) if old else abs(new - old)


def main() -> None:
    golden = {}
    for experiment in EXPERIMENT_IDS:
        report = _run(experiment)
        golden[experiment] = {
            "environment": report.environment,
            "diagnostics": [list(d) for d in report.diagnostics],
            "rows": [
                {"check_id": r["check_id"], "value": float.hex(r["value"]),
                 "params": r["params"], "pass": r["pass"], "envelope": 0.0}
                for r in report.rows
            ],
        }
        print(f"{experiment}: {len(report.rows)} rows")
    chunk = parametrix._CHUNK_BYTES
    try:
        for reordered in (chunk // 2, chunk * 2):
            parametrix._CHUNK_BYTES = reordered
            for pin, row in zip(golden["parametrix"]["rows"], _run("parametrix").rows):
                move = _relative_move(float.fromhex(pin["value"]), row["value"])
                pin["envelope"] = max(pin["envelope"], move)
    finally:
        parametrix._CHUNK_BYTES = chunk
    for pin in golden["parametrix"]["rows"]:
        print(f"  {pin['check_id']}: envelope {pin['envelope']:.2e}")
    PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PATH}")


if __name__ == "__main__":
    main()
