"""Acceptance gate: every stated criterion at its stated tolerance.

Runs each experiment group once (shared fixtures) and asserts the per-check
rows; one [PASS]/[FAIL] line per criterion is printed so `pytest -s
tests/test_acceptance.py` reads as the acceptance report.  The rows and
diagnostics of every experiment must also match the golden file
`golden/seed2026.json`, which `golden/pin.py` rewrites.
"""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from golden.pin import param_moves, relative_move
from magschro.experiments import EXPERIMENT_IDS, ExperimentConfig, run

pytestmark = pytest.mark.slow  # seven full experiments

SEED = 2026
GOLDEN = Path(__file__).parent / "golden" / "seed2026.json"
# a run on another numpy than the pin's may move every row by its own round-off
FOREIGN_RTOL = 1e-6

CRITERIA = {
    1: ("spectral core", ["fft-roundtrip", "parseval", "free-gaussian-n1", "free-gaussian-n2"]),
    2: (
        "dyadic calculus",
        ["lp-partition-unity", "lp-band-reconstruction", "lp-paraproduct-identity"],
    ),
    3: (
        "solver oracles",
        [
            "solve-transport-oracle",
            "solve-order",
            "solve-charge-drift",
            "solve-duhamel-agreement",
            "solve-compose",
            "solve-reversal",
            "solve-energy-bound",
        ],
    ),
    4: (
        "smallness-functional scale invariance",
        [f"y-scale-invariance-y{j}" for j in range(4)],
    ),
    5: ("phase identity", ["phase-identity"]),
    6: (
        "parametrix quality",
        ["parametrix-v0-linearity", "parametrix-residual-linearity", "parametrix-lqlr-factor",
         "parametrix-taylor-error"],
    ),
    7: ("dual-path residual", ["dual-path-residual"]),
    8: (
        "frequency-localized error terms",
        ["error-term-identity", "error-term-besov-stability-s0", "error-term-besov-stability-s1"],
    ),
    9: (
        "dispersive decay",
        [
            "dispersive-slope-mu0",
            "dispersive-slope-mu1",
            "dispersive-slope-mu2",
            "dispersive-fixed-axis-slope",
        ],
    ),
    10: ("mixed-norm stability", ["strichartz-ratio-excess"]),
    11: (
        "angular machinery",
        ["cap-partition-sum", "net-cardinality-constant", "ray-bound-stability"],
    ),
    12: ("dyadic sequence inequality", ["sequence-lemma-stability"]),
}


@pytest.fixture(scope="module")
def reports():
    out = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for exp in EXPERIMENT_IDS:
            out[exp] = run(ExperimentConfig(experiment=exp, seed=SEED))
    return out


def _rows_for(reports, check_ids):
    rows = []
    for rep in reports.values():
        rows.extend(r for r in rep.rows if r["check_id"] in check_ids)
    return rows


@pytest.mark.parametrize("number", sorted(CRITERIA))
def test_criterion(reports, number):
    label, check_ids = CRITERIA[number]
    rows = _rows_for(reports, check_ids)
    assert len(rows) >= len(check_ids), f"missing checks for criterion {number}"
    ok = all(r["pass"] for r in rows)
    detail = ", ".join(f"{r['check_id']}={r['value']:.3g}" for r in rows)
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number:2d} ({label}): {detail}")
    bad = [r for r in rows if not r["pass"]]
    assert not bad, f"criterion {number} failed: {bad}"


def test_all_experiments_exit_clean(reports):
    for exp, rep in reports.items():
        assert rep.rows, f"experiment {exp} produced no checks"
        assert np.isfinite(rep.wall_seconds)


def test_every_experiment_stays_far_from_the_machine_memory(reports):
    # no experiment comes near an 8 GB desk machine: 1 GB each.  The value is
    # the process's peak so far, so each report also bounds the ones before it
    for exp, rep in reports.items():
        assert rep.peak_rss_mb < 1024, f"experiment {exp} peaked at {rep.peak_rss_mb:.0f} MB"


def _close(old, new, rtol: float) -> bool:
    """Equal JSON values, floats within ``rtol`` relative (0: the same bits)."""
    if isinstance(old, dict) and isinstance(new, dict):
        return old.keys() == new.keys() and all(_close(old[k], new[k], rtol) for k in old)
    if isinstance(old, list) and isinstance(new, list):
        return len(old) == len(new) and all(_close(a, b, rtol) for a, b in zip(old, new))
    if isinstance(old, float) and isinstance(new, float):
        return old.hex() == new.hex() or abs(new - old) <= rtol * abs(old)
    return type(old) is type(new) and old == new


def test_rows_match_golden(reports):
    golden = json.loads(GOLDEN.read_text())
    notes, moved = [], []
    for exp, rep in reports.items():
        pin, rtol = golden[exp], 0.0
        if rep.environment["numpy"] != pin["environment"]["numpy"]:
            rtol = FOREIGN_RTOL
            notes.append(
                f"{exp}: numpy {rep.environment['numpy']} here, {pin['environment']['numpy']} "
                f"at the pin, so values and params are compared at relative tolerance {rtol:g}"
            )
        if [list(d) for d in rep.diagnostics] != pin["diagnostics"]:
            moved.append(f"{exp} diagnostics: {pin['diagnostics']} -> {rep.diagnostics}")
        if [r["check_id"] for r in rep.rows] != [p["check_id"] for p in pin["rows"]]:
            moved.append(f"{exp} check ids: {[p['check_id'] for p in pin['rows']]} -> "
                         f"{[r['check_id'] for r in rep.rows]}")
            continue
        for row, p in zip(rep.rows, pin["rows"]):
            old, new = float.fromhex(p["value"]), row["value"]
            params = json.loads(json.dumps(row["params"]))
            same_params = _close(p["params"], params, rtol)
            if _close(old, new, rtol) and same_params and row["pass"] == p["pass"]:
                continue
            move = relative_move(old, new)
            extra = ""
            if not same_params:
                extra = f"  params {p['params']} -> {params}" + "".join(
                    f"  {leaf} moved {m:.2e} (params envelope {p['params_envelope']:.2e})"
                    for leaf, m in param_moves(p["params"], params).items()
                )
            extra += "" if row["pass"] == p["pass"] else f"  pass {p['pass']} -> {row['pass']}"
            moved.append(f"{row['check_id']:<30} {old!r:<24} {new!r:<24} {move:<9.2e} "
                         f"{p['envelope']:.2e}{extra}")
    for note in notes:
        print(note)
    header = f"{'check':<30} {'old':<24} {'new':<24} {'move':<9} envelope"
    assert not moved, "\n".join(
        notes + [f"moved from {GOLDEN.name} (re-pin with golden/pin.py):", header, *moved]
    )
