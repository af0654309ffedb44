"""Acceptance gate: every stated criterion at its stated tolerance.

Runs each experiment group once (shared fixtures) and asserts the per-check
rows; one [PASS]/[FAIL] line per criterion is printed so `pytest -s
tests/test_acceptance.py` reads as the acceptance report.
"""

import warnings

import numpy as np
import pytest

from magschro.experiments import EXPERIMENT_IDS, ExperimentConfig, run

pytestmark = pytest.mark.slow  # seven full experiments

SEED = 2026

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
