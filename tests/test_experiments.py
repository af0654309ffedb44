"""Config validation, check catalog, check groups, report contract, CLI, report CSV."""

import functools
import json
import subprocess
import sys

import numpy as np
import pytest

from magschro import experiments, parametrix, potentials
from magschro.experiments import (
    CHECK_CATALOG,
    EXPERIMENT_IDS,
    ExperimentConfig,
    list_checks,
    run,
    validate,
    write_check_rows_csv,
)
from magschro.grid import make_grid


def _stub_groups(monkeypatch, make_stub):
    """Replace each group by ``make_stub(ids)``, which keeps the group's signature
    and so the params keys the experiment accepts."""
    stubs = tuple(
        (exp, functools.wraps(body)(make_stub(tuple(checks))), checks)
        for exp, body, checks in experiments._GROUPS
    )
    monkeypatch.setattr(experiments, "_GROUPS", stubs)


class TestValidate:
    def test_catalog_nonempty_and_has_phase_identity(self):
        cat = list_checks()
        assert len(cat) > 20
        assert any(row["check_id"] == "phase-identity" for row in cat)

    def test_missing_grid_section_named_diagnostic(self):
        diags = validate({"version": 1})
        assert any("experiment" in d for d in diags)

    def test_unknown_keys_rejected(self):
        diags = validate({"version": 1, "experiment": "nets", "grid_size": 64})
        assert any("grid_size" in d for d in diags)
        diags = validate({"version": 1, "experiment": "nets", "params": {"bogus": 1}})
        assert any("bogus" in d for d in diags)

    def test_ignored_and_mistyped_keys_rejected(self):
        base = {"version": 1, "experiment": "nets"}
        bad = [
            ({"experiments": ["nets"]}, "experiments"),
            ({"threads": 2}, "threads"),
            ({"params": {"grid": {"N": 64}}}, "grid"),
            ({"params": {"presets": ["gauss_bump"]}}, "presets"),
            ({"params": {"rotation_count": 0}}, "rotation_count"),
            ({"params": {"eps_list": "abc"}}, "eps_list"),
            ({"params": {"t_list": [1.0]}}, "t_list"),
        ]
        for extra, name in bad:
            diags = validate({**base, **extra})
            assert any(name in d for d in diags), (extra, diags)
        with pytest.raises(ValueError, match="rotation_count"):
            ExperimentConfig(experiment="norms", params={"rotation_count": 0})

    @pytest.mark.parametrize(
        "experiment, extra, name",
        [
            # each of these once made its checks pass without testing anything
            ("strichartz-sweep", {"params": {"eps_list": []}}, "eps_list"),
            ("parametrix", {"params": {"eps_list": [0.1]}}, "eps_list"),
            ("nets", {"tolerances": {"cap-partition-sum": float("inf")}}, "cap-partition-sum"),
            ("nets", {"tolerances": {"cap-partition-sum": float("nan")}}, "cap-partition-sum"),
            ("parametrix", {"params": {"eps_list": [0.1, 0.1]}}, "eps_list"),
            ("parametrix", {"params": {"eps_list": [0.1, float("nan")]}}, "eps_list"),
            ("parametrix", {"params": {"max_products": float("inf")}}, "max_products"),
            ("dispersive", {"params": {"t_list": [2.0, 2.0]}}, "t_list"),
            ("dispersive", {"params": {"t_list": [1.0, float("inf")]}}, "t_list"),
            # the lattice side doubles with t: t = 64 would need an 8 GB buffer
            ("dispersive", {"params": {"t_list": [1.0, 64.0]}}, "t_list"),
            # a budget above the default switches the guard off as Infinity did
            ("parametrix", {"params": {"max_products": 1e300}}, "max_products"),
            ("parametrix", {"params": {"max_products": 5.000001e9}}, "max_products"),
            # more rotations than the shear cache holds
            ("norms", {"params": {"rotation_count": 1000000000}}, "rotation_count"),
            ("norms", {"params": {"rotation_count": 33}}, "rotation_count"),
        ],
    )
    def test_vacuous_or_unbounded_values_rejected(self, experiment, extra, name):
        raw = {"version": 1, "experiment": experiment, **extra}
        diags = validate(raw)
        assert any(name in d for d in diags), diags
        assert validate(json.loads(json.dumps(raw))) == diags  # Infinity and NaN survive JSON
        with pytest.raises(ValueError, match=name):
            ExperimentConfig.from_dict(raw)

    def test_largest_time_accepted(self):
        raw = {"version": 1, "experiment": "dispersive", "params": {"t_list": [1.0, 16.0]}}
        assert validate(raw) == []

    @pytest.mark.parametrize(
        "experiment, params",
        [("parametrix", {"max_products": 5e9}), ("norms", {"rotation_count": 32})],
    )
    def test_largest_budget_and_rotation_count_accepted(self, experiment, params):
        assert validate({"version": 1, "experiment": experiment, "params": params}) == []

    def test_unknown_check_and_tolerance_ids(self):
        diags = validate({"version": 1, "experiment": "nets", "checks": ["nope"]})
        assert any("nope" in d for d in diags)
        diags = validate({"version": 1, "experiment": "nets", "tolerances": {"nope": 1.0}})
        assert any("nope" in d for d in diags)

    def test_clean_config_passes(self):
        assert validate({"version": 1, "experiment": "nets", "seed": 5}) == []
        own_params = {
            "norms": {"rotation_count": 4},
            "parametrix": {"eps_list": [0.05, 0.1], "max_products": 1e9},
            "strichartz-sweep": {"eps_list": [0.05, 0.1]},
            "dispersive": {"t_list": [1.0, 2.0]},
        }
        for exp, params in own_params.items():
            assert validate({"version": 1, "experiment": exp, "params": params}) == []
        readme_example = {
            "version": 1,
            "experiment": "parametrix",
            "seed": 7,
            "out_dir": "out/",
            "checks": ["phase-identity", "dual-path-residual"],
            "tolerances": {"dual-path-residual": 5e-4},
            "params": {"eps_list": [0.02, 0.05, 0.1, 0.2]},
        }
        assert validate(readme_example) == []

    @pytest.mark.parametrize("experiment", EXPERIMENT_IDS)
    def test_keys_of_other_experiments_rejected(self, experiment, monkeypatch):
        foreign = next(cid for cid, (exp, _, _) in CHECK_CATALOG.items() if exp != experiment)
        key, value = ("eps_list", [0.1, 0.2]) if experiment == "dispersive" else ("t_list", [1.0, 2.0])
        bad = [
            ({"checks": [foreign]}, foreign),
            ({"tolerances": {foreign: 1.0}}, foreign),
            ({"params": {key: value}}, key),
            ({"checks": []}, "checks"),
        ]
        calls = []
        _stub_groups(monkeypatch, lambda ids: lambda *args, **kwargs: calls.append(ids))
        for extra, name in bad:
            raw = {"version": 1, "experiment": experiment, **extra}
            assert any(name in d for d in validate(raw)), (extra, validate(raw))
            with pytest.raises(ValueError, match=name):
                ExperimentConfig.from_dict(raw)
            direct = {k: tuple(v) if k == "checks" else v for k, v in extra.items()}
            with pytest.raises(ValueError, match=name):
                run(ExperimentConfig(experiment=experiment, **direct))
        assert calls == []

    def test_every_check_maps_to_experiment(self):
        for cid, (exp, thr, cmp_) in CHECK_CATALOG.items():
            assert exp in EXPERIMENT_IDS
            assert cmp_ in ("le", "ge")

    def test_every_check_in_one_group_of_its_experiment(self):
        grouped = [(cid, exp) for exp, _, checks in experiments._GROUPS for cid in checks]
        assert sorted(grouped) == sorted((cid, exp) for cid, (exp, _, _) in CHECK_CATALOG.items())


class TestRun:
    def test_nets_subset_runs_and_reports(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="nets",
            seed=7,
            out_dir=str(tmp_path),
            checks=("cap-partition-sum", "net-cardinality-constant", "sequence-lemma-stability"),
        )
        report = run(cfg)
        assert report.passed
        ids = [r["check_id"] for r in report.rows]
        assert "cap-partition-sum" in ids and "sequence-lemma-stability" in ids
        csv_path = tmp_path / "nets-report.csv"
        assert csv_path.exists()
        header = csv_path.read_text().splitlines()[0]
        assert header == "check_id,param_json,value,threshold,pass"
        summary = json.loads((tmp_path / "nets-summary.json").read_text())
        assert summary["passed"] is True
        assert "environment" in summary and "numpy" in summary["environment"]
        # the ray-bound group is not enabled, so it does not run
        assert [s["checks"] for s in summary["stages"]] == [
            ["cap-partition-sum"],
            ["net-cardinality-constant"],
            ["sequence-lemma-stability"],
        ]
        assert all(s["seconds"] >= 0 for s in summary["stages"])
        assert summary["peak_rss_mb"] > 0

    def test_deterministic_reports(self, tmp_path):
        cfg = dict(
            experiment="nets",
            seed=11,
            checks=("cap-partition-sum", "sequence-lemma-stability"),
        )
        r1 = run(ExperimentConfig(**cfg))
        r2 = run(ExperimentConfig(**cfg))
        assert r1.rows == r2.rows

    def test_tolerance_override_flips_outcome(self):
        cfg = ExperimentConfig(
            experiment="nets",
            seed=7,
            checks=("cap-partition-sum",),
            tolerances={"cap-partition-sum": 1e-30},
        )
        report = run(cfg)
        assert not report.passed

    def test_zero_potential_norms_trivial(self):
        # all smallness functionals vanish on the zero potential
        from magschro.potentials import VectorPotential, y0_norm, y1_norm

        g = make_grid(2, 32, 16, 0.25, 1.0)
        zero = VectorPotential(g, np.zeros((g.n_steps + 1, 2) + g.shape))
        assert y0_norm(zero) == 0.0 and y1_norm(zero) == 0.0

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError):
            run(ExperimentConfig(experiment="bogus"))

    def test_warnings_become_diagnostics(self, monkeypatch, tmp_path):
        import warnings

        def group(seed):
            for _ in range(2):
                warnings.warn("wrap depth 256 at band -6")
            warnings.warn("mass near Nyquist", RuntimeWarning)
            yield "cap-partition-sum", 0.0, {}

        table = (("nets", group, {"cap-partition-sum": CHECK_CATALOG["cap-partition-sum"][1:]}),)
        monkeypatch.setattr(experiments, "_GROUPS", table)
        report = run(ExperimentConfig(experiment="nets", out_dir=str(tmp_path)))
        expected = [
            ("mass near Nyquist", "RuntimeWarning", 1),
            ("wrap depth 256 at band -6", "UserWarning", 2),
        ]
        assert report.diagnostics == expected
        summary = json.loads((tmp_path / "nets-summary.json").read_text())
        assert summary["diagnostics"] == [list(d) for d in expected]
        assert [r["check_id"] for r in summary["rows"]] == ["cap-partition-sum"]

    @pytest.mark.parametrize("check_id", list(CHECK_CATALOG))
    def test_one_check_runs_only_its_group(self, check_id, monkeypatch):
        ran = []

        def make_stub(ids):
            def group(seed, **kwargs):
                if check_id not in ids:
                    raise AssertionError(f"group {ids} ran for {check_id}")
                ran.append(ids)
                for cid in ids:
                    yield cid, 0.0, {}

            return group

        _stub_groups(monkeypatch, make_stub)
        experiment = CHECK_CATALOG[check_id][0]
        report = run(ExperimentConfig(experiment=experiment, checks=(check_id,)))
        assert len(ran) == 1
        assert [r["check_id"] for r in report.rows] == [check_id]
        assert [s["checks"] for s in report.stages] == [list(ran[0])]

    @pytest.mark.parametrize("experiment", ["nets", "solve"])
    def test_group_alone_matches_full_run(self, experiment):
        full = run(ExperimentConfig(experiment=experiment, seed=5)).rows
        for ids, _ in experiments._groups_of(experiment):
            alone = run(ExperimentConfig(experiment=experiment, seed=5, checks=ids)).rows
            assert alone == [r for r in full if r["check_id"] in ids], ids


def _calls_of(monkeypatch, name, *modules):
    """Record the arguments of every call to ``name``, patched into each module
    (the defining one first), so calls from inside the package count too."""
    calls, original = [], getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted, raising=False)
    return calls


class TestCallCounts:
    """Each band quantity of a check group is computed once."""

    def test_norms_y_group_builds_one_report_per_potential(self, monkeypatch):
        reports = _calls_of(monkeypatch, "y23_report", potentials, experiments)
        ids = tuple(f"y-scale-invariance-y{j}" for j in range(4))
        params = {"rotation_count": 1}  # the count does not depend on the samples
        run(ExperimentConfig(experiment="norms", checks=ids, params=params))
        # five presets, each with its rescaling; Y2 and Y3 read the same report
        assert len(reports) == 5 * 2

    def test_error_terms_group_walks_the_pieces_once_per_amplitude(self, monkeypatch):
        passes = _calls_of(monkeypatch, "_error_group_pass", parametrix, experiments)
        singles = _calls_of(monkeypatch, "error_term_groups", parametrix, experiments)
        run(ExperimentConfig(experiment="error-terms"))
        # one pass over the bands -4 .. -2 for each of the three amplitudes
        assert [sorted(ks) for _, _, ks in passes] == [[-4, -3, -2]] * 3
        assert singles == []


class TestCli:
    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "magschro.cli", *args],
            capture_output=True,
            text=True,
        )

    def test_list_checks(self):
        out = self._run("list-checks")
        assert out.returncode == 0
        assert "phase-identity" in out.stdout

    def test_validate_rejects_bad_config(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"version": 1, "experiment": "nets", "junk": True}))
        out = self._run("validate", "--config", str(p))
        assert out.returncode == 2
        assert "junk" in out.stdout

    def test_run_subset_via_cli(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(
            json.dumps(
                {
                    "version": 1,
                    "experiment": "nets",
                    "seed": 3,
                    "checks": ["cap-partition-sum"],
                }
            )
        )
        out = self._run("nets", "--config", str(p), "--out", str(tmp_path / "out"))
        assert out.returncode == 0, out.stderr
        assert "[PASS] cap-partition-sum" in out.stdout
        assert (tmp_path / "out" / "nets-report.csv").exists()

    def test_experiment_mismatch_rejected(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"version": 1, "experiment": "solve"}))
        out = self._run("nets", "--config", str(p))
        assert out.returncode != 0


class TestSnapshots:
    def test_check_rows_contract(self, tmp_path):
        p = tmp_path / "rows.csv"
        write_check_rows_csv(
            p, [{"check_id": "x", "params": {"a": 1}, "value": 0.5, "threshold": 1.0, "pass": True}]
        )
        lines = p.read_text().splitlines()
        assert lines[0] == "check_id,param_json,value,threshold,pass"
        assert lines[1].startswith('x,"{""a"": 1}",0.5,1,true')
