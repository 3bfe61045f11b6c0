import csv
import json
import math
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

from opelab import cli, functions, linstat, measures
from opelab.errors import ConfigurationError
from opelab.sampler import RngStream, sample_matrix_model_batch


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


BASE = {
    "experiment": "stats",
    "measure": {"family": "chebyshev1st"},
    "n_grid": [2, 5],
    "statistic": {"f": "identity", "alpha": 0.0, "xstar": 0.0},
    "seed": 7,
}
REPORT = Path(__file__).resolve().parent.parent / "configs" / "report_chebyshev.json"


class TestConfigValidation:
    def test_minimal_config_fills_defaults(self):
        cfg = cli.ExperimentConfig.from_dict({"experiment": "stats"})
        assert cfg.n_grid == [10]
        assert cfg.replicas == 1
        assert cfg.method == "hkpv"

    def test_missing_experiment(self):
        with pytest.raises(ConfigurationError):
            cli.ExperimentConfig.from_dict({"n_grid": [5]})

    def test_unknown_experiment(self):
        with pytest.raises(ConfigurationError):
            cli.ExperimentConfig.from_dict({"experiment": "frobnicate"})

    @pytest.mark.parametrize("grid", [[], [5, 5], [10, 5], [0, 3]])
    def test_bad_n_grid(self, grid):
        with pytest.raises(ConfigurationError):
            cli.ExperimentConfig.from_dict({"experiment": "stats", "n_grid": grid})

    def test_alpha_out_of_range(self):
        with pytest.raises(ConfigurationError):
            cli.ExperimentConfig.from_dict(
                {"experiment": "stats", "statistic": {"f": "identity", "alpha": 1.0}})

    def test_zero_replicas(self):
        with pytest.raises(ConfigurationError):
            cli.ExperimentConfig.from_dict({"experiment": "sample", "replicas": 0})

    def test_bounds_replicas_default_to_1000(self):
        assert cli.ExperimentConfig.from_dict({"experiment": "bounds"}).replicas == 1000
        with pytest.raises(ConfigurationError, match="replicas >= 1000"):
            cli.ExperimentConfig.from_dict({"experiment": "bounds", "replicas": 999})

    def test_bad_seed(self):
        with pytest.raises(ConfigurationError):
            cli.ExperimentConfig.from_dict({"experiment": "stats", "seed": -1})

    def test_bad_method(self):
        with pytest.raises(ConfigurationError):
            cli.ExperimentConfig.from_dict({"experiment": "sample", "method": "mcmc"})

    def test_nonpositive_epsilon(self):
        with pytest.raises(ConfigurationError):
            cli.ExperimentConfig.from_dict({"experiment": "bounds", "epsilons": [0.0]})

    def test_polynomial_f_spec(self):
        cfg = cli.ExperimentConfig.from_dict(
            {"experiment": "stats", "statistic": {"f": {"poly": [0.0, 1.0]}}})
        assert cfg.statistic.f.sup_norm > 0


class TestMainEntry:
    def test_validate_ok(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE)
        assert cli.main(["validate", "--config", path]) == 0
        assert capsys.readouterr().out.strip() == "valid"

    @pytest.mark.parametrize("config", sorted(
        p.name for p in (Path(__file__).resolve().parent.parent / "configs").glob("*.json")))
    def test_committed_configs_validate(self, config, capsys):
        path = Path(__file__).resolve().parent.parent / "configs" / config
        assert cli.main(["validate", "--config", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "valid"

    def test_validate_bad_exit_code(self, tmp_path):
        path = write_config(tmp_path, {"experiment": "stats", "n_grid": [3, 2]})
        assert cli.main(["validate", "--config", path]) == 2

    @pytest.mark.parametrize("payload", [[1, 2], "stats"])
    def test_config_not_an_object_exits_2(self, tmp_path, capsys, payload):
        path = write_config(tmp_path, payload)
        assert cli.main(["validate", "--config", path]) == 2
        assert "config must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("change", [
        {"experiment": "bounds", "normalization": "abc"},
        {"measure": {"family": "jacobi", "params": {"b_exp": 0.5}}},
        {"measure": {"family": "jacobi", "params": {"a_exp": -1.5, "b_exp": 0.5}}},
        {"statistic": {"f": {"poly": "x"}}},
        {"measure": {"family": "varying_gaussian", "params": {"n": 0}}},
        {"measure": "chebyshev1st"},
        {"statistic": "identity"},
        {"n_grid": ["a"]},
        {"n_grid": [2.5, 3]},
        {"epsilons": "abc"},
        {"replicas": "x"},
        {"experiment": "sample", "measure": {"family": "jacobi",
                                             "params": {"a_exp": -0.8, "b_exp": 0.0}}},
        {"experiment": "sample", "method": "tridiagonal"},
        {"measure": {"family": "varying_gaussian", "params": {"n": 2.5}}},
        {"measure": {"family": "varying_gaussian", "params": {"n": True}}},
        {"measure": {"family": "varying_gaussian", "params": {"n": 50, "N": 10}}},
        {"measure": {"family": "legendre", "params": {"a_exp": 2}}},
        {"measure": {"family": "chebyshev1st", "params": 5}},
        {"measure": {"family": "discretized",
                     "params": {"weight_key": "x", "support": [-1, 1]}}},
        {"experiment": "bounds", "normalization": True},
        {"experiment": "bounds", "normalization": "2.5"},
        {"statistic": {"f": {"poly": [True, False]}}},
        {"experiment": "nevai", "measure": {"family": "legendre"}, "n_grid": [10, 50],
         "statistic": {"f": "smooth_bump", "alpha": 0.5, "xstar": 0.95}},
        {"experiment": "report", "n_grid": [25, 50],
         "statistic": {"f": "smooth_bump", "alpha": 0.5, "xstar": 0.9}},
        {"experiment": "universality", "n_grid": [10],
         "statistic": {"f": "identity", "xstar": 0.99}},
        {"experiment": "report", "measure": {"family": "jacobi",
                                             "params": {"a_exp": 20, "b_exp": 0.5}},
         "n_grid": [10], "statistic": {"f": "smooth_bump", "alpha": 0.9, "xstar": 0.5}},
        {"experiment": "universality", "measure": {"family": "legendre"},
         "statistic": {"f": "identity", "xstar": 1.0}},
        {"experiment": "bounds", "replicas": 3},
    ], ids=["normalization", "jacobi_missing_a_exp", "jacobi_a_exp_below_-1", "poly_not_list",
            "varying_gaussian_n_0", "measure_not_object", "statistic_not_object",
            "n_grid_not_numbers", "n_grid_not_integers", "epsilons_not_list",
            "replicas_not_number", "sample_jacobi_a_exp_below_-1/2",
            "tridiagonal_on_chebyshev", "varying_gaussian_n_not_integer",
            "varying_gaussian_n_bool", "varying_gaussian_unknown_param",
            "legendre_unknown_param", "params_not_object", "discretized_family",
            "normalization_bool", "normalization_string", "poly_bools",
            "nevai_grid_leaves_support", "report_nevai_grid_leaves_support",
            "universality_grid_leaves_support", "report_universality_grid_leaves_support",
            "universality_weight_vanishes", "bounds_replicas_below_1000"])
    def test_bad_config_exits_2_up_front(self, tmp_path, change):
        payload = dict(BASE, **change)
        path = write_config(tmp_path, payload)
        assert cli.main(["validate", "--config", path]) == 2
        assert cli.main([payload["experiment"], "--config", path,
                         "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    def test_missing_file_exit_code(self, tmp_path):
        assert cli.main(["validate", "--config", str(tmp_path / "nope.json")]) == 2

    def test_subcommand_config_mismatch(self, tmp_path):
        path = write_config(tmp_path, BASE)
        assert cli.main(["sample", "--config", path]) == 2

    def test_stats_run_writes_manifest(self, tmp_path):
        path = write_config(tmp_path, BASE)
        out = tmp_path / "out"
        assert cli.main(["stats", "--config", path, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["schema_version"] == 1
        assert manifest["config"]["seed"] == 7
        assert manifest["constant_A"] == pytest.approx(7818.9766, abs=1e-3)
        assert set(manifest["outputs"]) == {"stats.csv"}
        assert "stats" in manifest["wall_clock_s"]

    def test_manifest_records_the_toolchain(self, tmp_path):
        path = write_config(tmp_path, BASE)
        out = tmp_path / "out"
        assert cli.main(["stats", "--config", path, "--out", str(out)]) == 0
        tc = json.loads((out / "manifest.json").read_text())["toolchain"]
        assert tc == cli.toolchain()
        assert tc["numpy"] == np.__version__ and tc["scipy"] == scipy.__version__
        assert tc["python"] == platform.python_version()
        assert set(tc) == {"python", "numpy", "numpy_blas", "scipy", "scipy_blas"}

    def test_stats_values(self, tmp_path):
        # identity on the symmetric Chebyshev weight: zero mean, variance b_n^2
        path = write_config(tmp_path, BASE)
        out = tmp_path / "out"
        cli.main(["stats", "--config", path, "--out", str(out)])
        lines = (out / "stats.csv").read_text().splitlines()
        assert lines[0] == "n,mean,variance,scaled_variance"
        for line in lines[1:]:
            n, mean, var, _ = line.split(",")
            assert abs(float(mean)) < 1e-12
            assert float(var) == pytest.approx(0.25, abs=1e-12)

    def test_sample_determinism(self, tmp_path):
        payload = dict(BASE, experiment="sample", n_grid=[4], replicas=5)
        path = write_config(tmp_path, payload)
        sums = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert cli.main(["sample", "--config", path, "--out", str(out)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            sums.append(manifest["outputs"]["samples_n4.csv"])
        assert sums[0] == sums[1]

    def test_sample_seed_override_changes_output(self, tmp_path):
        payload = dict(BASE, experiment="sample", n_grid=[4], replicas=5)
        path = write_config(tmp_path, payload)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        cli.main(["sample", "--config", path, "--out", str(out1)])
        cli.main(["sample", "--config", path, "--out", str(out2), "--seed", "99"])
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        assert m1["outputs"]["samples_n4.csv"] != m2["outputs"]["samples_n4.csv"]
        assert m2["config"]["seed"] == 99

    @pytest.mark.parametrize("experiment", ["stats", "sample"])
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_override_must_be_u64(self, tmp_path, capsys, experiment, seed):
        """--seed meets the config's rule up front: exit 2, nothing written."""
        path = write_config(tmp_path, dict(BASE, experiment=experiment, n_grid=[4]))
        out = tmp_path / "o"
        assert cli.main([experiment, "--config", path, "--out", str(out),
                         "--seed", str(seed)]) == 2
        assert "config error: seed must be u64" in capsys.readouterr().err
        assert not out.exists()

    def test_tridiagonal_requires_varying_gaussian(self, tmp_path, capsys):
        """Every family without a matrix model refuses the tridiagonal method."""
        params = {"jacobi": {"a_exp": 0.5, "b_exp": -0.3}}
        families = [name for name, spec in measures.FAMILIES.items()
                    if spec.matrix_model is None]
        assert families
        for family in families:
            payload = dict(BASE, experiment="sample", n_grid=[3], method="tridiagonal",
                           measure={"family": family, "params": params.get(family, {})})
            path = write_config(tmp_path, payload)
            assert cli.main(["sample", "--config", path, "--out",
                             str(tmp_path / "o")]) == 2
            assert (f"tridiagonal method needs a matrix model, which family {family!r} lacks"
                    in capsys.readouterr().err)

    def test_tridiagonal_scales_by_the_weight_n(self, tmp_path):
        """Rank 4 of exp(-16 x^2 / 2): the CSV holds the draws for N = 16."""
        payload = dict(BASE, experiment="sample", n_grid=[4], method="tridiagonal",
                       replicas=3, measure={"family": "varying_gaussian", "params": {"n": 16}})
        out = tmp_path / "o"
        assert cli.main(["sample", "--config", write_config(tmp_path, payload),
                         "--out", str(out)]) == 0
        rows = (out / "samples_n4.csv").read_text().splitlines()[3:]
        got = np.array([float(r.split(",")[2]) for r in rows]).reshape(3, 4)
        want = sample_matrix_model_batch(measures.varying_gaussian(16), 4, RngStream(7, 0), 3)
        assert np.array_equal(got, want)

    def test_overflowing_envelope_exits_3_with_json(self, tmp_path, capsys):
        payload = dict(BASE, experiment="sample", n_grid=[400],
                       measure={"family": "varying_gaussian", "params": {"n": 400}})
        path = write_config(tmp_path, payload)
        assert cli.main(["sample", "--config", path, "--out", str(tmp_path / "o")]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "NumericalError"
        assert "overflows" in err["message"]

    def test_bounds_samples_once_per_n(self, tmp_path, monkeypatch):
        from opelab import sampler
        calls = []
        batch = sampler.sample_ope_batch

        def counted(kern, rng, replicas):
            calls.append(kern.n)
            return batch(kern, rng, replicas)

        monkeypatch.setattr(sampler, "sample_ope_batch", counted)
        payload = dict(BASE, experiment="bounds", n_grid=[3, 4], replicas=1000,
                       epsilons=[0.1, 0.3, 2.5], statistic={"f": "square"})
        path = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert cli.main(["bounds", "--config", path, "--out", str(out)]) == 0
        assert calls == [3, 4]
        assert len((out / "bounds.csv").read_text().splitlines()) == 1 + 2 * 3

    def test_bounds_run_dominated_column(self, tmp_path):
        payload = dict(BASE, experiment="bounds", n_grid=[3], replicas=1000,
                       epsilons=[2.5], statistic={"f": "identity"})
        path = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert cli.main(["bounds", "--config", path, "--out", str(out)]) == 0
        lines = (out / "bounds.csv").read_text().splitlines()
        header = lines[0].split(",")
        row = dict(zip(header, lines[1].split(",")))
        # eps beyond the range bound: empirically impossible, trivially dominated
        assert float(row["empirical"]) == 0.0
        assert row["dominated"] == "True"

    def test_report_bundle(self, tmp_path):
        # n large enough that the scaled evaluation grid stays inside [-1, 1]
        payload = dict(BASE, experiment="report", n_grid=[8, 16],
                       statistic={"f": "smooth_bump", "alpha": 0.4, "xstar": 0.0})
        path = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert cli.main(["report", "--config", path, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["outputs"]) == {
            "stats.csv", "nevai.csv", "universality.csv", "report.json"}
        report = json.loads((out / "report.json").read_text())
        assert report["measure"]["family"] == "chebyshev1st"

    def test_report_builds_each_panel_rule_once_per_n(self, tmp_path, monkeypatch):
        """The report's stages share one kernel per n, so the alpha-Nevai
        functional reuses the scaled variance's window rule.  That window's
        ladder builds the half-size and base rules and stops; the
        concentration window takes its base rule alone."""
        inner, calls = linstat._panel_rule, []

        def counted(kern, lo, hi, refine, breaks=()):
            calls.append((kern.n, lo, hi, refine, tuple(breaks)))
            return inner(kern, lo, hi, refine, breaks)

        for mod in [m for name, m in sys.modules.items() if name.startswith("opelab")]:
            if getattr(mod, "_panel_rule", None) is inner:
                monkeypatch.setattr(mod, "_panel_rule", counted)
        assert cli.main(["report", "--config", str(REPORT), "--out", str(tmp_path / "out")]) == 0
        assert calls and len(set(calls)) == len(calls)
        # nevai_integral of the unscaled bump reuses the moments' mu-Gauss rule
        assert not [c for c in calls if c[1] <= -1.0 and c[2] >= 1.0]
        raw = json.loads(REPORT.read_text())
        stat = raw["statistic"]
        for n in raw["n_grid"]:
            h = 1.0 / float(n) ** stat["alpha"]   # the bump's window x* -+ n^-alpha
            x = stat["xstar"]
            assert {c[1:4] for c in calls if c[0] == n} == {
                (x - h, x + h, 0.5), (x - h, x + h, 1), (x - 0.1, x + 0.1, 1)}

    def test_report_builds_each_recurrence_once_per_config(self, tmp_path, monkeypatch):
        """Kernels, rules and densities of one measure share its recurrence
        coefficients per depth: a report builds one per kernel rank, and a
        second run of the same config builds none."""
        built, init = [], measures.RecurrenceCoefficients.__post_init__
        monkeypatch.setattr(measures.RecurrenceCoefficients, "__post_init__",
                            lambda co: (built.append(len(co.diag)), init(co))[1])
        config = cli.ExperimentConfig.from_dict(json.loads(REPORT.read_text()))
        cli.run(config, str(tmp_path / "first"))
        assert 1 <= len(built) <= 4
        built.clear()
        cli.run(config, str(tmp_path / "second"))
        assert built == []

    def test_universality_varying_gaussian(self, tmp_path):
        payload = dict(BASE, experiment="universality", n_grid=[20],
                       measure={"family": "varying_gaussian", "params": {"n": 20}})
        path = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert cli.main(["universality", "--config", path, "--out", str(out)]) == 0
        lines = (out / "universality.csv").read_text().splitlines()
        assert lines[0] == "n,universality_error,totik_error"
        _, ue, te = lines[1].split(",")
        assert float(ue) < 0.5 and float(te) < 0.5

    @pytest.mark.parametrize("measure", [
        {"family": "jacobi", "params": {"a_exp": 0.5, "b_exp": 0.5}},
        {"family": "legendre"},
    ], ids=["semicircle", "legendre"])
    def test_universality_compares_with_the_arcsine_law_of_the_support(self, tmp_path, measure):
        """A compact non-arcsine weight: the totik error against the arcsine
        law of its support halves as n doubles."""
        payload = dict(BASE, experiment="universality", n_grid=[10, 20, 40], measure=measure,
                       statistic={"f": "identity", "xstar": 0.0})
        out = tmp_path / "out"
        assert cli.main(["universality", "--config", write_config(tmp_path, payload),
                         "--out", str(out)]) == 0
        rows = (out / "universality.csv").read_text().splitlines()[1:]
        te = [float(row.split(",")[2]) for row in rows]
        assert te[1] < 0.55 * te[0] and te[2] < 0.55 * te[1] and te[2] < 0.01


_MEASURES = {
    "chebyshev1st": st.just({}),
    "legendre": st.just({}),
    "jacobi": st.fixed_dictionaries({"a_exp": st.floats(-0.99, 3.0),
                                     "b_exp": st.floats(-0.99, 3.0)}),
    "varying_gaussian": st.fixed_dictionaries({"n": st.integers(1, 30)}),
}


@st.composite
def _configs(draw):
    """A config that the schema admits: every field of the right type and
    range, n <= 12 (n <= 6 for bounds) and at most 4 sample replicas."""
    experiment = draw(st.sampled_from(cli._EXPERIMENTS))
    family = draw(st.sampled_from(sorted(_MEASURES)))
    f = draw(st.one_of(
        st.sampled_from(sorted(functions.REGISTRY)),
        st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4).map(lambda c: {"poly": c})))
    top = 6 if experiment == "bounds" else 12
    config = {
        "experiment": experiment,
        "measure": {"family": family, "params": draw(_MEASURES[family])},
        "n_grid": sorted(draw(st.sets(st.integers(1, top), min_size=1, max_size=3))),
        "statistic": {"f": f, "alpha": draw(st.floats(0.0, 0.95)),
                      "xstar": draw(st.one_of(st.floats(-1.5, 1.5), st.floats(-30.0, 30.0)))},
        "seed": draw(st.integers(0, 2**64 - 1)),
        "epsilons": draw(st.lists(st.floats(0.01, 5.0), min_size=1, max_size=3)),
        "normalization": draw(st.one_of(st.just("n"), st.floats(0.1, 100.0))),
        "method": draw(st.sampled_from(["hkpv", "tridiagonal"])),
    }
    if experiment == "sample":
        config["replicas"] = draw(st.integers(1, 4))
    return config


class TestConfigContract:
    """Every schema-valid config exits 0 or 2 through cli.main, never with a
    mid-run error (exit 3) or a traceback, and a run that exits 0 writes
    only finite numbers."""

    @given(config=_configs())
    @settings(max_examples=100, deadline=None)
    def test_exit_0_or_2_with_finite_csvs(self, config):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(config))
            out = Path(tmp) / "out"
            code = cli.main([config["experiment"], "--config", str(path), "--out", str(out)])
            assert code in (0, 2), config
            for table in out.glob("*.csv") if code == 0 else ():
                with open(table, newline="") as fh:   # past the "# " metadata and the header
                    rows = list(csv.reader(line for line in fh if not line.startswith("#")))[1:]
                for cell in (cell for row in rows for cell in row):
                    try:
                        value = float(cell)
                    except ValueError:   # regime names and flags
                        continue
                    assert math.isfinite(value), (table.name, config)
