import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cli_env
from uqkit import cli
from uqkit.cli import build_parser, main, parse_dist
from uqkit.datastore import Datastore
from uqkit.error_sim import Laplace, Normal, NormalMixture, Rayleigh

ROOT = Path(__file__).resolve().parents[1]


def run_cli(args, cwd=None, env=None):
    return subprocess.run([sys.executable, "-m", "uqkit.cli", *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


class TestAsoSim:
    def test_single_trial_rate_is_binary(self, tmp_path):
        out = tmp_path / "r.csv"
        result = run_cli(["aso-sim", "--test", "student_t", "--tau", "0.05", "--n", "10",
                          "--trials", "1", "--seed", "3", "--out", str(out)])
        assert result.returncode == 0
        rate = float(out.read_text().splitlines()[2].split(",")[5])
        assert rate in (0.0, 1.0)

    def test_byte_identical_across_runs(self, tmp_path):
        args = ["aso-sim", "--test", "aso,mann_whitney", "--n", "5,10", "--tau", "0.2",
                "--trials", "20", "--seed", "11"]
        first = run_cli(args + ["--out", str(tmp_path / "a.csv")])
        second = run_cli(args + ["--out", str(tmp_path / "b.csv")])
        third = run_cli(args + ["--out", str(tmp_path / "c.csv")],
                        env=cli_env(OPENBLAS_NUM_THREADS="2"))
        assert first.returncode == second.returncode == third.returncode == 0
        a = (tmp_path / "a.csv").read_bytes()
        assert a == (tmp_path / "b.csv").read_bytes()
        assert a == (tmp_path / "c.csv").read_bytes()

    def test_schema_header_present(self, tmp_path):
        out = tmp_path / "r.csv"
        run_cli(["aso-sim", "--test", "student_t", "--trials", "2", "--tau", "0.05",
                 "--out", str(out)])
        assert out.read_text().startswith("# schema=uqkit.aso-sim.csv.v1\n")

    def test_bad_dist_usage(self):
        result = run_cli(["aso-sim", "--dist", "gamma:1:2", "--trials", "1"])
        assert result.returncode == 2
        assert "usage error" in result.stderr

    def test_single_observation_is_usage_error(self, capsys):
        """Every test kind needs two observations per sample, so `--n` is checked at parse time."""
        for kind in ("aso", "student_t", "bootstrap", "permutation", "wilcoxon", "mann_whitney"):
            for sizes in ("1", "5,1"):
                assert main(["aso-sim", "--test", kind, "--n", sizes, "--trials", "2"]) == 2
                out, err = capsys.readouterr()
                assert (out, err) == ("", "usage error: argument --n: expected an integer >= 2, "
                                          "got '1'\n"), (kind, sizes)

    def test_plot_written(self, tmp_path):
        svg = tmp_path / "rates.svg"
        result = run_cli(["aso-sim", "--test", "student_t", "--n", "5,10", "--tau", "0.05",
                          "--trials", "5", "--out", str(tmp_path / "r.csv"),
                          "--plot", str(svg)])
        assert result.returncode == 0
        assert svg.read_text().startswith("<svg")

    def test_small_sample_aso_rate_band(self, tmp_path):
        out = tmp_path / "cell.csv"
        result = run_cli(["aso-sim", "--dist", "normal:0:1.5", "--n", "5", "--test", "aso",
                          "--tau", "0.05", "--trials", "500", "--seed", "7",
                          "--out", str(out)])
        assert result.returncode == 0
        rate = float(out.read_text().splitlines()[2].split(",")[5])
        assert abs(rate - 0.020) <= 0.03


# finite parameters that parse_dist accepts, among them values that `:g` rounds
_ROUNDED = [0.1234567, 0.1234568, 1.5000001, 123456789.0, 1e-7 + 1e-20]
_LOCATION = st.floats(-1e100, 1e100) | st.sampled_from([0.0, -0.0, *_ROUNDED])
_SCALE = st.floats(0.0, 1e100, exclude_min=True) | st.sampled_from(_ROUNDED)


@st.composite
def _mixtures(draw):
    """A mixture of 2-4 components whose weights are the gaps between sorted cuts of [0, 1]."""
    count = draw(st.integers(2, 4))
    cuts = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=count - 1, max_size=count - 1)))
    weights = tuple(hi - lo for lo, hi in zip([0.0, *cuts], [*cuts, 1.0]))
    components = tuple(draw(st.tuples(_LOCATION, _SCALE)) for _ in range(count))
    return NormalMixture(components, weights)


class TestDistLabels:
    @given(st.one_of(st.builds(Normal, _LOCATION, _SCALE), st.builds(Laplace, _LOCATION, _SCALE),
                     st.builds(Rayleigh, _SCALE), _mixtures()))
    @settings(max_examples=300, deadline=None)
    def test_label_parses_back_to_the_spec(self, spec):
        assert parse_dist(spec.label()) == spec

    def test_close_specs_print_distinct_dists(self, capsys):
        # `:g` alone prints the first two as normal:0.123457:1 and the third as normal:0:1.5
        assert main(["aso-sim", "--test", "student_t", "--tau", "0.05", "--trials", "2",
                     "--dist", "normal:0.1234567:1,normal:0.1234568:1,normal:0:1.5000001"]) == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        assert [row.split(",")[1] for row in rows] == [
            "normal:0.1234567:1", "normal:0.1234568:1", "normal:0:1.5000001"]


SMALL_EVAL_ARGS = ["conformal-eval", "--vocab", "30", "--dim", "6", "--cal-steps", "300",
                   "--test-steps", "200", "--alpha", "0.1", "--k", "20", "--seed", "5"]


class TestConformalEval:
    @pytest.fixture
    def small_args(self):
        return list(SMALL_EVAL_ARGS)

    def test_knn_unit_is_a_usage_error(self, small_args, capsys):
        """Split is the unit-weight quantile, so no second method name computes it."""
        assert main(small_args + ["--method", "split,knn_unit"]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", "usage error: argument --method: unknown name 'knn_unit'; "
                                  "expected one of split,knn\n")

    def test_config_fields_are_the_options_the_command_passes(self, monkeypatch, capsys):
        """No field of ConformalEvalConfig keeps its default: each one comes from an option."""
        configs = []
        monkeypatch.setattr(cli, "run_conformal_eval", lambda cfg, **_: configs.append(cfg) or [])
        assert main(["conformal-eval", "--vocab", "7", "--dim", "5", "--cal-steps", "11",
                     "--test-steps", "13", "--alpha", "0.3", "--k", "4", "--score", "simple"]) == 0
        [cfg] = configs
        assert cfg._fields == ("vocab_size", "latent_dim", "cal_steps", "test_steps", "alpha",
                               "k", "score_kind")
        assert cfg == (7, 5, 11, 13, 0.3, 4, "simple")

    def test_split_at_a_rank_boundary_takes_the_level_slack(self, capsys):
        """(N+1)(1-alpha) = 5.000000002 at N 9: split takes the 5th score, as the
        unit-weight quantile's 1e-9 level slack allows."""
        assert main(["conformal-eval", "--vocab", "10", "--dim", "3", "--cal-steps", "9",
                     "--test-steps", "200", "--alpha", "0.4999999998",
                     "--method", "split", "--tau", "1", "--seed", "1"]) == 0
        [record] = json.loads(capsys.readouterr().out)
        assert (record["q_digest"], record["coverage"], record["mean_set_size"]) == \
            ("dd4fb13e10724a30", 0.705, 2.41)

    def test_looser_alpha_coverage(self, tmp_path):
        out = tmp_path / "r.json"
        result = run_cli(["conformal-eval", "--vocab", "30", "--dim", "6", "--cal-steps",
                          "300", "--test-steps", "300", "--alpha", "0.5", "--method",
                          "split", "--noise", "0", "--seed", "6", "--out", str(out)])
        assert result.returncode == 0
        record = json.loads(out.read_text())[0]
        se = np.sqrt(0.25 / 300)
        assert record["coverage"] >= 0.5 - 3 * se

    def test_byte_identical(self, small_args, tmp_path):
        args = small_args + ["--method", "knn", "--metric", "l2", "--noise", "0",
                             "--tau", "heuristic"]
        run_cli(args + ["--out", str(tmp_path / "a.json")])
        run_cli(args + ["--out", str(tmp_path / "b.json")])
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


class TestDirichletCheck:
    def test_uniform_alpha_kl_zero(self, tmp_path):
        out = tmp_path / "d.json"
        result = run_cli(["dirichlet-check", "--alpha", "1,1,1", "--samples", "20000",
                          "--seed", "4", "--out", str(out)])
        assert result.returncode == 0
        payload = json.loads(out.read_text())
        assert payload["records"][0]["kl_uniform"] == 0.0

    def test_default_run_z_bound_and_determinism(self, tmp_path):
        args = ["dirichlet-check", "--num-random", "4", "--samples", "20000", "--seed", "9"]
        run_cli(args + ["--out", str(tmp_path / "a.json")])
        run_cli(args + ["--out", str(tmp_path / "b.json")])
        a = (tmp_path / "a.json").read_bytes()
        assert a == (tmp_path / "b.json").read_bytes()
        assert json.loads(a)["overall_max_abs_z"] <= 4.0

    def test_alpha_at_the_cap(self):
        # The KL reference shifts each entry by 0.5; at the 1e8 cap it must step down.
        result = run_cli(["dirichlet-check", "--alpha", "1e8,1e8", "--samples", "1000"])
        assert result.returncode == 0, result.stderr
        z_scores = json.loads(result.stdout)["records"][0]["z_scores"]
        assert all(math.isfinite(z) for z in z_scores.values())


class TestDatastoreCli:
    def make_file(self, tmp_path, count=5, dim=3):
        rng = np.random.default_rng(0)
        store = Datastore(dim)
        if count:
            store.add_batch(rng.normal(size=(count, dim)).astype(np.float32),
                            rng.random(count))
        path = tmp_path / "s.uqds"
        store.save(path)
        return path, store

    def test_info_empty_store(self, tmp_path):
        path, _ = self.make_file(tmp_path, count=0)
        result = run_cli(["datastore", "info", str(path)])
        assert result.returncode == 0
        assert json.loads(result.stdout)["count"] == 0

    def test_dump_rebuild_roundtrip(self, tmp_path):
        path, store = self.make_file(tmp_path, count=8)
        csv_path = tmp_path / "dump.csv"
        rebuilt_path = tmp_path / "rebuilt.uqds"
        assert run_cli(["datastore", "dump", str(path), "--out", str(csv_path)]).returncode == 0
        assert run_cli(["datastore", "from-csv", str(csv_path), str(rebuilt_path)]).returncode == 0
        rebuilt = Datastore.load(rebuilt_path)
        assert np.array_equal(rebuilt.latents, store.latents)
        assert np.array_equal(rebuilt.scores, store.scores)

    def test_corrupt_file_exit_code(self, tmp_path):
        bad = tmp_path / "bad.uqds"
        bad.write_bytes(b"JUNKJUNKJUNKJUNKJUNK")
        result = run_cli(["datastore", "info", str(bad)])
        assert result.returncode == 3
        assert "bad magic" in result.stderr

    @pytest.mark.parametrize("field, value", [("latent", math.inf), ("latent", -math.inf),
                                              ("latent", math.nan), ("score", math.nan),
                                              ("score", math.inf)])
    @pytest.mark.parametrize("action", ["info", "dump"])
    def test_non_finite_uqds_record_is_one_data_error_line(self, tmp_path, capsys, action,
                                                           field, value):
        path, store = self.make_file(tmp_path, count=3, dim=2)
        raw = path.read_bytes()
        records = np.frombuffer(raw[20:], dtype=store._record_dtype()).copy()
        records[field][1] = value
        path.write_bytes(raw[:20] + records.tobytes())
        assert main(["datastore", action, str(path)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {field}s must be finite\n"

    @pytest.mark.parametrize("text", ["", "# schema=uqkit.datastore.csv.v1\n"])
    def test_from_csv_empty_exit_code(self, tmp_path, text):
        src = tmp_path / "empty.csv"
        src.write_text(text)
        result = run_cli(["datastore", "from-csv", str(src), str(tmp_path / "out.uqds")])
        assert result.returncode == 3
        assert result.stderr.startswith("error:")
        assert len(result.stderr.splitlines()) == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "1e39"])  # 1e39 overflows float32
    def test_from_csv_non_finite_latent_exit_code(self, tmp_path, value):
        src = tmp_path / "bad.csv"
        src.write_text(f"score,latent0,latent1\n0.5,1.0,{value}\n")
        dest = tmp_path / "out.uqds"
        result = run_cli(["datastore", "from-csv", str(src), str(dest)])
        assert result.returncode == 3
        assert result.stderr.splitlines() == ["error: latents must be finite"]
        assert not dest.exists()

    @pytest.mark.parametrize("rows, bad", [
        ("0.5,1.0,2.0\n0.25,1.0\n", "data row 2 has 2 fields"),
        ("0.5,1.0,2.0,3.0\n", "data row 1 has 4 fields"),
        ("0.5,1.0,2.0\n\n", "data row 2 has 0 fields"),
    ], ids=["short", "long", "blank"])
    def test_from_csv_ragged_row_exit_code(self, tmp_path, rows, bad):
        src = tmp_path / "ragged.csv"
        src.write_text("# schema=uqkit.datastore.csv.v1\nscore,latent0,latent1\n" + rows)
        dest = tmp_path / "out.uqds"
        result = run_cli(["datastore", "from-csv", str(src), str(dest)])
        assert result.returncode == 3
        assert result.stderr.splitlines() == [f"error: {src}: {bad}, the header has 3"]
        assert not dest.exists()

    def test_missing_file_exit_code(self, tmp_path):
        result = run_cli(["datastore", "info", str(tmp_path / "nothere.uqds")])
        assert result.returncode == 3

    @given(st.integers(min_value=1, max_value=8).flatmap(lambda dim: st.lists(
        st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                  st.lists(st.floats(width=32, allow_nan=False, allow_infinity=False),
                           min_size=dim, max_size=dim)),
        max_size=20).map(lambda rows: (dim, rows))))
    @settings(max_examples=60, deadline=None)
    def test_csv_roundtrip_property(self, case):
        """from-csv -> dump -> from-csv reproduces the UQDS bytes and the dump bytes."""
        dim, rows = case
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            lines = ["score," + ",".join(f"latent{i}" for i in range(dim))]
            lines += [",".join(repr(v) for v in (score, *latent)) for score, latent in rows]
            (tmp / "in.csv").write_text("\n".join(lines) + "\n")
            for src, store, dump in [("in.csv", "a.uqds", "a.csv"), ("a.csv", "b.uqds", "b.csv")]:
                assert main(["datastore", "from-csv", str(tmp / src), str(tmp / store)]) == 0
                assert main(["datastore", "dump", str(tmp / store), "--out", str(tmp / dump)]) == 0
            assert (tmp / "a.uqds").read_bytes() == (tmp / "b.uqds").read_bytes()
            assert (tmp / "a.csv").read_bytes() == (tmp / "b.csv").read_bytes()
            loaded = Datastore.load(tmp / "a.uqds")
            assert loaded.latents.shape == (len(rows), dim)
            assert np.array_equal(loaded.scores, np.array([score for score, _ in rows]))
            assert np.array_equal(loaded.latents,
                                  np.array([latent for _, latent in rows], dtype=np.float32)
                                  .reshape(len(rows), dim))


class TestUsageErrors:
    def test_unknown_subcommand(self):
        assert run_cli(["frobnicate"]).returncode == 2

    def test_missing_required(self):
        assert run_cli([]).returncode == 2

    @pytest.mark.parametrize("argv, name", [
        (["aso-sim", "--test=,"], "--test"), (["aso-sim", "--n=,"], "--n"),
        (["aso-sim", "--tau=,"], "--tau"), (["aso-sim", "--dist=,"], "--dist"),
        (["conformal-eval", "--method=,"], "--method"),
        (["conformal-eval", "--metric=,"], "--metric"),
        (["conformal-eval", "--noise=,"], "--noise"),
        (["dirichlet-check", "--alpha=,"], "--alpha"),
        (["dirichlet-check", "--alpha=1,nan"], "--alpha"),
        (["dirichlet-check", "--alpha=-1,2"], "--alpha"),
        (["dirichlet-check", "--alpha=0.5"], "--alpha"),
        (["aso-sim", "--n=5,,10"], "--n"), (["aso-sim", "--tau=0.05,"], "--tau"),
        (["aso-sim", "--dist-b=normal:0"], "--dist-b"),
        (["frobnicate"], "command"), ([], "command"),
        (["aso-sim", "--frobnicate", "1"], "--frobnicate"),
        (["datastore", "from-csv", "in.csv"], "dest"),
        (["aso-sim", "--seed", "-1"], "--seed"), (["conformal-eval", "--seed", "-1"], "--seed"),
        (["dirichlet-check", "--seed", "-1"], "--seed"),
        (["dirichlet-check", "--num-random", "abc"],
         "--num-random: expected an integer, got 'abc'"),
        (["dirichlet-check", "--num-random", "1.5"],
         "--num-random: expected an integer, got '1.5'"),
        (["dirichlet-check", "--num-random", "0"],
         "--num-random: expected an integer >= 1, got '0'"),
    ])
    def test_one_line_naming_the_option(self, argv, name, capsys):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage error:") and name in err
        assert len(err.splitlines()) == 1

    def test_string_defaults_pass_the_option_types(self):
        parser = build_parser()
        aso_sim = parser.parse_args(["aso-sim"])
        assert (aso_sim.test, aso_sim.n, aso_sim.tau) == (["aso"], [5], [0.2])
        assert [d.label() for d in aso_sim.dist] == ["normal:0:1.5"] and aso_sim.dist_b is None
        conformal = parser.parse_args(["conformal-eval"])
        assert (conformal.method, conformal.metric, conformal.noise, conformal.tau) == \
            (["split", "knn"], ["l2"], [0.0], "auto")
        assert parser.parse_args(["dirichlet-check", "--alpha", "1,2.5"]).alpha == [1.0, 2.5]


class TestConformalEvalValidation:
    @pytest.mark.parametrize("option, value", [
        ("--cal-steps", "0"), ("--test-steps", "0"), ("--k", "0"), ("--tau", "nan"),
        ("--tau", "-1"), ("--alpha", "0"), ("--alpha", "1.5"), ("--method", "foo"),
        ("--method", "knn_unit"),
        ("--metric", "foo"), ("--noise", "nan"), ("--noise", "0,-0.1"), ("--noise", "inf"),
        ("--vocab", "1"), ("--dim", "1"),
    ])
    def test_bad_option_is_usage_error(self, option, value):
        result = run_cli(["conformal-eval", "--vocab", "10", "--dim", "3", option, value])
        assert result.returncode == 2
        assert result.stderr.startswith("usage error:")
        assert len(result.stderr.splitlines()) == 1
        assert option in result.stderr
        assert result.stdout == ""

    def test_latents_beyond_float32_range_are_one_data_error_line(self):
        result = run_cli(["conformal-eval", "--vocab", "5", "--dim", "2", "--cal-steps", "20",
                          "--test-steps", "5", "--noise", "1e200", "--method", "knn"])
        assert result.returncode == 3
        assert result.stderr.splitlines() == [
            "error: noise 1e+200 puts a test latent's squared norm beyond the float32 range "
            "of the k-NN keys"]
        assert result.stdout == ""

    def test_overflowing_query_norms_are_one_data_error_line(self):
        """Latents near 1e30 fit float32, but their squared norms and l2 keys do not."""
        result = run_cli(["conformal-eval", "--vocab", "5", "--dim", "2", "--cal-steps", "60",
                          "--test-steps", "5", "--k", "5", "--noise", "1e30", "--method", "knn",
                          "--metric", "l2,cos"])
        assert result.returncode == 3
        assert result.stderr.splitlines() == [
            "error: noise 1e+30 puts a test latent's squared norm beyond the float32 range "
            "of the k-NN keys"]
        assert result.stdout == ""

    def test_split_only_tolerates_noise_the_keys_could_not(self):
        result = run_cli(["conformal-eval", "--vocab", "5", "--dim", "2", "--cal-steps", "60",
                          "--test-steps", "5", "--noise", "1e30", "--method", "split"])
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)[0]["noise"] == 1e30

    @pytest.mark.parametrize("method", ["split", "knn"])
    def test_non_finite_noisy_test_steps_are_one_data_error_line(self, method):
        """At 1e308 the noisy latents overflow: no numpy warning, one line naming the level."""
        result = run_cli(["conformal-eval", "--vocab", "100", "--dim", "16", "--cal-steps", "60",
                          "--test-steps", "50", "--k", "5", "--noise", "1e308",
                          "--method", method])
        assert result.returncode == 3
        assert result.stderr.splitlines() == [
            "error: noise 1e+308 makes a test latent or its token distribution non-finite"]
        assert result.stdout == ""

    def test_split_only_takes_noise_whose_latents_stay_finite(self):
        result = run_cli(["conformal-eval", "--vocab", "100", "--dim", "16", "--cal-steps", "60",
                          "--test-steps", "50", "--k", "5", "--noise", "1e200",
                          "--method", "split"])
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""
        assert json.loads(result.stdout)[0]["noise"] == 1e200

    def test_tiny_tau_clamps_the_weights_without_a_warning(self, tmp_path):
        """1e-320 parses as a finite tau > 0; every key / -tau overflows and is clamped."""
        result = run_cli(["conformal-eval", "--vocab", "10", "--dim", "3", "--cal-steps", "30",
                          "--test-steps", "10", "--k", "5", "--method", "knn",
                          "--metric", "l2,ip,cos", "--tau", "1e-320",
                          "--out", str(tmp_path / "tiny_tau.json")],
                         env=cli_env(PYTHONWARNINGS="error::RuntimeWarning"))
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""
        assert [r["metric"] for r in json.loads((tmp_path / "tiny_tau.json").read_text())] == [
            "cos", "ip", "l2"]

    def test_split_only_nan_noise_is_usage_error(self):
        result = run_cli(["conformal-eval", "--vocab", "10", "--dim", "3", "--method", "split",
                          "--noise", "nan"])
        assert result.returncode == 2
        assert result.stderr.startswith("usage error:") and "--noise" in result.stderr
        assert len(result.stderr.splitlines()) == 1
        assert result.stdout == ""


ASO_SIM_T = ["aso-sim", "--test", "student_t", "--trials", "5", "--n", "10"]
DIRICHLET = ["dirichlet-check", "--samples", "100"]


class TestAsoSimDirichletValidation:
    @pytest.mark.parametrize("command, option, value", [
        (ASO_SIM_T, "--tau", "nan,0.05"), (ASO_SIM_T, "--tau", "inf"),
        (ASO_SIM_T, "--trials", "0"), (ASO_SIM_T, "--n", "5,0"),
        (ASO_SIM_T, "--bootstrap", "0"), (ASO_SIM_T, "--resamples", "0"),
        (ASO_SIM_T, "--alpha", "0"), (ASO_SIM_T, "--alpha", "1.5"),
        (DIRICHLET, "--samples", "0"), (DIRICHLET, "--num-random", "0"),
        (ASO_SIM_T, "--test", "aso,foo"), (DIRICHLET, "--samples", "1"),
        (DIRICHLET, "--alpha", "1e308,1e308"), (ASO_SIM_T, "--n", "1"),
        (DIRICHLET, "--alpha", "1e160,1"), (DIRICHLET, "--alpha", "1e100,1"),
    ])
    def test_bad_option_is_usage_error(self, command, option, value):
        result = run_cli(command + [option, value])
        assert result.returncode == 2
        assert result.stderr.startswith("usage error:")
        assert len(result.stderr.splitlines()) == 1
        assert option in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize("option, spec", [
        ("--dist", "normal:1e308:1"), ("--dist", "normal:0:1e308"),
        ("--dist-b", "mixture:0:1:0.5:0:1e200:0.5"),
    ])
    def test_overflowing_dist_spec_is_usage_error(self, option, spec):
        # the draws' sums or squares would overflow in the tests' means and variances
        result = run_cli(["aso-sim", "--test", "aso,student_t", "--n", "5", "--trials", "3",
                          option, spec])
        assert result.returncode == 2
        assert result.stderr.splitlines() == [
            f"usage error: argument {option}: cannot parse distribution spec {spec!r}: "
            "parameters must be finite with magnitude <= 1e+100"]
        assert result.stdout == ""

    def test_degenerate_test_data_stops_the_grid(self):
        # a std of 1 vanishes next to a mean of 1e99 in float64, so the t-test's draws
        # have no variance; one test that cannot decide stops every test of the grid
        result = run_cli(["aso-sim", "--dist", "normal:1e99:1", "--test", "aso,student_t",
                          "--trials", "3"])
        assert result.returncode == 3
        assert result.stderr.splitlines() == ["error: degenerate variance"]
        assert result.stdout == ""

    def test_dirichlet_check_num_random_unused_with_alpha_list(self):
        result = run_cli(DIRICHLET + ["--alpha", "1,2", "--num-random", "0"])
        assert result.returncode == 0, result.stderr

    @pytest.mark.parametrize("alpha", ["0.01,0.01", "0.001,0.001"])
    def test_dirichlet_check_underflowing_draws_are_data_error(self, alpha):
        # Gamma draws this small underflow to exactly 0, where every log-based check is
        # undefined; at 0.001 whole rows do, and their 0/0 must not warn either.
        result = run_cli(["dirichlet-check", "--alpha", alpha, "--samples", "20000"])
        assert result.returncode == 3
        assert result.stderr.startswith(f"error: alpha [{alpha.replace(',', ', ')}]")
        assert len(result.stderr.splitlines()) == 1
        assert result.stdout == ""


CONFORMAL = ["conformal-eval", "--vocab", "10", "--dim", "3", "--cal-steps", "30",
             "--test-steps", "10", "--k", "5"]
FRESH_STEPS = {
    "datastore": [
        (["datastore", "from-csv", str(ROOT / "tests" / "golden" / "datastore_records.csv"),
          "s.uqds"], 0),
        (["datastore", "info", "s.uqds"], 0),
        (["datastore", "dump", "s.uqds"], 0),
    ],
    "dirichlet": [
        (["dirichlet-check", "--num-random", "2", "--samples", "2000"], 0),
        (["dirichlet-check", "--alpha", "0.5,2,7.5", "--samples", "200"], 0),
    ],
    "aso_sim": [
        (["aso-sim", "--test", "aso,student_t,bootstrap,permutation,wilcoxon,mann_whitney",
          "--n", "5,20", "--trials", "2"], 0),
    ],
    "usage_error": [(["aso-sim", "--dist", "normal:0:x"], 2)],
    "tau_auto": [
        (CONFORMAL + ["--method", "split,knn", "--metric", "l2,ip,cos",
                      "--noise", "0,0.1", "--tau", "auto"], 0),
    ],
    "tau_heuristic": [(CONFORMAL + ["--method", "knn", "--tau", "heuristic"], 0)],
}


@pytest.fixture(scope="module")
def fresh_cli_loads(tmp_path_factory):
    """One fresh interpreter runs `import uqkit.cli`, then each step of FRESH_STEPS through
    `uqkit.cli.main`, then the rank tests on tied data (their normal-tail branches).
    Returns, per step ("import", ..., "tied_rank_tests"), the scipy, numpy.ma and hashlib
    modules that step loaded first."""
    script = f"""
import json, sys
def loaded():
    return {{m for m in sys.modules
            if m.split(".")[0] in ("scipy", "hashlib", "_hashlib") or m.startswith("numpy.ma")}}
seen, steps = loaded(), {{}}
def record(step):
    global seen
    now = loaded()
    steps[step] = sorted(now - seen)
    seen = now
import uqkit.cli
record("import")
for step, calls in {FRESH_STEPS!r}.items():
    for argv, code in calls:
        assert uqkit.cli.main(argv) == code, argv
    record(step)
from uqkit.significance import classic_test
a = [float(v % 4) for v in range(20)]
b = [float(v % 3) for v in range(20)]
for kind in ("wilcoxon", "mann_whitney"):
    assert 0.0 < classic_test(kind, a, b).p_value < 1.0
record("tied_rank_tests")
print(json.dumps(steps))
"""
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=cli_env(), cwd=tmp_path_factory.mktemp("fresh_cli"))
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def loaded_in(loads, steps, *prefixes):
    """The modules under any of `prefixes` that any of `steps` loaded."""
    return [m for step in steps for m in loads[step]
            if any(m == p or m.startswith(p + ".") for p in prefixes)]


def test_fresh_cli_loads_no_scipy_numpy_ma_or_early_hashlib(fresh_cli_loads):
    """scipy is a test-only oracle and `np.median` would import numpy.ma (~15 ms), so
    neither loads at `import uqkit.cli` nor in any step. `hashlib` (OpenSSL, ~2 ms) is not
    loaded by the import either: only a conformal-eval digest needs it."""
    assert loaded_in(fresh_cli_loads, ["import"], "hashlib", "_hashlib") == []
    assert loaded_in(fresh_cli_loads, fresh_cli_loads, "scipy", "numpy.ma") == []


def test_cli_runs_without_scipy_stats(fresh_cli_loads):
    """The CLI's import and its common subcommands never load scipy.stats."""
    steps = ["import", "datastore", "dirichlet", "aso_sim", "tau_auto"]
    assert loaded_in(fresh_cli_loads, steps, "scipy.stats") == []


def test_import_datastore_and_conformal_eval_load_no_scipy(fresh_cli_loads):
    steps = ["import", "datastore", "tau_auto", "usage_error"]
    assert loaded_in(fresh_cli_loads, steps, "scipy") == []


def test_aso_sim_loads_no_scipy(fresh_cli_loads):
    """All six tests, and the normal-tail branches of the rank tests on tied data."""
    steps = ["import", "aso_sim", "tied_rank_tests"]
    assert loaded_in(fresh_cli_loads, steps, "scipy") == []


def test_no_subcommand_and_no_script_loads_scipy(fresh_cli_loads):
    """scipy is a test-only oracle: every subcommand runs without it."""
    assert loaded_in(fresh_cli_loads, fresh_cli_loads, "scipy") == []


@pytest.mark.parametrize("tau", ["auto", "heuristic"])
def test_conformal_eval_tau_search_does_not_load_numpy_ma(tau, fresh_cli_loads):
    """np.median would import numpy.ma (~15 ms) on its first call."""
    assert loaded_in(fresh_cli_loads, ["import", f"tau_{tau}"], "numpy.ma") == []


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                    reason="counts the process's threads in /proc/self/task")
@pytest.mark.parametrize("chosen", [{}, {"OPENBLAS_NUM_THREADS": "2"}])
def test_import_cli_runs_blas_on_one_thread_by_default(chosen):
    """Fresh interpreter: after `import uqkit.cli` and a gemv, the process runs one thread
    unless the caller chose a BLAS thread count, and its environment is unchanged either way,
    so a process it starts inherits no thread count from it."""
    script = """
import json, os
before = dict(os.environ)
import uqkit.cli
import numpy as np
np.ones((4096, 16), dtype=np.float32) @ np.ones(16, dtype=np.float32)
print(json.dumps([dict(os.environ) == before, len(os.listdir("/proc/self/task"))]))
"""
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=cli_env(**chosen))
    assert result.returncode == 0, result.stderr
    # OpenBLAS caps a chosen count at the usable cores
    threads = min(int(chosen.get("OPENBLAS_NUM_THREADS", 1)), len(os.sched_getaffinity(0)))
    assert json.loads(result.stdout) == [True, threads]


def test_knn_output_same_at_one_and_two_blas_threads():
    """Fresh CLIs at the default of one BLAS thread and under OPENBLAS_NUM_THREADS=2 print
    the same bytes, at a store of 2,000 x 16 whose ip/cos gemvs OpenBLAS splits across
    threads (the goldens' stores are below its threading cutoff)."""
    args = ["conformal-eval", "--dim", "16", "--cal-steps", "2000", "--test-steps", "50",
            "--method", "knn", "--metric", "ip,cos"]
    one, two = (subprocess.run([sys.executable, "-m", "uqkit.cli", *args], capture_output=True,
                               env=cli_env(**chosen))
                for chosen in ({}, {"OPENBLAS_NUM_THREADS": "2"}))
    assert one.returncode == two.returncode == 0, one.stderr + two.stderr
    assert one.stdout == two.stdout


def test_import_cli_loads_every_module_the_tracer_patches():
    """perfbench/tracing.py patches the uqkit modules loaded by `import uqkit.cli`.

    A module left to a later lazy import would be reported missing by every
    `perfbench/run.py --trace 1` run.
    """
    script = f"""
import json, sys
import uqkit.cli
loaded = set(sys.modules)
sys.path.insert(0, {str(ROOT / "perfbench")!r})
import tracing
listed = {{m for m, _ in tracing.FUNCTIONS}} | {{m for m, _, _ in tracing.METHODS}}
tracer = tracing.Tracer()
tracing.install(tracer)
print(json.dumps([sorted(listed), sorted(listed - loaded), tracer.missing]))
"""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=env)
    assert result.returncode == 0, result.stderr
    listed, not_loaded, missing = json.loads(result.stdout)
    assert "uqkit.datastore" in listed and "uqkit.significance" in listed
    assert not_loaded == []
    assert missing == [], f"perfbench/tracing.py lists names uqkit does not have: {missing}"


def test_no_uqkit_class_is_a_dataclass():
    """A dataclass compiles its generated methods at every import of its module."""
    import dataclasses
    import importlib
    import pkgutil

    import uqkit

    found = []
    for info in pkgutil.iter_modules(uqkit.__path__, "uqkit."):
        module = importlib.import_module(info.name)
        found += [f"{info.name}.{name}" for name, value in vars(module).items()
                  if isinstance(value, type) and dataclasses.is_dataclass(value)]
    assert found == []


def test_main_leaves_the_gc_unfrozen(tmp_path):
    """Only the process entry `run` freezes the heap: an in-process `main` leaves it as it was."""
    import gc

    records = str(ROOT / "tests" / "golden" / "datastore_records.csv")
    before = gc.get_freeze_count()
    assert main(["datastore", "from-csv", records, str(tmp_path / "s.uqds")]) == 0
    assert main(["datastore", "info", str(tmp_path / "s.uqds")]) == 0
    assert main(["aso-sim", "--dist", "normal:0:x"]) == 2
    assert gc.get_freeze_count() == before


def test_entry_freezes_the_heap_and_teardown_still_runs(tmp_path):
    """`run` freezes the import-time heap, then exits through `sys.exit`: atexit handlers
    and a profiler wrapping the module still run at teardown, which `os._exit` would skip."""
    records = str(ROOT / "tests" / "golden" / "datastore_records.csv")
    assert main(["datastore", "from-csv", records, str(tmp_path / "s.uqds")]) == 0
    script = """
import atexit, gc, sys
import uqkit.cli
atexit.register(lambda: print("frozen at exit:", gc.get_freeze_count() > 0))
sys.argv = ["uqkit", "datastore", "info", "s.uqds"]
uqkit.cli.run()
"""
    entry = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                           env=cli_env(), cwd=tmp_path)
    assert entry.returncode == 0, entry.stderr
    assert entry.stdout.splitlines()[1:] == ["frozen at exit: True"]
    profiled = subprocess.run([sys.executable, "-m", "cProfile", "-m", "uqkit.cli",
                               "datastore", "info", "s.uqds"], capture_output=True, text=True,
                              env=cli_env(), cwd=tmp_path)
    assert profiled.returncode == 0, profiled.stderr
    assert profiled.stdout.splitlines()[0] == entry.stdout.splitlines()[0]
    assert "function calls" in profiled.stdout and "ncalls" in profiled.stdout


TABLE_COMMANDS = [
    "uqkit aso-sim --test aso,student_t,bootstrap,permutation,wilcoxon,mann_whitney"
    " --dist normal:0:1.5,mixture:0:1.5:0.75:-0.5:0.25:0.25,laplace:0:1.5,rayleigh:1"
    " --n 5,10,15,20 --tau 0.05,0.1,0.2,0.3,0.4,0.5 --trials 500 --seed 7 --out type1.csv",
    "uqkit aso-sim --test aso,student_t,bootstrap,permutation,wilcoxon,mann_whitney"
    " --dist normal:0.5:1.5 --dist-b normal:0:1.5"
    " --n 5,10,15,20 --tau 0.05,0.1,0.2,0.3,0.4,0.5 --trials 500 --seed 7 --out type2.csv",
]


def test_readme_commands_parse():
    """Every `uqkit ...` command in the README's bash blocks parses, the two table commands too."""
    import re
    import shlex

    text = (ROOT / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"```bash\n(.*?)```", text, flags=re.DOTALL):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["uqkit"]:
                commands.append(argv)
    assert all(shlex.split(table) in commands for table in TABLE_COMMANDS)
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])  # a bad command raises UsageError
