"""CLI: subcommands, formats, exit codes, diagnostics, determinism."""

import csv
import json
import math
import os
import subprocess
import sys
import types

import numpy as np
import pytest

import ewa_agg
from ewa_agg import cli
from ewa_agg.coupling import CF_BLOCK
from ewa_agg.model import Dictionary, ExperimentConfig, WeightVector
from ewa_agg.noise import CenteredBernoulli, Gaussian, Laplace
from ewa_agg.oracle import OracleBoundReport, RiskReport, make_scenario, mc_risk

RISK_CSV_HEADER = list(RiskReport.CSV_HEADER)


def _write_config(path, noise=None, **overrides):
    rng = np.random.default_rng(17)
    n, m = 6, 3
    truth = rng.uniform(0.2, 0.8, n)
    if noise is None:
        noise = Gaussian.homogeneous(n, 1.0)
    cfg = ExperimentConfig(
        truth=truth,
        dictionary=Dictionary(truth + rng.uniform(-0.2, 0.2, (m, n))),
        prior=WeightVector.uniform(m),
        noise=noise,
        beta=4.0,
        replicates=50,
        seed=99,
    )
    doc = cfg.to_json()
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return doc


def _run(args):
    return cli.main([str(a) for a in args])


def test_simulate_csv_to_stdout(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    _write_config(cfg)
    assert _run(["simulate", cfg]) == 0
    out = capsys.readouterr().out
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == RISK_CSV_HEADER
    assert len(rows) == 2
    assert rows[1][RISK_CSV_HEADER.index("verdict")] == "pass"
    assert rows[1][RISK_CSV_HEADER.index("seed")] == "99"


def test_simulate_json_format(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    _write_config(cfg)
    assert _run(["simulate", cfg, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert isinstance(doc, list) and len(doc) == 1
    assert doc[0]["verdict"] == "pass"
    assert doc[0]["R"] == 50


def test_simulate_variance_penalty_extension(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    _write_config(cfg, beta=2.0, mode="variance_penalty")
    assert _run(["simulate", cfg]) == 0
    out = capsys.readouterr().out
    row = list(csv.reader(out.splitlines()))[1]
    assert row[RISK_CSV_HEADER.index("mode")] == "variance_penalty"
    assert float(row[RISK_CSV_HEADER.index("penalty")]) > 0.0


def test_seed_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    _write_config(cfg)
    assert _run(["simulate", cfg, "--seed", "123"]) == 0
    row = list(csv.reader(capsys.readouterr().out.splitlines()))[1]
    assert row[RISK_CSV_HEADER.index("seed")] == "123"


def test_output_file_uses_crlf(tmp_path):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "report.csv"
    _write_config(cfg)
    assert _run(["simulate", cfg, "-o", out]) == 0
    raw = out.read_bytes()
    assert raw.count(b"\r\n") == 2
    assert not raw.replace(b"\r\n", b"").count(b"\n")


def test_certify_emits_two_rows(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    _write_config(cfg)
    assert _run(["certify", cfg]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert len(rows) == 3
    modes = [r[RISK_CSV_HEADER.index("mode")] for r in rows[1:]]
    assert modes == ["clean", "variance_penalty"]
    betas = [float(r[RISK_CSV_HEADER.index("beta")]) for r in rows[1:]]
    assert betas[0] == pytest.approx(2.0 * betas[1])


def test_verify_coupling_discrete_default(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    rho = [0.3, 0.4, 0.5, 0.6, 0.5, 0.4]
    _write_config(cfg, noise=CenteredBernoulli(rho), truth=rho)
    assert _run(["verify-coupling", cfg]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[0] == ["family", "alpha", "method", "statistic", "threshold", "verdict", "seed"]
    assert len(rows) == 4  # default alpha grid 0.1, 0.5, 1.0
    assert all(r[2] == "exact" for r in rows[1:])
    assert all(r[5] == "pass" for r in rows[1:])


def test_verify_coupling_alpha_grid_extension(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    _write_config(cfg, alpha_grid=[0.25, 0.75], sample_size=20_000)
    assert _run(["verify-coupling", cfg]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert [float(r[1]) for r in rows[1:]] == [0.25, 0.75]
    assert all(r[2] == "ks" for r in rows[1:])


def test_verify_coupling_method_extension(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    _write_config(cfg, noise=Laplace.homogeneous(6, 1.0), method="cf_grid",
                  sample_size=20_000, alpha_grid=[0.5])
    assert _run(["verify-coupling", cfg]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[1][2] == "cf_grid"


def test_verify_coupling_ks_tests_every_coordinate_at_its_share(tmp_path, capsys):
    # a correct d = 50 coupling: its largest KS statistic at alpha = 1, 0.02065,
    # exceeds the single-test threshold 0.019495 but not the per-coordinate 0.02399
    cfg = tmp_path / "cfg.json"
    doc = make_scenario("laplace", replicates=200, seed=3).to_json()
    cfg.write_text(json.dumps({**doc, "sample_size": 20_000}))
    assert _run(["verify-coupling", cfg, "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [row["method"] for row in rows] == ["ks"] * 3
    assert all(row["threshold"] == pytest.approx(0.02399, abs=1e-5) for row in rows)


def test_simulate_at_subnormal_beta(tmp_path, capsys):
    # every d_j / beta overflows: each replicate's posterior is its nearest atom
    cfg = tmp_path / "cfg.json"
    doc = make_scenario("gaussian", replicates=20, seed=1).to_json()
    cfg.write_text(json.dumps({**doc, "beta": 1e-310}))
    with pytest.warns(UserWarning, match="below the certified threshold"):
        assert _run(["simulate", cfg, "--format", "json"]) == 1
    row = json.loads(capsys.readouterr().out)[0]
    assert row["bound"] == 3.299050434380092
    assert np.isfinite(row["risk"])


def test_verify_bernstein(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    _write_config(cfg, sample_size=50_000, alpha_grid=[0.5, 1.0])
    assert _run(["verify-bernstein", cfg]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert len(rows) == 3
    assert all(float(r[3]) <= 1.0 + 1e-12 for r in rows[1:])
    assert all(r[5] == "pass" for r in rows[1:])


def test_dv_check(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    _write_config(cfg, trials=30)
    assert _run(["dv-check", cfg]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[0] == ["n", "m", "beta", "trials", "worst_violation", "threshold", "verdict", "seed"]
    assert rows[1][3] == "30"
    assert rows[1][6] == "pass"
    (report,) = cli._cmd_dv_check(*cli._parse_config(cfg, None))
    doc = report.to_json()
    # the JSON keys are the output contract
    assert tuple(doc) == ("n", "m", "beta", "trials", "worst_violation", "threshold", "verdict")
    assert report.csv_row() == [doc[key] for key in report.CSV_HEADER]
    assert rows[1] == [cli._fmt(cell) for cell in report.csv_row()] + ["99"]


def test_oracle_bound(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    _write_config(cfg)
    assert _run(["oracle-bound", cfg]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[0] == ["n", "m", "beta", "bound_finite", "bound_gibbs", "verdict", "seed"]
    finite = float(rows[1][3])
    gibbs = float(rows[1][4])
    assert gibbs <= finite
    assert rows[1][5] == "pass"
    (report,) = cli._cmd_oracle_bound(*cli._parse_config(cfg, None))
    doc = report.to_json()
    # the JSON keys are the output contract
    assert tuple(doc) == ("n", "m", "beta", "bound_finite", "bound_gibbs", "verdict")
    assert report.csv_row() == [doc[key] for key in report.CSV_HEADER]
    assert rows[1] == [cli._fmt(cell) for cell in report.csv_row()] + ["99"]


def test_oracle_bound_passes_where_the_bounds_meet(tmp_path, capsys):
    # one atom: the two bounds are equal in exact arithmetic, and a Gibbs bound
    # summed apart from the finite one rounded 4e-12 above it here
    cfg = tmp_path / "cfg.json"
    config = ExperimentConfig(
        truth=np.array([-0.12152750716346146]),
        dictionary=Dictionary([[176.81126951071911]]),
        prior=WeightVector([1.0]),
        noise=Gaussian([1.0]),
        beta=10.555690580716389,
        replicates=10,
        seed=1,
    )
    cfg.write_text(json.dumps(config.to_json()))
    assert _run(["oracle-bound", cfg]) == 0
    row = list(csv.reader(capsys.readouterr().out.splitlines()))[1]
    assert float(row[4]) <= float(row[3]) == 31305.214660571233
    assert row[5] == "pass"


@pytest.mark.parametrize("mode", ["clean", "variance_penalty"])
def test_one_atom_posterior_variance_is_a_positive_zero(tmp_path, capsys, mode):
    # one atom has no spread: the variance clamp gives +0.0, never the -0.0 that Python's
    # max(-0.0, 0.0) keeps, so the penalty (coefficient times the mean variance) reads 0
    doc = make_scenario("gaussian", m=1, replicates=20, seed=1).to_json()
    report = mc_risk(ExperimentConfig.from_json(doc), mode=mode)
    assert math.copysign(1.0, report.mean_posterior_variance) == 1.0
    assert report.mean_posterior_variance == 0.0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**doc, "mode": mode}))
    _run(["simulate", cfg])
    row = list(csv.reader(capsys.readouterr().out.splitlines()))[1]
    assert row[RISK_CSV_HEADER.index("penalty")] == "0"
    _run(["simulate", cfg, "--format", "json"])
    assert '    "penalty": 0.0,\n' in capsys.readouterr().out


def test_one_atom_tie_passes(tmp_path, capsys):
    # the risk is the atom's squared distance in every replicate, and so is the bound: both
    # sum the same differences in one reduction, so this config, whose two sides differ in
    # their last bit when summed in other orders, passes with a standard error of 0
    cfg = tmp_path / "cfg.json"
    doc = make_scenario("gaussian", n=45, m=1, replicates=64, seed=58).to_json()
    cfg.write_text(json.dumps(doc))
    assert _run(["simulate", cfg, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)[0]
    assert report["verdict"] == "pass"
    assert report["risk"] == report["bound"] and report["stderr"] == 0.0


def test_json_writes_an_infinite_beta_and_bound_as_infinity(tmp_path, capsys):
    # the JSON output contract at beta = +inf: Python's json token Infinity, which
    # json.loads reads back; with a uniform prior no atom has full mass, so the
    # finite bound is +inf too
    cfg = tmp_path / "cfg.json"
    _write_config(cfg, beta=float("inf"))
    assert _run(["oracle-bound", cfg, "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert '    "beta": Infinity,\n    "bound_finite": Infinity,\n' in out
    assert json.loads(out)[0]["bound_finite"] == float("inf")
    assert _run(["simulate", cfg, "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert '    "m": 3,\n    "beta": Infinity,\n    "threshold": 4.0,\n' in out
    assert json.loads(out)[0]["beta"] == float("inf")


class TestInputErrors:
    def _expect_error(self, capsys, args, message):
        assert cli.main([str(a) for a in args]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert err.count("\n") == 1  # one-line diagnostic

    def test_bad_beta(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        _write_config(cfg, beta=-1.0)
        self._expect_error(capsys, ["simulate", cfg], "beta must be positive")

    def test_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        _write_config(cfg, typo_key=1)
        self._expect_error(capsys, ["simulate", cfg], "unknown key: typo_key")

    def test_missing_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        doc = _write_config(cfg)
        del doc["noise"]
        cfg.write_text(json.dumps(doc))
        self._expect_error(capsys, ["simulate", cfg], "missing key: noise")

    def test_missing_file(self, tmp_path, capsys):
        self._expect_error(
            capsys, ["simulate", tmp_path / "nope.json"], "config file not found"
        )

    def test_malformed_json(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        self._expect_error(capsys, ["simulate", cfg], "not valid JSON")

    def test_non_object_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        self._expect_error(capsys, ["simulate", cfg], "config must be a JSON object")

    def test_bad_mode(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        _write_config(cfg, mode="quick")
        self._expect_error(capsys, ["simulate", cfg], "mode must be")

    def test_bad_alpha_grid(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        _write_config(cfg, alpha_grid=[])
        self._expect_error(capsys, ["verify-coupling", cfg], "alpha_grid")
        # a bool or a string is no real, though float() would take it; the exact
        # family would run its checks at alpha 1 and 0.5 instead
        for grid in ([True], ["0.5"]):
            _write_config(cfg, noise=CenteredBernoulli([0.3] * 6), alpha_grid=grid)
            self._expect_error(capsys, ["verify-coupling", cfg], "alpha_grid")

    def test_t_grid_points_is_not_a_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        _write_config(cfg, t_grid_points=8)
        self._expect_error(capsys, ["verify-bernstein", cfg], "unknown key: t_grid_points")

    def test_bad_trials(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        _write_config(cfg, trials=0)
        self._expect_error(capsys, ["dv-check", cfg], "trials must be a positive integer")

    def test_bad_noise_family(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        doc = _write_config(cfg)
        doc["noise"] = {"family": "cauchy", "params": {}}
        cfg.write_text(json.dumps(doc))
        self._expect_error(capsys, ["simulate", cfg], "noise.family must be one of")

    @pytest.mark.parametrize("k", ["Infinity", "1e999", "NaN", "true", "2.5"])
    def test_bad_binomial_k(self, tmp_path, capsys, k):
        # a non-finite k once raised OverflowError, a traceback and the verdict's exit 1
        cfg = tmp_path / "cfg.json"
        doc = _write_config(cfg)
        params = {"a": 0.2, "k": 0, "rho": [0.5] * 6}
        doc["noise"] = {"family": "centered_binomial", "params": params}
        cfg.write_text(json.dumps(doc).replace('"k": 0', f'"k": {k}'))
        self._expect_error(capsys, ["certify", cfg], "k must be a positive integer")

    def test_nan_mixing_probability(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        doc = _write_config(cfg)
        mixing = [[[[0.5, 0.5], float("nan")], [[0.2, 0.3], 1.0]]] + [[[[0.5, 0.5], 1.0]]] * 5
        params = {"a_max": 0.5, "b_max": 0.5, "mixing": mixing}
        doc["noise"] = {"family": "bounded_binary_mixture", "params": params}
        cfg.write_text(json.dumps(doc))  # json writes and reads the token NaN
        for command in ("simulate", "verify-bernstein", "verify-coupling"):
            self._expect_error(capsys, [command, cfg], "mixing probabilities must be finite")


class TestParse:
    @pytest.mark.parametrize(
        "args",
        [
            [],
            ["certfy", "cfg.json"],
            ["certify"],
            ["certify", "cfg.json", "--format", "xml"],
            ["certify", "cfg.json", "--seed", "abc"],
        ],
        ids=["no-arguments", "unknown-command", "missing-config", "format-xml", "seed-abc"],
    )
    def test_usage_errors_exit_two(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(args)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: ewa-agg ")

    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: ewa-agg ")
        assert "{" + ",".join(cli._COMMANDS) + "}" in out

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_each_command_takes_the_options_after_the_config(
        self, command, tmp_path, capsys, monkeypatch
    ):
        cfg, out = tmp_path / "cfg.json", tmp_path / "out.json"
        _write_config(cfg)
        seen = []

        def report(config, extras):
            seen.append(config.seed)
            return [OracleBoundReport(1, 1, 1.0, 0.0, 0.0, verdict=True)]

        monkeypatch.setitem(cli._COMMANDS, command, report)
        assert _run([command, cfg, "-o", out, "--format", "json", "--seed", 5]) == 0
        assert seen == [5]
        assert json.loads(out.read_text())[0]["seed"] == 5
        assert capsys.readouterr().out == ""

    def test_options_may_sit_anywhere(self, tmp_path, capsys):
        # one parser: an option before the command, between it and the config, or after both
        cfg = tmp_path / "cfg.json"
        _write_config(cfg)
        outputs = []
        for args in (
            ["oracle-bound", cfg, "--format", "json", "--seed", 5],
            ["oracle-bound", "--format", "json", cfg, "--seed", 5],
            ["--seed", 5, "--format", "json", "oracle-bound", cfg],
            ["--seed", 5, "oracle-bound", "--format", "json", cfg],
        ):
            assert _run(args) == 0
            outputs.append(capsys.readouterr().out)
        assert json.loads(outputs[0])[0]["seed"] == 5
        assert outputs == outputs[:1] * 4


def test_failed_verdict_exits_one(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    _write_config(cfg)
    failing = OracleBoundReport(n=1, m=1, beta=1.0, bound_finite=0.0, bound_gibbs=1.0, verdict=False)
    monkeypatch.setitem(cli._COMMANDS, "simulate", lambda config, extras: [failing])
    assert _run(["simulate", cfg]) == 1


def test_python_dash_m_entry(tmp_path):
    cfg = tmp_path / "cfg.json"
    _write_config(cfg)
    proc = subprocess.run(
        [sys.executable, "-m", "ewa_agg.cli", "oracle-bound", str(cfg)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("n,m,beta")


def test_import_does_not_load_scipy_stats():
    # the runtime needs only numpy; scipy is a test-only oracle, so importing
    # the CLI loads no scipy module at all, scipy.stats included
    code = "import ewa_agg.cli, sys; assert not [k for k in sys.modules if k.startswith('scipy')]"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_package_exports_each_public_name_once():
    assert len(ewa_agg.__all__) == len(set(ewa_agg.__all__))
    for name in ewa_agg.__all__:
        assert not isinstance(getattr(ewa_agg, name), types.ModuleType), name
    assert {"posterior_weights", "mc_risk", "Gaussian", "MgfCheckReport"} <= set(ewa_agg.__all__)


def test_certify_is_deterministic_across_thread_counts(tmp_path):
    # m n > BLOCK_DOUBLES, so 4 workers really share the replicates
    cfg = tmp_path / "cfg.json"
    config = make_scenario("gaussian", n=64, m=1100, replicates=50, seed=99)
    cfg.write_text(json.dumps(config.to_json()))
    outputs = []
    for threads in ("1", "4"):
        out = tmp_path / f"report_{threads}.csv"
        env = dict(os.environ, EWA_AGG_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "ewa_agg.cli", "certify", str(cfg), "-o", str(out)],
            capture_output=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


# Each subprocess prints the verify-bernstein reports of its config paths, then the
# sampled-MGF moments of fixed draws on two default grids, all as hex bytes.
_MGF_BYTES = """
import sys
import numpy as np
from ewa_agg import cli
from ewa_agg.bernstein import _sampled_moments, default_t_grid
for path in sys.argv[2:]:
    cli.main(["verify-bernstein", path, "--format", "json"])
x = np.random.default_rng(5).laplace(0.3, 1.0, int(sys.argv[1]))
for b in (0.0, 0.3):
    print(b"".join(m.tobytes() for m in _sampled_moments(x, default_t_grid(1.0, b))).hex())
"""


def test_verify_bernstein_bytes_do_not_depend_on_blas_or_worker_threads(tmp_path):
    # the sampled MGF check sums v^2 without BLAS, whose dot product returns other
    # bits at other OPENBLAS_NUM_THREADS. The reports' worst points take two passes,
    # so the moments of every grid point are compared as well.
    size = 2 * CF_BLOCK + 123
    paths = []
    for family in ("gaussian", "laplace"):
        doc = make_scenario(family, seed=3).to_json() | {"sample_size": size, "alpha_grid": [1.0]}
        paths.append(tmp_path / f"{family}.json")
        paths[-1].write_text(json.dumps(doc))
    outputs = set()
    for blas, workers in (("1", "1"), ("2", "1"), ("1", "2")):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas, EWA_AGG_THREADS=workers)
        proc = subprocess.run(
            [sys.executable, "-c", _MGF_BYTES, str(size), *map(str, paths)],
            capture_output=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count(b'"verdict": "pass"') == 2
        outputs.add(proc.stdout)
    assert len(outputs) == 1


_CERTIFY_BYTES = """
import sys
from ewa_agg import cli
for path in sys.argv[1:]:
    cli.main(["certify", path, "--format", "json"])
"""


def test_certify_bytes_do_not_depend_on_blas_or_worker_threads(tmp_path):
    # the replicates' distances take their cross terms from einsum, without BLAS: a BLAS
    # product's rows change bits with OPENBLAS_NUM_THREADS and with their row count. The
    # canned shape chunks many rows. The wide one (m n > BLOCK_DOUBLES) takes up to
    # BLOCK_DOUBLES // m rows per chunk, and two or three workers split its one-worker chunk
    # mid-way, with a sampled prior too, each row counting its picks. Its atoms also come 20 times
    # nearer the truth, with and without a sampled prior, so that the weights spread over
    # many atoms and a last-bit change in any distance reaches the reports
    canned = make_scenario("gaussian", seed=3, replicates=200)
    wide = make_scenario("gaussian", n=64, m=1100, replicates=24, seed=3)
    near = wide.truth + 0.05 * (wide.dictionary.atoms - wide.truth)
    configs = {
        "canned": canned.to_json(),
        "wide": wide.to_json(),
        "near": wide.to_json() | {"dictionary": near.tolist()},
        "sampled": wide.to_json() | {"dictionary": near.tolist(), "prior_samples": 700},
    }
    paths = []
    for name, doc in configs.items():
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(doc))
    outputs = set()
    for blas, workers in (("1", "1"), ("2", "1"), ("1", "2"), ("1", "3")):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas, EWA_AGG_THREADS=workers)
        proc = subprocess.run(
            [sys.executable, "-c", _CERTIFY_BYTES, *map(str, paths)],
            capture_output=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count(b'"verdict": "pass"') == 8
        outputs.add(proc.stdout)
    assert len(outputs) == 1
