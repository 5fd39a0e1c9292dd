"""CLI: subcommands, formats, exit codes, diagnostics, determinism."""

import csv
import json
import os
import subprocess
import sys
import types

import numpy as np
import pytest

import ewa_agg
from ewa_agg import cli
from ewa_agg.model import Dictionary, ExperimentConfig, WeightVector
from ewa_agg.noise import CenteredBernoulli, Gaussian, Laplace
from ewa_agg.oracle import RISK_CSV_HEADER


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


def test_failed_verdict_exits_one(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    _write_config(cfg)
    monkeypatch.setitem(
        cli._COMMANDS, "simulate", lambda config, extras: (["x"], [[0.0]], False)
    )
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
    cfg = tmp_path / "cfg.json"
    _write_config(cfg)
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
