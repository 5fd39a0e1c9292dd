"""The checkout tools read the checkout they are given, or refuse it."""

import importlib.util
import json
import math
import os
import subprocess
import sys
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ewa_agg
from ewa_agg import ewa
from ewa_agg.coupling import CF_BLOCK
from ewa_agg.ewa import _chunk_rows, _signal_rows, posterior_weights
from ewa_agg.model import Dictionary, ExperimentConfig, WeightVector
from ewa_agg.noise import FAMILIES
from ewa_agg.oracle import certify_config, make_scenario, mc_risk

ROOT = Path(__file__).resolve().parents[1]


def _run(args):
    # a package importable from elsewhere must not stand in for the checkout's own
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *map(str, args)], capture_output=True, text=True, env=env, timeout=120
    )


@pytest.mark.parametrize("tool, outputs", [("surface.py", 0), ("snapshot_outputs.py", 1)])
def test_tools_refuse_a_checkout_without_the_package(tool, outputs, tmp_path):
    out = tmp_path / "out"
    proc = _run([ROOT / "tools" / tool, tmp_path, *[out] * outputs])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert "ewa_agg/__init__.py is missing" in proc.stderr
    assert not out.exists()


def test_surface_counts_the_checkout():
    proc = _run([ROOT / "tools" / "surface.py", ROOT])
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["exports"] == len(ewa_agg.__all__)
    assert doc["lines"]["total"] == sum(
        path.read_bytes().count(b"\n") for path in (ROOT / "src" / "ewa_agg").glob("*.py")
    )
    # code lines leave out blank lines, comments and docstrings, but not other strings
    code = doc["code_lines"]
    assert code.keys() == doc["lines"].keys()
    assert code["total"] == sum(count for module, count in code.items() if module != "total")
    assert all(0 < code[module] < doc["lines"][module] for module in code)
    source = (
        '"""Module doc."""\n\n# a comment\nX = """not a\ndocstring"""\n\n\n'
        'class C:\n    """Doc."""\n\n    def f(self):\n        """Doc\n        string."""\n'
        "        return X  # trailing\n"
    )
    surface = _load(ROOT / "tools" / "surface.py")
    assert surface._code_lines(source) == 5
    # imports: absolute ones by top-level module, not the package's own; the runtime needs
    # only numpy beyond the standard library
    source = (
        "import os.path, numpy as np\nfrom . import laws\nfrom .ewa import f\n"
        "from collections.abc import Sequence\nimport ewa_agg.cli\n\n\n"
        "def g():\n    import ctypes\n"
    )
    assert surface._imports(source) == {"os", "numpy", "collections", "ctypes"}
    # private imports: the _-prefixed names and UPPER-case constants taken from a package
    # module, by name or as attributes of a module an import binds, each once
    source = (
        "import numpy as np\nfrom numpy import _core\nfrom . import ewa, laws as lw\n"
        "from .ewa import EXPANSION_TOLERANCE, _posterior, posterior_weights\n"
        "from ewa_agg.model import Dictionary, _check_beta\n\n\n"
        "def f():\n    return ewa.BLOCK_DOUBLES, ewa._posterior, ewa.aggregate, lw.LAW_ATOL\n"
        "\n\nnp._x\n"
    )
    assert surface._private_imports(source) == {
        "ewa": ["BLOCK_DOUBLES", "EXPANSION_TOLERANCE", "_posterior"],
        "laws": ["LAW_ATOL"],
        "model": ["_check_beta"],
    }
    # the replicate chunk kernel keeps ewa's guard and block constants in ewa
    oracle_takes = doc["private_imports"]["oracle"]["ewa"]
    assert len(oracle_takes) <= 5 and not any(name.isupper() for name in oracle_takes)
    assert doc["imports"] == sorted(doc["imports"])
    assert set(doc["imports"]) - sys.stdlib_module_names == {"numpy"}
    assert "ctypes" not in doc["imports"]  # no raw memory access
    # a class body's methods are the callables and descriptors in its own namespace
    kinds = (types.FunctionType, staticmethod, classmethod, property)
    assert doc["family_methods"] == {
        family: len([raw for raw in vars(cls).values() if isinstance(raw, kinds)])
        for family, cls in FAMILIES.items()
    }


def _load(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_snapshot_exact_tree_runs_the_verify_workloads_binomial():
    # the exact-law rows are snapshotted at the size the benchmark times them
    snapshot = _load(ROOT / "tools" / "snapshot_outputs.py")
    workload = _load(ROOT / "perfbench" / "workload.py")
    assert snapshot.EXACT["centered_binomial"] == {"k": workload.BINOMIAL_TRIALS}
    assert all(FAMILIES[family].discrete for family in snapshot.EXACT)


def test_snapshot_near_tree_spreads_the_wide_weights():
    # every family runs certify on the wide shape with its atoms at 0.05 of their offset from
    # the truth, as the CLI's BLAS test builds them, at two workers: the weights spread over
    # more atoms than at the wide shape, so that a last-bit change in a replicate's distances
    # reaches the reports
    snapshot = _load(ROOT / "tools" / "snapshot_outputs.py")
    runs = snapshot._runs(FAMILIES, make_scenario, CF_BLOCK)
    near = [run for run in runs if run[3] == "cli-threads2/near"]
    assert [family for _, shapes, *_ in near for family in shapes] == list(FAMILIES)
    for _, shapes, extras, _, commands, threads in near:
        [(family, shape)] = shapes.items()
        assert (shape, commands, threads) == (snapshot.WIDE, ("certify",), "2")
        wide = make_scenario(family, replicates=snapshot.REPLICATES, seed=snapshot.SEED, **shape)
        atoms = np.array(extras["dictionary"])
        assert np.array_equal(atoms, wide.truth + 0.05 * (wide.dictionary.atoms - wide.truth))
        assert _signal_rows(*atoms.shape) == 1
        y = wide.truth + wide.noise.sample(np.random.default_rng(0))
        spread = []
        for dictionary in (wide.dictionary, Dictionary(atoms)):
            w = posterior_weights(y, dictionary, wide.prior, wide.beta / 2.0).weights
            spread.append(1.0 / (w @ w))  # the effective number of atoms
        assert spread[1] > 1.05 * spread[0] and spread[1] > 0.9 * wide.dictionary.m


def test_snapshot_wide_trees_cover_chunk_edges(monkeypatch):
    # the wide runs at two workers: cli-threads2 and cli-sampled-threads2, whose rows count
    # their picks over the same atoms, put 59 rows (BLOCK_DOUBLES // m) in a chunk, so each
    # span of 100 replicates ends in a partial one. The expansion takes one call per chunk
    snapshot = _load(ROOT / "tools" / "snapshot_outputs.py")
    runs = {run[3]: run for run in snapshot._runs(FAMILIES, make_scenario, CF_BLOCK)}
    chunks, expand = [], ewa._expanded_sq_distances

    def recorded(noise, *args):
        chunks.append(len(noise))
        return expand(noise, *args)

    monkeypatch.setattr(ewa, "_expanded_sq_distances", recorded)
    for folder in ("cli-threads2", "cli-sampled-threads2"):
        _, shapes, extras, _, commands, threads = runs[folder]
        assert "certify" in commands and threads == "2"
        monkeypatch.setenv("EWA_AGG_THREADS", threads)
        for family, shape in shapes.items():
            doc = make_scenario(family, replicates=snapshot.REPLICATES, seed=snapshot.SEED, **shape)
            chunks.clear()
            certify_config(ExperimentConfig.from_json(doc.to_json() | extras))
            assert sorted(chunks) == [41, 41, 59, 59], (folder, family)


def test_snapshot_sampled_trees_cover_the_prior_pick():
    # both sampled runs take several replicates per chunk, the canned ones at one worker and
    # the wide ones (m n > BLOCK_DOUBLES / 2) shared by two; the canned runs pick more atoms
    # than there are (s > m, so picks repeat), the wide ones as many (s = m); both priors are
    # skewed and leave atoms without mass
    snapshot = _load(ROOT / "tools" / "snapshot_outputs.py")
    canned = make_scenario("gaussian", replicates=1).dictionary
    assert canned.m == snapshot.CANNED_M
    wide = snapshot.WIDE
    for m, n, picks, shared in [
        (canned.m, canned.n, snapshot.PICKS, False),
        (wide["m"], wide["n"], snapshot.WIDE_PICKS, True),
    ]:
        extras = snapshot._skewed(m, picks)
        assert extras["prior_samples"] == picks and _chunk_rows(m, n) > 1
        assert (_signal_rows(m, n) == 1) == shared and picks >= m
        prior = WeightVector(extras["prior"])
        assert 0 < prior.support.sum() < m
        assert len(set(prior.weights[prior.support])) > 1


def test_snapshot_limits_tree_puts_several_rows_in_a_chunk():
    # broadcast weights, lost-mass rows and one-atom rows go through the stacked moments
    # with their neighbours in a chunk, not alone
    snapshot = _load(ROOT / "tools" / "snapshot_outputs.py")
    cases = snapshot.LIMITS.values()
    assert {extras.get("beta") for _, extras in cases} >= {math.inf, 1e-310}
    assert any(shape.get("m") == 1 for shape, _ in cases)
    for shape, _ in cases:
        dictionary = make_scenario("gaussian", replicates=1, **shape).dictionary
        assert _signal_rows(dictionary.m, dictionary.n) > 1


def test_snapshot_ties_tree_runs_point_masses_that_pass():
    # every family at m = 1 and under a Dirac prior: each replicate's risk is the bound's
    # own d_j, so the verdict passes with the risk equal to the bound and a stderr of 0
    snapshot = _load(ROOT / "tools" / "snapshot_outputs.py")
    for shapes, extras in snapshot.TIES.values():
        assert set(shapes) == set(FAMILIES)
        for family, shape in shapes.items():
            doc = make_scenario(family, replicates=snapshot.REPLICATES, seed=snapshot.SEED, **shape)
            config = ExperimentConfig.from_json({**doc.to_json(), **extras})
            assert config.prior.support.sum() == 1
            report = mc_risk(config)
            assert report.verdict and report.risk == report.bound and report.stderr == 0.0
            for report in certify_config(config):  # the tie holds at both temperatures
                assert report.verdict and report.risk == report.bound


def test_snapshot_seeds_tree_spans_one_and_two_words():
    # certify's --seed takes a seed of one 32-bit word and seeds of two, up to the largest
    # a 64-bit seed holds; each runs the canned shape through the seated streams
    snapshot = _load(ROOT / "tools" / "snapshot_outputs.py")
    words = [max(1, -(-seed.bit_length() // 32)) for seed in snapshot.SEEDS]
    assert sorted(set(words)) == [1, 2] and max(snapshot.SEEDS) == 2**64 - 1
    config = make_scenario("gaussian", replicates=snapshot.REPLICATES, seed=snapshot.SEED)
    runs = [[r.risk for r in certify_config(replace(config, seed=s))] for s in snapshot.SEEDS]
    assert len({tuple(risks) for risks in runs}) == len(snapshot.SEEDS)


def test_snapshot_duplicated_tree_runs_ties_that_pass():
    # every family's one atom copied under a uniform prior: each posterior is uniform over the
    # copies, so every replicate has the same risk, and the tie passes in every verdict
    snapshot = _load(ROOT / "tools" / "snapshot_outputs.py")
    assert set(snapshot.DUPLICATED_N) == set(FAMILIES)
    size, seed = snapshot.REPLICATES, snapshot.SEED
    for family, n in snapshot.DUPLICATED_N.items():
        scenario = make_scenario(family, n=n, m=1, replicates=size, seed=seed)
        doc = scenario.to_json()
        config = ExperimentConfig.from_json({**doc, **snapshot._duplicated(doc)})
        assert config.dictionary.m == snapshot.COPIES
        assert (config.dictionary.atoms == scenario.dictionary.atoms).all()
        assert (config.prior.weights == WeightVector.uniform(snapshot.COPIES).weights).all()
        for report in [mc_risk(config), *certify_config(config)]:
            assert report.verdict and report.stderr == 0.0, report


def test_snapshot_scaled_atoms_certify_is_rejected():
    # the scaled-atom certify exits 2: its half temperature has no penalty coefficient
    snapshot = _load(ROOT / "tools" / "snapshot_outputs.py")
    family, shape, scale = snapshot.SCALED
    config = make_scenario(family, replicates=snapshot.REPLICATES, seed=snapshot.SEED, **shape)
    doc = {**config.to_json(), "dictionary": (scale * config.dictionary.atoms).tolist()}
    with pytest.raises(ValueError, match=r"beta must exceed 2 \* b\(0\) \* d0"):
        certify_config(ExperimentConfig.from_json(doc))


def test_outputs_match_the_golden_digests():
    # the output contract against a recorded baseline: every canned CLI output's sha256, read
    # only under the numpy build and SIMD extensions it was recorded with
    snapshot = _load(ROOT / "tools" / "snapshot_outputs.py")
    recorded = snapshot.GOLDEN.read_text().splitlines()
    here = f"# {snapshot.environment()}"
    if recorded[0] != here:
        pytest.fail(
            f"{snapshot.GOLDEN.name} was recorded under {recorded[0][2:]!r}, this run is under"
            f" {here[2:]!r}: re-record it with tools/snapshot_outputs.py --write-golden"
        )
    assert snapshot.golden_lines() == recorded
