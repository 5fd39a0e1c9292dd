"""Write every CLI output and demo stdout of one checkout, for a byte-identity check.

Usage: python3 tools/snapshot_outputs.py SRC OUT | --write-golden

SRC is a checkout of this repository and OUT a directory to create; the script
exits 2 if SRC/src holds no package, or if the package it imports is not SRC's.
Every CLI output runs in this process through `cli.main`, with stdout redirected
and EWA_AGG_THREADS patched for the run (`_cli`). For each of the five
`make_scenario` families (seed 3, R = 200, sample_size 20 000) the six subcommands
run in CSV and in JSON, and their stdout goes to
OUT/cli/<family>.<subcommand>.<format>; each script in SRC/demos runs as its own
interpreter, and has its stdout written to OUT/demos/<name>.txt. These runs take
EWA_AGG_THREADS=1, whatever the caller's environment holds. A wide scenario per
family (n = 64, m = 1100, so m n > BLOCK_DOUBLES) runs simulate and certify at
EWA_AGG_THREADS=2 into
OUT/cli-threads2/: two workers share those runs, so a diff also covers the worker
count, and each span of 100 replicates runs one full chunk of BLOCK_DOUBLES // m = 59
rows and one partial chunk of 41, so it covers the chunk edges too. certify also runs
on each wide scenario with its atoms moved to 0.05 of their offset from the truth
(NEAR), at EWA_AGG_THREADS=2, into
OUT/cli-threads2/near/: there the weights spread over nearly all atoms, so a last-bit
change in any replicate's distances reaches the reports. For gaussian and laplace,
verify-coupling (by the cf_grid method) and verify-bernstein also run at sample_size
2 * CF_BLOCK + 123 into OUT/cli-blocks/, so that the blocked CF sums and the
blocked MGF moments go through several blocks of draws. For centered_binomial at
k = 20 (the size the benchmark's verify workload runs) and for
bounded_binary_mixture, verify-coupling and verify-bernstein, both by exact
enumeration, run into OUT/cli-exact/, so that a diff covers the exact-law rows at
that size. Each family's scenario also runs simulate and certify with a sampled
prior (prior_samples set, and a skewed prior with zero-mass atoms, so that a
diff covers the prior pick): the canned shape with 25 picks at EWA_AGG_THREADS=1
into OUT/cli-sampled/, and the wide shape with 1100 picks (each row counting its
picks over the dictionary, so each span of 100 replicates again runs a chunk of 59
rows and one of 41) at EWA_AGG_THREADS=2 into OUT/cli-sampled-threads2/. Each family's canned
shape also runs simulate at EWA_AGG_THREADS=1 at the edges of a chunk's moment rows,
each into its folder under OUT/cli-limits/: beta-inf (beta = +inf, every row the
prior's weights), beta-1e-310 (every d_j / beta overflows, so rows lose their mass)
and one-atom (m = 1). A laplace scenario with its atoms scaled by 20 runs certify
into OUT/cli-limits/scaled-atoms/: half its threshold admits no penalty coefficient,
so it exits 2 before any replicate runs. Each family also runs simulate and certify
at EWA_AGG_THREADS=1 on two point-mass shapes into OUT/cli-ties/: one-atom (m = 1)
and dirac (m = 5, a Dirac prior on atom 2), at sizes n where the risk and the Gibbs
bound, equal in exact arithmetic, differ in their last bit if summed in two orders;
certify checks the tie at both of its temperatures. Into OUT/cli-ties/duplicated/ go
simulate and certify on five copies of the family's one atom under a uniform prior, at
the n where the last bit of the weighted mean once failed all three verdicts. certify
also runs on each family's canned shape at --seed 0, 2^32 and 2^64 - 1, seeds of one
32-bit word and of two, into OUT/cli-seeds/<family>.certify.<seed>.<format>.
OUT/exit_codes.txt lists every exit code: `cli.main`'s return value, or a demo's status.
Snapshots of two checkouts compare with `diff -r OUT_A OUT_B`.

With --write-golden the script instead re-records GOLDEN, tests/golden/outputs.sha256
of its own checkout: the sha256 of the stdout of each OUT/cli/ run (five families, six
commands, CSV and JSON), made as OUT/cli/ is, in
`sha256sum` form under a first line naming numpy's version and SIMD extensions
(`environment`). The Tier-1 suite checks that the package reproduces every digest.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

SEED = 3
THREADS = "EWA_AGG_THREADS"
REPLICATES = 200
SAMPLE_SIZE = 20_000
COMMANDS = ("simulate", "certify", "verify-coupling", "verify-bernstein", "dv-check", "oracle-bound")
FORMATS = ("csv", "json")
WIDE = {"n": 64, "m": 1100}
NEAR = 0.05  # cli-threads2/near: the wide atoms at this fraction of their offset from the truth
BLOCK_FAMILIES = ("gaussian", "laplace")
EXACT = {"centered_binomial": {"k": 20}, "bounded_binary_mixture": {}}
CANNED_M, PICKS, WIDE_PICKS = 10, 25, 1100
# folder under cli-limits: (make_scenario arguments, config extras)
LIMITS = {
    "beta-inf": ({}, {"beta": math.inf}),
    "beta-1e-310": ({}, {"beta": 1e-310}),
    "one-atom": ({"m": 1}, {}),
}
# sizes n at which a one-atom scenario's risk and bound differ in their last bit if summed
# in two orders; the Dirac runs take n = 8, where they do too
TIE_N = {"centered_bernoulli": 10, "gaussian": 8, "bounded_binary_mixture": 8,
         "centered_binomial": 10, "laplace": 8}
# folder under cli-ties: (make_scenario arguments per family, config extras)
TIES = {
    "one-atom": ({family: {"n": n, "m": 1} for family, n in TIE_N.items()}, {}),
    "dirac": (dict.fromkeys(TIE_N, {"n": 8, "m": 5}), {"prior": [0.0, 0.0, 1.0, 0.0, 0.0]}),
}
# n per family of the one atom that cli-ties/duplicated copies COPIES times under a uniform prior
DUPLICATED_N = {"centered_bernoulli": 3, "gaussian": 3, "bounded_binary_mixture": 2,
                "centered_binomial": 3, "laplace": 3}
COPIES = 5
SEEDS = (0, 2**32, 2**64 - 1)  # cli-seeds: certify's --seed, of one 32-bit word and of two
# (family, make_scenario arguments, atom scale) of a certify run under cli-limits/scaled-atoms:
# scaled atoms widen d0 until v'(0) <= b(0) d0, so half the threshold has no penalty coefficient
SCALED = ("laplace", {"n": 20, "m": 5}, 20.0)
ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "outputs.sha256"


def _skewed(m, picks):
    """prior_samples and a prior over m atoms in proportion to j mod 7: every seventh has none."""
    weights = [j % 7 for j in range(m)]
    return {"prior_samples": picks, "prior": [w / sum(weights) for w in weights]}


def _near(config):
    """The config extras that move each atom to NEAR of its offset from the truth."""
    atoms = config.truth + NEAR * (config.dictionary.atoms - config.truth)
    return {"dictionary": atoms.tolist()}


def _duplicated(doc):
    """The config extras that copy a one-atom scenario's atom COPIES times, uniform prior."""
    return {"dictionary": doc["dictionary"] * COPIES, "prior": [1.0 / COPIES] * COPIES}


def _cli(cli, args, threads):
    """(stdout bytes, exit code) of `cli.main(args)`, run in process at EWA_AGG_THREADS=threads."""
    out = io.StringIO()
    with mock.patch.dict(os.environ, {THREADS: threads}), contextlib.redirect_stdout(out):
        code = cli.main(args)
    return out.getvalue().encode(), code


def _write(path, stdout, code, codes):
    path.write_bytes(stdout)
    codes.append(f"{path.parent.name}/{path.name} {code}\n")


def environment():
    """numpy's version and the SIMD extensions it runs, as `np.show_runtime` reads them:
    the last bits of a float result may differ where either does."""
    import numpy as np
    from numpy._core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__, __cpu_features__

    found = [feature for feature in __cpu_dispatch__ if __cpu_features__[feature]]
    return f"numpy {np.__version__}; simd baseline {' '.join(__cpu_baseline__)}; found {' '.join(found)}"


def golden_lines():
    """The lines of GOLDEN for the package imported as ewa_agg: the environment, then
    `<sha256>  cli/<family>.<command>.<format>` per OUT/cli/ run, each run through
    `cli.main` in process at EWA_AGG_THREADS=1."""
    from ewa_agg import cli
    from ewa_agg.noise import FAMILIES
    from ewa_agg.oracle import make_scenario

    lines = [f"# {environment()}"]
    with tempfile.TemporaryDirectory() as tmp:
        for family in FAMILIES:
            doc = make_scenario(family, replicates=REPLICATES, seed=SEED).to_json()
            config = Path(tmp) / f"{family}.json"
            config.write_text(json.dumps({**doc, "sample_size": SAMPLE_SIZE}))
            for command in COMMANDS:
                for fmt in FORMATS:
                    stdout, _code = _cli(cli, [command, str(config), "--format", fmt], "1")
                    digest = hashlib.sha256(stdout).hexdigest()
                    lines.append(f"{digest}  cli/{family}.{command}.{fmt}")
    return lines


def _runs(families, make_scenario, cf_block):
    """Every run but cli-seeds', for the checkout's families, make_scenario and CF_BLOCK, as
    (config suffix, make_scenario arguments per family, config extras, folder, commands,
    EWA_AGG_THREADS)."""
    sampled = {"sample_size": SAMPLE_SIZE}
    blocks = {"sample_size": 2 * cf_block + 123, "method": "cf_grid"}
    picks, wide_picks = _skewed(CANNED_M, PICKS), _skewed(WIDE["m"], WIDE_PICKS)
    scaled_family, scaled_shape, scale = SCALED
    scaled = make_scenario(scaled_family, replicates=REPLICATES, seed=SEED, **scaled_shape)
    scaled_atoms = {"dictionary": (scale * scaled.dictionary.atoms).tolist()}
    duplicated = {  # cli-ties/duplicated takes one run per family, each copying its own atom
        family: make_scenario(family, n=n, m=1, replicates=REPLICATES, seed=SEED).to_json()
        for family, n in DUPLICATED_N.items()
    }
    near = {  # cli-threads2/near: each family's wide atoms pulled towards its truth
        family: _near(make_scenario(family, replicates=REPLICATES, seed=SEED, **WIDE))
        for family in families
    }
    return (
        ("", dict.fromkeys(families, {}), sampled, "cli", COMMANDS, "1"),
        (".wide", dict.fromkeys(families, WIDE), sampled, "cli-threads2", COMMANDS[:2], "2"),
        *(
            (".near", {family: WIDE}, extras, "cli-threads2/near", COMMANDS[1:2], "2")
            for family, extras in near.items()
        ),
        (".blocks", dict.fromkeys(BLOCK_FAMILIES, {}), blocks, "cli-blocks", COMMANDS[2:4], "1"),
        (".exact", EXACT, {}, "cli-exact", COMMANDS[2:4], "1"),
        (".sampled", dict.fromkeys(families, {}), picks, "cli-sampled", COMMANDS[:2], "1"),
        (".sampled-wide", dict.fromkeys(families, WIDE), wide_picks, "cli-sampled-threads2", COMMANDS[:2], "2"),
        *(
            (f".{case}", dict.fromkeys(families, shape), extras, f"cli-limits/{case}", COMMANDS[:1], "1")
            for case, (shape, extras) in LIMITS.items()
        ),
        *(
            (f".ties-{case}", shapes, extras, f"cli-ties/{case}", COMMANDS[:2], "1")
            for case, (shapes, extras) in TIES.items()
        ),
        *(
            (".ties-duplicated", {family: {"n": DUPLICATED_N[family], "m": 1}}, _duplicated(doc),
             "cli-ties/duplicated", COMMANDS[:2], "1")
            for family, doc in duplicated.items()
        ),
        (
            ".scaled", {scaled_family: scaled_shape}, scaled_atoms, "cli-limits/scaled-atoms",
            COMMANDS[1:2], "1",
        ),
    )


def main(argv):
    if argv[1:] == ["--write-golden"]:
        sys.path.insert(0, str(ROOT / "src"))
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text("\n".join(golden_lines()) + "\n")
        return 0
    if len(argv) != 3:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    src, out = Path(argv[1]).resolve(), Path(argv[2])
    init = src / "src" / "ewa_agg" / "__init__.py"
    if not init.is_file():
        print(f"{init} is missing: {argv[1]} is not a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src / "src"))
    import ewa_agg
    from ewa_agg import cli
    from ewa_agg.coupling import CF_BLOCK
    from ewa_agg.noise import FAMILIES
    from ewa_agg.oracle import make_scenario

    if Path(ewa_agg.__file__).resolve().parent != init.parent:
        print(f"ewa_agg was imported from {ewa_agg.__file__}, not from {init.parent}", file=sys.stderr)
        return 2
    codes = []
    runs = _runs(FAMILIES, make_scenario, CF_BLOCK)
    for folder in ("configs", *(run[3] for run in runs), "cli-seeds", "demos"):
        (out / folder).mkdir(parents=True, exist_ok=True)
    for family in FAMILIES:
        for suffix, shapes, extras, folder, commands, threads in runs:
            if family not in shapes:
                continue
            shape = shapes[family]
            doc = make_scenario(family, replicates=REPLICATES, seed=SEED, **shape).to_json()
            config = out / "configs" / f"{family}{suffix}.json"
            config.write_text(json.dumps({**doc, **extras}))
            for command in commands:
                for fmt in FORMATS:
                    path = out / folder / f"{family}.{command}.{fmt}"
                    _write(path, *_cli(cli, [command, str(config), "--format", fmt], threads), codes)
        canned = str(out / "configs" / f"{family}.json")  # the first run's config
        for seed in SEEDS:
            for fmt in FORMATS:
                path = out / "cli-seeds" / f"{family}.certify.{seed}.{fmt}"
                args = ["certify", canned, "--seed", str(seed), "--format", fmt]
                _write(path, *_cli(cli, args, "1"), codes)
    env = dict(os.environ, PYTHONPATH=str(src / "src"), **{THREADS: "1"})
    for demo in sorted((src / "demos").glob("*.py")):
        proc = subprocess.run([sys.executable, str(demo)], stdout=subprocess.PIPE, env=env)
        _write(out / "demos" / f"{demo.stem}.txt", proc.stdout, proc.returncode, codes)
    (out / "exit_codes.txt").write_text("".join(codes))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
