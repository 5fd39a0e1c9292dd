"""One benchmark workload in a fresh interpreter.

Started by perfbench/run.py as

    python3 perfbench/workload.py WORKLOAD SEED SECONDS MODE SPAWN_TIME

with SPAWN_TIME the parent's time.monotonic() just before the start, so that
set-up time includes interpreter start. MODE is one of

    setup      import ewa_agg, build the inputs, stop;
    measure    then run untraced passes for SECONDS, timing the calibration
               probe (see `Probe`) before the first op and after each op;
    trace      then untraced passes for SECONDS/2 and traced passes for
               SECONDS/2, writing the spans to .perfbench/;
    reference  then run one pass and return its report fields.

A pass runs every op of the workload once, back to back (a closed loop with
one caller); passes repeat while another one fits in the time left. One op
yields one or more reports, and every report is checked (see `gate`). The
process prints one JSON object on stdout.
"""

import csv
import dataclasses
import json
import math
import resource
import statistics
import sys
import time
import traceback
from functools import partial
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
REFERENCE_SEED = 1

# EWA_AGG_THREADS of each workload; OpenBLAS always runs single-threaded.
WORKLOAD_THREADS = {"certify_small": 1, "certify_wide": 2, "verify": 1}

FAMILIES = ("centered_bernoulli", "gaussian", "bounded_binary_mixture", "centered_binomial", "laplace")
SMALL_REPLICATES = 250
WIDE_N, WIDE_M, WIDE_REPLICATES, WIDE_PRIOR_SAMPLES = 256, 4096, 200, 1024
VERIFY_ALPHAS = (0.5, 1.0)  # alpha = 1 reaches the exp overflow in mgf_bound at k = 20
VERIFY_DRAWS = 1_000_000
BINOMIAL_TRIALS = 20
FLOAT_RTOL = 1e-9
FLOAT_ATOL = 1e-12  # coupling.EXACT_TOL: exact-enumeration statistics are rounding noise below it
BOUND_ATOL = 1e-12  # the tolerance `ewa-agg oracle-bound` uses for the same ordering
PROBE_LOOPS = 150  # softmax iterations of one probe
PROBE_LARGE = 1 << 17  # doubles in the probe's array: 1 MiB, inside L2
PROBE_SWEEPS = 8  # passes over that array in one probe


@dataclasses.dataclass(frozen=True)
class Op:
    run: object  # () -> list of report field dicts
    reports: int  # reports one call yields
    replicates: int  # Monte Carlo replicates or draws one call makes
    config: object = None  # certify ops: checked for gibbs <= finite bound


def _text(value):
    """One report field as text: floats by repr, so equal text means an
    identical double."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    return repr(value) if isinstance(value, float) else str(value)


def _fields(report):
    return {key: _text(value) for key, value in report.to_json().items()}


# ---- ops; each looks its callee up on the module at call time, so the
# wrappers the traced run installs are the ones called.


def _certify_cli(pkg, config_path, out_path):
    code = pkg.cli.main(["certify", str(config_path), "-o", str(out_path)])
    if code not in (0, 1):
        raise RuntimeError(f"ewa-agg certify exited with {code}")
    with open(out_path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))  # cells are already canonical text


def _certify_direct(pkg, config):
    return [_fields(r) for r in pkg.oracle.certify_config(config)]


def _mc_risk(pkg, config, mode):
    return [_fields(pkg.oracle.mc_risk(config, mode=mode))]


def _verify_coupling(pkg, model, alpha, method, key):
    rng = None if method == "exact" else pkg.oracle.derived_stream(*key)
    report = pkg.coupling.verify_coupling(
        model, alpha, method=method, sample_size=VERIFY_DRAWS, rng=rng
    )
    return [_fields(report)]


def _check_mgf(pkg, model, alpha, key):
    rng = pkg.oracle.derived_stream(*key)
    return [_fields(pkg.bernstein.check_noise_mgf(model, alpha, sample_size=VERIFY_DRAWS, rng=rng))]


# ---- inputs


def _build_certify_small(pkg, seed):
    """The five canned n=50, m=10 scenarios, written as CLI configs."""
    folder = WORK / "certify_small"
    folder.mkdir(parents=True, exist_ok=True)
    ops = []
    for family in FAMILIES:
        config = pkg.oracle.make_scenario(family, replicates=SMALL_REPLICATES, seed=seed)
        path = folder / f"{family}.json"
        path.write_text(json.dumps(config.to_json()))
        run = partial(_certify_cli, pkg, path, folder / f"{family}.csv")
        ops.append(Op(run, reports=2, replicates=2 * SMALL_REPLICATES, config=config))
    return ops


def _build_certify_wide(pkg, seed):
    """Gaussian and Laplace at n=256, m=4096 in both modes, plus Gaussian
    with a 1024-atom sampled prior."""
    gaussian, laplace = (
        pkg.oracle.make_scenario(family, n=WIDE_N, m=WIDE_M, replicates=WIDE_REPLICATES, seed=seed)
        for family in ("gaussian", "laplace")
    )
    sampled = dataclasses.replace(gaussian, prior_samples=WIDE_PRIOR_SAMPLES)
    return [
        Op(partial(_certify_direct, pkg, gaussian), 2, 2 * WIDE_REPLICATES, gaussian),
        Op(partial(_certify_direct, pkg, laplace), 2, 2 * WIDE_REPLICATES, laplace),
        Op(partial(_mc_risk, pkg, sampled, "clean"), 1, WIDE_REPLICATES, sampled),
    ]


def _build_verify(pkg, seed):
    """Coupling identity and MGF domination for all five families: the
    continuous ones by KS / CF grid and sampled MGFs at 10^6 draws, the
    discrete canned n=50 scenarios by exact enumeration."""
    models = [
        ("ks", pkg.noise.Gaussian([1.2])),
        ("cf_grid", pkg.noise.Laplace([0.9])),
        ("exact", pkg.oracle.make_scenario("centered_bernoulli", seed=seed).noise),
        ("exact", pkg.oracle.make_scenario("bounded_binary_mixture", seed=seed).noise),
        ("exact", pkg.oracle.make_scenario("centered_binomial", k=BINOMIAL_TRIALS, seed=seed).noise),
    ]
    ops = []
    for a, alpha in enumerate(VERIFY_ALPHAS):
        for k, (method, model) in enumerate(models):
            draws = 0 if method == "exact" else VERIFY_DRAWS
            run = partial(_verify_coupling, pkg, model, alpha, method, (seed, 1, a, k))
            ops.append(Op(run, 1, draws))
        for k, (method, model) in enumerate(models):
            draws = 0 if method == "exact" else VERIFY_DRAWS
            ops.append(Op(partial(_check_mgf, pkg, model, alpha, (seed, 2, a, k)), 1, draws))
    return ops


BUILDERS = {
    "certify_small": _build_certify_small,
    "certify_wide": _build_certify_wide,
    "verify": _build_verify,
}


def setup(workload, seed):
    """Import the package from the checkout and build the workload's ops."""
    start = perf_counter()
    import ewa_agg
    import ewa_agg.cli

    import_s = perf_counter() - start
    source = ROOT / "src" / "ewa_agg"
    if Path(ewa_agg.__file__).resolve().parent != source:
        raise RuntimeError(f"ewa_agg was imported from {ewa_agg.__file__}, not from {source}")
    start = perf_counter()
    ops = BUILDERS[workload](ewa_agg, seed)
    return ewa_agg, ops, import_s, perf_counter() - start


class Probe:
    """Fixed work that calls nothing in ewa_agg, timed between the ops of a
    pass. The cores of the shared machine run up to twice as slow under
    other tenants' load, in stretches of seconds to minutes, and process CPU
    time slows with them. The probe slows with them too, so an op's time
    divided by the probe's time next to it keeps the program's cost and
    drops most of that swing. Most of the probe is a softmax over 10 atoms
    through scipy's logsumexp, like one certify_small replicate; the rest is
    vectorised exp and sums over a 1 MiB array, which stays small so that
    peak RSS still shows the program's memory."""

    def __init__(self):
        import numpy as np
        from scipy.special import logsumexp

        rng = np.random.default_rng(0)
        self.np, self.logsumexp = np, logsumexp
        self.atoms = rng.standard_normal((10, 50))
        self.y = rng.standard_normal(50)
        self.large = rng.standard_normal(PROBE_LARGE)
        self.scratch = np.empty_like(self.large)

    def __call__(self):
        """Run the probe once and return its time in seconds."""
        np = self.np
        start = perf_counter()
        for _ in range(PROBE_LOOPS):
            d = ((self.atoms - self.y) ** 2).sum(axis=1)
            float(np.exp(-d - self.logsumexp(-d)) @ d)
        for _ in range(PROBE_SWEEPS):
            np.negative(np.abs(self.large, out=self.scratch), out=self.scratch)
            float(np.exp(self.scratch, out=self.scratch).sum())
        return perf_counter() - start


def _run_op(op):
    try:
        return op.run()
    except Exception:  # a failed op is counted, and the run goes on
        traceback.print_exc()
        return None


def run_passes(ops, budget, passes, probe=None):
    """Run passes while another fits in `budget` seconds (always one);
    append each pass's outputs to `passes`. Return the pass times and, when
    `probe` is given, for each pass the time of every op divided by the mean
    of the probe times just before and just after it."""
    walls, ratios, lengths = [], [], []
    start = perf_counter()
    while True:
        began = perf_counter()
        outputs, times, rel = [], [], []
        before = probe() if probe is not None else None
        for op in ops:
            op_start = perf_counter()
            outputs.append(_run_op(op))
            times.append(perf_counter() - op_start)
            if probe is not None:
                after = probe()
                rel.append(times[-1] / ((before + after) / 2))
                before = after
        walls.append(sum(times))
        if probe is not None:
            ratios.append(rel)
        passes.append(outputs)
        lengths.append(perf_counter() - began)
        if perf_counter() - start + statistics.median(lengths) > budget:
            return walls, ratios


def _close(got, want):
    """Equal text, or two non-integer numbers within FLOAT_RTOL (FLOAT_ATOL
    near zero)."""
    if got == want:
        return True
    try:
        int(got), int(want)
        return False  # integers must match exactly
    except ValueError:
        pass
    try:
        return math.isclose(float(got), float(want), rel_tol=FLOAT_RTOL, abs_tol=FLOAT_ATOL)
    except ValueError:
        return False  # verdicts and other text must match exactly


def _same(got, want):
    return got.keys() == want.keys() and all(_close(got[key], value) for key, value in want.items())


def _bounds_ordered(pkg, config, beta):
    gibbs = pkg.oracle.oracle_bound_gibbs(config.dictionary, config.truth, config.prior, beta)
    finite = pkg.oracle.oracle_bound_finite(config.dictionary, config.truth, config.prior, beta)
    return gibbs <= finite + BOUND_ATOL


def gate(pkg, ops, passes, reference):
    """Check every report; return (attempted, failed, byte_identical).

    A report fails on an exception, a failing verdict, a Gibbs bound above
    the finite bound, a mismatch with the reference (when given), or a
    difference from the same report in the first pass.
    """
    attempted = failed = identical = 0
    first = passes[0]
    ordered = {}
    for outputs in passes:
        for index, (op, reports) in enumerate(zip(ops, outputs)):
            attempted += op.reports
            if reports is None or first[index] is None or len(reports) != op.reports:
                failed += op.reports
                continue
            for k, fields in enumerate(reports):
                ok = fields.get("verdict") == "pass" and fields == first[index][k]
                if ok and op.config is not None:
                    key = (index, fields["beta"])
                    if key not in ordered:
                        ordered[key] = _bounds_ordered(pkg, op.config, float(fields["beta"]))
                    ok = ordered[key]
                if reference is not None:
                    want = reference[index][k]
                    identical += fields == want
                    ok = ok and _same(fields, want)
                failed += not ok
    return attempted, failed, identical


def main(argv):
    workload, seed, seconds, mode, spawned = argv
    seed, seconds, spawned = int(seed), float(seconds), float(spawned)
    pkg, ops, import_s, inputs_s = setup(workload, seed)
    out = {"setup_s": time.monotonic() - spawned, "import_s": import_s, "inputs_s": inputs_s}
    if mode == "setup":
        print(json.dumps(out))
        return
    passes = []
    if mode == "reference":
        run_passes(ops, 0.0, passes)
        print(json.dumps({"reports": passes[0]}))
        return
    if mode == "measure":
        out["walls"], out["ratios"] = run_passes(ops, seconds, passes, Probe())
    else:
        out["walls"], _ = run_passes(ops, seconds / 2, passes)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["replicates_per_pass"] = sum(op.replicates for op in ops)
    out["notes"] = []
    if mode == "trace":
        from tracing import Recorder

        recorder = Recorder()
        recorder.install()
        recorder.count_warnings()
        traced = []
        out["traced_walls"], _ = run_passes(ops, seconds / 2, traced)
        passes += traced
        out["layers"] = recorder.summary(len(traced))
        out["absent"] = recorder.absent
        trace_path = WORK / f"trace-{workload}-seed{seed}.json"
        recorder.write(trace_path, {"workload": workload, "seed": seed, "traced_passes": len(traced)})
        out["notes"].append(f"trace written to {trace_path.relative_to(ROOT)}")
    reference = None
    if seed == REFERENCE_SEED:
        reference = json.loads(REFERENCE.read_text())["workloads"][workload]
    else:
        out["notes"].append(
            f"reference check skipped: seed {seed} is not the reference seed {REFERENCE_SEED}"
        )
    out["attempted"], out["failed"], out["byte_identical"] = gate(pkg, ops, passes, reference)
    print(json.dumps(out))


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    main(sys.argv[1:])
