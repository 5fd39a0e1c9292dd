"""Benchmark of the ewa_agg package: certify_small, certify_wide and verify.

    python3 perfbench/run.py --workload certify_small --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --write-reference

Run from the root of a source checkout; the package is imported from its
src/. Each workload runs in fresh interpreters started from this process
(see workload.py). With --trace 0 it prints the end-to-end metrics, with
--trace 1 the per-layer ones; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. perfbench/README.md
describes the workloads and the metrics.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from workload import REFERENCE, REFERENCE_SEED, ROOT, WORK, WORKLOAD_THREADS

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 5  # interpreters whose set-up time makes the setup_s median
CHILD_TIMEOUT_S = 150


def child(workload, seed, seconds, mode, threads, importtime=False):
    """Run workload.py in a fresh interpreter and return its JSON result
    (and its stderr when `importtime` captured it)."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", EWA_AGG_THREADS=str(threads))
    flags = ["-X", "importtime"] if importtime else []
    argv = [sys.executable, *flags, str(HERE / "workload.py"), workload, str(seed), str(seconds), mode]
    argv.append(repr(time.monotonic()))
    proc = subprocess.run(
        argv,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE if importtime else None,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} {mode} run exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def scipy_import_s(importtime_log):
    """Seconds of `-X importtime` self time spent in scipy modules."""
    micros = 0
    for line in importtime_log.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3:
            name = parts[2].strip()
            if name == "scipy" or name.startswith("scipy."):
                micros += int(parts[0].split(":")[1])
    return micros / 1e6


def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def machine_facts(workload, seed):
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and size and kind != "Instruction":
            caches[f"L{level}"] = size
    commit = None
    head = _read(ROOT / ".git" / "HEAD")
    if head and head.startswith("ref: "):
        commit = _read(ROOT / ".git" / head[5:])
    elif head:
        commit = head

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": commit,
        "seed": seed,
        "threads": {"EWA_AGG_THREADS": WORKLOAD_THREADS[workload], "OPENBLAS_NUM_THREADS": 1},
    }


def measure(workload, seed, seconds, trace):
    """Metrics of one workload, the human-readable notes, and the result."""
    threads = WORKLOAD_THREADS[workload]
    if trace:
        _, log = child(workload, seed, seconds, "setup", threads, importtime=True)
        result, _ = child(workload, seed, seconds, "trace", threads)
        untraced = statistics.median(result["walls"])
        metrics = {
            "setup.import_s": (result["import_s"], "s"),
            "setup.import_scipy_s": (scipy_import_s(log), "s"),
            "setup.inputs_s": (result["inputs_s"], "s"),
        }
        metrics.update((name, tuple(pair)) for name, pair in result["layers"].items())
        metrics["trace.overhead_s"] = (statistics.median(result["traced_walls"]) - untraced, "s")
        metrics["outputs.byte_identical"] = (result["byte_identical"], "count")
        for name in result["absent"]:
            result["notes"].append(f"absent: {name} is not defined by the package")
    else:
        setups = [child(workload, seed, seconds, "setup", threads)[0]["setup_s"]
                  for _ in range(SETUP_RUNS - 1)]
        result, _ = child(workload, seed, seconds, "measure", threads)
        # each op's median over the passes, in probe units, summed over the pass
        rel = sum(statistics.median(op) for op in zip(*result["ratios"]))
        wall = statistics.median(result["walls"])
        replicates = result["replicates_per_pass"]
        metrics = {
            "setup_s": (statistics.median(setups + [result["setup_s"]]), "s"),
            "wall_rel": (rel, "probe"),
            "replicates_per_probe": (replicates / rel, "1/probe"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
        result["notes"].append(
            f"uncalibrated: wall_s = {wall:.6g} s, replicates_per_s = {replicates / wall:.6g} 1/s"
        )
    result["notes"].append(f"pass times (s): {[round(w, 4) for w in result['walls']]}")
    if trace:
        traced = [round(w, 4) for w in result["traced_walls"]]
        result["notes"].append(f"traced pass times (s): {traced}")
    result["notes"].append(f"{result['attempted']} reports checked, {result['failed']} failed")
    return metrics, result


def emit(results, prefix=False):
    """Print the closing JSON line for one or more (workload, metrics, result)."""
    doc = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload, metrics, result in results:
        doc["correct"] = doc["correct"] and result["failed"] == 0 and result["attempted"] > 0
        doc["attempted"] += result["attempted"]
        doc["failed"] += result["failed"]
        for name, (value, unit) in metrics.items():
            doc["metrics"][f"{workload}.{name}" if prefix else name] = {"value": value, "unit": unit}
    print(json.dumps(doc))


def write_reference():
    """Record one pass of every workload at the reference seed, one thread."""
    doc = {"seed": REFERENCE_SEED, "threads": 1, "workloads": {}}
    for workload in WORKLOAD_THREADS:
        result, _ = child(workload, REFERENCE_SEED, 0, "reference", threads=1)
        doc["workloads"][workload] = result["reports"]
    REFERENCE.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {REFERENCE.relative_to(ROOT)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOAD_THREADS, "all"])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="re-record perfbench/reference.json")
    args = parser.parse_args()
    if not (ROOT / "src" / "ewa_agg" / "__init__.py").is_file():
        sys.exit(f"error: no ewa_agg sources under {ROOT / 'src'}; run from a source checkout")
    if args.seed < 0 or args.seconds <= 0:
        sys.exit("error: --seed must be >= 0 and --seconds > 0")
    WORK.mkdir(exist_ok=True)
    if args.write_reference:
        write_reference()
        return
    if args.workload is None:
        parser.error("--workload is required")
    workloads = list(WORKLOAD_THREADS) if args.workload == "all" else [args.workload]
    results = []
    for workload in workloads:
        metrics, result = measure(workload, args.seed, args.seconds, args.trace)
        print(f"[{workload}] env {json.dumps(machine_facts(workload, args.seed))}")
        for note in result["notes"]:
            print(f"[{workload}] {note}")
        for name, (value, unit) in metrics.items():
            print(f"[{workload}] {name} = {value:.6g} {unit}")
        results.append((workload, metrics, result))
    emit(results, prefix=args.workload == "all")


if __name__ == "__main__":
    main()
