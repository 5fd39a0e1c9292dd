"""Write every CLI output and demo stdout of one checkout, for a byte-identity check.

Usage: python3 tools/snapshot_outputs.py SRC OUT

SRC is a checkout of this repository and OUT a directory to create; the script
exits 2 if SRC/src holds no package. For each of the five `make_scenario`
families (seed 3, R = 200, sample_size 20 000) the six subcommands run through
`python -m ewa_agg.cli` in CSV and in JSON, and their stdout goes to
OUT/cli/<family>.<subcommand>.<format>; each script in SRC/demos has its stdout
written to OUT/demos/<name>.txt. OUT/exit_codes.txt lists every exit code.
Snapshots of two checkouts compare with `diff -r OUT_A OUT_B`.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SEED = 3
REPLICATES = 200
SAMPLE_SIZE = 20_000
COMMANDS = ("simulate", "certify", "verify-coupling", "verify-bernstein", "dv-check", "oracle-bound")
FORMATS = ("csv", "json")


def _run(args, env, path, codes):
    proc = subprocess.run(args, stdout=subprocess.PIPE, env=env, check=False)
    path.write_bytes(proc.stdout)
    codes.append(f"{path.parent.name}/{path.name} {proc.returncode}\n")


def main(argv):
    if len(argv) != 3:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    src, out = Path(argv[1]).resolve(), Path(argv[2])
    init = src / "src" / "ewa_agg" / "__init__.py"
    if not init.is_file():
        print(f"{init} is missing: {argv[1]} is not a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src / "src"))
    from ewa_agg.noise import FAMILIES
    from ewa_agg.oracle import make_scenario

    env = dict(os.environ, PYTHONPATH=str(src / "src"))
    for folder in ("configs", "cli", "demos"):
        (out / folder).mkdir(parents=True, exist_ok=True)
    codes = []
    for family in FAMILIES:
        doc = make_scenario(family, replicates=REPLICATES, seed=SEED).to_json()
        config = out / "configs" / f"{family}.json"
        config.write_text(json.dumps({**doc, "sample_size": SAMPLE_SIZE}))
        for command in COMMANDS:
            for fmt in FORMATS:
                args = [sys.executable, "-m", "ewa_agg.cli", command, str(config), "--format", fmt]
                _run(args, env, out / "cli" / f"{family}.{command}.{fmt}", codes)
    for demo in sorted((src / "demos").glob("*.py")):
        _run([sys.executable, str(demo)], env, out / "demos" / f"{demo.stem}.txt", codes)
    (out / "exit_codes.txt").write_text("".join(codes))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
