"""The checkout tools read the checkout they are given, or refuse it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ewa_agg

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
