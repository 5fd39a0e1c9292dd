"""Command-line front end: JSON experiment configs in, CSV or JSON out.

Usage: ewa-agg COMMAND CONFIG [-o FILE] [--format csv|json] [--seed N], the
command one of simulate, certify, verify-coupling, verify-bernstein, dv-check,
oracle-bound. One flat parser reads the line, so the options may also come
before the command or between it and the config; a bad line exits 2 with the
parser's usage message. Each command returns a list of reports, and `main` prints
them as one table: the columns are the reports' CSV_HEADER plus a seed
column when a report does not carry one, and a JSON row holds the same
columns, each named by its report field (`coupling.Report`). Exit status
is 0 when every verdict passes, 1 when any fails, 2 on input errors (with
a one-line diagnostic naming the offending key). CSV output is RFC-4180
style with a header row and floats rendered to 17 significant digits.
"""

import argparse
import csv
import io
import json
import sys
from dataclasses import fields, replace

from .bernstein import check_noise_mgf
from .coupling import _as_count, verify_coupling
from .ewa import dv_minimality_test
from .model import ExperimentConfig
from .oracle import (
    OracleBoundReport,
    certify_config,
    derived_stream,
    mc_risk,
    oracle_bound_finite,
    oracle_bound_gibbs,
)

_EXTENSION_KEYS = ("alpha_grid", "method", "trials", "sample_size", "mode")
_DEFAULT_ALPHA_GRID = (0.1, 0.5, 1.0)

_COUPLING_STREAM = 101
_BERNSTEIN_STREAM = 102
_DV_STREAM = 103


def _fmt(value):
    return format(value, ".17g") if isinstance(value, float) else str(value)


def _write_rows(header, rows, fmt, out):
    if fmt == "csv":
        writer = csv.writer(out)  # default lineterminator is CRLF, per RFC 4180
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])
    else:
        json.dump([dict(zip(header, row)) for row in rows], out, indent=2)
        out.write("\n")


def _load_document(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise ValueError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file is not valid JSON: {exc}") from None


def _parse_config(path, seed_override):
    doc = _load_document(path)
    if not isinstance(doc, dict):
        raise ValueError("config must be a JSON object")
    unknown = set(doc) - {field.name for field in fields(ExperimentConfig)} - set(_EXTENSION_KEYS)
    if unknown:
        raise ValueError(f"unknown key: {sorted(unknown)[0]}")
    config = ExperimentConfig.from_json(doc)
    if seed_override is not None:
        config = replace(config, seed=seed_override)
    extras = {key: doc[key] for key in _EXTENSION_KEYS if key in doc}
    return config, extras


def _alpha_grid(config, extras, stream):
    """(alpha, generator) per alpha of the grid; the idx-th generator derives from
    (seed, stream, idx)."""
    grid = extras.get("alpha_grid", list(_DEFAULT_ALPHA_GRID))
    reals = isinstance(grid, list) and all(type(a) in (int, float) for a in grid)
    if not grid or not reals:  # exact types: a JSON true is a bool, an int subclass
        raise ValueError("alpha_grid must be a non-empty array of reals")
    return [(float(a), derived_stream(config.seed, stream, idx)) for idx, a in enumerate(grid)]


def _cmd_simulate(config, extras):
    return [mc_risk(config, mode=extras.get("mode", "clean"))]


def _cmd_certify(config, extras):
    return certify_config(config)


def _cmd_verify_coupling(config, extras):
    grid = _alpha_grid(config, extras, _COUPLING_STREAM)
    method = extras.get("method", "exact" if config.noise.discrete else "ks")
    n = _as_count(extras.get("sample_size", 1_000_000), "sample_size")
    return [
        verify_coupling(config.noise, alpha, method=method, sample_size=n, rng=rng)
        for alpha, rng in grid
    ]


def _cmd_verify_bernstein(config, extras):
    grid = _alpha_grid(config, extras, _BERNSTEIN_STREAM)
    n = _as_count(extras.get("sample_size", 1_000_000), "sample_size")
    return [
        check_noise_mgf(config.noise, alpha, sample_size=n, rng=rng)
        for alpha, rng in grid
    ]


def _cmd_dv_check(config, extras):
    y = config.truth + config.noise.sample(derived_stream(config.seed, _DV_STREAM, 0))
    rng = derived_stream(config.seed, _DV_STREAM, 1)
    trials = extras.get("trials", 100)
    return [dv_minimality_test(y, config.dictionary, config.prior, config.beta, trials, rng)]


def _cmd_oracle_bound(config, extras):
    args = (config.dictionary, config.truth, config.prior, config.beta)
    finite, gibbs = oracle_bound_finite(*args), oracle_bound_gibbs(*args)
    n, m = config.dictionary.n, config.dictionary.m
    return [OracleBoundReport(n, m, config.beta, finite, gibbs, verdict=gibbs <= finite)]


_COMMANDS = {
    "simulate": _cmd_simulate,
    "certify": _cmd_certify,
    "verify-coupling": _cmd_verify_coupling,
    "verify-bernstein": _cmd_verify_bernstein,
    "dv-check": _cmd_dv_check,
    "oracle-bound": _cmd_oracle_bound,
}


_PARSER = argparse.ArgumentParser(
    prog="ewa-agg",
    description="Exponentially weighted aggregation: simulation and verification reports.",
)
_PARSER.add_argument("command", choices=_COMMANDS, help="the report to make")
_PARSER.add_argument("config", help="path to a JSON experiment configuration")
_PARSER.add_argument("-o", "--output", default=None, help="write the report here (default: stdout)")
_PARSER.add_argument("--format", choices=("csv", "json"), default="csv")
_PARSER.add_argument("--seed", type=int, default=None, help="override the config seed")


def main(argv=None):
    args = _PARSER.parse_args(argv)
    try:
        config, extras = _parse_config(args.config, args.seed)
        reports = _COMMANDS[args.command](config, extras)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    header = list(reports[0].CSV_HEADER)
    rows = [report.csv_row() for report in reports]
    if "seed" not in header:
        header.append("seed")
        rows = [row + [config.seed] for row in rows]
    if args.output is None:
        buffer = io.StringIO()
        _write_rows(header, rows, args.format, buffer)
        sys.stdout.write(buffer.getvalue())
    else:
        with open(args.output, "w", encoding="utf-8", newline="") as handle:
            _write_rows(header, rows, args.format, handle)
    return 0 if all(report.verdict for report in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
