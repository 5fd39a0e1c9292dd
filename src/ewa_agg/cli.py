"""Command-line front end: JSON experiment configs in, CSV or JSON out.

Subcommands: simulate, certify, verify-coupling, verify-bernstein,
dv-check, oracle-bound. Exit status is 0 when every verdict passes, 1 when
any fails, 2 on input errors (with a one-line diagnostic naming the
offending key). CSV output is RFC-4180 style with a header row and floats
rendered to 17 significant digits.
"""

import argparse
import csv
import io
import json
import sys
from dataclasses import replace

import numpy as np

from .bernstein import check_noise_mgf
from .coupling import CHECK_CSV_HEADER, verify_coupling
from .ewa import DV_TOLERANCE, dv_minimality_test
from .model import ExperimentConfig, _CONFIG_KEYS
from .oracle import (
    RISK_CSV_HEADER,
    certify_config,
    derived_stream,
    mc_risk,
    oracle_bound_finite,
    oracle_bound_gibbs,
)

_EXTENSION_KEYS = ("alpha_grid", "method", "trials", "t_grid_points", "sample_size", "mode")
_CHECK_HEADER = [*CHECK_CSV_HEADER, "seed"]
_DEFAULT_ALPHA_GRID = (0.1, 0.5, 1.0)

_COUPLING_STREAM = 101
_BERNSTEIN_STREAM = 102
_DV_STREAM = 103


def _fmt(value):
    if isinstance(value, bool):
        return "pass" if value else "fail"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _write_rows(header, rows, fmt, out):
    if fmt == "csv":
        writer = csv.writer(out)  # default lineterminator is CRLF, per RFC 4180
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])
    else:
        doc = [dict(zip(header, row)) for row in rows]
        for entry in doc:
            for key, value in entry.items():
                if isinstance(value, np.generic):
                    entry[key] = value.item()
                elif isinstance(value, bool):
                    entry[key] = "pass" if value else "fail"
        json.dump(doc, out, indent=2)
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
    unknown = set(doc) - set(_CONFIG_KEYS) - set(_EXTENSION_KEYS)
    if unknown:
        raise ValueError(f"unknown key: {sorted(unknown)[0]}")
    config = ExperimentConfig.from_json(doc)
    if seed_override is not None:
        config = replace(config, seed=seed_override)
    extras = {key: doc[key] for key in _EXTENSION_KEYS if key in doc}
    return config, extras


def _alpha_grid(extras):
    grid = extras.get("alpha_grid", list(_DEFAULT_ALPHA_GRID))
    if not isinstance(grid, list) or not grid:
        raise ValueError("alpha_grid must be a non-empty array of reals")
    try:
        return [float(a) for a in grid]
    except (TypeError, ValueError):
        raise ValueError("alpha_grid must be a non-empty array of reals") from None


def _positive_int(extras, key, default):
    value = extras.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{key} must be a positive integer")
    return value


def _cmd_simulate(config, extras):
    report = mc_risk(config, mode=extras.get("mode", "clean"))
    return RISK_CSV_HEADER, [report.csv_row()], report.verdict


def _cmd_certify(config, extras):
    reports = certify_config(config)
    return RISK_CSV_HEADER, [r.csv_row() for r in reports], all(r.verdict for r in reports)


def _check_rows(config, alphas, stream, check):
    """The check table over the alpha grid; check(alpha, rng) makes one report."""
    reports = [check(a, derived_stream(config.seed, stream, idx)) for idx, a in enumerate(alphas)]
    rows = [report.csv_row() + [config.seed] for report in reports]
    return _CHECK_HEADER, rows, all(report.verdict for report in reports)


def _cmd_verify_coupling(config, extras):
    alphas = _alpha_grid(extras)
    method = extras.get("method", "exact" if config.noise.discrete else "ks")
    n = _positive_int(extras, "sample_size", 1_000_000)

    def check(alpha, rng):
        return verify_coupling(config.noise, alpha, method=method, sample_size=n, rng=rng)

    return _check_rows(config, alphas, _COUPLING_STREAM, check)


def _cmd_verify_bernstein(config, extras):
    alphas = _alpha_grid(extras)
    points = _positive_int(extras, "t_grid_points", 64)
    n = _positive_int(extras, "sample_size", 1_000_000)

    def check(alpha, rng):
        return check_noise_mgf(config.noise, alpha, points=points, sample_size=n, rng=rng)

    return _check_rows(config, alphas, _BERNSTEIN_STREAM, check)


def _cmd_dv_check(config, extras):
    trials = _positive_int(extras, "trials", 100)
    y = config.truth + config.noise.sample(derived_stream(config.seed, _DV_STREAM, 0))
    report = dv_minimality_test(
        y,
        config.dictionary,
        config.prior,
        config.beta,
        trials,
        derived_stream(config.seed, _DV_STREAM, 1),
    )
    header = ["n", "m", "beta", "trials", "worst_violation", "threshold", "verdict", "seed"]
    row = [
        config.dictionary.n,
        config.dictionary.m,
        config.beta,
        report.trials,
        report.worst_violation,
        DV_TOLERANCE,
        report.verdict,
        config.seed,
    ]
    return header, [row], report.verdict


def _cmd_oracle_bound(config, extras):
    finite = oracle_bound_finite(config.dictionary, config.truth, config.prior, config.beta)
    gibbs = oracle_bound_gibbs(config.dictionary, config.truth, config.prior, config.beta)
    verdict = gibbs <= finite
    header = ["n", "m", "beta", "bound_finite", "bound_gibbs", "verdict", "seed"]
    row = [
        config.dictionary.n,
        config.dictionary.m,
        config.beta,
        finite,
        gibbs,
        verdict,
        config.seed,
    ]
    return header, [row], verdict


_COMMANDS = {
    "simulate": _cmd_simulate,
    "certify": _cmd_certify,
    "verify-coupling": _cmd_verify_coupling,
    "verify-bernstein": _cmd_verify_bernstein,
    "dv-check": _cmd_dv_check,
    "oracle-bound": _cmd_oracle_bound,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ewa-agg",
        description="Exponentially weighted aggregation: simulation and verification reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("config", help="path to a JSON experiment configuration")
        cmd.add_argument("-o", "--output", default=None, help="write the report here (default: stdout)")
        cmd.add_argument("--format", choices=("csv", "json"), default="csv")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        config, extras = _parse_config(args.config, args.seed)
        header, rows, ok = _COMMANDS[args.command](config, extras)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.output is None:
        buffer = io.StringIO()
        _write_rows(header, rows, args.format, buffer)
        sys.stdout.write(buffer.getvalue())
    else:
        with open(args.output, "w", encoding="utf-8", newline="") as handle:
            _write_rows(header, rows, args.format, handle)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
