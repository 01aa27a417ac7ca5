"""Command-line pipeline: simulate -> fit -> estimate/analyze -> sweep.

A command that succeeds writes a ``<out>.manifest.json`` beside its output
recording the resolved flags, seed, tool version, and wall-clock duration,
and any facts about its input that the command returns: ``fit`` records
whether the sweep has a field outside [-1, 1], as ``fields_outside_unit``.
A data error (a bad input file, chip, field grid or truth id, or a sweep
too small to fit) prints one ``qasa: <message>`` line and writes no
manifest.  Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .analysis import (
    AnalysisError,
    PARAMETERS,
    build_report,
    fit_log_trend,
    sweep_point,
)
from .data_io import (
    FormatError,
    _csv_rows,
    format_field,
    read_params,
    read_raw,
    write_params,
    write_raw,
    write_report,
)
from .estimator import CONFIDENCE, empirical_estimates, fit_chip
from .presets import PRESETS, preset_truth
from .simulator import RawCounts, SweepDesign, field_grid, simulate_chip
from .topology import ChimeraSpec, _chip_grid

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _write_manifest(args, started, facts):
    flags = {k: v for k, v in vars(args).items() if k != "command"}
    manifest = {
        "command": args.command,
        "flags": flags,
        "seed": flags.get("seed"),  # only simulate takes one
        "tool_version": __version__,
        "duration_s": round(time.monotonic() - started, 3),
        **facts,
    }
    with open(str(args.out) + ".manifest.json", "w", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_truth(text, grid):
    # a preset covers every slot of the chip; a file only its own ids
    if text.startswith("preset:"):
        return preset_truth(text[len("preset:"):], ChimeraSpec(grid=grid))
    fit = read_params(text)
    ChimeraSpec(grid, operational=fit.ids.tolist())  # every id must sit on the chip
    return fit.ids, fit.theta


def _infer_spec(ids, chip):
    """The chip that places every id: `chip` when given, which must hold
    them all, else the smallest Chimera grid that does: n cells a side
    hold ids up to 8n^2 - 1."""
    n = _chip_grid(chip) if chip else math.isqrt(max(ids, default=0) // 8) + 1
    return ChimeraSpec(grid=n, operational=frozenset(ids))


def cmd_simulate(args):
    truth = _load_truth(args.truth, _chip_grid(args.chip))
    fields = field_grid(args.h_min, args.h_max, args.h_step)
    design = SweepDesign(fields=fields, samples_per_field=args.samples, seed=args.seed)
    write_raw(simulate_chip(truth, design), args.out)


def cmd_fit(args):
    started = time.monotonic()
    counts = read_raw(args.infile)
    # layout columns come from the whole file, so a subset keeps its sites
    spec = _infer_spec(counts.qubit_ids, args.chip)
    if args.qubits:
        keep = set(args.qubits)
        unknown = keep - set(counts.counts)
        if unknown:
            raise FormatError(f"qubits not in input: {sorted(unknown)}")
        counts = RawCounts(counts.h, counts.samples, (list(keep), [counts.counts[q] for q in keep]))
    fit, _ = fit_chip(counts, workers=args.workers)
    write_params(fit, spec, args.out)
    print(f"qasa fit: {len(fit)} fitted, {np.count_nonzero(fit.flags)} flagged "
          f"in {time.monotonic() - started:.2f} s", file=sys.stderr)
    return {"fields_outside_unit": bool(np.any(np.abs(counts.h) > 1))}


def cmd_estimate(args):
    counts = read_raw(args.infile)
    estimates = empirical_estimates(counts, args.qubit, args.confidence)
    with open(args.out, "w", newline="\n") as fh:
        fh.write("h,mean,h_eff,ci_low,ci_high\n")
        for e in estimates:
            fh.write(
                f"{format_field(e.h)},{e.mean!r},{e.h_eff!r},{e.ci_low!r},{e.ci_high!r}\n"
            )


def cmd_analyze(args):
    fit = read_params(args.params)
    spec = _infer_spec(fit.ids.tolist(), args.chip)
    write_report(build_report(fit, spec), args.out)


def cmd_sweep(args):
    points = []
    with open(args.manifest, newline="") as fh:
        rows = _csv_rows(args.manifest, fh)
        _, header = next(rows, (1, []))
        if [c.strip() for c in header[:2]] != ["anneal_time_us", "params_file"]:
            raise FormatError(f"{args.manifest}:1: header must be 'anneal_time_us,params_file'")
        base = os.path.dirname(os.path.abspath(args.manifest))
        for line_no, row in rows:
            if not row:
                continue
            where = f"{args.manifest}:{line_no}"
            if len(row) < 2:
                raise FormatError(f"{where}: expected 2 cells, got {len(row)}")
            try:
                t = float(row[0])
            except ValueError:
                raise FormatError(f"{where}: bad anneal time {row[0]!r}")
            if not (0 < t < math.inf):
                raise FormatError(f"{where}: anneal time must be positive and finite, got {row[0]!r}")
            if not row[1]:
                raise FormatError(f"{where}: empty params_file")
            try:
                points.append(sweep_point(t, read_params(os.path.join(base, row[1]))))
            except AnalysisError as exc:  # an empty fit; the time was checked above
                raise FormatError(f"{where}: params file has {exc}") from None
            except OSError as exc:
                raise FormatError(f"{where}: {exc}") from None
    trend = fit_log_trend(points, args.parameter)
    with open(args.out, "w", newline="\n") as fh:
        fh.write("anneal_time_us,mean,std\n")
        for pt in points:
            fh.write(f"{pt.anneal_time_us!r},{pt.means[args.parameter]!r},{pt.stds[args.parameter]!r}\n")
        fh.write(f"trend_c0,{trend.c0!r}\n")
        fh.write(f"trend_c1,{trend.c1!r}\n")
        fh.write(f"trend_residual_rms,{trend.residual_rms!r}\n")


def build_parser() -> _Parser:
    parser = _Parser(prog="qasa", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate synthetic raw counts for a chip")
    p.add_argument("--chip", required=True, help="chip spec, e.g. chimera:16")
    p.add_argument("--truth", required=True,
                   help=f"params CSV path or preset:<name> ({', '.join(PRESETS)})")
    p.add_argument("--h-min", type=float, default=-1.0, help="lowest input field (default -1)")
    p.add_argument("--h-max", type=float, default=1.0, help="highest input field (default 1)")
    p.add_argument("--h-step", type=float, default=0.025, help="field grid step (default 0.025)")
    p.add_argument("--samples", type=int, default=5_000_000,
                   help="samples per field (default 5000000)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("--out", required=True, help="output raw CSV path")

    p = sub.add_parser("fit", help="fit model parameters for every qubit in a raw CSV")
    p.add_argument("--in", dest="infile", required=True, help="input raw CSV")
    p.add_argument("--out", required=True, help="output params CSV path")
    p.add_argument("--qubits", type=int, nargs="+", help="restrict to these qubit ids")
    p.add_argument("--chip",
                   help="chip spec for the layout columns, e.g. chimera:16 "
                        "(default: the smallest Chimera grid that holds every id)")
    p.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility and ignored: the fit runs on every CPU "
                        "the process may use (taskset limits them), with identical output for any count")

    p = sub.add_parser("estimate", help="empirical effective-field curve for one qubit")
    p.add_argument("--in", dest="infile", required=True, help="input raw CSV")
    p.add_argument("--qubit", type=int, required=True, help="qubit id")
    p.add_argument("--confidence", type=float, default=CONFIDENCE,
                   help=f"two-sided CI coverage (default {CONFIDENCE})")
    p.add_argument("--out", required=True, help="output curve CSV path")

    p = sub.add_parser("analyze", help="distribution/orientation/spatial report from a params CSV")
    p.add_argument("--params", required=True, help="input params CSV")
    p.add_argument("--chip", required=True, help="chip spec, e.g. chimera:16")
    p.add_argument("--out", required=True, help="output report JSON path")

    p = sub.add_parser("sweep", help="trend of a parameter across anneal-time datasets")
    p.add_argument("--manifest", required=True,
                   help="CSV of anneal_time_us,params_file rows")
    p.add_argument("--parameter", choices=list(PARAMETERS), required=True)
    p.add_argument("--out", required=True, help="output trend CSV path")
    return parser


@functools.cache
def _parser() -> _Parser:
    # built on first use, not at import: importing the CLI parses nothing
    return build_parser()


def main(argv=None) -> int:
    """Run one command; return its exit code, whatever the outcome: 0 on
    success and for ``--help`` and ``--version``, 1 for a usage error, 2
    for a data error.  Never raises SystemExit.

    May be called any number of times in one process.  Every call parses
    with the one parser `build_parser` gives on the first call: building
    it takes about 0.9 ms, some 17 times as long as a parse, which a
    process that runs many short commands would pay per command.  Parsing
    leaves the parser as it was and each call gets a fresh namespace, so
    no flag carries over.  The command ``cmd_<name>`` is looked up in this
    module when it runs, so a wrapper installed since (a tracer, a test's
    patch) still runs; a dict it returns is added to the manifest.
    """
    try:
        args = _parser().parse_args(argv)
        started = time.monotonic()
        facts = globals()[f"cmd_{args.command}"](args)
        _write_manifest(args, started, facts or {})
    except SystemExit as exc:  # argparse: usage error, --help, --version
        return exc.code
    except (ValueError, OSError) as exc:
        print(f"qasa: {exc}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
