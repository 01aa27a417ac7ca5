"""Benchmark of the qasa pipeline.

    python3 bench/run.py --workload chip16-assess --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports `qasa` from its `src/`.
With --trace 0 it times repeated passes of one workload's pipeline and
prints the end-to-end metrics; with --trace 1 it times untraced passes,
then traced passes, and prints the per-layer metrics.  Every pass is
checked (see workloads.py).  The last line of standard output is the
result; the line before it records the environment.  Results, per-layer
detail and spans go to bench_out/.  `--workload all` runs every workload
in turn in this one process (its peak RSS is then the process's so far).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench_out"
SETUP_REPEATS = 7
WORKLOAD_NAMES = ("chip16-assess", "chip16-simulate", "desk-sweep")
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "QASA_WORKERS")

# per-layer time metric -> spans whose inclusive time it sums
LAYER_SPANS = {
    "simulator.simulate_chip_s": ("simulator.simulate_chip",),
    "estimator.fit_chip_s": ("estimator.fit_chip",),
    "data_io.read_raw_s": ("data_io.read_raw",),
    "data_io.write_raw_s": ("data_io.write_raw",),
    "data_io.read_params_s": ("data_io.read_params",),
    "data_io.write_params_s": ("data_io.write_params",),
    "data_io.write_report_s": ("data_io.write_report",),
    "analysis.build_report_s": ("analysis.build_report",),
    "analysis.sweep_s": ("analysis.sweep_point", "analysis.fit_log_trend"),
    "topology.heatmap_grid_s": ("topology.heatmap_grid",),
    "cli.simulate_s": ("cli.cmd_simulate",),
    "cli.fit_s": ("cli.cmd_fit",),
    "cli.analyze_s": ("cli.cmd_analyze",),
    "cli.estimate_s": ("cli.cmd_estimate",),
    "cli.sweep_s": ("cli.cmd_sweep",),
}
LAYER_FILES = {"data_io.raw_mb": "raw", "data_io.params_mb": "params", "data_io.report_mb": "report"}
LAYER_COUNTS = {"estimator.qubits_failed": "failed", "estimator.below_truth_ll": "below_truth_ll"}
UNITS = {"_s": "s", "_per_s": "1/s", "_mb": "MB"}


def unit_of(name):
    for suffix in ("_per_s", "_mb", "_s"):
        if name.endswith(suffix):
            return UNITS[suffix]
    return "count"


def environment():
    import numpy
    import scipy

    def blas(module):
        # numpy and scipy each bundle their own OpenBLAS, with its own threads
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError):
            return None
        return info.get("openblas configuration") or info.get("version")

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def time_import():
    """Wall time of a fresh interpreter that imports the program's CLI."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import qasa.cli"], env=env, check=True, timeout=120)
    return time.perf_counter() - start


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failed_ids = set()
        self.problems = []
        self.counts = []  # per pass: {"failed": n, "below_truth_ll": n, ...}

    def add(self, outcome):
        self.attempted += outcome.attempted
        self.failed += len(outcome.failed_ids)
        self.failed_ids |= outcome.failed_ids
        self.problems += [p for p in outcome.problems if p not in self.problems]
        self.counts.append(dict(outcome.counts, failed=len(outcome.failed_ids)))


def passes(work, seconds, tally, tracer=None):
    """Run checked passes within a window of `seconds`: at least one, and
    another only while the median pass so far still fits in the window.
    Returns the pass wall times and, when traced, each pass's root span."""
    times, roots = [], []
    start = time.perf_counter()
    while True:
        work.clean()
        if tracer is None:
            t0 = time.perf_counter()
            result = work.run()
            times.append(time.perf_counter() - t0)
        else:
            with tracer.span("pass") as root:
                t0 = time.perf_counter()
                result = work.run()
                times.append(time.perf_counter() - t0)
            roots.append(root)
        tally.add(work.check(result))
        if time.perf_counter() - start + statistics.median(times) > seconds:
            return times, roots


def model_seconds(fn, params, h, repeats=5):
    """Median wall time of one `fn(h, p)` evaluation over every qubit."""
    from qasa import model

    qubits = [model.QubitParams(*row) for row in zip(*params)]
    best = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for p in qubits:
            fn(h, p)
        best.append(time.perf_counter() - t0)
    return statistics.median(best)


def layer_metrics(tracer, roots, work, tally, probe_roots, probe, probe_tally, n_fields):
    """Per-layer figures: medians over traced passes of each pass's span
    totals.  A layer the workload's passes never reach is taken from the
    probe round instead; `sources` says which."""
    per_pass = [tracer.totals_under(r) for r in roots]
    per_probe = [tracer.totals_under(r) for r in probe_roots]
    metrics, sources = {}, {}

    def pick(names):
        if any(n in t for t in per_pass for n in names):
            return per_pass, "pass"
        return per_probe, "probe"

    def total(t, names, field=0):
        return sum(t[n][field] for n in names if n in t)

    for metric, names in LAYER_SPANS.items():
        runs, sources[metric] = pick(names)
        metrics[metric] = statistics.median(total(t, names) for t in runs)
    # rate -> (span whose calls count the work, work per call, span timing it);
    # one sample_counts call draws one binomial per field
    rates = {
        "simulator.draws_per_s": ("simulator.sample_counts", n_fields, "simulator.simulate_chip"),
        "estimator.fits_per_s": ("estimator.fit_qubit", 1, "estimator.fit_chip"),
    }
    for metric, (counted, per_call, timed) in rates.items():
        runs, sources[metric] = pick((timed,))
        metrics[metric] = statistics.median(total(t, (counted,), 2) * per_call / total(t, (timed,)) for t in runs)
    fitting = any("estimator.fit_chip" in t for t in per_pass)
    for metric, key in LAYER_COUNTS.items():
        counts, sources[metric] = (tally.counts, "pass") if fitting else (probe_tally.counts, "probe")
        metrics[metric] = statistics.median(c.get(key, 0) for c in counts)
    files = work.files()
    for metric, kind in LAYER_FILES.items():
        owner, sources[metric] = (work, "pass") if kind in files else (probe, "probe")
        metrics[metric] = sum(Path(p).stat().st_size for p in owner.files()[kind]) / 1e6
    metrics["trace.spans_per_pass"] = statistics.median(
        sum(v[2] for v in t.values()) for t in per_pass
    )
    sources["trace.spans_per_pass"] = "pass"
    per_function = {}
    for name in sorted({n for t in per_pass for n in t}):
        per_function[name] = {
            field: statistics.median(t.get(name, (0.0, 0.0, 0))[i] for t in per_pass)
            for i, field in enumerate(("inclusive_s", "self_s", "calls"))
        }
    return metrics, sources, per_function


def run_workload(name, seed, seconds, trace):
    import numpy as np

    import reference as ref
    import workloads
    from qasa import model

    load_start = os.getloadavg()
    work_dir = OUT / f"work-{name}-{seed}-{os.getpid()}"
    work = workloads.WORKLOADS[name](seed, work_dir)

    setups = []
    for _ in range(SETUP_REPEATS):
        t_import = time_import()
        t0 = time.perf_counter()
        work.setup()
        setups.append(t_import + time.perf_counter() - t0)

    h = workloads.fields()
    params = work.model_params()
    tally = Tally()
    oracle_err = ref.check_against_oracle(
        model.density_matrix_expectation, model.QubitParams, h, *params, np.random.default_rng([seed, 2])
    )
    if oracle_err > 1e-12:
        tally.problems.append(f"reference differs from the density-matrix oracle by {oracle_err:.2e}")

    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace}
    if not trace:
        times, _ = passes(work, seconds, tally)
        metrics = {
            "setup_s": statistics.median(setups),
            "pass_s": statistics.median(times),
            "peak_rss_mb": peak_rss_mb(),
        }
        result["pass_times_s"] = times
    else:
        from spans import Tracer

        untraced, _ = passes(work, seconds / 2.0, tally)
        tracer = Tracer()
        tracer.install()
        probe, probe_roots, probe_tally = None, [], Tally()
        try:
            traced, roots = passes(work, seconds / 2.0, tally, tracer)
            reached = {n for r in roots for n in tracer.totals_under(r)}
            if not all(set(names) & reached for names in LAYER_SPANS.values()):
                probe = workloads.probe(seed, work_dir / "probe")
                probe.setup()
                probe_roots = passes(probe, 0.0, probe_tally, tracer)[1]
        finally:
            tracer.uninstall()
        metrics, sources, per_function = layer_metrics(
            tracer, roots, work, tally, probe_roots, probe, probe_tally, h.size
        )
        metrics["model.effective_field_s"] = model_seconds(model.effective_field, params, h)
        metrics["model.spin_expectation_s"] = model_seconds(model.spin_expectation, params, h)
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        sources.update({k: "model loop" for k in ("model.effective_field_s", "model.spin_expectation_s")})
        sources["trace.overhead_s"] = "pass"
        spans_path = OUT / f"{name}-seed{seed}.spans.json"
        tracer.dump(spans_path)
        result.update(untraced_pass_times_s=untraced, traced_pass_times_s=traced,
                      metric_sources=sources, per_function=per_function, spans_file=spans_path.name)

    env = environment()
    env["loadavg_start"], env["loadavg_end"] = load_start, os.getloadavg()
    summary = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(metrics.items())},
    }
    result.update(
        environment=env,
        setup_times_s=setups,
        failed_ids=sorted(map(str, tally.failed_ids)),
        problems=tally.problems,
        pass_counts=tally.counts,
        summary=summary,
    )
    with open(OUT / f"{name}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    shutil.rmtree(work_dir)
    for p in tally.problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({"workload": name, "environment": env}))
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        import qasa
    except ImportError as exc:
        print(f"bench: cannot import qasa from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(qasa.__file__).resolve().parent.parent != SRC:
        print(f"bench: imported qasa from {qasa.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        summary = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
