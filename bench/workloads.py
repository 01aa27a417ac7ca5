"""The benchmark's workloads: inputs made from a seed, one timed pass of a
user pipeline, and the checks on that pass's outputs.

Every call into the program goes through a module attribute
(`estimator.fit_chip`, `cli.main`, ...), so the spans that `spans.Tracer`
installs on those attributes see it.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import shutil
from pathlib import Path

import numpy as np
from scipy import stats

import reference as ref
from qasa import analysis, cli, data_io, estimator, model, simulator, topology

# The paper's chip-wide medians and its horizontal/vertical medians, as
# relative half-splits (horizontal qubits run hotter in beta and gamma).
MEDIAN = {"beta": 10.54, "b": 0.0025, "eta": 0.0367, "gamma": 0.0176}
HV_SPLIT = {"beta": 0.0185, "gamma": 0.0625}

CHIP_GRID = 16
CHIP_SHOTS = 5_000_000
N_DEAD = 16
# A fixed block of low-noise qubits (eta and gamma both below 0.01), where
# fit_qubit can stop short of the likelihood maximum.  Its truth and counts
# come from TAIL_SEED, never from --seed, so the qubits that fall short fail
# identically in every run; dead slots are drawn around it.  The seeded body
# keeps eta above BODY_ETA_FLOOR, where no fit was seen to stop short.
TAIL_SEED = 7
TAIL_SIZE = 64
TAIL_RANGE = (0.001, 0.01)
BODY_ETA_FLOOR = 0.015

# A2 recovery tolerances: relative for beta, absolute for the others.
TOLERANCE = {"beta": 0.02, "b": 0.002, "eta": 0.005, "gamma": 0.003}
# Binomial checks on simulated counts: cells whose smaller expected tally is
# at least NORMAL_MIN use the normal approximation; the rest use exact tails.
NORMAL_MIN = 1000.0
Z_MAX = 7.0
CHI2_SIGMAS = 6.0
TAIL_P_MIN = 1e-12
SPLIT_QUBITS = 64
TREND_SIGMAS = 5.0

PARAMS = ("beta", "b", "eta", "gamma")


def fields():
    return np.array(simulator.field_grid())


def horizontal(ids):
    """Orientation under the default vertical-low-k Chimera convention."""
    return np.asarray(ids) % 8 >= 4


def draw_params(rng, ids):
    """(beta, b, eta, gamma) arrays for `ids` around the paper's medians."""
    n = len(ids)
    sign = np.where(horizontal(ids), 1.0, -1.0)
    beta = MEDIAN["beta"] * np.exp(rng.normal(0.0, 0.06, n)) * (1.0 + HV_SPLIT["beta"] * sign)
    b = MEDIAN["b"] + rng.normal(0.0, 0.004, n)
    eta = np.maximum(MEDIAN["eta"] * np.exp(rng.normal(0.0, 0.25, n)), BODY_ETA_FLOOR)
    gamma = MEDIAN["gamma"] * np.exp(rng.normal(0.0, 0.25, n)) * (1.0 + HV_SPLIT["gamma"] * sign)
    return beta, b, eta, gamma


class Chip:
    """A chimera:16 truth: 2032 operational qubits, 16 dead slots from the
    seed, and the fixed low-eta block.  Arrays are aligned with `ids`."""

    def __init__(self, seed):
        capacity = 8 * CHIP_GRID * CHIP_GRID
        self.tail_rng = np.random.default_rng(TAIL_SEED)
        tail_ids = np.sort(self.tail_rng.choice(capacity, TAIL_SIZE, replace=False))
        beta, b, _, _ = draw_params(self.tail_rng, tail_ids)
        tail = (beta, b, *self.tail_rng.uniform(*TAIL_RANGE, (2, TAIL_SIZE)))
        self.rng = np.random.default_rng(seed)
        free = np.setdiff1d(np.arange(capacity), tail_ids)
        self.dead = np.sort(self.rng.choice(free, N_DEAD, replace=False))
        body_ids = np.setdiff1d(free, self.dead)
        body = draw_params(self.rng, body_ids)
        ids = np.concatenate([body_ids, tail_ids])
        order = np.argsort(ids)
        self.ids = ids[order]
        self.params = tuple(np.concatenate([x, y])[order] for x, y in zip(body, tail))
        self.in_tail = np.isin(self.ids, tail_ids)

    def truth(self):
        return {int(q): model.QubitParams(*row) for q, row in zip(self.ids, zip(*self.params))}

    def draw_counts(self, h, shots):
        """-1 tallies, shape (Q, F): one binomial draw for the seeded body and
        one from TAIL_SEED for the fixed block."""
        p = ref.prob_minus(h, *self.params)
        counts = np.empty(p.shape, dtype=np.int64)
        counts[~self.in_tail] = self.rng.binomial(shots, p[~self.in_tail])
        counts[self.in_tail] = self.tail_rng.binomial(shots, p[self.in_tail])
        return counts


class Outcome:
    """Qubits attempted and failed in one pass, with any pass-level problem."""

    def __init__(self, attempted):
        self.attempted = attempted
        self.failed_ids = set()
        self.problems = []
        self.counts = {}  # per-layer counts: below_truth_ll, ...

    def require(self, ok, what):
        if not ok:
            self.problems.append(what)


def read_params_table(path):
    """The benchmark's own parse of a params CSV: (ids, {name: array})."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    ids = np.array([int(r["qubit_id"]) for r in rows], dtype=np.int64)
    return ids, {k: np.array([float(r[k]) for r in rows]) for k in PARAMS}


def digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Workload:
    """Inputs live in `dir`, a pass's outputs in `dir/out`.

    Every setup starts from an empty `dir` and every pass from an empty
    `out`, so the program always writes new files, as on a first run.
    (Rewriting an existing file costs ~40 ms more per file on ext4, which
    flushes a file truncated and rewritten when it is closed.)
    """

    def __init__(self, seed, workdir):
        self.seed = seed
        self.dir = Path(workdir)
        self.out = self.dir / "out"

    def fresh_dir(self):
        if self.dir.exists():
            shutil.rmtree(self.dir)
        self.out.mkdir(parents=True)

    def clean(self):
        shutil.rmtree(self.out)
        self.out.mkdir()


# ---------------------------------------------------------------------------


class ChipAssess(Workload):
    """read_raw -> fit_chip -> write_params -> read_params -> build_report ->
    write_report on a full chimera:16 raw CSV."""

    name = "chip16-assess"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.raw = self.dir / "raw.csv"
        self.params = self.out / "params.csv"
        self.report = self.out / "report.json"
        self.digests = None

    def setup(self):
        self.fresh_dir()
        self.chip = Chip(self.seed)
        self.h = fields()
        self.counts = self.chip.draw_counts(self.h, CHIP_SHOTS)
        self.samples = np.full(self.h.size, CHIP_SHOTS, dtype=np.int64)
        raw = simulator.RawCounts(
            self.h, self.samples, {int(q): c for q, c in zip(self.chip.ids, self.counts)}
        )
        data_io.write_raw(raw, self.raw)

    def model_params(self):
        return self.chip.params

    def run(self):
        counts = data_io.read_raw(self.raw)
        results, failures = estimator.fit_chip(counts, workers=1)
        spec = topology.ChimeraSpec(grid=CHIP_GRID, operational=frozenset(counts.counts))
        data_io.write_params(results, spec, self.params)
        back = data_io.read_params(self.params)
        report = analysis.build_report(back, spec)
        data_io.write_report(report, self.report)
        return failures

    def files(self):
        return {"raw": [self.raw], "params": [self.params], "report": [self.report]}

    def check(self, failures):
        chip = self.chip
        out = Outcome(chip.ids.size)
        out.failed_ids |= set(failures)
        ids, fit = read_params_table(self.params)
        expected = set(chip.ids.tolist())
        out.require(set(ids.tolist()) | set(failures) == expected and not set(ids.tolist()) & set(failures),
                    "params table does not hold every operational qubit")
        report = json.loads(self.report.read_text())
        out.require(report["n_qubits"] == ids.size, "report qubit count differs from params table")
        for p in PARAMS:
            shown = {r["id"] for r in report["heatmaps"][p] if r["value"] is not None}
            out.require(shown == set(ids.tolist()), f"report heatmap of {p} misses qubits")

        idx = np.searchsorted(chip.ids, ids)
        truth = tuple(x[idx] for x in chip.params)
        fitted = tuple(fit[k] for k in PARAMS)
        ll_fit = ref.log_likelihood(self.h, self.samples, self.counts[idx], *fitted)
        ll_truth = ref.log_likelihood(self.h, self.samples, self.counts[idx], *truth)
        below = ll_fit < ll_truth
        missed = np.abs(fitted[0] - truth[0]) > TOLERANCE["beta"] * truth[0]
        for k, (f, t) in zip(PARAMS[1:], zip(fitted[1:], truth[1:])):
            missed |= np.abs(f - t) > TOLERANCE[k]
        out.failed_ids |= set(ids[below | missed].tolist())
        out.counts["below_truth_ll"] = int(below.sum())

        hmask = horizontal(ids)
        for p in PARAMS:
            v = fit[p]
            out.require(report["summaries"][p]["median"] == float(np.median(v)), f"report median of {p}")
            split = report["orientation_splits"][p]
            out.require(split["horizontal"]["median"] == float(np.median(v[hmask])), f"horizontal median of {p}")
            out.require(split["vertical"]["median"] == float(np.median(v[~hmask])), f"vertical median of {p}")

        digests = (digest(self.params), digest(self.report))
        if self.digests is None:
            self.digests = digests
        out.require(digests == self.digests, "output files differ between passes")
        return out


class ChipSimulate(Workload):
    """truth -> simulate_chip (chimera:16, 81 fields, 5e6 shots) -> write_raw
    -> read_raw."""

    name = "chip16-simulate"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.raw = self.out / "raw.csv"
        self.expected = None

    def setup(self):
        self.fresh_dir()
        self.chip = Chip(self.seed)
        self.truth = self.chip.truth()
        self.operational = [int(q) for q in self.chip.ids]
        self.design = simulator.SweepDesign(
            fields=simulator.field_grid(), samples_per_field=CHIP_SHOTS, seed=self.seed
        )

    def model_params(self):
        return self.chip.params

    def run(self):
        counts = simulator.simulate_chip(self.truth, self.design, operational=self.operational)
        data_io.write_raw(counts, self.raw)
        back = data_io.read_raw(self.raw)
        return counts, back

    def files(self):
        return {"raw": [self.raw]}

    def _expected(self):
        if self.expected is None:
            h = np.array(self.design.fields)
            p = ref.prob_minus(h, *self.chip.params)
            m = float(CHIP_SHOTS)
            normal = np.minimum(m * p, m * (1.0 - p)) >= NORMAL_MIN
            subset = np.sort(np.random.default_rng([self.seed, 1]).choice(self.operational, SPLIT_QUBITS, replace=False))
            self.expected = (p, normal, subset)
        return self.expected

    def check(self, result):
        counts, back = result
        p, normal, subset = self._expected()
        ids = self.chip.ids
        out = Outcome(ids.size)
        out.require(counts.qubit_ids == self.operational, "simulated columns differ from operational set")
        out.require(np.array_equal(back.h, counts.h) and np.array_equal(back.samples, counts.samples),
                    "raw CSV round trip changed h or samples")
        k = np.array([counts.counts[int(q)] for q in ids], dtype=float)
        kb = np.array([back.counts.get(int(q), np.full(k.shape[1], -1)) for q in ids], dtype=float)
        out.failed_ids |= set(ids[np.any(kb != k, axis=1)].tolist())

        m = float(CHIP_SHOTS)
        z = np.where(normal, (k - m * p) / np.sqrt(m * p * (1.0 - p)), 0.0)
        n = int(normal.sum())
        chi2 = float(np.sum(z * z))
        out.require(abs(chi2 - n) <= CHI2_SIGMAS * math.sqrt(2.0 * n),
                    f"chi2 {chi2:.0f} over {n} cells outside binomial bound")
        out.failed_ids |= set(ids[np.any(np.abs(z) > Z_MAX, axis=1)].tolist())
        low = ~normal
        tail = np.ones_like(p)
        tail[low] = np.minimum(stats.binom.cdf(k[low], CHIP_SHOTS, p[low]),
                               stats.binom.sf(k[low] - 1, CHIP_SHOTS, p[low]))
        out.failed_ids |= set(ids[np.any(tail < TAIL_P_MIN, axis=1)].tolist())

        part = simulator.simulate_chip({int(q): self.truth[int(q)] for q in subset}, self.design)
        for q in subset:
            if not np.array_equal(part.counts[int(q)], counts.counts[int(q)]):
                out.failed_ids.add(int(q))
        out.counts["chi2_per_cell"] = chi2 / n
        return out


class DeskSweep(Workload):
    """The anneal-time study through the CLI: per dataset simulate -> fit ->
    analyze -> estimate, then one sweep over all datasets."""

    name = "desk-sweep"
    TIMES_US = (1.0, 5.0, 25.0, 125.0)
    # beta(t) = BETA_1US + BETA_PER_LN_US * ln(t / 1us): 10.5 at 1us, 15.7 at 125us
    BETA_1US = 10.5
    BETA_PER_LN_US = 5.2 / math.log(125.0)

    def __init__(self, seed, workdir, grid=4, times=TIMES_US, shots=100_000):
        super().__init__(seed, workdir)
        self.grid, self.times, self.shots = grid, tuple(times), shots
        self.chip = f"chimera:{grid}"
        n = len(self.times)
        self.truth_csv = [self.dir / f"truth_{i}.csv" for i in range(n)]
        self.raw = [self.out / f"raw_{i}.csv" for i in range(n)]
        self.params = [self.out / f"params_{i}.csv" for i in range(n)]
        self.report = [self.out / f"report_{i}.json" for i in range(n)]
        self.curve = [self.out / f"curve_{i}.csv" for i in range(n)]
        self.manifest = self.dir / "datasets.csv"
        self.trend = self.out / "trend.csv"

    def setup(self):
        self.fresh_dir()
        rng = np.random.default_rng(self.seed)
        self.ids = np.arange(8 * self.grid * self.grid)
        n = self.ids.size
        sign = np.where(horizontal(self.ids), 1.0, -1.0)
        scatter = np.exp(rng.normal(0.0, 0.03, n)) * (1.0 + HV_SPLIT["beta"] * sign)
        b = MEDIAN["b"] + rng.normal(0.0, 0.003, n)
        eta = MEDIAN["eta"] * np.exp(rng.normal(0.0, 0.2, n))
        gamma = MEDIAN["gamma"] * np.exp(rng.normal(0.0, 0.2, n)) * (1.0 + HV_SPLIT["gamma"] * sign)
        self.sim_seeds = rng.integers(0, 2**31, len(self.times))
        self.estimate_qubit = int(rng.choice(self.ids))
        self.truths = []
        for t, path in zip(self.times, self.truth_csv):
            beta = (self.BETA_1US + self.BETA_PER_LN_US * math.log(t)) * scatter
            self.truths.append((beta, b, eta, gamma))
            with open(path, "w") as fh:
                fh.write("qubit_id,beta,b,eta,gamma\n")
                for row in zip(self.ids, beta, b, eta, gamma):
                    fh.write(",".join([str(row[0])] + [repr(float(v)) for v in row[1:]]) + "\n")
        with open(self.manifest, "w") as fh:
            fh.write("anneal_time_us,params_file\n")
            for t, path in zip(self.times, self.params):
                fh.write(f"{t!r},{path.relative_to(self.dir)}\n")

    def model_params(self):
        return tuple(np.concatenate(x) for x in zip(*self.truths))

    def run(self):
        codes = []
        for i, t in enumerate(self.times):
            codes.append(cli.main(["simulate", "--chip", self.chip, "--truth", str(self.truth_csv[i]),
                                   "--samples", str(self.shots), "--seed", str(self.sim_seeds[i]),
                                   "--out", str(self.raw[i])]))
            codes.append(cli.main(["fit", "--in", str(self.raw[i]), "--out", str(self.params[i]),
                                   "--workers", "1"]))
            codes.append(cli.main(["analyze", "--params", str(self.params[i]), "--chip", self.chip,
                                   "--out", str(self.report[i])]))
            codes.append(cli.main(["estimate", "--in", str(self.raw[i]), "--qubit", str(self.estimate_qubit),
                                   "--out", str(self.curve[i])]))
        codes.append(cli.main(["sweep", "--manifest", str(self.manifest), "--parameter", "beta",
                               "--out", str(self.trend)]))
        return codes

    def files(self):
        return {"raw": self.raw, "params": self.params, "report": self.report}

    def check(self, codes):
        out = Outcome(self.ids.size * len(self.times))
        out.require(all(c == cli.EXIT_OK for c in codes), f"exit codes {codes}")
        x = np.log(np.array(self.times))
        truth_means, fit_vars = [], []
        below = 0
        for i, truth in enumerate(self.truths):
            h, samples, counts = read_raw_table(self.raw[i], self.ids)
            with open(self.curve[i], newline="") as fh:
                curve = np.array([float(r["mean"]) for r in csv.DictReader(fh)])
            mean = (samples - 2.0 * counts[self.estimate_qubit]) / samples
            out.require(np.array_equal(curve, mean), f"dataset {i}: estimate curve differs from raw counts")

            ids, fit = read_params_table(self.params[i])
            out.failed_ids |= {(i, q) for q in set(self.ids.tolist()) - set(ids.tolist())}
            fitted = tuple(fit[k] for k in PARAMS)
            truth_i = tuple(v[ids] for v in truth)
            below += int(np.sum(ref.log_likelihood(h, samples, counts[ids], *fitted)
                                < ref.log_likelihood(h, samples, counts[ids], *truth_i)))
            truth_means.append(truth[0].mean())
            fit_vars.append(np.var(fit["beta"] - truth_i[0]) / ids.size)

            split = json.loads(self.report[i].read_text())["orientation_splits"]["beta"]
            out.require(split["horizontal"]["median"] > split["vertical"]["median"],
                        f"dataset {i}: horizontal median beta not above vertical")
        out.counts["below_truth_ll"] = below

        dx = x - x.mean()
        slope_truth = float(np.sum(dx * (np.array(truth_means) - np.mean(truth_means))) / np.sum(dx * dx))
        se = float(math.sqrt(np.sum(dx * dx * np.array(fit_vars))) / np.sum(dx * dx))
        slope = read_trend_slope(self.trend)
        out.require(abs(slope - slope_truth) <= TREND_SIGMAS * se,
                    f"sweep slope {slope:.4f} vs truth {slope_truth:.4f} (se {se:.4f})")
        out.counts["trend_z"] = (slope - slope_truth) / se
        return out


def read_raw_table(path, ids):
    """The benchmark's own parse of a raw CSV: (h, samples, counts[Q, F])."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    col = {int(name[5:]): j for j, name in enumerate(header) if name.startswith("spin_")}
    h = np.array([float(r[0]) for r in body])
    samples = np.array([float(r[1]) for r in body])
    counts = np.array([[float(r[col[int(q)]]) for r in body] for q in ids])
    return h, samples, counts


def read_trend_slope(path):
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if row and row[0] == "trend_c1":
                return float(row[1])
    raise ValueError(f"{path}: no trend_c1 row")


WORKLOADS = {w.name: w for w in (ChipAssess, ChipSimulate, DeskSweep)}


def probe(seed, workdir):
    """A one-cell, two-dataset desk round that reaches every layer; the traced
    run takes from it the figures of layers a workload's pass never calls."""
    return DeskSweep(seed, workdir, grid=1, times=(1.0, 100.0), shots=10_000)
