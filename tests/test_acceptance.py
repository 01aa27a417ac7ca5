"""End-to-end acceptance checks A1-A10.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of a failure).  Tolerances are fixed here and must not be
loosened to make a run green.
"""

import json
import time

import numpy as np

from qasa import (
    QubitParams,
    SweepDesign,
    build_report,
    density_matrix_expectation,
    effective_field,
    empirical_estimates,
    field_grid,
    fit_chip,
    fit_log_trend,
    read_params,
    read_raw,
    simulate_chip,
    spin_expectation,
    write_raw,
)
from qasa.analysis import AnnealSweepPoint
from qasa.cli import EXIT_OK, main
from qasa.data_io import raw_to_bytes
from qasa.model import _theta
from qasa.presets import preset_truth
from qasa.simulator import RawCounts, _p_minus
from qasa.topology import ChimeraSpec

FIG1_PARAMS = QubitParams(beta=11.18, b=0.0046, eta=0.0514, gamma=0.0196)


def report(name, ok, detail=""):
    print(f"{name}: {'PASS' if ok else 'FAIL'}{'  (' + detail + ')' if detail else ''}")
    assert ok, f"{name} failed: {detail}"


def single_qubit_counts(p, m, seed, qubit=0):
    """A chip of one qubit, id `qubit`, of parameters p."""
    d = SweepDesign(fields=field_grid(), samples_per_field=m, seed=seed)
    return simulate_chip(([qubit], [p.astuple()]), d)


def test_a1_oracle_equivalence():
    rng = np.random.default_rng(2032)
    start = time.monotonic()
    worst = 0.0
    for _ in range(1000):
        p = QubitParams(
            rng.uniform(1, 20), rng.uniform(-0.05, 0.05), rng.uniform(0, 0.1), rng.uniform(0, 0.05)
        )
        h = rng.uniform(-1, 1)
        worst = max(worst, abs(spin_expectation(h, p) - density_matrix_expectation(h, p)))
    elapsed = time.monotonic() - start
    report("A1 oracle equivalence", worst <= 1e-12 and elapsed < 1.0,
           f"worst |diff|={worst:.2e}, {elapsed:.2f}s")


def test_a2_paper_scale_round_trip():
    start = time.monotonic()
    counts = single_qubit_counts(FIG1_PARAMS, 5_000_000, seed=0, qubit=305)
    fit, _ = fit_chip(counts)
    elapsed = time.monotonic() - start
    p = QubitParams(*fit.theta[0])
    ok = (
        fit.converged[0] == 1
        and abs(p.beta - 11.18) / 11.18 <= 0.02
        and abs(p.b - 0.0046) <= 0.002
        and abs(p.eta - 0.0514) <= 0.005
        and abs(p.gamma - 0.0196) <= 0.003
        and elapsed < 60.0
    )
    report("A2 paper-scale single-qubit round trip", ok,
           f"beta={p.beta:.4f} b={p.b:.5f} eta={p.eta:.5f} "
           f"gamma={p.gamma:.5f}, {elapsed:.1f}s")


def test_a3_desk_scale_chip_pipeline(tmp_path):
    start = time.monotonic()
    raw = tmp_path / "raw.csv"
    params = tmp_path / "params.csv"
    out = tmp_path / "report.json"
    assert main(["simulate", "--chip", "chimera:2", "--truth", "preset:median",
                 "--samples", "100000", "--seed", "0", "--out", str(raw)]) == EXIT_OK
    assert main(["fit", "--in", str(raw), "--out", str(params), "--workers", "4"]) == EXIT_OK
    assert main(["analyze", "--params", str(params), "--chip", "chimera:2",
                 "--out", str(out)]) == EXIT_OK
    elapsed = time.monotonic() - start
    fitted = read_params(params)
    median = json.loads(out.read_text())["summaries"]["beta"]["median"]
    ok = (
        len(fitted) == 32
        and np.all(fitted.converged == 1)
        and abs(median - 10.54) / 10.54 <= 0.05
        and elapsed < 120.0
    )
    report("A3 desk-scale chip round trip", ok, f"median beta={median:.3f}, {elapsed:.1f}s")


def test_a4_hv_split_detection():
    start = time.monotonic()
    spec = ChimeraSpec(grid=4)
    truth = preset_truth("hv-split", spec)
    targets = {"beta": 10.76 - 10.37, "gamma": 0.0187 - 0.0165}
    wins = 0
    for seed in range(20):
        d = SweepDesign(fields=field_grid(), samples_per_field=1_000_000, seed=seed)
        counts = simulate_chip(truth, d)
        results, failures = fit_chip(counts)
        assert not failures
        ok = True
        splits = build_report(results, spec)["orientation_splits"]
        for name, target in targets.items():
            diff = splits[name]["horizontal"]["median"] - splits[name]["vertical"]["median"]
            ok &= diff > 0 and abs(diff - target) / target <= 0.5
        wins += int(ok)
    elapsed = time.monotonic() - start
    report("A4 H/V split detection", wins >= 19 and elapsed < 600.0,
           f"{wins}/20 seeds, {elapsed:.0f}s")


def test_a5_misalignment_rate():
    # the simulator's own -1 rate at h_eff = 5: a classical qubit of
    # beta 5 at h = 1, whose rate is (1 - tanh 5)/2
    theta = _theta(QubitParams(beta=5.0, b=0.0, eta=0.0, gamma=0.0))
    p_minus = float(_p_minus(theta, SweepDesign((1.0,), 1))[0, 0])
    ok = abs(p_minus - 1.0 / 22026) / (1.0 / 22026) <= 0.01
    report("A5 misalignment rate at h_eff=5", ok, f"p_minus={p_minus:.3e}")


def test_a6_classical_limit():
    h = np.array(field_grid())
    worst = 0.0
    for beta in (1.0, 10.0, 100.0):
        p = QubitParams(beta, 0, 0, 0)
        worst = max(worst, float(np.max(np.abs(effective_field(h, p) - beta * h))))
    report("A6 classical limit", worst <= 1e-12, f"worst |h_eff - beta*h|={worst:.2e}")


def test_a7_ci_coverage():
    start = time.monotonic()
    m = 100_000
    true_he = np.array([0.0, 1.0, 2.0])
    p_minus = 1.0 / (1.0 + np.exp(2.0 * true_he))
    rng = np.random.default_rng(997)
    n_rep = 10_000
    draws = rng.binomial(m, p_minus, size=(n_rep, 3))
    covered = np.zeros(3, dtype=int)
    h = np.array([0.1, 0.2, 0.3])
    samples = np.full(3, m, dtype=np.int64)
    for rep in range(n_rep):
        counts = RawCounts(h=h, samples=samples, counts={0: draws[rep]})
        ests = empirical_estimates(counts, 0, confidence=0.9973)
        for j, e in enumerate(ests):
            covered[j] += int(e.ci_low <= true_he[j] <= e.ci_high)
    rates = covered / n_rep
    elapsed = time.monotonic() - start
    ok = bool(np.all((rates >= 0.99) & (rates <= 1.0))) and elapsed < 60.0
    report("A7 CI coverage", ok, f"rates={np.round(rates, 4).tolist()}, {elapsed:.0f}s")


def test_a8_trend_fit():
    points = [
        AnnealSweepPoint(1.0, {"beta": 10.5}, {"beta": 0.0}),
        AnnealSweepPoint(125.0, {"beta": 15.7}, {"beta": 0.0}),
    ]
    fit = fit_log_trend(points, "beta")
    err = abs(fit.c1 - 5.2 / np.log(125.0))
    report("A8 log trend on endpoint pair", err <= 1e-12, f"|c1 err|={err:.2e}")


def test_a9_format_fidelity(tmp_path):
    start = time.monotonic()
    rng = np.random.default_rng(9)
    grid = np.round(np.arange(-1, 1.025, 0.025), 3)
    ok = True
    for i in range(100):
        n_fields = int(rng.integers(8, 40))
        h = np.sort(rng.choice(grid, n_fields, replace=False))
        samples = rng.integers(1, 10**6, n_fields)
        ids = sorted(rng.choice(2048, int(rng.integers(1, 8)), replace=False).tolist())
        counts = {q: rng.integers(0, samples + 1) for q in ids}
        if ids and i % 4 == 0:  # degenerate all-aligned rows
            counts[ids[0]][0] = 0
            counts[ids[0]][-1] = samples[-1]
        rc = RawCounts(h=h, samples=samples, counts=counts)
        path = tmp_path / f"f{i}.csv"
        write_raw(rc, path)
        again = read_raw(path)
        ok &= raw_to_bytes(again) == path.read_bytes()
        # duplicate-h variant: canonicalization must be a fixed point
        dup = tmp_path / f"d{i}.csv"
        text = path.read_text().splitlines()
        dup.write_text("\n".join([text[0], text[1], text[1]] + text[2:]) + "\n")
        once = raw_to_bytes(read_raw(dup))
        dup.write_bytes(once)
        ok &= raw_to_bytes(read_raw(dup)) == once
    elapsed = time.monotonic() - start
    report("A9 format fidelity", ok and elapsed < 60.0, f"100 files, {elapsed:.0f}s")


def test_a10_full_scale_throughput(tmp_path):
    start = time.monotonic()
    dead = sorted(np.random.default_rng(16).choice(2048, 16, replace=False).tolist())
    truth = tmp_path / "truth.csv"
    rows = ["qubit_id,beta,b,eta,gamma"]
    rows += [f"{q},10.54,0.0025,0.0367,0.0176" for q in range(2048) if q not in dead]
    truth.write_text("\n".join(rows) + "\n")
    raw = tmp_path / "raw.csv"
    assert main(["simulate", "--chip", "chimera:16", "--truth", str(truth),
                 "--samples", "5000000", "--seed", "0", "--out", str(raw)]) == EXIT_OK
    p1, p8 = tmp_path / "w1.csv", tmp_path / "w8.csv"
    assert main(["fit", "--in", str(raw), "--out", str(p1), "--workers", "1"]) == EXIT_OK
    assert main(["fit", "--in", str(raw), "--out", str(p8), "--workers", "8"]) == EXIT_OK
    elapsed = time.monotonic() - start
    fitted = read_params(p1)
    ok = (
        len(fitted) == 2032
        and p1.read_bytes() == p8.read_bytes()
        and elapsed < 1800.0
    )
    report("A10 full-scale throughput", ok, f"2032 qubits, {elapsed:.0f}s")
