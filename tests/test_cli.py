import json
import re
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from qasa import __version__
from qasa.analysis import AnalysisError, AnnealSweepPoint
from qasa.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, build_parser, main
from qasa.data_io import read_raw, write_raw
from qasa.estimator import empirical_estimates
from qasa.presets import preset_truth
from qasa.simulator import RawCounts
from qasa.topology import ChimeraSpec


def run(argv):
    return main(argv)


@pytest.fixture(scope="module")
def mini_run(tmp_path_factory):
    """One small simulate->fit pipeline shared by the read-only tests."""
    root = tmp_path_factory.mktemp("mini")
    raw = root / "raw.csv"
    params = root / "params.csv"
    assert run([
        "simulate", "--chip", "chimera:1", "--truth", "preset:median",
        "--samples", "100000", "--seed", "1", "--out", str(raw),
    ]) == EXIT_OK
    assert run(["fit", "--in", str(raw), "--out", str(params)]) == EXIT_OK
    return root, raw, params


class TestHelp:
    def test_subcommands_and_defaults_listed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["simulate", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--chip", "--truth", "--h-min", "--h-max", "--h-step",
                     "--samples", "--seed", "--out"):
            assert flag in out
        assert "5000000" in out and "0.025" in out

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["simulate", "--chip", "chimera:1"])
        assert exc.value.code == EXIT_USAGE

    def test_main_returns_every_exit_code(self, capsys):
        # main raises no SystemExit: it returns what the console script exits with
        assert main(["--version"]) == EXIT_OK
        assert capsys.readouterr().out == f"{__version__}\n"
        assert main(["simulate", "--help"]) == EXIT_OK
        assert "--samples" in capsys.readouterr().out
        assert main(["fit"]) == EXIT_USAGE
        assert "the following arguments are required" in capsys.readouterr().err


class TestManifest:
    COMMANDS = ("simulate", "fit", "estimate", "analyze", "sweep")

    def argv(self, command, raw, params, sets):
        return [command, *{
            "simulate": ["--chip", "chimera:1", "--truth", "preset:median", "--h-step", "0.5",
                         "--samples", "1000", "--seed", "7"],
            "fit": ["--in", str(raw)],
            "estimate": ["--in", str(raw), "--qubit", "0"],
            "analyze": ["--params", str(params), "--chip", "chimera:1"],
            "sweep": ["--manifest", str(sets), "--parameter", "beta"],
        }[command]]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_every_command_writes_its_manifest(self, mini_run, tmp_path, command):
        _, raw, params = mini_run
        sets = tmp_path / "sets.csv"
        sets.write_text(f"anneal_time_us,params_file\n1,{params}\n2,{params}\n")
        argv = self.argv(command, raw, params, sets) + ["--out", str(tmp_path / "out")]
        assert run(argv) == EXIT_OK
        manifest = json.loads((tmp_path / "out.manifest.json").read_text())
        flags = vars(build_parser().parse_args(argv))
        del flags["command"]
        assert manifest.keys() == {"command", "flags", "seed", "tool_version", "duration_s"}
        assert manifest["command"] == command
        assert manifest["flags"] == flags
        assert manifest["seed"] == (7 if command == "simulate" else None)
        assert manifest["tool_version"] == __version__
        assert manifest["duration_s"] >= 0

    @pytest.mark.parametrize("command", COMMANDS)
    def test_data_error_writes_no_manifest(self, tmp_path, capsys, command):
        missing = tmp_path / "missing.csv"
        argv = self.argv(command, missing, missing, missing) + ["--out", str(tmp_path / "out")]
        if command == "simulate":
            argv[argv.index("preset:median")] = str(missing)
        assert run(argv) == EXIT_DATA
        assert capsys.readouterr().err.startswith("qasa: ")
        assert list(tmp_path.iterdir()) == []


class TestSimulate:
    def test_shape_and_manifest(self, mini_run):
        root, raw, _ = mini_run
        lines = raw.read_text().splitlines()
        assert lines[0] == "h,samples" + "".join(f",spin_{q}" for q in range(8))
        assert len(lines) == 82
        manifest = json.loads((root / "raw.csv.manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 1
        assert manifest["tool_version"]
        assert manifest["duration_s"] >= 0

    def test_repeat_is_byte_identical(self, mini_run, tmp_path):
        _, raw, _ = mini_run
        again = tmp_path / "again.csv"
        assert run([
            "simulate", "--chip", "chimera:1", "--truth", "preset:median",
            "--samples", "100000", "--seed", "1", "--out", str(again),
        ]) == EXIT_OK
        assert again.read_bytes() == raw.read_bytes()

    def test_coarse_step_gives_five_fields(self, tmp_path):
        out = tmp_path / "coarse.csv"
        assert run([
            "simulate", "--chip", "chimera:1", "--truth", "preset:median",
            "--h-step", "0.5", "--samples", "1000", "--out", str(out),
        ]) == EXIT_OK
        assert len(out.read_text().splitlines()) == 6

    def test_bad_chip_spec(self, mini_run, tmp_path, capsys):
        _, raw, params = mini_run
        for chip, message in [
            ("pegasus:4", "unsupported chip spec 'pegasus:4', expected chimera:<n>"),
            ("chimera:x", "bad grid size in chip spec 'chimera:x'"),
            ("chimera:0", "grid side must be >= 1, got 0"),
        ]:
            for argv in (
                ["simulate", "--chip", chip, "--truth", "preset:median"],
                ["simulate", "--chip", chip, "--truth", str(params)],
                # the chip is checked before the truth file is read
                ["simulate", "--chip", chip, "--truth", str(tmp_path / "missing.csv")],
                ["fit", "--in", str(raw), "--chip", chip],
                ["analyze", "--params", str(params), "--chip", chip],
            ):
                assert run(argv + ["--out", str(tmp_path / "x.csv")]) == EXIT_DATA
                assert capsys.readouterr().err == f"qasa: {message}\n", argv
        assert list(tmp_path.iterdir()) == []

    def test_truth_coverage_gap(self, tmp_path):
        truth = tmp_path / "truth.csv"
        truth.write_text("qubit_id,beta,b,eta,gamma\n0,10.5,0,0.03,0.02\n")
        out = tmp_path / "x.csv"
        assert run([
            "simulate", "--chip", "chimera:1", "--truth", str(truth),
            "--samples", "1000", "--out", str(out),
        ]) == EXIT_OK  # truth CSV defines the operational set
        assert out.read_text().splitlines()[0] == "h,samples,spin_0"

    def test_truth_file_ids_must_sit_on_the_chip(self, tmp_path, capsys):
        truth = tmp_path / "truth.csv"
        truth.write_text("qubit_id,beta,b,eta,gamma\n0,10.5,0,0.03,0.02\n100,10.5,0,0.03,0.02\n")
        out = tmp_path / "x.csv"
        assert run([
            "simulate", "--chip", "chimera:1", "--truth", str(truth),
            "--samples", "1000", "--out", str(out),
        ]) == EXIT_DATA
        assert capsys.readouterr().err == "qasa: qubit ids out of range [0, 8): [100]\n"
        assert list(tmp_path.iterdir()) == [truth]

    def test_preset_and_a_file_of_its_table_draw_the_same_file(self, tmp_path):
        ids, theta = preset_truth("hv-split", ChimeraSpec(grid=2))
        truth = tmp_path / "truth.csv"
        truth.write_text("qubit_id,beta,b,eta,gamma\n" + "".join(
            f"{q},{','.join(map(repr, row))}\n" for q, row in zip(ids, theta.tolist())))
        drawn = []
        for i, source in enumerate(("preset:hv-split", str(truth))):
            out = tmp_path / f"raw_{i}.csv"
            assert run(["simulate", "--chip", "chimera:2", "--truth", source,
                        "--samples", "1000", "--seed", str(2**64 - 1), "--out", str(out)]) == EXIT_OK
            drawn.append(out.read_bytes())
        assert drawn[0] == drawn[1]

    @pytest.mark.parametrize("flag, value", [
        ("--h-step", "0"), ("--h-step", "nan"), ("--h-max", "inf"), ("--h-min", "-inf"),
    ])
    def test_bad_field_grid_option(self, tmp_path, capsys, flag, value):
        # unchecked, these end in ZeroDivisionError, OverflowError or a
        # NaN-to-integer error instead of a data error
        out = tmp_path / "x.csv"
        assert run([
            "simulate", "--chip", "chimera:1", "--truth", "preset:median",
            "--samples", "1000", f"{flag}={value}", "--out", str(out),
        ]) == EXIT_DATA
        err = capsys.readouterr().err
        name = flag[2:].replace("-", "_")
        assert err.startswith(f"qasa: {name} must be ") and err.endswith(f", got {float(value)!r}\n")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_field_grid_too_long(self, tmp_path, capsys):
        # the grid is counted before it is built, so this returns at once
        out = tmp_path / "x.csv"
        assert run([
            "simulate", "--chip", "chimera:1", "--truth", "preset:median",
            "--samples", "1000", "--h-step=1e-12", "--out", str(out),
        ]) == EXIT_DATA
        assert capsys.readouterr().err == "qasa: field grid of 2e+12 fields is longer than 100000\n"
        assert list(tmp_path.iterdir()) == []

    def test_negative_bound_in_exponent_form(self, tmp_path):
        # argparse takes `--h-min -1e-3` for two options; the `=` form is one
        out = tmp_path / "x.csv"
        assert run([
            "simulate", "--chip", "chimera:1", "--truth", "preset:median",
            "--samples", "1000", "--h-min=-1e-3", "--h-max=1e-3", "--h-step=1e-3", "--out", str(out),
        ]) == EXIT_OK
        assert [line.split(",")[0] for line in out.read_text().splitlines()] == ["h", "-0.001", "0", "0.001"]

    @pytest.mark.parametrize("samples, total", [
        ("200000000000000000", "16200000000000000000"),
        # past int64 itself, where drawing the counts would raise OverflowError
        ("99999999999999999999", "8099999999999999999919"),
    ])
    def test_sample_total_past_int64(self, tmp_path, capsys, samples, total):
        # read_raw refuses such a file, so simulate must not write it
        out = tmp_path / "z.csv"
        assert run([
            "simulate", "--chip", "chimera:1", "--truth", "preset:median",
            "--samples", samples, "--out", str(out),
        ]) == EXIT_DATA
        assert capsys.readouterr().err == (
            f"qasa: {samples} samples at each of 81 fields add up to {total}, past the int64 range\n")
        assert list(tmp_path.iterdir()) == []

    def test_largest_sample_total_is_read_back(self, tmp_path, capsys):
        argv = ["simulate", "--chip", "chimera:1", "--truth", "preset:median", "--h-step", "1"]
        largest = (2**63 - 1) // 3  # three fields: -1, 0 and 1
        out = tmp_path / "z.csv"
        assert run([*argv, "--samples", str(largest), "--out", str(out)]) == EXIT_OK
        counts = read_raw(out)
        assert counts.samples.tolist() == [largest] * 3 and counts.qubit_ids == list(range(8))
        assert run([*argv, "--samples", str(largest + 1), "--out", str(tmp_path / "y.csv")]) == EXIT_DATA
        assert capsys.readouterr().err.endswith(
            f"add up to {3 * largest + 3}, past the int64 range\n")
        assert not (tmp_path / "y.csv").exists()


class TestFit:
    def test_params_written(self, mini_run):
        _, _, params = mini_run
        lines = params.read_text().splitlines()
        assert lines[0].startswith("qubit_id,beta,b,eta,gamma")
        assert len(lines) == 9
        betas = [float(l.split(",")[1]) for l in lines[1:]]
        assert all(abs(b - 10.54) / 10.54 < 0.05 for b in betas)

    def test_single_qubit_selection(self, mini_run, tmp_path):
        _, raw, _ = mini_run
        out = tmp_path / "one.csv"
        assert run(["fit", "--in", str(raw), "--out", str(out), "--qubits", "5"]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].split(",")[0] == "5"

    def test_qubit_subset_keeps_layout(self, tmp_path):
        # on a 3x3-cell chip qubit 16 sits at row 0, col 2; its ids alone
        # would fit a 2x2 grid, where it would land at row 1, col 0
        raw = tmp_path / "raw.csv"
        assert run([
            "simulate", "--chip", "chimera:3", "--truth", "preset:median",
            "--h-step", "0.25", "--samples", "10000", "--seed", "2", "--out", str(raw),
        ]) == EXIT_OK
        full, part = tmp_path / "full.csv", tmp_path / "part.csv"
        assert run(["fit", "--in", str(raw), "--out", str(full)]) == EXIT_OK
        assert run(["fit", "--in", str(raw), "--out", str(part), "--qubits", "16", "3"]) == EXIT_OK
        rows = {line.split(",")[0]: line for line in full.read_text().splitlines()}
        lines = part.read_text().splitlines()
        assert lines == [rows["qubit_id"], rows["3"], rows["16"]]
        assert lines[2].split(",")[9:] == ["0", "2", "0", "vertical"]

    def test_chip_places_a_file_without_its_top_cells(self, tmp_path, capsys):
        # ids below 32 of a 3x3-cell chip would fit a 2x2 grid on their own
        raw = tmp_path / "raw.csv"
        assert run([
            "simulate", "--chip", "chimera:3", "--truth", "preset:median",
            "--h-step", "0.25", "--samples", "10000", "--seed", "2", "--out", str(raw),
        ]) == EXIT_OK
        counts = read_raw(raw)
        cut = tmp_path / "cut.csv"
        write_raw(RawCounts(counts.h, counts.samples,
                            {q: c for q, c in counts.counts.items() if q < 32}), cut)
        full, part, inferred = tmp_path / "full.csv", tmp_path / "part.csv", tmp_path / "inf.csv"
        assert run(["fit", "--in", str(raw), "--out", str(full)]) == EXIT_OK
        assert run(["fit", "--in", str(cut), "--out", str(part), "--chip", "chimera:3"]) == EXIT_OK
        assert run(["fit", "--in", str(cut), "--out", str(inferred)]) == EXIT_OK
        lines = full.read_text().splitlines()[:33]
        assert part.read_text().splitlines() == lines
        assert inferred.read_text().splitlines() != lines

        capsys.readouterr()
        out = tmp_path / "small.csv"
        assert run(["fit", "--in", str(raw), "--out", str(out), "--chip", "chimera:2"]) == EXIT_DATA
        assert "qubit ids out of range [0, 32)" in capsys.readouterr().err
        assert not out.exists()

    def test_no_spin_columns(self, tmp_path, capsys):
        # the fields are checked first, then a sweep with no qubits is a
        # data error too; neither writes a params file or a manifest
        raw = tmp_path / "raw.csv"
        out = tmp_path / "out.csv"
        raw.write_text("h,samples\n-0.5,100\n0.5,100\n")
        assert run(["fit", "--in", str(raw), "--out", str(out)]) == EXIT_DATA
        assert capsys.readouterr().err == \
            "qasa: need >= 8 distinct fields spanning h < 0 and h > 0, got 2 in [-0.5, 0.5]\n"
        raw.write_text("h,samples\n" + "".join(f"{h},100\n" for h in np.linspace(-1, 1, 9)))
        assert run(["fit", "--in", str(raw), "--out", str(out)]) == EXIT_DATA
        assert capsys.readouterr().err == "qasa: no qubits to fit\n"
        assert list(tmp_path.iterdir()) == [raw]

    def test_header_only_input(self, tmp_path, capsys):
        # a sweep too small to fit is one data error, not one per qubit
        raw = tmp_path / "raw.csv"
        raw.write_text("h,samples,spin_0,spin_9\n")
        out = tmp_path / "out.csv"
        assert run(["fit", "--in", str(raw), "--out", str(out)]) == EXIT_DATA
        assert capsys.readouterr().err == \
            "qasa: need >= 8 distinct fields spanning h < 0 and h > 0, got 0\n"
        assert list(tmp_path.iterdir()) == [raw]  # no params file, no manifest

    def test_worker_invariance(self, mini_run, tmp_path):
        _, raw, params = mini_run
        multi = tmp_path / "multi.csv"
        assert run(["fit", "--in", str(raw), "--out", str(multi), "--workers", "4"]) == EXIT_OK
        assert multi.read_bytes() == params.read_bytes()

    def test_strict_failure_exit(self, tmp_path, capsys):
        # --strict is gone: a sweep too small to fit exits 2 without it
        bad = tmp_path / "bad.csv"
        bad.write_text("h,samples,spin_0\n-0.5,100,90\n0.5,100,10\n")
        out = tmp_path / "out.csv"
        assert run(["fit", "--in", str(bad), "--out", str(out), "--strict"]) == EXIT_USAGE
        capsys.readouterr()
        assert run(["fit", "--in", str(bad), "--out", str(out)]) == EXIT_DATA
        assert capsys.readouterr().err == \
            "qasa: need >= 8 distinct fields spanning h < 0 and h > 0, got 2 in [-0.5, 0.5]\n"
        assert list(tmp_path.iterdir()) == [bad]  # no params file, no manifest

    def test_infer_spec_matches_the_grid_search(self):
        from qasa.cli import _infer_spec

        assert _infer_spec([], None, "vertical-low-k").grid == 1
        n = 1
        for top in range(200_001):
            while 8 * n * n <= top:  # the smallest grid whose 8n^2 ids reach top
                n += 1
            assert _infer_spec([top], None, "vertical-low-k").grid == n, top

    def test_huge_qubit_id_places_at_once(self, mini_run, tmp_path):
        # a grid search would step 353553391 times to place this id
        _, raw, _ = mini_run
        counts = read_raw(raw)
        top = 10**18 - 1
        big = tmp_path / "big.csv"
        write_raw(RawCounts(counts.h, counts.samples, {top: counts.counts[0]}), big)
        out = tmp_path / "out.csv"
        started = time.monotonic()
        assert run(["fit", "--in", str(big), "--out", str(out)]) == EXIT_OK
        assert time.monotonic() - started < 2.0
        header, row = (line.split(",") for line in out.read_text().splitlines())
        cells = dict(zip(header, row))
        assert (cells["qubit_id"], cells["row"], cells["col"], cells["k"]) == \
            (str(top), "353553390", "65954509", "7")

    def test_large_chip_builds_no_id_set(self, mini_run, tmp_path):
        # --chip gives the layout's grid; only a preset truth fills every
        # slot, so 8 qubits on chimera:300 (720000 slots) stay small
        _, raw, params = mini_run
        for argv in (
            ["fit", "--in", str(raw), "--chip", "chimera:300"],
            ["simulate", "--chip", "chimera:300", "--truth", str(params),
             "--h-step", "0.5", "--samples", "1000"],
        ):
            tracemalloc.start()
            try:
                assert run(argv + ["--out", str(tmp_path / "out.csv")]) == EXIT_OK
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 10 * 2**20, (argv[0], peak)

    def test_summary_line(self, mini_run, tmp_path, capsys):
        # a dead qubit that always reads +1 fits at the box edge and is flagged
        _, raw, _ = mini_run
        counts = read_raw(raw)
        counts = RawCounts(counts.h, counts.samples, {**counts.counts, 99: np.zeros_like(counts.samples)})
        dead = tmp_path / "dead.csv"
        write_raw(counts, dead)
        capsys.readouterr()
        assert run(["fit", "--in", str(dead), "--out", str(tmp_path / "p.csv")]) == EXIT_OK
        err = capsys.readouterr().err
        assert re.fullmatch(r"qasa fit: 9 fitted, 1 flagged in \d+\.\d\d s\n", err)

        # a sweep too small to fit prints its error and no summary line
        bad = tmp_path / "bad.csv"
        bad.write_text("h,samples,spin_0\n-0.5,100,90\n0.5,100,10\n")
        assert run(["fit", "--in", str(bad), "--out", str(tmp_path / "q.csv")]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("qasa: need >= 8 distinct fields ") and err.count("\n") == 1

    def test_non_finite_field_exit(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("h,samples,spin_0\n-0.5,100,90\nnan,100,50\n0.5,100,10\n")
        out = tmp_path / "out.csv"
        assert run(["fit", "--in", str(bad), "--out", str(out)]) == EXIT_DATA
        assert not out.exists()

    def test_too_long_cell_exit(self, tmp_path, capsys):
        # a cell past csv's field-size limit is a data error with its line
        bad = tmp_path / "bad.csv"
        bad.write_text('h,samples,spin_0\n-0.5,100,90\n0.5,100,"' + "1" * 200_000 + '"\n')
        assert run(["fit", "--in", str(bad), "--out", str(tmp_path / "o.csv")]) == EXIT_DATA
        assert capsys.readouterr().err == f"qasa: {bad}:3: field larger than field limit (131072)\n"
        assert list(tmp_path.iterdir()) == [bad]

    def test_field_past_the_kernel_range_exit(self, tmp_path, capsys):
        rows = "".join(f"{h},100,50\n" for h in (*np.linspace(-1, 1, 9).tolist(), 1e200))
        bad = tmp_path / "bad.csv"
        bad.write_text("h,samples,spin_0\n" + rows)
        assert run(["fit", "--in", str(bad), "--out", str(tmp_path / "o.csv")]) == EXIT_DATA
        assert capsys.readouterr().err == \
            "qasa: field 1e+200 is outside [-1e+100, 1e+100], where the model cannot be evaluated\n"
        assert list(tmp_path.iterdir()) == [bad]

    def test_schema_violation_exit(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("h,samples,spin_0\n0.0,100,101\n")
        assert run(["fit", "--in", str(bad), "--out", str(tmp_path / "o.csv")]) == EXIT_DATA


class TestEstimate:
    def test_curve_columns(self, mini_run, tmp_path):
        _, raw, _ = mini_run
        out = tmp_path / "curve.csv"
        assert run(["estimate", "--in", str(raw), "--qubit", "0", "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "h,mean,h_eff,ci_low,ci_high"
        assert len(lines) == 82
        row0 = lines[1].split(",")
        assert float(row0[3]) <= float(row0[2]) <= float(row0[4])
        # the command and the library share one default coverage
        cells = [line.split(",") for line in lines[1:]]
        for e, row in zip(empirical_estimates(read_raw(raw), 0), cells):
            assert [float(c) for c in row[3:]] == [e.ci_low, e.ci_high]

    def test_unknown_qubit(self, mini_run, tmp_path):
        _, raw, _ = mini_run
        assert run([
            "estimate", "--in", str(raw), "--qubit", "99", "--out", str(tmp_path / "x.csv"),
        ]) == EXIT_DATA


class TestAnalyze:
    def test_report_sections(self, mini_run, tmp_path):
        _, _, params = mini_run
        out = tmp_path / "report.json"
        assert run([
            "analyze", "--params", str(params), "--chip", "chimera:1", "--out", str(out),
        ]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["schema_version"] == 1
        assert abs(report["summaries"]["beta"]["median"] - 10.54) / 10.54 < 0.05
        assert len(report["heatmaps"]["gamma"]) == 8

    def test_short_params_row_exit(self, tmp_path, capsys):
        params = tmp_path / "params.csv"
        params.write_text("qubit_id,beta,b,eta,gamma\n0,10,0.0,0.03\n")
        assert run([
            "analyze", "--params", str(params), "--chip", "chimera:1",
            "--out", str(tmp_path / "x.json"),
        ]) == EXIT_DATA
        assert "params.csv:2: expected 5 cells, got 4" in capsys.readouterr().err

    def test_too_long_params_cell_exit(self, tmp_path, capsys):
        params = tmp_path / "params.csv"
        params.write_text('qubit_id,beta,b,eta,gamma\n0,10,0.0,0.03,0.01\n1,10,0.0,0.03,"'
                          + "1" * 200_000 + '"\n')
        out = tmp_path / "x.json"
        assert run(["analyze", "--params", str(params), "--chip", "chimera:1", "--out", str(out)]) == EXIT_DATA
        assert capsys.readouterr().err == f"qasa: {params}:3: field larger than field limit (131072)\n"
        assert list(tmp_path.iterdir()) == [params]

    def test_one_orientation_only(self, mini_run, tmp_path):
        _, raw, _ = mini_run
        params, out = tmp_path / "p.csv", tmp_path / "r.json"
        assert run(["fit", "--in", str(raw), "--out", str(params), "--qubits", "0", "1", "2", "3"]) == EXIT_OK
        assert run(["analyze", "--params", str(params), "--chip", "chimera:1", "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        for p in ("beta", "b", "eta", "gamma"):
            split = report["orientation_splits"][p]
            assert split["horizontal"] is None
            assert split["vertical"]["count"] == 4
            assert split["vertical"]["median"] == report["summaries"][p]["median"]

    def test_params_topology_mismatch(self, mini_run, tmp_path):
        _, _, params = mini_run
        assert run([
            "analyze", "--params", str(params), "--chip", "chimera:0",
            "--out", str(tmp_path / "x.json"),
        ]) == EXIT_DATA


class TestSweep:
    def write_params_file(self, path, beta):
        rows = ["qubit_id,beta,b,eta,gamma"]
        rows += [f"{q},{beta},0.0025,0.0367,0.0176" for q in range(4)]
        path.write_text("\n".join(rows) + "\n")

    def test_log_trend(self, tmp_path):
        for t, beta in ((1, 10.5), (125, 15.7)):
            self.write_params_file(tmp_path / f"p{t}.csv", beta)
        manifest = tmp_path / "sets.csv"
        manifest.write_text("anneal_time_us,params_file\n1,p1.csv\n125,p125.csv\n")
        out = tmp_path / "trend.csv"
        assert run([
            "sweep", "--manifest", str(manifest), "--parameter", "beta", "--out", str(out),
        ]) == EXIT_OK
        lines = dict(
            line.split(",", 1) for line in out.read_text().splitlines() if line.startswith("trend")
        )
        assert float(lines["trend_c1"]) == pytest.approx(5.2 / np.log(125), abs=1e-12)

    def test_one_cell_row(self, tmp_path, capsys):
        self.write_params_file(tmp_path / "p1.csv", 10.5)
        manifest = tmp_path / "sets.csv"
        manifest.write_text("anneal_time_us,params_file\n1,p1.csv\n1.0\n")
        assert run([
            "sweep", "--manifest", str(manifest), "--parameter", "beta",
            "--out", str(tmp_path / "t.csv"),
        ]) == EXIT_DATA
        assert "sets.csv:3: expected 2 cells, got 1" in capsys.readouterr().err

    def test_cell_past_the_csv_limit(self, tmp_path, capfd):
        manifest = tmp_path / "sets.csv"
        manifest.write_text("anneal_time_us,params_file\n1," + "p" * 200_000 + "\n")
        out = tmp_path / "t.csv"
        assert run([
            "sweep", "--manifest", str(manifest), "--parameter", "beta", "--out", str(out),
        ]) == EXIT_DATA
        err = capfd.readouterr().err
        assert err.startswith("qasa: ") and err.count("\n") == 1
        assert "sets.csv:2: field larger than field limit (131072)" in err
        assert list(tmp_path.iterdir()) == [manifest]

    def test_empty_params_file_cell(self, tmp_path, capsys):
        self.write_params_file(tmp_path / "p1.csv", 10.5)
        manifest = tmp_path / "sets.csv"
        manifest.write_text("anneal_time_us,params_file\n1,p1.csv\n2,\n")
        out = tmp_path / "t.csv"
        assert run([
            "sweep", "--manifest", str(manifest), "--parameter", "beta", "--out", str(out),
        ]) == EXIT_DATA
        assert capsys.readouterr().err == f"qasa: {manifest}:3: empty params_file\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["p1.csv", "sets.csv"]

    def test_missing_params_file_names_its_line(self, tmp_path, capsys):
        self.write_params_file(tmp_path / "p1.csv", 10.5)
        manifest = tmp_path / "sets.csv"
        manifest.write_text("anneal_time_us,params_file\n1,p1.csv\n2,p2.csv\n")
        assert run([
            "sweep", "--manifest", str(manifest), "--parameter", "beta",
            "--out", str(tmp_path / "t.csv"),
        ]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"qasa: {manifest}:3: [Errno 2] No such file or directory")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["p1.csv", "sets.csv"]

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "0", "-2"])
    def test_non_finite_or_nonpositive_time(self, tmp_path, capfd, bad):
        self.write_params_file(tmp_path / "p1.csv", 10.5)
        manifest = tmp_path / "sets.csv"
        manifest.write_text(f"anneal_time_us,params_file\n1,p1.csv\n{bad},p1.csv\n")
        assert run([
            "sweep", "--manifest", str(manifest), "--parameter", "beta",
            "--out", str(tmp_path / "t.csv"),
        ]) == EXIT_DATA
        out, err = capfd.readouterr()
        assert f"sets.csv:3: anneal time must be positive and finite, got '{bad}'" in err
        assert "DLASCL" not in out + err

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0])
    def test_sweep_point_rejects_time(self, bad):
        with pytest.raises(AnalysisError, match="positive and finite"):
            AnnealSweepPoint(bad, {}, {})

    def test_header_only_params_file(self, tmp_path, capfd):
        self.write_params_file(tmp_path / "p1.csv", 10.5)
        (tmp_path / "p2.csv").write_text("qubit_id,beta,b,eta,gamma\n")
        manifest = tmp_path / "sets.csv"
        manifest.write_text("anneal_time_us,params_file\n1,p1.csv\n2,p2.csv\n")
        out = tmp_path / "t.csv"
        assert run([
            "sweep", "--manifest", str(manifest), "--parameter", "beta", "--out", str(out),
        ]) == EXIT_DATA
        assert not out.exists()
        err = capfd.readouterr().err
        assert "sets.csv:3: params file has no fitted qubits" in err
        assert "Warning" not in err

    def test_needs_two_datasets(self, tmp_path, capsys):
        self.write_params_file(tmp_path / "p1.csv", 10.5)
        manifest = tmp_path / "sets.csv"
        out = tmp_path / "t.csv"
        for rows in ("1,p1.csv\n", "1,p1.csv\n1.0,p1.csv\n"):
            manifest.write_text("anneal_time_us,params_file\n" + rows)
            assert run(["sweep", "--manifest", str(manifest), "--parameter", "beta", "--out", str(out)]) == EXIT_DATA
            assert capsys.readouterr().err == "qasa: trend fit needs >= 2 distinct anneal times\n"
            assert not out.exists()


class TestInProcess:
    """`main` parses every call with the one parser it builds on its first
    call; each call must still act as with a freshly built parser."""

    def commands(self, root):
        raw, curve = root / "raw.csv", root / "curve.csv"
        return [
            (["simulate", "--chip", "chimera:1", "--truth", "preset:median", "--h-step", "0.25",
              "--samples", "10000", "--seed", "3", "--out", str(raw)], EXIT_OK),
            (["fit", "--in", str(raw), "--qubits", "1", "2", "--out", str(root / "two.csv")], EXIT_OK),
            (["fit", "--in", str(raw), "--out", str(root / "all.csv")], EXIT_OK),
            (["estimate", "--in", str(raw), "--qubit", "5"], EXIT_USAGE),  # no --out
            (["estimate", "--in", str(raw), "--qubit", "5", "--out", str(curve)], EXIT_OK),
            (["analyze", "--params", str(root / "all.csv"), "--chip", "chimera:1",
              "--out", str(root / "report.json")], EXIT_OK),
        ]

    def run_all(self, root):
        for argv, code in self.commands(root):
            assert main(argv) == code
        outputs = {}
        for path in sorted(root.iterdir()):
            data = path.read_bytes()
            if path.name.endswith(".manifest.json"):
                manifest = json.loads(data)
                del manifest["duration_s"]
                data = manifest
            outputs[path.name] = data
        return outputs

    def test_one_parser_gives_what_fresh_parsers_give(self, tmp_path, monkeypatch, capsys):
        from qasa import cli

        fresh = tmp_path / "fresh"
        fresh.mkdir()
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_parser", build_parser)  # a new parser per call
            expected = self.run_all(fresh)
        reused = tmp_path / "reused"
        reused.mkdir()
        built = mock.Mock(wraps=build_parser)
        monkeypatch.setattr(cli, "build_parser", built)
        cli._parser.cache_clear()
        try:
            got = self.run_all(reused)
        finally:
            cli._parser.cache_clear()
        assert built.call_count == 1
        # paths differ by directory only; the manifests record them
        got = {name: json.loads(json.dumps(v).replace(str(reused), str(fresh)))
               if isinstance(v, dict) else v for name, v in got.items()}
        assert got == expected
        all_rows = (reused / "all.csv").read_text().splitlines()[1:]
        assert [int(row.split(",")[0]) for row in all_rows] == list(range(8))
        # no flag carries over: each manifest holds what a fresh parse gives
        for argv, code in self.commands(reused):
            if code == EXIT_OK:
                flags = vars(build_parser().parse_args(argv))
                del flags["command"]
                out = argv[argv.index("--out") + 1]
                assert json.loads(Path(out + ".manifest.json").read_text())["flags"] == flags

    def test_command_runs_as_the_module_binds_it_now(self, mini_run, tmp_path, monkeypatch):
        from qasa import cli

        _, raw, _ = mini_run
        argv = ["estimate", "--in", str(raw), "--qubit", "0", "--out", str(tmp_path / "c.csv")]
        assert main(argv) == EXIT_OK  # the parser is built by now
        wrapped = mock.Mock(wraps=cli.cmd_estimate)
        monkeypatch.setattr(cli, "cmd_estimate", wrapped)
        assert main(argv) == EXIT_OK
        assert wrapped.call_count == 1


class TestIdsPastInt64:
    # ids from 2**63 up draw their own 64-bit streams and round-trip a raw
    # file, but a fit's id column is int64

    BIG = 2**63

    def test_params_id_names_its_line(self, tmp_path, capsys):
        params = tmp_path / "big.csv"
        params.write_text(f"qubit_id,beta,b,eta,gamma\n0,10.5,0,0.03,0.02\n{self.BIG},10.5,0,0.03,0.02\n")
        sets = tmp_path / "sets.csv"
        sets.write_text("anneal_time_us,params_file\n1,big.csv\n2,big.csv\n")
        for argv in (
            ["analyze", "--params", str(params), "--chip", "chimera:1"],
            ["simulate", "--chip", "chimera:1", "--truth", str(params)],
            ["sweep", "--manifest", str(sets), "--parameter", "beta"],
        ):
            assert run(argv + ["--out", str(tmp_path / "out")]) == EXIT_DATA
            assert capsys.readouterr().err == f"qasa: {params}:3: qubit id {self.BIG} past the int64 range\n"
        assert sorted(tmp_path.iterdir()) == [params, sets]

    def raw_file(self, path, q):
        path.write_text(f"h,samples,spin_0,spin_{q}\n" + "".join(f"{h},100,50,40\n" for h in np.linspace(-1, 1, 9)))
        return path

    def test_raw_column_id_is_no_fit(self, tmp_path, capsys):
        raw = self.raw_file(tmp_path / "raw.csv", self.BIG)
        assert run(["fit", "--in", str(raw), "--out", str(tmp_path / "p.csv")]) == EXIT_DATA
        assert capsys.readouterr().err == f"qasa: qubit id {self.BIG} past the int64 range of a fit\n"
        assert list(tmp_path.iterdir()) == [raw]

    def test_raw_column_id_reads_and_estimates(self, tmp_path):
        q = 2**64 - 1
        raw = self.raw_file(tmp_path / "raw.csv", q)
        assert read_raw(raw).qubit_ids == [0, q]
        out = tmp_path / "curve.csv"
        assert run(["estimate", "--in", str(raw), "--qubit", str(q), "--out", str(out)]) == EXIT_OK
        assert len(out.read_text().splitlines()) == 10
