import json
import re

import numpy as np
import pytest

from qasa import __version__
from qasa.analysis import AnalysisError, AnnealSweepPoint
from qasa.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, build_parser, main
from qasa.data_io import read_raw, write_raw
from qasa.estimator import empirical_estimates
from qasa.simulator import RawCounts


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
        del flags["func"], flags["command"]
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

    def test_bad_chip_spec(self, tmp_path):
        assert run([
            "simulate", "--chip", "pegasus:4", "--truth", "preset:median",
            "--out", str(tmp_path / "x.csv"),
        ]) == EXIT_DATA

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
        raw = tmp_path / "raw.csv"
        raw.write_text("h,samples\n-0.5,100\n0.5,100\n")
        out = tmp_path / "out.csv"
        assert run(["fit", "--in", str(raw), "--out", str(out)]) == EXIT_OK
        assert out.read_text().splitlines() == [
            "qubit_id,beta,b,eta,gamma,log_likelihood,n_points,total_samples,converged,"
            "row,col,k,orientation"
        ]
        assert "qasa fit: 0 fitted, 0 flagged in " in capsys.readouterr().err

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
        with pytest.raises(SystemExit) as exc:
            run(["fit", "--in", str(bad), "--out", str(out), "--strict"])
        assert exc.value.code == EXIT_USAGE
        capsys.readouterr()
        assert run(["fit", "--in", str(bad), "--out", str(out)]) == EXIT_DATA
        assert capsys.readouterr().err == \
            "qasa: need >= 8 distinct fields spanning h < 0 and h > 0, got 2 in [-0.5, 0.5]\n"
        assert list(tmp_path.iterdir()) == [bad]  # no params file, no manifest

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
