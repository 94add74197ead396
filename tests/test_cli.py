"""Command-line interface: dispatch, file formats, exit codes, manifests."""

import json
import math
import re
import subprocess
import shutil

import pytest
from pytest import approx

from atomprep import __version__, cli

FLOAT_CELL = re.compile(r"^-?\d\.\d{11}e[+-]\d{2,}$")


def read_csv(path):
    lines = path.read_text().splitlines()
    header = [ln for ln in lines if ln.startswith("#")]
    data = [ln.split(",") for ln in lines if not ln.startswith("#")]
    return header, data


def manifest_for(path):
    return json.loads(
        path.with_name(path.stem + ".manifest.json").read_text()
    )


class TestDispatch:
    def test_no_arguments_prints_usage(self, capsys):
        assert cli.run([]) == 64
        err = capsys.readouterr().err
        assert "usage: atomprep" in err
        assert "spectrum" in err

    def test_help_flag(self, capsys):
        assert cli.run(["-h"]) == 0
        assert "subcommands:" in capsys.readouterr().out

    def test_unknown_subcommand(self, capsys):
        assert cli.run(["frobnicate"]) == 64
        assert "frobnicate" in capsys.readouterr().err

    def test_subcommand_help(self, capsys):
        assert cli.run(["spectrum", "--help"]) == 0
        assert "--emin" in capsys.readouterr().out

    def test_unknown_flag(self, capsys):
        assert cli.run(["spectrum", "--bogus", "1"]) == 2


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    path = tmp_path_factory.mktemp("spectrum") / "spec.csv"
    code = cli.run(["spectrum", "--z", "4.4", "--f", "0.5",
                    "--emin", "0.05", "--emax", "1.5", "--plot",
                    "--out", str(path)])
    assert code == 0
    return path


class TestSpectrumCommand:
    def test_csv_layout(self, out):
        header, data = read_csv(out)
        assert len(header) == 1
        assert header[0].startswith("# energy")
        assert "phase" in header[0]
        assert len(data) >= 300
        assert all(len(row) == 3 for row in data)

    def test_fixed_float_format(self, out):
        _, data = read_csv(out)
        for row in data[:25] + data[-25:]:
            for cell in row:
                assert FLOAT_CELL.match(cell), cell

    def test_manifest_reports_two_resolved_peaks(self, out):
        man = manifest_for(out)
        peaks = man["results"]["peaks"]
        assert len(peaks) == 2
        assert all(p["resolved"] for p in peaks)
        assert peaks[0]["center"] == approx(0.3655, abs=2e-3)
        assert peaks[1]["center"] == approx(1.299, abs=5e-3)

    def test_manifest_structure(self, out):
        man = manifest_for(out)
        assert man["subcommand"] == "spectrum"
        assert man["outputs"] == [str(out)]
        assert man["versions"]["atomprep"] == __version__
        for lib in ("python", "numpy", "scipy"):
            assert lib in man["versions"]
        assert "out_given" not in man["inputs"]
        assert man["inputs"]["z"] == "4.4"
        assert man["inputs"]["plot"] is True

    def test_plot_script_references_data_file(self, out):
        script = out.with_name("spec.gp").read_text()
        assert f'"{out.name}"' in script
        assert script.count("set arrow") == 2

    def test_rerun_is_byte_identical(self, out, tmp_path):
        twin = tmp_path / "spec.csv"
        assert cli.run(["spectrum", "--z", "4.4", "--f", "0.5",
                        "--emin", "0.05", "--emax", "1.5", "--plot",
                        "--out", str(twin)]) == 0
        assert twin.read_bytes() == out.read_bytes()
        a, b = manifest_for(out), manifest_for(twin)
        for volatile in ("started_at", "wall_seconds", "outputs"):
            a.pop(volatile), b.pop(volatile)
        assert a == b

    def test_invalid_window_exits_2(self, capsys, tmp_path):
        code = cli.run(["spectrum", "--z", "4.4", "--f", "0.5",
                        "--emin", "0.5", "--emax", "0.1",
                        "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


class TestResonancesCommand:
    def test_fitted_table(self, tmp_path):
        out = tmp_path / "res.csv"
        assert cli.run(["resonances", "--z", "4.4", "--f", "0.5",
                        "--emin", "0.05", "--emax", "1.5",
                        "--out", str(out)]) == 0
        _, data = read_csv(out)
        assert len(data) == 2
        assert all(len(row) == 6 for row in data)
        e0, gamma, tau = (float(v) for v in data[0][:3])
        assert e0 == approx(0.365524, rel=1e-4)
        assert gamma == approx(1.63634e-3, rel=1e-4)
        assert tau == approx(1.0 / gamma, rel=1e-9)
        gamma_phase = float(data[0][3])
        assert gamma_phase == approx(gamma, rel=2e-2)


class TestSurvivalCommand:
    def test_ground_state_table(self, tmp_path):
        out = tmp_path / "surv.csv"
        assert cli.run(["survival", "--z", "4.4", "--f", "0.5",
                        "--peak", "0", "--tmax", "300", "--points", "6",
                        "--out", str(out)]) == 0
        _, data = read_csv(out)
        assert len(data) == 6
        rows = [[float(v) for v in row] for row in data]
        assert rows[0][1] == approx(1.0, rel=1e-12)
        assert rows[0][2] == approx(1.0, abs=1e-3)
        man = manifest_for(out)
        gamma = man["results"]["gamma"]
        assert man["results"]["tau"] == approx(1.0 / gamma, rel=1e-9)
        assert man["results"]["tmax"] == 300.0
        for t, s_exp, s_spec in rows:
            assert s_exp == approx(math.exp(-gamma * t), rel=1e-9)
            assert s_spec == approx(s_exp, rel=1e-2)

    def test_broad_peak_fourier_window_out_of_domain(self, capsys, tmp_path):
        # the excited width is so large that any admissible Fourier window
        # around its line leaves the usable energy range
        out = tmp_path / "surv.csv"
        code = cli.run(["survival", "--z", "4.4", "--f", "0.5",
                        "--peak", "1", "--tmax", "10", "--points", "4",
                        "--out", str(out)])
        assert code == 2
        assert "usable range" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("points", ["0", "-1"])
    def test_points_below_one_exits_2(self, capsys, tmp_path, points):
        out = tmp_path / "surv.csv"
        assert cli.run(["survival", "--z", "4.4", "--f", "0.5",
                        "--points", points, "--out", str(out)]) == 2
        assert "--points" in capsys.readouterr().err
        assert not out.exists()

    def test_unresolved_width_exits_3(self, capsys, tmp_path):
        code = cli.run(["survival", "--z", "6.0", "--f", "0.3",
                        "--peak", "0", "--points", "4",
                        "--out", str(tmp_path / "surv.csv")])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err


class TestFidelityMapCommand:
    ARGS = ["fidelity-map", "--zmin", "4", "--zmax", "5.2",
            "--fmin", "0.3", "--fmax", "0.7", "--nz", "2", "--nf", "2"]

    def test_csv_rows_and_statuses(self, tmp_path):
        out = tmp_path / "map.csv"
        assert cli.run(self.ARGS + ["--out", str(out)]) == 0
        header, data = read_csv(out)
        assert header[0].startswith("# z [x0]")
        assert len(data) == 4
        assert all(len(row) == 8 for row in data)
        status = {(row[0], row[1]): row[7] for row in data}
        assert status[("4.00000000000e+00", "3.00000000000e-01")] == "out-of-range"
        assert status[("5.20000000000e+00", "3.00000000000e-01")] == "ok"
        shallow = data[0]
        assert all(cell == "nan" for cell in shallow[2:7])
        deep = next(r for r in data if r[7] == "ok" and r[1].startswith("3"))
        assert float(deep[6]) == approx(-5.078011, rel=1e-5)

    def test_worker_count_is_invisible_in_output(self, tmp_path):
        serial = tmp_path / "serial.csv"
        pooled = tmp_path / "pooled.csv"
        assert cli.run(self.ARGS + ["--workers", "1", "--out", str(serial)]) == 0
        assert cli.run(self.ARGS + ["--workers", "2", "--out", str(pooled)]) == 0
        assert serial.read_bytes() == pooled.read_bytes()

    def test_json_format_switches_default_name(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.run(["fidelity-map", "--zmin", "4.6", "--zmax", "4.8",
                        "--fmin", "0.45", "--fmax", "0.5", "--nz", "2",
                        "--nf", "1", "--format", "json"]) == 0
        doc = json.loads((tmp_path / "fidelity_map.json").read_text())
        assert sorted(doc.keys()) == ["cells", "f_grid", "residual_target",
                                      "z_grid"]
        assert len(doc["cells"]) == 2
        assert all(c["status"] == "ok" for c in doc["cells"])

    def test_missing_required_flag_exits_2(self, capsys):
        assert cli.run(["fidelity-map"]) == 2
        assert "missing required parameter" in capsys.readouterr().err

    def test_reversed_range_exits_2(self, capsys, tmp_path):
        out = tmp_path / "map.csv"
        assert cli.run(["fidelity-map", "--zmin", "3.5", "--zmax", "3",
                        "--fmin", "0.5", "--fmax", "0.3", "--nz", "2", "--nf", "2",
                        "--out", str(out)]) == 2
        assert "low to high" in capsys.readouterr().err
        assert not out.exists()


class TestDfgCommand:
    def test_stdout_only_without_out(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.run(["dfg-estimates"]) == 0
        out = capsys.readouterr().out
        assert "pairing_gap" in out
        assert out.count("note:") == 2
        assert list(tmp_path.iterdir()) == []

    def test_json_document(self, tmp_path):
        out = tmp_path / "dfg.json"
        assert cli.run(["dfg-estimates", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["kf_a"] == -0.3
        assert doc["pairing_gap"] == approx(2.6607827394e-3, rel=1e-9)
        assert doc["bcs_ground_occupation"] == approx(1.0 - 1.77e-6, abs=1e-8)
        assert doc["thermal_ground_occupation"] == approx(1.0 - 4.54e-5,
                                                          abs=1e-7)
        assert len(doc["notes"]) == 2
        assert manifest_for(out)["subcommand"] == "dfg-estimates"


class TestSplitGapCommand:
    def test_small_survey(self, tmp_path):
        out = tmp_path / "sg.csv"
        assert cli.run(["split-gap", "--dmin", "0", "--dmax", "1",
                        "--nd", "3", "--fmin", "0.1", "--fmax", "0.12",
                        "--nf", "2", "--spacing", "0.02",
                        "--out", str(out)]) == 0
        header, data = read_csv(out)
        assert "gap" in header[0]
        assert len(data) == 6
        assert all(len(row) == 6 for row in data)
        merged = [[float(v) for v in row] for row in data]
        for row in merged[:2]:  # d = 0 rows keep the harmonic spacing
            assert row[4] == approx(1.0, abs=1e-4)
        gaps_at_f01 = [row[4] for row in merged if row[1] == approx(0.1)]
        assert all(a > b for a, b in zip(gaps_at_f01, gaps_at_f01[1:]))
        assert manifest_for(out)["inputs"]["plot"] is False

    def test_zero_spacing_exits_2(self, capsys, tmp_path):
        # the first cell raises; no table of unsolved cells is written
        out = tmp_path / "sg.csv"
        assert cli.run(["split-gap", "--spacing", "0", "--out", str(out)]) == 2
        assert "spacing" in capsys.readouterr().err
        assert not out.exists()


class TestSplitFidelityCommand:
    def test_sudden_quench_document(self, tmp_path):
        out = tmp_path / "sf.json"
        assert cli.run(["split-fidelity", "--sudden", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["sudden"] is True
        assert doc["fidelity"] == approx(0.0575812, rel=1e-5)
        assert doc["fidelity"] < 0.9
        assert doc["d_target"] == 4.82
        assert doc["bottleneck_gap"] == approx(0.456831, rel=1e-5)
        assert doc["bottleneck_gap"] >= doc["min_gap"]
        assert doc["path_nodes"] == 27

    def test_time_step_above_max_dt_exits_2(self, capsys, tmp_path):
        out = tmp_path / "sf.json"
        assert cli.run(["split-fidelity", "--sudden", "--dt", "0.05", "--out", str(out)]) == 2
        assert "dt must be in" in capsys.readouterr().err
        assert not out.exists()

    def test_bias_outside_survey_exits_2(self, capsys, tmp_path):
        # the default survey spans tilts 0.08-0.16
        out = tmp_path / "sf.json"
        assert cli.run(["split-fidelity", "--f-bias", "0.5", "--duration", "40",
                        "--dt", "0.02", "--out", str(out)]) == 2
        assert "bias 0.5" in capsys.readouterr().err
        assert not out.exists()


class TestUnitsConvertCommand:
    def test_reference_conversions(self, tmp_path):
        out = tmp_path / "uc.json"
        assert cli.run(["units-convert", "--omega-hz", "1000",
                        "--mass", "li6", "--length-um", "8.8",
                        "--time-ms", "218", "--gradient-gcm", "0.66",
                        "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["length_dimensionless"] == approx(6.79, abs=0.01)
        assert doc["time_dimensionless"] == approx(1370.0, rel=3e-3)
        assert doc["force_dimensionless"] == approx(0.119745, rel=1e-5)
        assert doc["oscillator_length_m"] == approx(1.2963e-6, rel=1e-4)

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"omega-hz": 500, "length-um": 8.8}))
        out = tmp_path / "uc.json"
        assert cli.run(["units-convert", "--config", str(cfg),
                        "--omega-hz", "1000", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        # the flag outranks the config value, the config fills the rest
        assert doc["omega_rad_per_s"] == approx(2 * math.pi * 1000.0)
        assert doc["length_dimensionless"] == approx(6.7886, rel=1e-4)
        inputs = manifest_for(out)["inputs"]
        assert inputs["omega_hz"] == "1000"
        assert inputs["length_um"] == 8.8

    def test_validation_exits_2(self, capsys, tmp_path):
        assert cli.run(["units-convert"]) == 2
        assert cli.run(["units-convert", "--omega-hz", "abc"]) == 2
        assert cli.run(["units-convert", "--omega-hz", "10",
                        "--config", str(tmp_path / "missing.json")]) == 2
        assert "cannot read config file" in capsys.readouterr().err


class TestConfigKeys:
    def test_format_key_is_read(self, tmp_path, monkeypatch):
        # every cell of this grid is out of range, so nothing is scanned
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({"format": "json"}))
        assert cli.run(["fidelity-map", "--zmin", "3", "--zmax", "3.5",
                        "--fmin", "0.3", "--fmax", "0.5", "--nz", "2",
                        "--nf", "2", "--config", "cfg.json"]) == 0
        doc = json.loads((tmp_path / "fidelity_map.json").read_text())
        assert [c["status"] for c in doc["cells"]] == ["out-of-range"] * 4

    def test_format_key_outside_fidelity_map_exits_2(self, capsys, tmp_path,
                                                     monkeypatch):
        # split-gap writes only CSV, so it does not take a format
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({"format": "json"}))
        assert cli.run(["split-gap", "--config", "cfg.json"]) == 2
        assert "format" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]

    @pytest.mark.parametrize("argv", [
        ["split-gap", "--format", "json"],
        ["resonances", "--z", "4.4", "--f", "0.5", "--emin", "0.05",
         "--emax", "1.5", "--plot"],
        ["survival", "--z", "4.4", "--f", "0.5", "--format", "csv"],
        ["split-fidelity", "--dmin", "0.5"],
        ["units-convert", "--omega-hz", "1000", "--plot"],
        # the gnuplot script reads only the CSV table
        ["fidelity-map", "--zmin", "3", "--zmax", "3.5", "--fmin", "0.3",
         "--fmax", "0.5", "--nz", "2", "--nf", "2", "--format", "json", "--plot"],
    ])
    def test_dropped_flags_exit_2(self, tmp_path, monkeypatch, argv):
        # only the subcommands that honour --format or --plot take them
        monkeypatch.chdir(tmp_path)
        assert cli.run(argv) == 2
        assert list(tmp_path.iterdir()) == []

    def test_undeclared_key_exits_2(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({"kfa": -0.2,
                                                       "bogus_key": 1}))
        assert cli.run(["dfg-estimates", "--config", "cfg.json",
                        "--out", "dfg.json"]) == 2
        assert "bogus_key" in capsys.readouterr().err
        assert not (tmp_path / "dfg.json").exists()

    def test_switch_takes_only_a_json_boolean(self, capsys, tmp_path, monkeypatch):
        # the string "false" must not run the sudden quench
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({"sudden": "false"}))
        assert cli.run(["split-fidelity", "--config", "cfg.json",
                        "--out", "sf.json"]) == 2
        assert "sudden" in capsys.readouterr().err
        assert not (tmp_path / "sf.json").exists()

    def test_number_rejects_a_json_boolean(self, capsys, tmp_path, monkeypatch):
        # true must not be read as 1 grid point
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({"nz": True}))
        assert cli.run(["fidelity-map", "--zmin", "3", "--zmax", "3.5",
                        "--fmin", "0.3", "--fmax", "0.5", "--nf", "2",
                        "--config", "cfg.json"]) == 2
        assert "nz" in capsys.readouterr().err
        assert not (tmp_path / "fidelity_map.csv").exists()


    def test_out_must_be_a_path_string(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({"out": 5}))
        assert cli.run(["dfg-estimates", "--config", "cfg.json"]) == 2
        assert "parameter out" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]

    @pytest.mark.parametrize("out", ["missing/dfg.json", "."])
    def test_out_needs_an_existing_directory(self, capsys, tmp_path, monkeypatch, out):
        # checked before any computation: dfg-estimates prints no result
        monkeypatch.chdir(tmp_path)
        assert cli.run(["dfg-estimates", "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "existing directory" in captured.err
        assert list(tmp_path.iterdir()) == []


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        exe = shutil.which("atomprep")
        assert exe is not None
        proc = subprocess.run(
            [exe, "units-convert", "--omega-hz", "1000"],
            capture_output=True, text=True, cwd=tmp_path,
        )
        assert proc.returncode == 0
        assert "oscillator length" in proc.stdout
