"""End-to-end command driver tests (in-process main())."""

import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from enclosure2d.cli import build_parser, main

from conftest import SQUARE_VERTS


def scene_dict(**overrides):
    data = {
        "obstacles": [[list(map(float, v)) for v in SQUARE_VERTS]],
        "center": [0.0, 0.0],
        "R": 2.0,
        "R1": 6.0,
        "source": [6.0, 0.0],
        "k": 2.0,
    }
    data.update(overrides)
    return data


@pytest.fixture
def scene_file(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene_dict()))
    return path


class TestSolve:
    def test_writes_trace(self, scene_file, tmp_path):
        out = tmp_path / "out"
        assert main(["solve", "--scene", str(scene_file), "--out", str(out)]) == 0
        lines = (out / "trace.csv").read_text().strip().splitlines()
        data_rows = [l for l in lines if not l.startswith("#")]
        assert len(data_rows) == 1 + 512  # header + one row per trace node
        solver = json.loads((out / "solver.json").read_text())
        assert solver["neumann_route_max_rel_diff"] < 1e-4
        assert solver["condition_1_1_holds"] is True

    def test_deterministic_output(self, scene_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        # identical configuration must give byte-identical artifacts
        common = ["solve", "--scene", str(scene_file)]
        assert main(common + ["--out", str(out1)]) == 0
        assert main(common + ["--out", str(out2)]) == 0
        a = (out1 / "trace.csv").read_bytes()
        b = (out2 / "trace.csv").read_bytes()
        assert a == b

    def test_source_off_outer_circle_rejected(self, tmp_path, capsys):
        # the source must sit on the outer circle, which also keeps it off
        # the measurement circle
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(scene_dict(source=[2.0, 0.0])))
        code = main(["solve", "--scene", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error[config]" in capsys.readouterr().err


class TestConfigErrors:
    def test_malformed_json_reports_line(self, tmp_path, capsys):
        path = tmp_path / "scene.json"
        path.write_text('{\n "obstacles": [,]\n}\n')
        assert main(["solve", "--scene", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_unknown_scene_key(self, tmp_path, capsys):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(scene_dict(wavelength=3.0)))
        assert main(["solve", "--scene", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "error[config]" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["solve", "--scene", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("argv", [
        ["hull", "--tau-min", "10", "--tau-max", "20"],  # tau grid spans under 3x
        ["solve", "--mesh-nodes", "12"],
        ["solve", "--trace-n", "500"],  # not a power of two
    ])
    def test_flag_out_of_domain(self, scene_file, tmp_path, capsys, argv):
        code = main(argv + ["--scene", str(scene_file), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error[config]" in capsys.readouterr().err


    @pytest.mark.parametrize("argv", [
        ["farfield", "--alpha-min", "nan"],
        ["hull", "--tau-min", "nan"],
        ["farfield", "--alpha-max", "inf"],
        ["hull", "--tau-max", "inf"],
        ["lsm", "--grid-n", "0"],
        ["farfield", "--directions", "0"],
        ["lsm", "--directions", "0"],
        ["farfield", "--sample-point", "nan", "0"],
    ])
    def test_non_finite_or_empty_flag_is_usage_error(self, scene_file, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--scene", str(scene_file), "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert f"argument {argv[1]}" in capsys.readouterr().err


class TestExitCodes:
    def test_near_field_is_solver_error(self, tmp_path, capsys):
        # the measurement circle passes within 3 panel lengths of the corners
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(scene_dict(R=0.72)))
        assert main(["solve", "--scene", str(path), "--out", str(tmp_path / "o")]) == 4
        assert "error[solver]" in capsys.readouterr().err

    def test_no_usable_direction_is_reconstruction_error(self, scene_file, tmp_path, capsys):
        # both directions are side normals of the square and get filtered
        code = main(["hull", "--scene", str(scene_file), "--out", str(tmp_path / "o"),
                     "--directions", "2"])
        assert code == 5
        assert "error[reconstruction]" in capsys.readouterr().err


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```bash\n(.*?)```", readme, re.S)
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("enclosure2d ")]
    assert lines
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line, comments=True)[1:])


class TestHull:
    def test_tau_beyond_trace_resolution(self, scene_file, tmp_path, capsys):
        code = main([
            "hull", "--scene", str(scene_file), "--out", str(tmp_path / "o"),
            "--tau-max", "400",
        ])
        assert code == 3
        assert "error[resolution]" in capsys.readouterr().err

    def test_small_sweep(self, scene_file, tmp_path):
        out = tmp_path / "hull"
        code = main([
            "hull", "--scene", str(scene_file), "--out", str(out),
            "--directions", "8",
        ])
        assert code == 0
        hull = json.loads((out / "hull.json").read_text())
        assert len(hull["vertices"]) >= 3
        diagnostics = json.loads((out / "diagnostics.json").read_text())
        # the 8-direction grid hits all four side normals
        assert diagnostics["filtered_non_regular"] == 4
        rows = [l for l in (out / "supports.csv").read_text().splitlines()
                if not l.startswith("#")]
        assert len(rows) == 1 + 8


class TestFarfieldAndLsm:
    def test_farfield_sweep(self, scene_file, tmp_path):
        out = tmp_path / "ff"
        code = main([
            "farfield", "--scene", str(scene_file), "--out", str(out),
            "--disc-radius", "0.8", "--directions", "32",
        ])
        assert code == 0
        sweep = json.loads((out / "sweep.json").read_text())
        assert sweep["no_plateau"] is False  # disc probed at its center
        assert len(sweep["alphas"]) == len(sweep["norms"])
        assert len(sweep["singular_values"]) == len(sweep["picard"]) == 32
        assert np.all(np.diff(sweep["singular_values"]) <= 0)

    def test_lsm_heatmap(self, scene_file, tmp_path):
        out = tmp_path / "lsm"
        code = main([
            "lsm", "--scene", str(scene_file), "--out", str(out),
            "--disc-radius", "0.8", "--directions", "16", "--grid-n", "5",
        ])
        assert code == 0
        rows = [l for l in (out / "heatmap.csv").read_text().splitlines()
                if not l.startswith("#")]
        assert len(rows) == 1 + 25

    def test_oracle_check(self, scene_file, tmp_path):
        out = tmp_path / "oracle"
        assert main(["oracle-check", "--scene", str(scene_file), "--out", str(out)]) == 0
        payload = json.loads((out / "oracle.json").read_text())
        assert payload["boundary_neumann_residual"] < 1e-10
