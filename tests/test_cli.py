"""End-to-end command driver tests (in-process main())."""

import json
import re
import shlex
import time
from pathlib import Path

import numpy as np
import pytest

from enclosure2d import cli
from enclosure2d.cli import build_parser, main
from enclosure2d.farfield import assemble_far_field_operator, lsm_indicator_map
from enclosure2d.geometry import Scene, hausdorff_distance
from enclosure2d.indicator import B_MAX, B_MIN
from enclosure2d.trace import PROBE_TABLE_MAX_ENTRIES

from conftest import SQUARE_VERTS, TWO_BOXES

README = Path(__file__).resolve().parents[1] / "README.md"


def _never(*args, **kwargs):
    raise AssertionError("called after the flags were refused")


class _Reached(Exception):
    """Raised by a stage patched in to show that a run got past its flag checks."""


def _reached(*args, **kwargs):
    raise _Reached


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

    @pytest.mark.parametrize("mesh_nodes, factorization", [(64, "inverse"), (136, "single-refined")])
    def test_solver_json_names_the_factorization(self, scene_file, tmp_path, mesh_nodes, factorization):
        # 256 nodes are inverted, whose condition is exact; 544 take the
        # complex64 LU, whose condition is cgecon's estimate
        out = tmp_path / "out"
        assert main(["solve", "--scene", str(scene_file), "--out", str(out), "--mesh-nodes", str(mesh_nodes)]) == 0
        solver = json.loads((out / "solver.json").read_text())
        assert solver["factorization"] == factorization
        assert np.isfinite(solver["condition_estimate"])
        assert solver["residual_norm"] < 1e-8

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

    @pytest.mark.parametrize("body", [
        [[1]],
        5,
        scene_dict(R="two"),
        scene_dict(k=None),
        scene_dict(obstacles=[[[-0.5, -0.5], [0.5], [0.5, 0.5]]]),  # ragged vertex list
        scene_dict(source=[6.0, 0.0, 0.0]),
        scene_dict(k=float("nan")),  # Python's json reads NaN and Infinity
        scene_dict(obstacles=[[[-0.5, -0.5], [float("nan"), -0.5], [0.5, 0.5]]]),
        scene_dict(R=True),  # read as R = 1.0, the solve used to exit 4
        scene_dict(source=[6.0, False]),  # read as (6, 0), the solve used to run
        scene_dict(center=[0.0, False]),
        scene_dict(k=True),
        scene_dict(obstacles=[[[-0.5, -0.5], [0.5, -0.5], [0.5, True]]]),
        scene_dict(R=0.0),
        scene_dict(k=-2.0),
        scene_dict(R1=2.0),  # R1 must exceed R
        {key: value for key, value in scene_dict().items() if key != "k"},
    ], ids=["list", "number", "R-text", "k-null", "ragged-vertices", "3d-source", "k-nan", "vertex-nan",
            "R-true", "source-false", "center-false", "k-true", "vertex-true", "R-zero", "k-negative", "R1-at-R",
            "missing-k"])
    def test_malformed_scene_body(self, tmp_path, capsys, body):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(body))
        assert main(["solve", "--scene", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "error[config]" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["hull", "--tau-min", "10", "--tau-max", "20"],  # tau grid spans under 3x
        ["solve", "--mesh-nodes", "12"],
        ["solve", "--trace-n", "500"],  # not a power of two
        ["farfield", "--alpha-max", "1e300", "--alpha-min", "1e-300"],  # ratio overflows
        ["solve", "--trace-n", "1"],  # one node: a power of two, but no trace
        ["hull", "--trace-n", "1"],
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
        ["hull", "--tau-min", "eight"],
        ["hull", "--directions", "many"],
    ])
    def test_non_finite_or_empty_flag_is_usage_error(self, scene_file, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--scene", str(scene_file), "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert f"argument {argv[1]}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "hull", "farfield", "lsm"])
    def test_grade_is_not_a_flag(self, scene_file, tmp_path, capsys, command):
        # the mesh's corner grading is fixed, forward.GRADING_RATIO
        with pytest.raises(SystemExit) as exc:
            main([command, "--grade", "4", "--scene", str(scene_file), "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --grade 4" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "hull", "farfield", "lsm"])
    def test_command_needs_an_obstacle(self, tmp_path, capsys, monkeypatch, command):
        # refused before any operator is built
        monkeypatch.setattr(cli, "assemble_far_field_operator", _never)
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(scene_dict(obstacles=[])))
        assert main([command, "--scene", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "requires at least one obstacle" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["farfield", "lsm"])
    def test_disc_radius_needs_no_obstacle(self, tmp_path, command):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(scene_dict(obstacles=[])))
        argv = [command, "--scene", str(path), "--out", str(tmp_path / "o")]
        assert main(argv + ["--disc-radius", "0.8", "--directions", "16"]) == 0

    @pytest.mark.parametrize("argv", [
        ["--alpha-min", "1e-4", "--alpha-max", "1e-2"],  # 2 decades, under the sweep's 4
        ["--alpha-min", "1e-2", "--alpha-max", "1e-8"],  # alpha-min above alpha-max: an increasing sweep
        ["--alpha-min", "1e-2", "--alpha-max", "1e-2"],
    ], ids=["two-decades", "min-above-max", "min-at-max"])
    @pytest.mark.parametrize("disc", [[], ["--disc-radius", "0.8"]], ids=["polygon", "disc"])
    def test_alpha_sweep_refused_before_the_operator(self, scene_file, tmp_path, capsys, monkeypatch, argv, disc):
        monkeypatch.setattr(cli, "assemble_far_field_operator", _never)
        monkeypatch.setattr(cli, "disc_far_field_operator", _never)
        out = tmp_path / "o"
        argv = ["farfield", "--scene", str(scene_file), "--out", str(out), "--directions", "512"] + argv + disc
        assert main(argv) == 2
        assert "error[config]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["farfield", "lsm"])
    def test_trace_n_is_not_a_far_field_flag(self, scene_file, tmp_path, capsys, command):
        # neither command reads a trace, so the flag is refused, not ignored
        with pytest.raises(SystemExit) as exc:
            main([command, "--trace-n", "512", "--scene", str(scene_file), "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --trace-n 512" in capsys.readouterr().err


class TestExitCodes:
    def test_near_field_is_solver_error(self, tmp_path, capsys):
        # the measurement circle passes within 3 panel lengths of the corners
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(scene_dict(R=0.72)))
        assert main(["solve", "--scene", str(path), "--out", str(tmp_path / "o")]) == 4
        assert "error[solver]" in capsys.readouterr().err

    def test_source_near_the_boundary_is_solver_error(self, tmp_path, capsys):
        # the source circle passes 0.5 from the square's side, within 3 of its 0.23-long middle panels
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(scene_dict(R=0.9, R1=1.0, source=[1.0, 0.0])))
        assert main(["solve", "--scene", str(path), "--out", str(tmp_path / "o")]) == 4
        assert "error[solver]: point source within 3 panel lengths" in capsys.readouterr().err

    def test_mesh_past_the_system_budget(self, scene_file, tmp_path, capsys):
        # 262,144 nodes: a 1 TiB dense system, refused before assembly
        code = main(["solve", "--scene", str(scene_file), "--out", str(tmp_path / "o"), "--mesh-nodes", "65536"])
        assert code == 3
        assert "error[resolution]" in capsys.readouterr().err

    def test_probe_table_past_its_budget(self, scene_file, tmp_path, capsys, monkeypatch):
        # 4097 tau over the 512 trace nodes: refused before the grid is formed or the scene solved
        monkeypatch.setattr(np, "geomspace", _never)
        monkeypatch.setattr(cli, "build_mesh", _never)
        argv = ["hull", "--scene", str(scene_file), "--out", str(tmp_path / "o")]
        assert main(argv + ["--tau-count", str(PROBE_TABLE_MAX_ENTRIES // 512 + 1)]) == 3
        assert "error[resolution]" in capsys.readouterr().err
        monkeypatch.setattr(np, "geomspace", _reached)
        with pytest.raises(_Reached):
            main(argv + ["--tau-count", str(PROBE_TABLE_MAX_ENTRIES // 512)])

    @pytest.mark.parametrize("argv, budget, stage", [
        (["hull"], cli.HULL_MAX_DIRECTIONS, "build_mesh"),
        (["farfield"], cli.OPERATOR_MAX_DIRECTIONS, "assemble_far_field_operator"),
        (["farfield", "--disc-radius", "0.8"], cli.OPERATOR_MAX_DIRECTIONS, "disc_far_field_operator"),
        (["lsm"], cli.OPERATOR_MAX_DIRECTIONS, "assemble_far_field_operator"),
        (["lsm", "--disc-radius", "0.8"], cli.OPERATOR_MAX_DIRECTIONS, "disc_far_field_operator"),
    ], ids=["hull", "farfield", "farfield-disc", "lsm", "lsm-disc"])
    def test_directions_past_their_budget(self, scene_file, tmp_path, capsys, monkeypatch, argv, budget, stage):
        # one direction past the budget is refused before the mesh or the
        # operator is built; the budget itself gets there
        argv = argv + ["--scene", str(scene_file), "--out", str(tmp_path / "o")]
        monkeypatch.setattr(cli, stage, _never)
        assert main(argv + ["--directions", str(budget + 1)]) == 3
        assert "error[resolution]" in capsys.readouterr().err
        monkeypatch.setattr(cli, stage, _reached)
        with pytest.raises(_Reached):
            main(argv + ["--directions", str(budget)])

    def test_lsm_grid_past_its_budget(self, scene_file, tmp_path, capsys, monkeypatch):
        # a 257 x 257 grid passes 2^16 points: refused before the operator or the grid is built
        monkeypatch.setattr(cli, "_far_field_operator", _never)
        start = time.monotonic()
        code = main(["lsm", "--scene", str(scene_file), "--out", str(tmp_path / "o"), "--grid-n", "257"])
        assert time.monotonic() - start < 1.0
        assert code == 3
        assert "error[resolution]" in capsys.readouterr().err

    def test_no_usable_direction_is_reconstruction_error(self, scene_file, tmp_path, capsys):
        # both directions are fitted, but two half-planes cannot bound a hull
        code = main(["hull", "--scene", str(scene_file), "--out", str(tmp_path / "o"),
                     "--directions", "2"])
        assert code == 5
        assert "error[reconstruction]" in capsys.readouterr().err


def test_readme_command_lines_parse():
    blocks = re.findall(r"```bash\n(.*?)```", README.read_text(), re.S)
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("enclosure2d ")]
    assert lines
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line, comments=True)[1:])


def test_readme_python_quick_start_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    (square,) = namespace["scene"].obstacles
    assert hausdorff_distance(namespace["hull"], square.vertices) < 0.05 * square.diameter


class TestHull:
    @pytest.mark.parametrize("argv", [
        ["--tau-max", "20"],  # spans 2.5 from the default tau-min 8
        ["--tau-count", "7"],
        ["--tau-max", "8"],  # one tau repeated
        ["--tau-max", "0"],
        ["--tau-min", "-8"],
    ])
    def test_tau_grid_refused_before_the_solve(self, scene_file, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.setattr(cli, "build_mesh", _never)
        monkeypatch.setattr(cli, "solve_scattering", _never)
        assert main(["hull", "--scene", str(scene_file), "--out", str(tmp_path / "o")] + argv) == 2
        assert "error[config]" in capsys.readouterr().err

    def test_tau_beyond_trace_resolution(self, scene_file, tmp_path, capsys):
        code = main([
            "hull", "--scene", str(scene_file), "--out", str(tmp_path / "o"),
            "--tau-max", "400",
        ])
        assert code == 3
        assert "error[resolution]" in capsys.readouterr().err

    def test_trace_holding_the_probe_band_runs(self, scene_file, tmp_path):
        # tau up to 40 needs 2 kappa R = 160.2 nodes, so 256 hold the band
        code = main(["hull", "--scene", str(scene_file), "--out", str(tmp_path / "o"),
                     "--trace-n", "256", "--directions", "8"])
        assert code == 0

    def test_small_sweep(self, scene_file, tmp_path):
        out = tmp_path / "hull"
        code = main([
            "hull", "--scene", str(scene_file), "--out", str(out),
            "--directions", "8",
        ])
        assert code == 0
        hull = np.array(json.loads((out / "hull.json").read_text())["vertices"])
        assert hausdorff_distance(hull, SQUARE_VERTS) < 0.05 * np.sqrt(2)
        diagnostics = json.loads((out / "diagnostics.json").read_text())
        # the 8-direction grid holds all four side normals; none is dropped
        assert diagnostics["filtered_non_regular"] == 0
        rows = [l for l in (out / "supports.csv").read_text().splitlines()
                if not l.startswith("#")]
        assert len(rows) == 1 + 8
        assert rows[0] == "angle,h_hat,residual_rms,b,n_used,fit,status"
        assert [r.split(",")[-1] for r in rows[1:]] == ["usable"] * 8
        assert all(B_MIN <= float(r.split(",")[3]) <= B_MAX for r in rows[1:])
        # the side normals are ties the envelope cannot fit; the corner
        # directions between them are single-corner envelopes
        assert [r.split(",")[5] for r in rows[1:]] == ["two_term", "envelope"] * 4

    def test_sparse_direction_is_dropped_not_fatal(self, tmp_path):
        # on the two boxes with tau up to 60, some directions keep fewer than
        # 8 usable samples (on the default grid, to tau 40, each keeps at
        # least 8); they are left out of the hull, not fatal to the command
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(scene_dict(obstacles=[box.tolist() for box in TWO_BOXES])))
        out = tmp_path / "hull"
        assert main(["hull", "--scene", str(path), "--out", str(out), "--tau-max", "60"]) == 0
        rows = [l.split(",") for l in (out / "supports.csv").read_text().splitlines()
                if not l.startswith("#")]
        assert ["none", "unusable"] in [r[5:] for r in rows[1:]]

    def test_plane_wave_mode(self, scene_file, tmp_path):
        out = tmp_path / "hull"
        code = main(["hull", "--scene", str(scene_file), "--out", str(out),
                     "--mode", "planewave", "--plane-angle", "0"])
        assert code == 0
        hull = np.array(json.loads((out / "hull.json").read_text())["vertices"])
        assert hausdorff_distance(hull, SQUARE_VERTS) < 0.05 * np.sqrt(2)
        rows = [l for l in (out / "supports.csv").read_text().splitlines() if not l.startswith("#")]
        # every number column is a plain float literal on both fit paths
        assert {r.split(",")[5] for r in rows[1:]} == {"envelope", "two_term"}
        assert np.all(np.isfinite([[float(v) for v in r.split(",")[:5]] for r in rows[1:]]))


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
        s = np.array(sweep["singular_values"])
        assert sweep["resolved_modes"] == np.count_nonzero(s > 32 * np.finfo(float).eps * s[0])

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

    def test_disc_radius_follows_the_scene_center(self, tmp_path):
        # the map spans B_R about the centre, so the disc must sit there too
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(scene_dict(obstacles=[], center=[3.0, 0.0], source=[9.0, 0.0])))
        out = tmp_path / "lsm"
        assert main(["lsm", "--scene", str(path), "--out", str(out), "--disc-radius", "0.5",
                     "--directions", "32", "--grid-n", "21"]) == 0
        rows = [l.split(",") for l in (out / "heatmap.csv").read_text().splitlines() if not l.startswith("#")]
        x, y, value = np.array([[float(v) for v in r] for r in rows[1:]]).T
        peak = np.argmax(value)
        assert np.hypot(x[peak] - 3.0, y[peak]) < 0.5

    def test_polygon_operator_without_disc_radius(self, scene_file, tmp_path):
        ff, lsm = tmp_path / "ff", tmp_path / "lsm"
        assert main(["farfield", "--scene", str(scene_file), "--out", str(ff), "--directions", "8"]) == 0
        assert main(["lsm", "--scene", str(scene_file), "--out", str(lsm),
                     "--directions", "8", "--grid-n", "5"]) == 0
        rows = [l for l in (ff / "operator.csv").read_text().splitlines() if not l.startswith("#")]
        assert len(rows) == 1 + 8 * 8
        sweep = json.loads((ff / "sweep.json").read_text())
        assert len(sweep["singular_values"]) == 8 and sweep["singular_values"][0] > 0
        # the files hold the operator, row by row, and the map over the grid, y by y and x fastest, bitwise
        op = assemble_far_field_operator(Scene.from_dict(scene_dict()), 8, 8)
        table = [r.split(",") for r in rows[1:]]
        assert [(int(i), int(j)) for i, j, *_ in table] == [(i, j) for i in range(8) for j in range(8)]
        np.testing.assert_array_equal([complex(float(re), float(im)) for *_, re, im in table], op.matrix.ravel())
        rows = [l for l in (lsm / "heatmap.csv").read_text().splitlines() if not l.startswith("#")]
        heat = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        xs = np.linspace(-2.0, 2.0, 5)
        grid = np.array([[x, y] for y in xs for x in xs])
        np.testing.assert_array_equal(heat[:, :2], grid)
        np.testing.assert_array_equal(heat[:, 2], lsm_indicator_map(op, grid))
        assert np.all(np.isfinite(heat[:, 2]) & (heat[:, 2] > 0))

    def test_lsm_grid_is_centred_on_the_scene(self, tmp_path):
        # the square moved to x in [2.5, 3.5]: the map spans the scene's B_R, not the origin's
        center = np.array([3.0, 0.0])
        data = scene_dict(obstacles=[(SQUARE_VERTS + center).tolist()], center=center.tolist(), source=[9.0, 0.0])
        path, out = tmp_path / "scene.json", tmp_path / "lsm"
        path.write_text(json.dumps(data))
        assert main(["lsm", "--scene", str(path), "--out", str(out), "--directions", "8", "--grid-n", "5"]) == 0
        rows = [l for l in (out / "heatmap.csv").read_text().splitlines() if not l.startswith("#")]
        heat = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        xs = np.linspace(-2.0, 2.0, 5)
        np.testing.assert_array_equal(heat[:, :2], [[3.0 + x, y] for y in xs for x in xs])
        op = assemble_far_field_operator(Scene.from_dict(data), 8, 8)
        np.testing.assert_array_equal(heat[:, 2], lsm_indicator_map(op, heat[:, :2]))


class TestConfigHash:
    def test_hash_names_the_scene_not_its_path(self, tmp_path):
        # two copies of the square in two directories hash alike in every
        # file that hull writes; moving one vertex changes the hash
        def hashes(name, data):
            path = tmp_path / name / "scene.json"
            path.parent.mkdir()
            path.write_text(json.dumps(data))
            out = tmp_path / name / "hull"
            assert main(["hull", "--scene", str(path), "--out", str(out)]) == 0
            return {p.name: re.findall(r"config.hash\W+(\w+)", p.read_text()) for p in out.iterdir()}

        first = hashes("a", scene_dict())
        assert sorted(first) == ["diagnostics.json", "hull.json", "supports.csv"]
        assert len({h for found in first.values() for h in found}) == 1
        assert all(len(found) == 1 for found in first.values())
        assert hashes("b", scene_dict()) == first
        moved = scene_dict(obstacles=[[[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.4, 0.5]]])
        assert hashes("c", moved)["hull.json"] != first["hull.json"]


class TestJsonOutput:
    def test_every_json_file_is_strict(self, scene_file, tmp_path):
        # Python's json reads NaN and Infinity; strict parsers do not
        def refuse(name):
            raise AssertionError(f"non-standard JSON constant {name}")

        for command in ("solve", "hull", "farfield"):
            out = tmp_path / command
            assert main([command, "--scene", str(scene_file), "--out", str(out)]) == 0
            paths = sorted(out.glob("*.json"))
            assert paths
            for path in paths:
                json.loads(path.read_text(), parse_constant=refuse)

    def test_nan_in_a_json_file_raises(self, tmp_path):
        args = build_parser().parse_args(["solve", "--scene", "s", "--out", "o"])
        with pytest.raises(ValueError):
            cli._write_json(tmp_path / "x.json", args, {"value": float("nan")})
